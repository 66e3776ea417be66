#include "aig/opt.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <tuple>

#include "aig/convert.hpp"
#include "network/factor.hpp"
#include "network/simulate.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::aig {
namespace {

/// Exhaustive equivalence of two AIGs over up to 16 inputs.
void expect_aig_equivalent(const Aig& a, const Aig& b) {
    ASSERT_EQ(a.input_count(), b.input_count());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    const int n = static_cast<int>(a.input_count());
    ASSERT_LE(n, 16);
    for (std::size_t o = 0; o < a.outputs().size(); ++o) {
        ASSERT_EQ(a.to_truth_table(a.outputs()[o], n),
                  b.to_truth_table(b.outputs()[o], n))
            << "output " << o;
    }
}

Aig random_aig(int inputs, int gates, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Aig aig;
    std::vector<Lit> pool;
    for (int i = 0; i < inputs; ++i) pool.push_back(aig.add_input());
    for (int g = 0; g < gates; ++g) {
        Lit a = pool[rng() % pool.size()];
        Lit b = pool[rng() % pool.size()];
        if (rng() & 1) a = lit_not(a);
        if (rng() & 1) b = lit_not(b);
        pool.push_back(aig.land(a, b));
    }
    for (int o = 0; o < 4 && o < static_cast<int>(pool.size()); ++o) {
        aig.add_output(pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
    }
    return aig;
}

TEST(Balance, PreservesFunctionAndReducesDepth) {
    // A long unbalanced AND chain: balance must make depth logarithmic.
    Aig aig;
    std::vector<Lit> ins;
    for (int i = 0; i < 16; ++i) ins.push_back(aig.add_input());
    Lit acc = ins[0];
    for (int i = 1; i < 16; ++i) acc = aig.land(acc, ins[i]);
    aig.add_output(acc);
    EXPECT_EQ(aig.level(), 15);
    const Aig balanced = balance(aig);
    expect_aig_equivalent(aig, balanced);
    EXPECT_EQ(balanced.level(), 4) << "16-leaf AND tree balances to depth 4";
    EXPECT_EQ(balanced.and_count(), 15u);
}

TEST(Balance, RandomAigsAreInvariant) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Aig aig = random_aig(8, 60, seed);
        const Aig balanced = balance(aig);
        expect_aig_equivalent(aig, balanced);
        EXPECT_LE(balanced.level(), aig.level());
    }
}

TEST(Rewrite, PreservesFunctionOnRandomAigs) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Aig aig = random_aig(8, 80, seed);
        const Aig rewritten = rewrite(aig);
        expect_aig_equivalent(aig, rewritten);
        EXPECT_LE(rewritten.and_count(), aig.and_count())
            << "rewriting must never grow the reachable AIG";
    }
}

TEST(Rewrite, CompactsRedundantStructure) {
    // (a&b)|(a&c) built literally: 3 ANDs; rewriting should reach the
    // factored a&(b|c): 2 ANDs.
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    const Lit c = aig.add_input();
    aig.add_output(aig.lor(aig.land(a, b), aig.land(a, c)));
    ASSERT_EQ(aig.and_count(), 3u);
    const Aig rewritten = rewrite(aig);
    expect_aig_equivalent(aig, rewritten);
    EXPECT_EQ(rewritten.and_count(), 2u);
}

TEST(Rewrite, LargerCutsActAsRefactor) {
    // A 6-input redundant cone: the K=8 pass must see through it.
    Aig aig;
    std::vector<Lit> ins;
    for (int i = 0; i < 6; ++i) ins.push_back(aig.add_input());
    // (x0|x1)&(x0|x2) == x0 | (x1&x2): one literal saved at cut size >= 3.
    const Lit left = aig.lor(ins[0], ins[1]);
    const Lit right = aig.lor(ins[0], ins[2]);
    aig.add_output(aig.land(left, right));
    const Aig rewritten = rewrite(aig, RewriteParams{8, 3, false});
    expect_aig_equivalent(aig, rewritten);
    EXPECT_LT(rewritten.and_count(), aig.and_count());
}

TEST(Rewrite, CutSizeMustFitTheKernel) {
    const Aig aig = random_aig(8, 80, 3);
    EXPECT_THROW((void)rewrite(aig, RewriteParams{1, 3, false}), std::invalid_argument);
    EXPECT_THROW((void)rewrite(aig, RewriteParams{9, 3, false}), std::invalid_argument);
    for (const int k : {2, 8}) {
        const Aig rewritten = rewrite(aig, RewriteParams{k, 3, false});
        expect_aig_equivalent(aig, rewritten);
        EXPECT_LE(rewritten.and_count(), aig.and_count()) << "cut size " << k;
    }
}

// ---- the fixed-width compile kernel ----------------------------------------

/// The program the generic pair records: Sop::isop, then factor_generic
/// with the rewriter's instruction-emitting callbacks.
detail::FactorProgram reference_program(const tt::TruthTable& function) {
    using detail::FactorInstr;
    detail::FactorProgram prog;
    const auto emit = [&prog](FactorInstr instr) {
        prog.instrs.push_back(instr);
        return static_cast<std::uint32_t>(prog.instrs.size() - 1);
    };
    prog.result = net::detail::factor_generic(
        net::Sop::isop(function).cubes(),
        [&](std::size_t pos, bool positive) {
            return emit({FactorInstr::kLit, static_cast<std::uint32_t>(pos),
                         positive ? 1u : 0u});
        },
        [&](std::uint32_t x, std::uint32_t y) { return emit({FactorInstr::kAnd, x, y}); },
        [&](std::uint32_t x, std::uint32_t y) { return emit({FactorInstr::kOr, x, y}); },
        [&](bool value) {
            return emit({value ? FactorInstr::kConst1 : FactorInstr::kConst0});
        });
    return prog;
}

/// The kernel's 256-bit form of a (normalized) table: words repeat.
detail::CutTable cut_table(const tt::TruthTable& function) {
    const std::vector<std::uint64_t>& w = function.words();
    detail::CutTable out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[i % w.size()];
    return out;
}

void expect_kernel_matches(const tt::TruthTable& function) {
    const detail::FactorProgram got =
        detail::compile_cut_function(cut_table(function), function.num_vars());
    const detail::FactorProgram want = reference_program(function);
    ASSERT_EQ(got.result, want.result) << function.to_hex() << " n=" << function.num_vars();
    ASSERT_EQ(got.instrs.size(), want.instrs.size())
        << function.to_hex() << " n=" << function.num_vars();
    for (std::size_t i = 0; i < want.instrs.size(); ++i) {
        ASSERT_EQ(got.instrs[i].op, want.instrs[i].op) << function.to_hex() << " @" << i;
        ASSERT_EQ(got.instrs[i].a, want.instrs[i].a) << function.to_hex() << " @" << i;
        ASSERT_EQ(got.instrs[i].b, want.instrs[i].b) << function.to_hex() << " @" << i;
    }
}

TEST(CompileCutFunction, MatchesGenericCompileExhaustivelyUpToFourVars) {
    for (int n = 2; n <= 4; ++n) {
        const std::uint64_t count = std::uint64_t{1} << (1u << n);
        for (std::uint64_t bits = 0; bits < count; ++bits) {
            const tt::TruthTable f =
                tt::TruthTable::from_fn(n, [bits](std::uint64_t m) { return (bits >> m) & 1; });
            expect_kernel_matches(f);
            if (HasFatalFailure()) return;
        }
    }
}

/// 20,000 seeded random functions per width, in four shards of 5,000 so
/// the wide widths (where the generic oracle is slow) run in parallel.
class CompileCutFunctionRandom : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompileCutFunctionRandom, MatchesGenericCompile) {
    const auto [n, shard] = GetParam();
    std::mt19937_64 rng(0xc0ffee + static_cast<std::uint64_t>(16 * n + shard));
    for (int i = 0; i < 5000; ++i) {
        expect_kernel_matches(tt::TruthTable::random(n, rng));
        if (HasFatalFailure()) return;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, CompileCutFunctionRandom,
    ::testing::Combine(::testing::Values(5, 6, 7, 8), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
        return "n" + std::to_string(std::get<0>(info.param)) + "_shard" +
               std::to_string(std::get<1>(info.param));
    });

TEST(CompileCutFunction, ConstantsAndLiteralsAtEveryWidth) {
    for (int n = 0; n <= 8; ++n) {
        expect_kernel_matches(tt::TruthTable::zeros(n));
        expect_kernel_matches(tt::TruthTable::ones(n));
        for (int v = 0; v < n; ++v) {
            const tt::TruthTable x = tt::TruthTable::var(n, v);
            expect_kernel_matches(x);
            expect_kernel_matches(~x);
        }
    }
    EXPECT_THROW((void)detail::compile_cut_function(detail::CutTable{}, 9),
                 std::invalid_argument);
}

TEST(Resyn2, RandomAigsShrinkOrHold) {
    for (std::uint64_t seed = 11; seed <= 16; ++seed) {
        const Aig aig = random_aig(10, 120, seed);
        const Aig optimized = resyn2(aig);
        expect_aig_equivalent(aig, optimized);
        EXPECT_LE(optimized.and_count(), aig.and_count());
    }
}

TEST(Resyn2, XorTreeSurvivesIntact) {
    Aig aig;
    std::vector<Lit> ins;
    for (int i = 0; i < 8; ++i) ins.push_back(aig.add_input());
    Lit acc = ins[0];
    for (int i = 1; i < 8; ++i) acc = aig.lxor(acc, ins[i]);
    aig.add_output(acc);
    const Aig optimized = resyn2(aig);
    expect_aig_equivalent(aig, optimized);
    // Each XOR costs 3 ANDs; no smaller AIG exists.
    EXPECT_EQ(optimized.and_count(), 21u);
}

// ---- conversions -----------------------------------------------------------

TEST(Convert, NetworkRoundTripThroughAig) {
    std::mt19937_64 rng(1701);
    for (int trial = 0; trial < 8; ++trial) {
        net::Network network;
        std::vector<net::NodeId> pool;
        for (int i = 0; i < 6; ++i) {
            pool.push_back(network.add_input("i" + std::to_string(i)));
        }
        for (int g = 0; g < 40; ++g) {
            const auto pick = [&] { return pool[rng() % pool.size()]; };
            switch (rng() % 6) {
                case 0: pool.push_back(network.add_and(pick(), pick())); break;
                case 1: pool.push_back(network.add_or(pick(), pick())); break;
                case 2: pool.push_back(network.add_xor(pick(), pick())); break;
                case 3: pool.push_back(network.add_maj(pick(), pick(), pick())); break;
                case 4: pool.push_back(network.add_mux(pick(), pick(), pick())); break;
                default: pool.push_back(network.add_not(pick())); break;
            }
        }
        for (int o = 0; o < 3; ++o) {
            network.add_output("o" + std::to_string(o),
                               pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
        }
        const Aig aig = network_to_aig(network);
        const net::Network back = aig_to_network(
            aig, {"i0", "i1", "i2", "i3", "i4", "i5"}, {"o0", "o1", "o2"});
        ASSERT_TRUE(net::check_equivalent(network, back).equivalent)
            << "trial " << trial;
    }
}

TEST(Convert, XorMotifIsRecovered) {
    net::Network network;
    const net::NodeId a = network.add_input("a");
    const net::NodeId b = network.add_input("b");
    network.add_output("y", network.add_xor(a, b));
    const Aig aig = network_to_aig(network);
    const net::Network back = aig_to_network(aig, {"a", "b"}, {"y"});
    EXPECT_TRUE(net::check_equivalent(network, back).equivalent);
    const auto s = back.stats();
    EXPECT_EQ(s.xor_nodes + s.xnor_nodes, 1) << "motif must map back to XOR";
    EXPECT_EQ(s.and_nodes + s.or_nodes, 0);
}

TEST(Convert, MotifDetectionCanBeDisabled) {
    net::Network network;
    const net::NodeId a = network.add_input("a");
    const net::NodeId b = network.add_input("b");
    network.add_output("y", network.add_xor(a, b));
    const Aig aig = network_to_aig(network);
    AigToNetworkOptions options;
    options.detect_xor_mux = false;
    const net::Network back = aig_to_network(aig, {"a", "b"}, {"y"}, options);
    EXPECT_TRUE(net::check_equivalent(network, back).equivalent);
    EXPECT_EQ(back.stats().xor_nodes + back.stats().xnor_nodes, 0);
}

TEST(Convert, SopCoversEnterFactored) {
    net::Network network;
    std::vector<net::NodeId> ins;
    for (int i = 0; i < 4; ++i) ins.push_back(network.add_input("i" + std::to_string(i)));
    net::Sop cover(4);
    cover.add_pattern("11--");
    cover.add_pattern("1-1-");
    cover.add_pattern("1--1");
    network.add_output("y", network.add_sop(ins, cover, "y"));
    const Aig aig = network_to_aig(network);
    // Factored form a(b+c+d): 3 ANDs; the flat form would use 5.
    EXPECT_LE(aig.and_count(), 3u);
    const net::Network back =
        aig_to_network(aig, {"i0", "i1", "i2", "i3"}, {"y"});
    EXPECT_TRUE(net::check_equivalent(network, back).equivalent);
}

TEST(Convert, ConstantOutputs) {
    net::Network network;
    (void)network.add_input("a");
    network.add_output("zero", network.add_constant(false));
    network.add_output("one", network.add_constant(true));
    const Aig aig = network_to_aig(network);
    const net::Network back = aig_to_network(aig, {"a"}, {"zero", "one"});
    EXPECT_TRUE(net::check_equivalent(network, back).equivalent);
}

}  // namespace
}  // namespace bdsmaj::aig
