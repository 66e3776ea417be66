// Exact small-cone synthesis: the 222 four-input NPN classes through the
// chain synthesizer, the process-wide class cache, and the
// de-canonicalizing replay of cones of up to four support variables
// (padded to four inputs) into a GateSink.

#include "decomp/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "decomp/exact_sat.hpp"
#include "network/builder.hpp"
#include "network/gate_tape.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using bdd::Bdd;
using bdd::Manager;
using net::Signal;

/// The four-input synthesis the exact strategy runs for a class.
ExactSatResult synthesize_four(std::uint16_t canonical) {
    ExactSatParams params;
    params.conflict_budget = kExactConflictBudget;
    return exact_sat_synthesize(canonical, 4, params);
}

/// The cached program for a four-input class, synthesizing it on a miss.
std::shared_ptr<const WideStructure> program_for(std::uint16_t canonical) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    if (auto s = cache.lookup_wide(4, canonical)) return s;
    const ExactSatResult res = synthesize_four(canonical);
    EXPECT_EQ(res.status, ExactSatStatus::kFound) << "class " << canonical;
    return cache.insert_wide(res.structure);
}

/// Every four-input NPN class representative, ascending.
std::vector<std::uint16_t> four_input_classes() {
    std::vector<bool> seen(65536, false);
    std::vector<std::uint16_t> classes;
    for (int f = 0; f < 0x10000; ++f) {
        const std::uint16_t cls = tt::npn_canonical(static_cast<std::uint16_t>(f));
        if (seen[cls]) continue;
        seen[cls] = true;
        classes.push_back(cls);
    }
    std::sort(classes.begin(), classes.end());
    return classes;
}

TEST(Exact, CostsAreSaneOverAllFunctions) {
    // Constants and literals are free; one gate of the alphabet (with free
    // polarities) is one step; AND-4 and parity-4 take three.
    const auto gates = [](std::uint16_t f) {
        return synthesize_four(tt::npn_canonical(f)).structure->gate_count();
    };
    constexpr std::uint16_t a = 0xaaaa, b = 0xcccc, c = 0xf0f0, d = 0xff00;
    EXPECT_EQ(gates(0x0000), 0);
    EXPECT_EQ(gates(0xffff), 0);
    EXPECT_EQ(gates(a), 0);
    EXPECT_EQ(gates(static_cast<std::uint16_t>(~a)), 0);
    EXPECT_EQ(gates(a & b), 1);
    EXPECT_EQ(gates(static_cast<std::uint16_t>(~(a | b))), 1);
    EXPECT_EQ(gates(a ^ b), 1);
    EXPECT_EQ(gates((a & b) | (a & c) | (b & c)), 1);  // MAJ-3
    EXPECT_EQ(gates((a & b) | (~a & c)), 1);          // MUX
    EXPECT_EQ(gates(a & b & c), 2);
    EXPECT_EQ(gates(a & b & c & d), 3);  // no constant operands: no MAJ(a, b, 0)
    EXPECT_EQ(gates(a ^ b ^ c ^ d), 3);
}

TEST(Exact, EveryNpnClassStructureComputesItsClass) {
    // Every class is found under the strategy's fixed budget, validated by
    // eval_tt, and the gate counts form the pinned histogram: 718 gates
    // over the 222 classes, 5 at most.
    const std::vector<std::uint16_t> classes = four_input_classes();
    ASSERT_EQ(static_cast<int>(classes.size()), tt::npn_class_count());
    std::map<int, int> histogram;
    long long conflicts = 0;
    for (const std::uint16_t cls : classes) {
        const ExactSatResult res = synthesize_four(cls);
        ASSERT_EQ(res.status, ExactSatStatus::kFound) << "class " << cls;
        ASSERT_EQ(res.structure->num_inputs, 4);
        ASSERT_EQ(res.structure->canonical, cls);
        ASSERT_EQ(res.structure->eval_tt(), cls) << "class " << cls;
        EXPECT_EQ(res.structure->gate_count(), res.steps_tried) << "class " << cls;
        ++histogram[res.structure->gate_count()];
        conflicts += res.conflicts;
    }
    const std::map<int, int> pinned{{0, 2}, {1, 4}, {2, 25}, {3, 104}, {4, 83}, {5, 4}};
    EXPECT_EQ(histogram, pinned);
    EXPECT_LT(conflicts, kExactConflictBudget);
}

TEST(Exact, CachedLookupsAreHitsAndReturnTheSameProgram) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::uint16_t cls = tt::npn_canonical(0x1ee1);
    const auto first = program_for(cls);
    const std::uint64_t hits = cache.stats().hits;
    const auto second = cache.lookup_wide(4, cls);
    EXPECT_EQ(cache.stats().hits, hits + 1) << "second lookup must hit";
    EXPECT_EQ(first.get(), second.get()) << "hits share the published program";
}

TEST(Exact, ConcurrentLookupsShareOneCache) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::uint16_t cls = tt::npn_canonical(0x6996);
    // Racing workers each synthesize the class and publish it; the first
    // insert wins and everybody gets that one program.
    std::vector<std::thread> threads;
    std::vector<const WideStructure*> got(8, nullptr);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache, &got, t, cls] {
            auto s = cache.lookup_wide(4, cls);
            if (s == nullptr) s = cache.insert_wide(synthesize_four(cls).structure);
            got[static_cast<std::size_t>(t)] = s.get();
        });
    }
    for (std::thread& t : threads) t.join();
    for (int t = 0; t < 8; ++t) {
        EXPECT_EQ(got[static_cast<std::size_t>(t)], cache.lookup_wide(4, cls).get());
    }
}

/// Build a BDD for a 16-bit function over the given manager variables
/// (function input i is manager variable vars[i]).
Bdd bdd_of_tt(Manager& mgr, std::uint16_t tt, const std::vector<int>& vars) {
    Bdd f = mgr.zero();
    for (int m = 0; m < 16; ++m) {
        if (!((tt >> m) & 1)) continue;
        Bdd minterm = mgr.one();
        for (std::size_t i = 0; i < vars.size(); ++i) {
            const Bdd lit = mgr.var_bdd(vars[i]);
            minterm = mgr.apply_and(minterm, ((m >> i) & 1) ? lit : !lit);
        }
        f = mgr.apply_or(f, minterm);
    }
    return f;
}

/// Match `f`, emit its class program into a fresh network over `num_vars`
/// inputs, and check the network against `f` on every input.
void expect_emission_matches(Manager& mgr, const Bdd& f, int num_vars) {
    const std::optional<WideConeMatch> match = match_cone_wide(mgr, f, 0, 4);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->num_inputs, 4);
    EXPECT_EQ(tt::npn_canonical(static_cast<std::uint16_t>(match->tt)), match->canonical);

    net::Network network;
    net::HashedNetworkBuilder builder(network);
    std::vector<Signal> leaves;
    for (int i = 0; i < num_vars; ++i) {
        leaves.push_back(Signal{network.add_input("x" + std::to_string(i)), false});
    }
    const auto structure = program_for(static_cast<std::uint16_t>(match->canonical));
    network.add_output("f", builder.realize(
                                emit_exact_cone_wide(*match, *structure, builder, leaves)));

    const tt::TruthTable expected = mgr.to_truth_table(f, num_vars);
    for (std::uint64_t m = 0; m < (1u << num_vars); ++m) {
        std::vector<bool> input;
        for (int i = 0; i < num_vars; ++i) input.push_back((m >> i) & 1);
        ASSERT_EQ(net::simulate(network, input)[0], expected.get_bit(m))
            << "tt " << match->tt << " minterm " << m;
    }
}

TEST(Exact, MatchAndEmitReproducesTheConeFunction) {
    // Random functions of 0-4 support variables on scattered manager
    // variables, emitted into a real network and simulated against the
    // BDD.
    std::mt19937_64 rng(77);
    const std::vector<int> scattered = {1, 3, 4, 6};
    for (int width = 0; width <= 4; ++width) {
        const std::vector<int> vars(scattered.begin(), scattered.begin() + width);
        for (int trial = 0; trial < 12; ++trial) {
            SCOPED_TRACE(width);
            const auto tt16 = static_cast<std::uint16_t>(rng());
            Manager mgr(7);
            expect_emission_matches(mgr, bdd_of_tt(mgr, tt16, vars), 7);
        }
    }
}

TEST(Exact, SmallSupportFunctionsMatchToo) {
    // Degenerate supports (0..3 variables) pad to 4 canonical inputs; the
    // padding inputs are don't-cares of the class.
    Manager mgr(5);
    const Bdd f = mgr.apply_xor(mgr.var_bdd(0), mgr.var_bdd(4));
    const std::optional<WideConeMatch> match = match_cone_wide(mgr, f, 0, 4);
    ASSERT_TRUE(match.has_value());
    EXPECT_EQ(match->support_size, 2);
    EXPECT_EQ(match->num_inputs, 4);
    EXPECT_EQ(match->support[0], 0);
    EXPECT_EQ(match->support[1], 4);
    EXPECT_EQ(program_for(static_cast<std::uint16_t>(match->canonical))->gate_count(), 1)
        << "a 2-input XOR is one gate";
    expect_emission_matches(mgr, f, 5);
    expect_emission_matches(mgr, mgr.one(), 5);
    expect_emission_matches(mgr, mgr.var_bdd(2), 5);
    expect_emission_matches(
        mgr, mgr.apply_and(mgr.var_bdd(1), mgr.apply_or(mgr.var_bdd(2), !mgr.var_bdd(3))),
        5);
}

TEST(Exact, WideSupportIsRejected) {
    Manager mgr(6);
    Bdd f = mgr.zero();
    for (int v = 0; v < 5; ++v) f = mgr.apply_xor(f, mgr.var_bdd(v));
    EXPECT_FALSE(match_cone_wide(mgr, f, 0, 4).has_value());
    const std::optional<WideConeMatch> wide = match_cone_wide(mgr, f, 0, 6);
    ASSERT_TRUE(wide.has_value());
    EXPECT_EQ(wide->num_inputs, 5) << "five support variables keep their width";
}

TEST(Exact, TapeReplayEqualsDirectEmission) {
    // The replay program must compose with the parallel pipeline's tape
    // IR: recording emit_exact_cone_wide into a GateTape and replaying it
    // into a builder must equal emitting into the builder directly.
    std::mt19937_64 rng(41);
    for (int trial = 0; trial < 10; ++trial) {
        const auto tt16 = static_cast<std::uint16_t>(rng());
        Manager mgr(4);
        const Bdd f = bdd_of_tt(mgr, tt16, {0, 1, 2, 3});
        const std::optional<WideConeMatch> match = match_cone_wide(mgr, f, 0, 4);
        ASSERT_TRUE(match.has_value());
        const auto structure = program_for(static_cast<std::uint16_t>(match->canonical));

        net::Network direct_net;
        net::HashedNetworkBuilder direct(direct_net);
        std::vector<Signal> direct_leaves;
        for (int i = 0; i < 4; ++i) {
            direct_leaves.push_back(
                Signal{direct_net.add_input("x" + std::to_string(i)), false});
        }
        direct_net.add_output("f", direct.realize(emit_exact_cone_wide(
                                       *match, *structure, direct, direct_leaves)));

        net::GateTape tape(4);
        std::vector<Signal> tape_leaves;
        for (int i = 0; i < 4; ++i) tape_leaves.push_back(tape.leaf(i));
        tape.set_root(emit_exact_cone_wide(*match, *structure, tape, tape_leaves));
        net::Network replay_net;
        net::HashedNetworkBuilder replay(replay_net);
        std::vector<Signal> replay_leaves;
        for (int i = 0; i < 4; ++i) {
            replay_leaves.push_back(
                Signal{replay_net.add_input("x" + std::to_string(i)), false});
        }
        replay_net.add_output("f", replay.realize(tape.replay(replay, replay_leaves)));

        for (std::uint64_t m = 0; m < 16; ++m) {
            std::vector<bool> input;
            for (int i = 0; i < 4; ++i) input.push_back((m >> i) & 1);
            ASSERT_EQ(net::simulate(direct_net, input)[0],
                      net::simulate(replay_net, input)[0]);
        }
        EXPECT_EQ(direct_net.stats().total(), replay_net.stats().total());
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
