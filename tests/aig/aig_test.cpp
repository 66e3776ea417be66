#include "aig/aig.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <utility>

namespace bdsmaj::aig {
namespace {

TEST(Aig, ConstantFoldingRules) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    EXPECT_EQ(aig.land(a, kLitFalse), kLitFalse);
    EXPECT_EQ(aig.land(kLitTrue, b), b);
    EXPECT_EQ(aig.land(a, a), a);
    EXPECT_EQ(aig.land(a, lit_not(a)), kLitFalse);
    EXPECT_EQ(aig.and_count(), 0u) << "no outputs yet";
}

TEST(Aig, StructuralHashingDedupes) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    const Lit g1 = aig.land(a, b);
    const Lit g2 = aig.land(b, a);
    EXPECT_EQ(g1, g2);
    aig.add_output(g1);
    EXPECT_EQ(aig.and_count(), 1u);
}

TEST(Aig, DerivedConnectivesSimulateCorrectly) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    const Lit c = aig.add_input();
    aig.add_output(aig.lor(a, b));
    aig.add_output(aig.lxor(a, b));
    aig.add_output(aig.lmaj(a, b, c));
    aig.add_output(aig.lmux(a, b, c));
    for (int m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
        const auto to_word = [](bool v) { return v ? ~std::uint64_t{0} : 0; };
        const auto out = aig.simulate_words({to_word(va), to_word(vb), to_word(vc)});
        EXPECT_EQ(out[0] & 1, static_cast<std::uint64_t>(va || vb));
        EXPECT_EQ(out[1] & 1, static_cast<std::uint64_t>(va != vb));
        EXPECT_EQ(out[2] & 1, static_cast<std::uint64_t>(va + vb + vc >= 2));
        EXPECT_EQ(out[3] & 1, static_cast<std::uint64_t>(va ? vb : vc));
    }
}

TEST(Aig, TruthTableOverInputs) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    const Lit c = aig.add_input();
    const Lit f = aig.lor(aig.land(a, b), c);
    const tt::TruthTable t = aig.to_truth_table(f, 3);
    for (std::uint64_t m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
        EXPECT_EQ(t.get_bit(m), (va && vb) || vc);
    }
    EXPECT_EQ(aig.to_truth_table(lit_not(f), 3), ~t);
}

TEST(Aig, LevelAndCounts) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    Lit acc = a;
    for (int i = 0; i < 5; ++i) acc = aig.land(acc, aig.lxor(acc, b));
    aig.add_output(acc);
    EXPECT_GT(aig.and_count(), 5u);
    EXPECT_GE(aig.level(), 5);
}

TEST(Aig, MarkAndTruncateRollBackTrialNodes) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    const Lit c = aig.add_input();
    const Lit keep = aig.land(a, b);
    const std::size_t marked = aig.mark();
    const Lit trial = aig.land(keep, c);
    EXPECT_GT(aig.mark(), marked);
    aig.truncate(marked);
    EXPECT_EQ(aig.mark(), marked);
    // The rolled-back node must be re-creatable (hash entry removed).
    const Lit again = aig.land(keep, c);
    EXPECT_EQ(lit_node(again), lit_node(trial)) << "slot is reused";
    // And the kept node is still hashed.
    EXPECT_EQ(aig.land(a, b), keep);
}

TEST(Aig, StrashMatchesAReferenceMapThroughRollbacks) {
    // Random trial builds and rollbacks, as the rewriter makes them, must
    // hash exactly like a plain map from fanin pair to node.
    std::mt19937_64 rng(99);
    Aig aig;
    std::map<std::pair<Lit, Lit>, NodeId> reference;
    std::vector<Lit> pool;
    for (int i = 0; i < 12; ++i) pool.push_back(aig.add_input());
    const std::size_t inputs_end = aig.mark();
    for (int round = 0; round < 400; ++round) {
        const std::size_t marked = aig.mark();
        const int steps = 1 + static_cast<int>(rng() % 40);
        for (int s = 0; s < steps; ++s) {
            // Mostly keep to recent nodes so that existing pairs recur.
            const auto pick = [&] {
                const std::size_t span = std::min<std::size_t>(pool.size(), 24);
                return pool[pool.size() - 1 - rng() % span] ^ static_cast<Lit>(rng() & 1);
            };
            Lit a = pick();
            Lit b = pick();
            if (lit_node(a) == lit_node(b)) continue;
            if (a > b) std::swap(a, b);
            const auto known = reference.find({a, b});
            const Lit got = aig.land(a, b);
            if (known != reference.end()) {
                ASSERT_EQ(got, make_lit(known->second, false)) << "round " << round;
            } else {
                ASSERT_EQ(lit_node(got), aig.mark() - 1) << "round " << round;
                reference.emplace(std::make_pair(a, b), lit_node(got));
                pool.push_back(got);
            }
        }
        if (rng() % 3 != 0) {  // roll the trial back
            aig.truncate(marked);
            std::erase_if(reference, [&](const auto& e) { return e.second >= marked; });
            std::erase_if(pool, [&](Lit l) { return lit_node(l) >= marked; });
        }
    }
    EXPECT_GT(aig.mark(), inputs_end + 200) << "the table grew past its first size";
    for (const auto& [fanins, node] : reference) {
        EXPECT_EQ(aig.land(fanins.first, fanins.second), make_lit(node, false));
    }
}

TEST(Aig, ReachabilityIgnoresDanglingNodes) {
    Aig aig;
    const Lit a = aig.add_input();
    const Lit b = aig.add_input();
    const Lit used = aig.land(a, b);
    (void)aig.land(a, lit_not(b));  // dangling
    aig.add_output(used);
    EXPECT_EQ(aig.and_count(), 1u);
}

}  // namespace
}  // namespace bdsmaj::aig
