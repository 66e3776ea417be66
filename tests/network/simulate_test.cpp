#include "network/simulate.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <utility>

namespace bdsmaj::net {
namespace {

Network full_adder() {
    Network net("fa");
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId cin = net.add_input("cin");
    net.add_output("sum", net.add_xor(net.add_xor(a, b), cin));
    net.add_output("cout", net.add_maj(a, b, cin));
    return net;
}

TEST(Simulate, FullAdderTruthTable) {
    const Network net = full_adder();
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
        const auto out = simulate(net, {a, b, c});
        const int expected = a + b + c;
        EXPECT_EQ(out[0], (expected & 1) != 0) << "sum at " << m;
        EXPECT_EQ(out[1], expected >= 2) << "carry at " << m;
    }
}

TEST(Simulate, AllGateKindsMatchSemantics) {
    Network net;
    const NodeId a = net.add_input("a");
    const NodeId b = net.add_input("b");
    const NodeId c = net.add_input("c");
    net.add_output("and", net.add_gate(GateKind::kAnd, {a, b}));
    net.add_output("or", net.add_gate(GateKind::kOr, {a, b}));
    net.add_output("nand", net.add_gate(GateKind::kNand, {a, b}));
    net.add_output("nor", net.add_gate(GateKind::kNor, {a, b}));
    net.add_output("xor", net.add_gate(GateKind::kXor, {a, b}));
    net.add_output("xnor", net.add_gate(GateKind::kXnor, {a, b}));
    net.add_output("not", net.add_gate(GateKind::kNot, {a}));
    net.add_output("buf", net.add_gate(GateKind::kBuf, {a}));
    net.add_output("maj", net.add_gate(GateKind::kMaj, {a, b, c}));
    net.add_output("mux", net.add_gate(GateKind::kMux, {a, b, c}));
    net.add_output("c0", net.add_constant(false));
    net.add_output("c1", net.add_constant(true));
    for (int m = 0; m < 8; ++m) {
        const bool va = m & 1, vb = (m >> 1) & 1, vc = (m >> 2) & 1;
        const auto out = simulate(net, {va, vb, vc});
        std::size_t i = 0;
        EXPECT_EQ(out[i++], va && vb);
        EXPECT_EQ(out[i++], va || vb);
        EXPECT_EQ(out[i++], !(va && vb));
        EXPECT_EQ(out[i++], !(va || vb));
        EXPECT_EQ(out[i++], va != vb);
        EXPECT_EQ(out[i++], va == vb);
        EXPECT_EQ(out[i++], !va);
        EXPECT_EQ(out[i++], va);
        EXPECT_EQ(out[i++], (va + vb + vc) >= 2);
        EXPECT_EQ(out[i++], va ? vb : vc);
        EXPECT_EQ(out[i++], false);
        EXPECT_EQ(out[i++], true);
    }
}

TEST(Simulate, WordsStimulusCountValidated) {
    const Network net = full_adder();
    EXPECT_THROW((void)simulate_words(net, {0, 0}), std::invalid_argument);
}

TEST(Equivalence, IdenticalNetworksAreEquivalent) {
    const Network a = full_adder();
    const Network b = full_adder();
    // Random simulation can only sample agreement: exact stays false.
    const EquivalenceResult sim = random_equivalent(a, b, 16, 1);
    EXPECT_TRUE(sim.equivalent);
    EXPECT_FALSE(sim.exact);
    EXPECT_EQ(sim.engine, EquivEngine::kSim);
    // The BDD engine and the oracle both return proofs.
    const EquivalenceResult bdd = bdd_equivalent(a, b);
    EXPECT_TRUE(bdd.equivalent);
    EXPECT_TRUE(bdd.exact);
    EXPECT_EQ(bdd.engine, EquivEngine::kBdd);
    const EquivalenceResult oracle = check_equivalent(a, b);
    EXPECT_TRUE(oracle.equivalent);
    EXPECT_TRUE(oracle.exact);
}

TEST(Equivalence, DifferentFunctionsAreCaught) {
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        a.add_output("f", a.add_and(x, y));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        b.add_output("f", b.add_or(x, y));
    }
    for (const EquivalenceResult& r :
         {random_equivalent(a, b, 4, 7), bdd_equivalent(a, b), check_equivalent(a, b)}) {
        EXPECT_FALSE(r.equivalent);
        // A refutation is always exact: it carries a concrete re-verified
        // counterexample naming the failing output.
        EXPECT_TRUE(r.exact);
        ASSERT_EQ(r.counterexample.size(), 2u);
        EXPECT_EQ(r.failing_output, 0);
        EXPECT_NE(simulate(a, r.counterexample)[0], simulate(b, r.counterexample)[0]);
    }
}

TEST(Equivalence, StructurallyDifferentButEqualFunctions) {
    // a^b built as XOR vs as (a&!b)|(!a&b).
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        a.add_output("f", a.add_xor(x, y));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        const NodeId t1 = b.add_and(x, b.add_not(y));
        const NodeId t2 = b.add_and(b.add_not(x), y);
        b.add_output("f", b.add_or(t1, t2));
    }
    EXPECT_TRUE(bdd_equivalent(a, b).equivalent);
    EXPECT_TRUE(check_equivalent(a, b).equivalent);
}

/// A pair of structurally different, equivalent n-input networks with two
/// outputs: the parity of all inputs and the OR of adjacent input pairs.
/// `b` builds both in reverse order, through XNORs and De Morgan. With n
/// = 0 both outputs are constants.
struct ExhaustivePair {
    Network a, b;
    std::vector<NodeId> b_inputs;
};

ExhaustivePair exhaustive_pair(int n) {
    ExhaustivePair p;
    std::vector<NodeId> xa;
    for (int i = 0; i < n; ++i) {
        xa.push_back(p.a.add_input("x" + std::to_string(i)));
        p.b_inputs.push_back(p.b.add_input("x" + std::to_string(i)));
    }
    NodeId parity = p.a.add_constant(false);
    for (const NodeId x : xa) parity = p.a.add_xor(parity, x);
    NodeId pairs = p.a.add_constant(false);
    for (int i = 0; i + 1 < n; ++i) pairs = p.a.add_or(pairs, p.a.add_and(xa[i], xa[i + 1]));
    p.a.add_output("parity", parity);
    p.a.add_output("pairs", pairs);

    const std::vector<NodeId>& xb = p.b_inputs;
    NodeId parity_b = p.b.add_constant(n % 2 == 0);  // built complemented
    for (int i = n - 1; i >= 0; --i) parity_b = p.b.add_xnor(parity_b, xb[i]);
    NodeId none = p.b.add_not(p.b.add_constant(false));  // no pair is set
    for (int i = n - 2; i >= 0; --i) {
        none = p.b.add_and(none, p.b.add_gate(GateKind::kNand, {xb[i], xb[i + 1]}));
    }
    p.b.add_output("parity", p.b.add_not(parity_b));
    p.b.add_output("pairs", p.b.add_not(none));
    return p;
}

/// `p.b` with output 0 complemented on exactly one pattern: all inputs
/// equal to `value`.
Network plant_difference(ExhaustivePair p, bool value) {
    NodeId hit = p.b.add_constant(true);
    for (const NodeId x : p.b_inputs) hit = p.b.add_and(hit, value ? x : p.b.add_not(x));
    OutputPort& out = p.b.outputs()[0];
    out.driver = p.b.add_xor(out.driver, hit);
    return std::move(p.b);
}

TEST(Exhaustive, ProvesAndRefutesAcrossWordAndBlockBoundaries) {
    // 0: constants only; 1 and 5: one partial word; 6: exactly one word;
    // 7: two words; 12: one full 64-word block; 13: two blocks.
    for (const int n : {0, 1, 5, 6, 7, 12, 13}) {
        const ExhaustivePair p = exhaustive_pair(n);
        const EquivalenceResult same = exhaustive_equivalent(p.a, p.b);
        EXPECT_TRUE(same.equivalent) << n << " inputs: " << same.reason;
        EXPECT_TRUE(same.exact);
        EXPECT_EQ(same.engine, EquivEngine::kExhaustive);
        for (const bool value : {false, true}) {
            const Network planted = plant_difference(p, value);
            const EquivalenceResult r = exhaustive_equivalent(p.a, planted);
            ASSERT_FALSE(r.equivalent) << n << " inputs, planted at all-" << value;
            EXPECT_TRUE(r.exact);
            EXPECT_EQ(r.engine, EquivEngine::kExhaustive);
            EXPECT_EQ(r.failing_output, 0);
            // The only differing pattern is the planted one.
            EXPECT_EQ(r.counterexample, std::vector<bool>(static_cast<std::size_t>(n), value));
            EXPECT_NE(simulate(p.a, r.counterexample)[0], simulate(planted, r.counterexample)[0]);
        }
    }
}

TEST(Exhaustive, AutoFindsASinglePatternDifferenceRandomSimulationMisses) {
    // 20 inputs: 2^20 patterns, of which the default random pre-pass
    // samples 4096. The planted all-ones pattern must come back from the
    // exhaustive engine with a re-simulated counterexample.
    const ExhaustivePair p = exhaustive_pair(20);
    const Network planted = plant_difference(p, true);
    const EquivalenceResult r = check_equivalent(p.a, planted);
    ASSERT_FALSE(r.equivalent);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.engine, EquivEngine::kExhaustive);
    EXPECT_EQ(r.counterexample, std::vector<bool>(20, true));
    EXPECT_EQ(check_equivalent(p.a, p.b).engine, EquivEngine::kExhaustive);
}

TEST(Exhaustive, ShapeMismatchAndWidthLimit) {
    Network a;
    a.add_output("f", a.add_input("x"));
    Network b;
    b.add_output("f", b.add_constant(false));
    b.add_output("g", b.add_constant(true));
    const EquivalenceResult r = exhaustive_equivalent(a, b);
    EXPECT_FALSE(r.equivalent);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.engine, EquivEngine::kExhaustive);

    Network wide;
    for (int i = 0; i < 41; ++i) wide.add_input("x" + std::to_string(i));
    EXPECT_THROW((void)exhaustive_equivalent(wide, wide), std::invalid_argument);
}

/// random_equivalent one round at a time: the failing output and the
/// counterexample of the first differing round, output and bit.
std::pair<int, std::vector<bool>> first_difference_round_by_round(const Network& a,
                                                                  const Network& b,
                                                                  int rounds,
                                                                  std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::uint64_t> stimulus(a.inputs().size());
    for (int round = 0; round < rounds; ++round) {
        for (auto& w : stimulus) w = rng();
        const std::vector<std::uint64_t> va = simulate_words(a, stimulus);
        const std::vector<std::uint64_t> vb = simulate_words(b, stimulus);
        for (std::size_t o = 0; o < va.size(); ++o) {
            if (va[o] == vb[o]) continue;
            const int bit = std::countr_zero(va[o] ^ vb[o]);
            std::vector<bool> pattern;
            for (const std::uint64_t w : stimulus) pattern.push_back(((w >> bit) & 1) != 0);
            return {static_cast<int>(o), pattern};
        }
    }
    return {-1, {}};
}

TEST(Equivalence, BatchedRandomRoundsFindTheRoundByRoundWitness) {
    // Two outputs that differ rarely (2^-12 and 2^-14 of the patterns), so
    // first differences land in different rounds, batches and outputs.
    const auto build = [](bool mutated) {
        Network net;
        std::vector<NodeId> x;
        for (int i = 0; i < 16; ++i) x.push_back(net.add_input("x" + std::to_string(i)));
        NodeId all12 = x[0];
        for (int i = 1; i < 12; ++i) all12 = net.add_and(all12, x[i]);
        const NodeId all14 = net.add_and(net.add_and(all12, x[12]), x[13]);
        const NodeId parity = net.add_xor(x[14], x[15]);
        net.add_output("f", mutated ? net.add_and(all12, net.add_not(all14)) : all12);
        net.add_output("g", mutated ? net.add_xor(parity, all12) : parity);
        return net;
    };
    const Network a = build(false);
    const Network b = build(true);
    int outputs_seen = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        for (const int rounds : {1, 63, 64, 65, 150}) {
            const auto [output, pattern] = first_difference_round_by_round(a, b, rounds, seed);
            const EquivalenceResult r = random_equivalent(a, b, rounds, seed);
            ASSERT_EQ(r.equivalent, output < 0) << "seed " << seed << " rounds " << rounds;
            if (output < 0) continue;
            EXPECT_EQ(r.failing_output, output) << "seed " << seed << " rounds " << rounds;
            EXPECT_EQ(r.counterexample, pattern) << "seed " << seed << " rounds " << rounds;
            outputs_seen |= 1 << output;
        }
    }
    EXPECT_EQ(outputs_seen, 3) << "both outputs fail first for some seed";
}

TEST(Equivalence, ShapeMismatchesAreReported) {
    Network a;
    a.add_output("f", a.add_input("x"));
    Network b;
    {
        const NodeId x = b.add_input("x");
        (void)b.add_input("y");
        b.add_output("f", x);
    }
    const auto r = random_equivalent(a, b, 1, 1);
    EXPECT_FALSE(r.equivalent);
    EXPECT_NE(r.reason.find("input"), std::string::npos);
}

TEST(Equivalence, SopNodesSimulateLikeTheirCover) {
    std::mt19937_64 rng(501);
    for (int trial = 0; trial < 10; ++trial) {
        const int arity = 5;
        const tt::TruthTable f = tt::TruthTable::random(arity, rng);
        Network net;
        std::vector<NodeId> ins;
        for (int i = 0; i < arity; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
        net.add_output("f", net.add_sop(ins, Sop::isop(f), "f"));
        for (std::uint64_t m = 0; m < 32; ++m) {
            std::vector<bool> values;
            for (int i = 0; i < arity; ++i) values.push_back((m >> i) & 1);
            EXPECT_EQ(simulate(net, values)[0], f.get_bit(m)) << "minterm " << m;
        }
    }
}

TEST(Equivalence, NetworkToBddsMatchesSimulation) {
    const Network net = full_adder();
    bdd::Manager mgr;
    const auto outs = network_to_bdds(net, mgr);
    ASSERT_EQ(outs.size(), 2u);
    for (int m = 0; m < 8; ++m) {
        const std::vector<bool> values{(m & 1) != 0, (m & 2) != 0, (m & 4) != 0};
        const auto sim = simulate(net, values);
        EXPECT_EQ(mgr.eval(outs[0], values), sim[0]);
        EXPECT_EQ(mgr.eval(outs[1], values), sim[1]);
    }
}

}  // namespace
}  // namespace bdsmaj::net
