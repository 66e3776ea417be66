// End-to-end tests of the BDS-MAJ decomposition flow (Fig. 3): partition ->
// local BDDs -> decompose -> shared factoring -> cleanup, with functional
// equivalence as the sign-off on every case.

#include "decomp/flow.hpp"

#include <gtest/gtest.h>

#include <random>

#include "network/blif.hpp"
#include "network/simulate.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::decomp {
namespace {

using net::Network;
using net::NodeId;

/// The BDS-PGA (Table I baseline) configuration: no majority stage.
DecompFlowParams pga_params() {
    DecompFlowParams params;
    params.engine.use_majority = false;
    return params;
}

Network ripple_adder(int bits) {
    Network net("rca" + std::to_string(bits));
    std::vector<NodeId> a, b;
    for (int i = 0; i < bits; ++i) a.push_back(net.add_input("a" + std::to_string(i)));
    for (int i = 0; i < bits; ++i) b.push_back(net.add_input("b" + std::to_string(i)));
    NodeId carry = net.add_input("cin");
    for (int i = 0; i < bits; ++i) {
        const NodeId sum = net.add_xor(net.add_xor(a[i], b[i]), carry);
        const NodeId next = net.add_maj(a[i], b[i], carry);
        net.add_output("s" + std::to_string(i), sum);
        carry = next;
    }
    net.add_output("cout", carry);
    return net;
}

Network random_control(int inputs, int outputs, int gates, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Network net("ctrl");
    std::vector<NodeId> pool;
    for (int i = 0; i < inputs; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int g = 0; g < gates; ++g) {
        const auto pick = [&] { return pool[rng() % pool.size()]; };
        switch (rng() % 5) {
            case 0: pool.push_back(net.add_and(pick(), pick())); break;
            case 1: pool.push_back(net.add_or(pick(), pick())); break;
            case 2: pool.push_back(net.add_xor(pick(), pick())); break;
            case 3: pool.push_back(net.add_not(pick())); break;
            default: pool.push_back(net.add_mux(pick(), pick(), pick())); break;
        }
    }
    for (int o = 0; o < outputs; ++o) {
        net.add_output("o" + std::to_string(o),
                       pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
    }
    return net;
}

TEST(Flow, RippleAdderBothModesAreEquivalent) {
    const Network input = ripple_adder(4);
    const DecompFlowResult maj = decompose_network(input);
    const DecompFlowResult pga = decompose_network(input, pga_params());
    EXPECT_TRUE(net::check_equivalent(input, maj.network).equivalent);
    EXPECT_TRUE(net::check_equivalent(input, pga.network).equivalent);
    EXPECT_EQ(pga.network.stats().maj_nodes, 0) << "baseline must be MAJ-free";
    EXPECT_GT(maj.network.stats().maj_nodes, 0)
        << "carry chains must yield MAJ nodes in BDS-MAJ";
}

TEST(Flow, MajReducesNodeCountOnAdder) {
    // The headline Table I effect, on the canonical datapath circuit.
    const Network input = ripple_adder(8);
    const DecompFlowResult maj = decompose_network(input);
    const DecompFlowResult pga = decompose_network(input, pga_params());
    EXPECT_TRUE(net::check_equivalent(input, maj.network).equivalent);
    EXPECT_TRUE(net::check_equivalent(input, pga.network).equivalent);
    EXPECT_LT(maj.network.stats().total(), pga.network.stats().total());
}

TEST(Flow, RandomControlNetworks) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const Network input = random_control(8, 4, 40, seed);
        const DecompFlowResult maj = decompose_network(input);
        const DecompFlowResult pga = decompose_network(input, pga_params());
        ASSERT_TRUE(net::check_equivalent(input, maj.network).equivalent)
            << "seed " << seed;
        ASSERT_TRUE(net::check_equivalent(input, pga.network).equivalent)
            << "seed " << seed;
    }
}

TEST(Flow, SopNetworksFromBlif) {
    const Network input = net::parse_blif(
        ".model mixed\n"
        ".inputs a b c d\n"
        ".outputs f g\n"
        ".names a b c t\n11- 1\n--1 1\n"
        ".names t d f\n10 1\n01 1\n"
        ".names a d g\n11 1\n"
        ".end\n");
    const DecompFlowResult r = decompose_network(input);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
    EXPECT_EQ(r.network.stats().sop_nodes, 0) << "flow output is structured gates";
}

TEST(Flow, WideNetworkRespectsPartitionBudget) {
    // 40 inputs force multiple supernodes under the default 16-leaf budget.
    std::mt19937_64 rng(42);
    Network net("wide");
    std::vector<NodeId> layer;
    for (int i = 0; i < 40; ++i) layer.push_back(net.add_input("i" + std::to_string(i)));
    while (layer.size() > 1) {
        std::vector<NodeId> next;
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
            next.push_back((rng() & 1) ? net.add_xor(layer[i], layer[i + 1])
                                       : net.add_and(layer[i], layer[i + 1]));
        }
        if (layer.size() % 2 == 1) next.push_back(layer.back());
        layer = std::move(next);
    }
    net.add_output("y", layer[0]);
    const DecompFlowResult r = decompose_network(net);
    EXPECT_GT(r.supernode_count, 1);
    // exhaustive_input_limit 0 forces the SAT engine: at 40 inputs this used to
    // silently fall back to random simulation; now it is an exact proof.
    const net::EquivalenceResult eq =
        net::check_equivalent(net, r.network, /*exhaustive_input_limit=*/0,
                              /*random_rounds=*/256);
    EXPECT_TRUE(eq.equivalent);
    EXPECT_TRUE(eq.exact);
    EXPECT_EQ(eq.engine, net::EquivEngine::kSat);
}

TEST(Flow, ReorderingOffStillCorrect) {
    DecompFlowParams params;
    params.reorder = false;
    const Network input = ripple_adder(3);
    const DecompFlowResult r = decompose_network(input, params);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
}

TEST(Flow, CleanupOffStillCorrect) {
    DecompFlowParams params;
    params.final_cleanup = false;
    const Network input = ripple_adder(3);
    const DecompFlowResult r = decompose_network(input, params);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
}

TEST(Flow, ConstantsAndWiresSurvive) {
    Network net("edge");
    const NodeId a = net.add_input("a");
    net.add_output("wire", a);
    net.add_output("const1", net.add_constant(true));
    net.add_output("notA", net.add_not(a));
    const DecompFlowResult r = decompose_network(net);
    EXPECT_TRUE(net::check_equivalent(net, r.network).equivalent);
}

TEST(Flow, StatsAreConsistent) {
    const Network input = ripple_adder(6);
    const DecompFlowResult r = decompose_network(input);
    const EngineStats& s = r.engine_stats;
    EXPECT_GE(s.maj_attempts, s.maj_steps);
    EXPECT_GT(r.supernode_count, 0);
    EXPECT_GE(r.seconds, 0.0);
}

TEST(Flow, XorIntensiveCircuitKeepsXorAlphabet) {
    Network net("parity16");
    std::vector<NodeId> xs;
    for (int i = 0; i < 16; ++i) xs.push_back(net.add_input("x" + std::to_string(i)));
    NodeId acc = xs[0];
    for (int i = 1; i < 16; ++i) acc = net.add_xor(acc, xs[i]);
    net.add_output("p", acc);
    const DecompFlowResult r = decompose_network(net);
    EXPECT_TRUE(net::check_equivalent(net, r.network).equivalent);
    const auto s = r.network.stats();
    EXPECT_EQ(s.and_nodes + s.or_nodes, 0) << "parity stays XOR/XNOR-only";
    EXPECT_GE(s.xor_nodes + s.xnor_nodes, 15);
}

// ---------------------------------------------------------------------------
// ManagerParams plumbing: DecompFlowParams::manager must reach the
// per-supernode managers, and the flow must surface their reordering
// telemetry through EngineStats.
// ---------------------------------------------------------------------------

TEST(Flow, ManagerParamsReachTheSupernodeManagers) {
    const Network input = random_control(12, 4, 60, 0xf10e);
    DecompFlowParams defaults;
    const DecompFlowResult with_sift = decompose_network(input, defaults);
    EXPECT_GT(with_sift.engine_stats.sift_swaps +
                  with_sift.engine_stats.sift_fast_swaps,
              0ll)
        << "default flow should report reordering effort";
    EXPECT_GT(with_sift.engine_stats.peak_bdd_nodes, 0ll);

    // sift_max_vars = 0 empties every pass's schedule: the managers still
    // sift() but perform no swaps — observable only if the params actually
    // arrived.
    DecompFlowParams capped;
    capped.manager.sift_max_vars = 0;
    const DecompFlowResult no_swaps = decompose_network(input, capped);
    EXPECT_EQ(no_swaps.engine_stats.sift_swaps, 0ll);
    EXPECT_EQ(no_swaps.engine_stats.sift_fast_swaps, 0ll);
    EXPECT_TRUE(net::check_equivalent(input, no_swaps.network).equivalent);
    EXPECT_TRUE(net::check_equivalent(input, with_sift.network).equivalent);
}

TEST(Flow, ConvergingSiftFlowStaysEquivalent) {
    const Network input = ripple_adder(5);
    DecompFlowParams params;
    params.manager.sift_converge = true;
    const DecompFlowResult r = decompose_network(input, params);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
}

TEST(Flow, ReorderTelemetryIsDeterministicAcrossJobCounts) {
    const Network input = random_control(14, 5, 90, 0xabc);
    DecompFlowParams p1;
    p1.jobs = 1;
    DecompFlowParams p4;
    p4.jobs = 4;
    const DecompFlowResult r1 = decompose_network(input, p1);
    const DecompFlowResult r4 = decompose_network(input, p4);
    EXPECT_EQ(r1.engine_stats.sift_swaps, r4.engine_stats.sift_swaps);
    EXPECT_EQ(r1.engine_stats.sift_fast_swaps, r4.engine_stats.sift_fast_swaps);
    EXPECT_EQ(r1.engine_stats.sift_lb_aborts, r4.engine_stats.sift_lb_aborts);
    EXPECT_EQ(r1.engine_stats.peak_bdd_nodes, r4.engine_stats.peak_bdd_nodes);
}

}  // namespace
}  // namespace bdsmaj::decomp
