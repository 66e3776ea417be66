// Integration tests: all four Table II flows on real benchmark circuits,
// with functional sign-off and qualitative shape checks (MAJ presence,
// baseline blindness).

#include "flows/flows.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>

#include "aig/convert.hpp"
#include "aig/opt.hpp"
#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "benchgen/suite.hpp"
#include "network/blif.hpp"
#include "network/cleanup.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::flows {
namespace {

using net::Network;

void expect_flow_correct(const SynthesisResult& r, const Network& input) {
    EXPECT_TRUE(net::check_equivalent(input, r.optimized).equivalent)
        << r.flow_name << ": optimized network differs";
    EXPECT_TRUE(net::check_equivalent(input, r.mapped.netlist).equivalent)
        << r.flow_name << ": mapped netlist differs";
    EXPECT_GE(r.mapped.area_um2, 0.0);
    EXPECT_GE(r.mapped.delay_ns, 0.0);
}

TEST(Flows, AllFourOnRippleAdder) {
    const Network input = benchgen::make_ripple_adder(6);
    for (const SynthesisResult& r : run_all_flows(input)) {
        expect_flow_correct(r, input);
        EXPECT_GT(r.mapped.gate_count, 0) << r.flow_name;
    }
}

TEST(Flows, BdsMajEmitsMajCellsOnCarryLogic) {
    const Network input = benchgen::make_ripple_adder(8);
    const SynthesisResult maj = flow_bdsmaj(input);
    expect_flow_correct(maj, input);
    EXPECT_GT(maj.mapped.netlist.stats().maj_nodes, 0)
        << "BDS-MAJ must keep MAJ3 cells on an adder";
}

TEST(Flows, BaselinesAreMajorityBlind) {
    const Network input = benchgen::make_ripple_adder(6);
    const SynthesisResult pga = flow_bdspga(input);
    const SynthesisResult abc = flow_abc(input);
    expect_flow_correct(pga, input);
    expect_flow_correct(abc, input);
    EXPECT_EQ(pga.mapped.netlist.stats().maj_nodes, 0);
    EXPECT_EQ(abc.mapped.netlist.stats().maj_nodes, 0);
}

TEST(Flows, BdsMajBeatsBaselinesOnDatapath) {
    // The Table II shape on a datapath circuit: BDS-MAJ strictly beats its
    // own majority-blind configuration, and stays in ABC's ballpark even at
    // this reduced width (the suite-level aggregate is checked by
    // bench/table2_synthesis at the paper's full widths).
    const Network input = benchgen::make_wallace_multiplier(6);
    const SynthesisResult maj = flow_bdsmaj(input);
    const SynthesisResult pga = flow_bdspga(input);
    const SynthesisResult abc = flow_abc(input);
    expect_flow_correct(maj, input);
    expect_flow_correct(pga, input);
    expect_flow_correct(abc, input);
    EXPECT_LT(maj.mapped.area_um2, pga.mapped.area_um2);
    EXPECT_LT(maj.mapped.area_um2, abc.mapped.area_um2 * 1.25);
}

TEST(Flows, DcProxyIsCorrectAndCompetitive) {
    const Network input = benchgen::make_cla_adder(8);
    const SynthesisResult dc = flow_dc(input);
    const SynthesisResult abc = flow_abc(input);
    expect_flow_correct(dc, input);
    // DC (best-of, higher effort) must be at least as good as plain ABC.
    EXPECT_LE(dc.mapped.area_um2, abc.mapped.area_um2 * 1.001);
}

/// The DC proxy's four-candidate recipe spelled out with public calls and
/// every AIG script run from scratch: resyn2; resyn2 twice; the no-MAJ
/// decomposition then resyn2; the no-MAJ decomposition. The first
/// candidate with the smallest mapped area wins.
struct DcPick {
    Network optimized;
    mapping::MappedResult mapped;
};

DcPick literal_dc_recipe(const Network& input) {
    const auto aig_script = [](const Network& network, int repeats) {
        aig::Aig a = aig::network_to_aig(net::cleanup(network));
        for (int i = 0; i < repeats; ++i) a = aig::resyn2(a);
        std::vector<std::string> in_names, out_names;
        for (const net::NodeId id : network.inputs()) in_names.push_back(network.node(id).name);
        for (const net::OutputPort& po : network.outputs()) out_names.push_back(po.name);
        return net::cleanup(aig::aig_to_network(a, in_names, out_names));
    };
    decomp::DecompFlowParams params;
    params.engine.use_majority = false;
    Network decomposed = decomp::decompose_network(input, params).network;
    std::vector<Network> candidates;
    candidates.push_back(aig_script(input, 1));
    candidates.push_back(aig_script(input, 2));
    candidates.push_back(aig_script(decomposed, 1));
    candidates.push_back(std::move(decomposed));
    std::optional<DcPick> best;
    for (Network& candidate : candidates) {
        mapping::MappedResult mapped = mapping::map_network(candidate, default_library());
        if (!best || mapped.area_um2 < best->mapped.area_um2) {
            best = DcPick{std::move(candidate), std::move(mapped)};
        }
    }
    return std::move(*best);
}

class DcProxyRecipe : public ::testing::TestWithParam<std::string> {};

TEST_P(DcProxyRecipe, PicksTheLiteralRecipesCandidate) {
    const Network input = benchgen::benchmark_by_name(GetParam(), /*quick=*/true);
    const SynthesisResult dc = flow_dc(input);
    const DcPick want = literal_dc_recipe(input);
    EXPECT_EQ(net::write_blif(dc.optimized), net::write_blif(want.optimized));
    EXPECT_EQ(dc.mapped.gate_count, want.mapped.gate_count);
    EXPECT_EQ(dc.mapped.area_um2, want.mapped.area_um2);
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, DcProxyRecipe,
                         ::testing::Values(std::string("alu2"), std::string("f51m"),
                                           std::string("C6288"),
                                           std::string("Wallace 16 bit")),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string name = info.param;
                             for (char& ch : name) {
                                 if (ch == ' ') ch = '_';
                             }
                             return name;
                         });

TEST(Flows, ControlLogicAllFlowsCorrect) {
    const Network input = benchgen::make_random_control("ctl", 12, 8, 6, 77);
    for (const SynthesisResult& r : run_all_flows(input)) {
        expect_flow_correct(r, input);
    }
}

TEST(Flows, XorIntensiveCircuit) {
    const Network input = benchgen::make_c1355();
    const SynthesisResult maj = flow_bdsmaj(input);
    expect_flow_correct(maj, input);
    const auto s = maj.mapped.netlist.stats();
    EXPECT_GT(s.xor_nodes + s.xnor_nodes, 30)
        << "the SEC decoder is XOR-dominated";
}

TEST(Flows, ResultMetadataIsFilled) {
    const Network input = benchgen::make_ripple_adder(4);
    const SynthesisResult r = flow_bdsmaj(input);
    EXPECT_EQ(r.flow_name, "BDS-MAJ");
    EXPECT_GE(r.optimize_seconds, 0.0);
    EXPECT_EQ(r.optimized_stats.total(), r.optimized.stats().total());
    EXPECT_GT(r.engine_stats.maj_steps, 0);
}

TEST(Flows, DcProxyStopsAtItsCandidateCheckpoints) {
    // The DC recipes are not interruptible themselves, but a raised token
    // (or a passed deadline) stops the proxy between its candidates.
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const std::atomic<bool> cancelled{true};
    FlowOptions options;
    options.cancel = &cancelled;
    EXPECT_THROW((void)flow_dc(input, options), decomp::FlowCancelled);
    FlowOptions overdue;
    overdue.deadline = std::chrono::steady_clock::now();
    EXPECT_THROW((void)flow_dc(input, overdue), decomp::DeadlineExceeded);
}

TEST(Flows, FullWidthReciprocalSignsOffByExhaustiveSimulation) {
    // Rev (1/X) at the paper's 19 bits: its global BDD made a verified job
    // take ~85 s; 19 inputs are within the exhaustive engine's reach.
    const Network input = benchgen::make_reciprocal(19);
    FlowOptions options;
    options.verify = true;
    const SynthesisResult r = flow_bdsmaj(input, options);
    ASSERT_TRUE(r.equivalence.has_value());
    EXPECT_TRUE(r.equivalence->equivalent);
    EXPECT_TRUE(r.equivalence->exact);
    EXPECT_EQ(r.equivalence->engine, net::EquivEngine::kExhaustive);
}

}  // namespace
}  // namespace bdsmaj::flows
