// The 5-6 variable SAT-backed exact path at the strategy/flow level:
// wide cones actually fire on cone-rich inputs, stay oracle-equivalent,
// degrade cleanly (and byte-identically) when the conflict budget is
// exhausted, and are deterministic across job counts.

#include <gtest/gtest.h>

#include <string>

#include "benchgen/suite.hpp"
#include "decomp/engine.hpp"
#include "decomp/exact.hpp"
#include "decomp/flow.hpp"
#include "decomp/strategy.hpp"
#include "network/blif.hpp"
#include "network/builder.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

namespace bsm = bdsmaj;

namespace bdsmaj::decomp {
namespace {

using net::Network;
using net::Signal;

/// A network rich in 5-var cones the SAT backend should serve. Every
/// internal gate is single-fanout and the three outputs use disjoint
/// supports, so the partitioner forms one 5-support supernode per output
/// (multi-fanout nodes would become supernode boundaries and hide the
/// wide path behind 3-4 var cones).
Network wide_cone_network() {
    Network network;
    net::HashedNetworkBuilder b(network);
    std::vector<Signal> x;
    for (int i = 0; i < 15; ++i) {
        x.push_back(Signal{network.add_input("x" + std::to_string(i)), false});
    }
    // m0 = x0 ? (x1 & x2) : (x3 | x4) — a 3-gate MUX cone.
    network.add_output(
        "m0", b.realize(b.build_mux(x[0], b.build_and(x[1], x[2]),
                                    b.build_or(x[3], x[4]))));
    // m1 = x5 ^ (x6 & x7) ^ (x8 | x9) — a 4-gate XOR-mix cone.
    network.add_output(
        "m1", b.realize(b.build_xor(
                  x[5], b.build_xor(b.build_and(x[6], x[7]),
                                    b.build_or(x[8], x[9])))));
    // m2 = MAJ(x10, x11 & x12, x13 ^ x14) — a 3-gate majority cone.
    network.add_output(
        "m2", b.realize(b.build_maj(x[10], b.build_and(x[11], x[12]),
                                    b.build_xor(x[13], x[14]))));
    return network;
}

/// `max_steps` defaults to 8, not the engine's 4: at a cap of four every
/// 5-6 input synthesis is decided by construction with zero conflicts, so
/// the budget tests below would pass without ever reaching the solver.
DecompFlowResult run_wide(const Network& input, long long budget,
                          int jobs = 1, int max_steps = 8) {
    DecompFlowParams params;
    params.engine.preset = "exact-aggressive";
    params.engine.exact_sat_budget = budget;
    params.engine.exact_sat_max_steps = max_steps;
    // Neutral margin: these tests probe the wide machinery (synthesis,
    // caching, fallback, determinism), not the MCNC-tuned default gate.
    params.engine.exact_min_saving_wide = 0;
    params.jobs = jobs;
    // The cone cache would replay tapes from earlier tests in this
    // process and hide the strategy path under scrutiny.
    params.cone_cache = false;
    return decompose_network(input, params);
}

TEST(StrategyWide, WideConesFireAndStayEquivalent) {
    const Network input = wide_cone_network();
    const DecompFlowResult r = run_wide(input, /*budget=*/50000);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
    EXPECT_GT(r.engine_stats.exact_wide_steps, 0)
        << "5-var cones must be served by the SAT backend";
    EXPECT_GT(r.engine_stats.exact_sat_synthesized +
                  r.engine_stats.exact_sat_cache_hits,
              0);
}

/// Cones for the starvation test: three 6-input functions whose shortest
/// chains take five steps, so every synthesis reaches the CDCL search
/// (chains of up to four steps are decided without conflicts and would
/// be served at any budget). A warm cache entry is served only to budgets
/// that would have found it cold, so a 1-conflict budget finds nothing.
Network starvation_network() {
    Network network;
    net::HashedNetworkBuilder b(network);
    std::vector<Signal> x;
    for (int i = 0; i < 18; ++i) {
        x.push_back(Signal{network.add_input("x" + std::to_string(i)), false});
    }
    // p0 = x0 ^ ... ^ x5 (parity-6, 5 XOR gates minimum).
    Signal p0 = x[0];
    for (int i = 1; i < 6; ++i) p0 = b.build_xor(p0, x[i]);
    network.add_output("p0", b.realize(p0));
    // p1 = x6 ^ x7 ^ x8 ^ x9 ^ (x10 & x11).
    network.add_output(
        "p1", b.realize(b.build_xor(
                  b.build_xor(b.build_xor(x[6], x[7]), b.build_xor(x[8], x[9])),
                  b.build_and(x[10], x[11]))));
    // p2 = x12 ^ x13 ^ x14 ^ (x15 & x16 & x17).
    network.add_output(
        "p2", b.realize(b.build_xor(
                  b.build_xor(x[12], b.build_xor(x[13], x[14])),
                  b.build_and(x[15], b.build_and(x[16], x[17])))));
    return network;
}

TEST(StrategyWide, BudgetExhaustionFallsBackCleanly) {
    // With a 1-conflict budget every synthesis attempt exhausts at five
    // steps; the result must be equivalent, contain no wide cones, and be
    // byte-identical to disabling the SAT backend outright (nothing
    // partial leaks into the network).
    const Network input = starvation_network();
    const DecompFlowResult starved = run_wide(input, /*budget=*/1);
    EXPECT_TRUE(net::check_equivalent(input, starved.network).equivalent);
    EXPECT_EQ(starved.engine_stats.exact_wide_steps, 0);
    EXPECT_GT(starved.engine_stats.exact_sat_fallbacks, 0);

    const DecompFlowResult disabled = run_wide(input, /*budget=*/0);
    EXPECT_EQ(disabled.engine_stats.exact_sat_synthesized, 0);
    EXPECT_EQ(net::write_blif(starved.network), net::write_blif(disabled.network));
}

TEST(StrategyWide, DefaultEffortSpendsNoConflicts) {
    // The default step cap stops at the chain lengths decided by
    // construction, so the five-step cones of the starvation network fall
    // back without a conflict, exactly as with the SAT backend disabled.
    // With the cap at 8 the same cones do reach the solver.
    const Network input = starvation_network();
    const EngineParams defaults;
    const DecompFlowResult r = run_wide(input, defaults.exact_sat_budget,
                                        /*jobs=*/1, defaults.exact_sat_max_steps);
    EXPECT_TRUE(net::check_equivalent(input, r.network).equivalent);
    EXPECT_EQ(r.engine_stats.exact_sat_conflicts, 0);
    EXPECT_EQ(r.engine_stats.exact_wide_steps, 0);
    EXPECT_GT(r.engine_stats.exact_sat_fallbacks, 0);

    const DecompFlowResult disabled = run_wide(input, /*budget=*/0);
    EXPECT_EQ(net::write_blif(r.network), net::write_blif(disabled.network));

    ExactSynthesisCache::instance().clear();
    const DecompFlowResult searched = run_wide(input, defaults.exact_sat_budget);
    EXPECT_GT(searched.engine_stats.exact_sat_conflicts, 0);
}

TEST(StrategyWide, StepCapLeavesFourInputClassesAlone) {
    // 0x1681's four-input class needs a five-step chain. The step cap
    // governs five and six inputs only, so a cap of four still serves it.
    bdd::Manager mgr(4);
    const bdd::Bdd f = mgr.from_truth_table(
        tt::TruthTable::from_fn(4, [](std::uint64_t m) { return (0x1681 >> m) & 1; }));
    EngineParams params;
    params.preset = "exact-aggressive";
    params.exact_sat_max_steps = 4;
    // A generous margin: this test is about the cap, not the gate limit.
    params.exact_min_saving = 8;
    Network network;
    net::HashedNetworkBuilder builder(network);
    std::vector<Signal> leaves;
    for (int i = 0; i < 4; ++i) {
        leaves.push_back(Signal{network.add_input("x" + std::to_string(i)), false});
    }
    BddDecomposer decomposer(mgr, builder, leaves, params);
    network.add_output("f", builder.realize(decomposer.decompose(f)));

    EXPECT_EQ(decomposer.stats().exact_steps, 1);
    const auto chain =
        ExactSynthesisCache::instance().lookup_wide(4, tt::npn_canonical(0x1681));
    ASSERT_NE(chain, nullptr);
    EXPECT_EQ(chain->gate_count(), 5);
    for (std::uint64_t m = 0; m < 16; ++m) {
        std::vector<bool> in;
        for (int i = 0; i < 4; ++i) in.push_back((m >> i) & 1);
        EXPECT_EQ(net::simulate(network, in)[0], ((0x1681 >> m) & 1) != 0) << m;
    }
}

TEST(StrategyWide, DeterministicAcrossJobCounts) {
    const Network input = wide_cone_network();
    const DecompFlowResult serial = run_wide(input, /*budget=*/50000, /*jobs=*/1);
    const DecompFlowResult parallel = run_wide(input, /*budget=*/50000, /*jobs=*/8);
    EXPECT_EQ(net::write_blif(serial.network), net::write_blif(parallel.network));
    EXPECT_EQ(serial.engine_stats.exact_wide_steps,
              parallel.engine_stats.exact_wide_steps);
}

TEST(StrategyWide, WideStepsCountedInStrategyTotals) {
    const Network input = wide_cone_network();
    const DecompFlowResult r = run_wide(input, /*budget=*/50000);
    const EngineStats& s = r.engine_stats;
    EXPECT_LE(s.exact_wide_steps, s.exact_steps)
        << "wide steps are a subset of exact steps";
    int sum = 0;
    for (const StrategyKind kind :
         {StrategyKind::kExactSmallCone, StrategyKind::kMajority,
          StrategyKind::kSimpleDominator, StrategyKind::kGeneralizedXor,
          StrategyKind::kShannonMux}) {
        sum += s.steps_for(kind);
    }
    EXPECT_EQ(sum, s.total_steps());
}

TEST(StrategyWide, WarmChainsFoundWithMoreBudgetAreNotServed) {
    // A chain synthesized under a large budget earlier in the process must
    // not reach a later small-budget job: its output has to equal the
    // small budget's cold run, whatever ran before it. A refused warm hit
    // counts as a fallback, as the failed cold synthesis it stands for
    // did, and never as a cache hit: the fallback counts agree.
    const auto run_preset = [](const Network& input, long long budget) {
        DecompFlowParams params;
        params.engine.preset = "exact-aggressive";
        params.engine.exact_sat_budget = budget;
        // Only chains of five steps and up cost conflicts; at the default
        // cap of four a warm chain is served to every positive budget.
        params.engine.exact_sat_max_steps = 8;
        params.cone_cache = false;
        return decompose_network(input, params);
    };
    for (const char* name : {"misex3", "f51m"}) {
        SCOPED_TRACE(name);
        const Network input = bsm::benchgen::benchmark_by_name(name, /*quick=*/true);
        ExactSynthesisCache::instance().clear();
        const DecompFlowResult cold = run_preset(input, 500);
        ExactSynthesisCache::instance().clear();
        (void)run_preset(input, 10000);
        const DecompFlowResult warm = run_preset(input, 500);
        EXPECT_EQ(net::write_blif(warm.network), net::write_blif(cold.network));
        EXPECT_EQ(warm.engine_stats.exact_sat_fallbacks,
                  cold.engine_stats.exact_sat_fallbacks);
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
