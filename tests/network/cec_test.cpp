#include "network/cec.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <stdexcept>
#include <vector>

#include "benchgen/arith.hpp"
#include "benchgen/mcnc.hpp"
#include "decomp/flow.hpp"

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

TEST(SatEquivalence, ProvesIdenticalNetworks) {
    const Network a = full_adder();
    const Network b = full_adder();
    const EquivalenceResult r = sat_equivalent(a, b);
    EXPECT_TRUE(r.equivalent);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.engine, EquivEngine::kSat);
}

TEST(SatEquivalence, RefutesWithVerifiedCounterexample) {
    Network a;
    {
        const NodeId x = a.add_input("x");
        const NodeId y = a.add_input("y");
        const NodeId z = a.add_input("z");
        a.add_output("f", a.add_and(x, y));
        a.add_output("g", a.add_maj(x, y, z));
    }
    Network b;
    {
        const NodeId x = b.add_input("x");
        const NodeId y = b.add_input("y");
        const NodeId z = b.add_input("z");
        b.add_output("f", b.add_and(x, y));
        b.add_output("g", b.add_or(b.add_and(x, y), z));  // differs from maj
    }
    const EquivalenceResult r = sat_equivalent(a, b);
    ASSERT_FALSE(r.equivalent);
    EXPECT_TRUE(r.exact);  // refutation is a concrete re-verified witness
    EXPECT_EQ(r.engine, EquivEngine::kSat);
    EXPECT_EQ(r.failing_output, 1);
    ASSERT_EQ(r.counterexample.size(), 3u);
    // The witness must actually distinguish the networks at that output.
    const auto va = simulate(a, r.counterexample);
    const auto vb = simulate(b, r.counterexample);
    EXPECT_NE(va[1], vb[1]);
    EXPECT_NE(r.reason.find("output"), std::string::npos);
    EXPECT_NE(r.reason.find("g"), std::string::npos);  // failing output name
}

TEST(SatEquivalence, AgreesWithBddOnSmallCircuits) {
    // Random small PLA-style pairs: SAT and BDD must return the same
    // verdict on every instance, equivalent or not.
    std::mt19937_64 rng(0xcec);
    for (int trial = 0; trial < 20; ++trial) {
        const Network x = benchgen::make_random_control(
            "x", 6, 3, 8, /*seed=*/0x1000 + static_cast<std::uint64_t>(trial));
        const Network y = benchgen::make_random_control(
            "y", 6, 3, 8,
            /*seed=*/0x1000 + static_cast<std::uint64_t>(rng() % 2 ? trial : trial + 1));
        const EquivalenceResult via_sat = sat_equivalent(x, y);
        const EquivalenceResult via_bdd = bdd_equivalent(x, y);
        ASSERT_EQ(via_sat.equivalent, via_bdd.equivalent) << "trial " << trial;
        ASSERT_TRUE(via_sat.exact);
    }
}

TEST(SatEquivalence, FraigingOffStillProves) {
    const Network a = full_adder();
    const Network b = full_adder();
    CecParams params;
    params.fraig = false;
    CecStats stats;
    const EquivalenceResult r = sat_equivalent(a, b, params, &stats);
    EXPECT_TRUE(r.equivalent);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(stats.candidate_pairs, 0u);  // no internal queries ran
    EXPECT_GT(stats.sat_calls, 0u);        // only the output miters
}

TEST(SatEquivalence, DecomposedMcncCircuitsSignOffExactly) {
    // The real workload: decomposition results checked against their
    // inputs. alu2 and f51m are paper Table I circuits.
    for (const Network& input : {benchgen::make_alu2(), benchgen::make_f51m()}) {
        const decomp::DecompFlowResult r = decomp::decompose_network(input);
        CecStats stats;
        const EquivalenceResult eq = sat_equivalent(input, r.network, {}, &stats);
        EXPECT_TRUE(eq.equivalent) << input.model_name() << ": " << eq.reason;
        EXPECT_TRUE(eq.exact);
        EXPECT_GT(stats.proved_internal, 0u)
            << "fraiging found no cut-points on " << input.model_name();
    }
}

/// `network` with one random binary gate flipped AND<->OR / XOR<->XNOR.
Network mutate_one_gate(const Network& network, std::mt19937_64& rng) {
    Network mutated = network;
    std::vector<NodeId> candidates;
    for (std::size_t id = 0; id < mutated.node_count(); ++id) {
        switch (mutated.node(static_cast<NodeId>(id)).kind) {
            case GateKind::kAnd:
            case GateKind::kOr:
            case GateKind::kXor:
            case GateKind::kXnor:
                candidates.push_back(static_cast<NodeId>(id));
                break;
            default: break;
        }
    }
    if (candidates.empty()) return mutated;
    Node& node = mutated.node(candidates[rng() % candidates.size()]);
    switch (node.kind) {
        case GateKind::kAnd: node.kind = GateKind::kOr; break;
        case GateKind::kOr: node.kind = GateKind::kAnd; break;
        case GateKind::kXor: node.kind = GateKind::kXnor; break;
        default: node.kind = GateKind::kXor; break;
    }
    return mutated;
}

/// An inequivalence verdict's witness must distinguish the networks at
/// the reported output.
void expect_resimulates(const Network& a, const Network& b, const EquivalenceResult& r) {
    ASSERT_GE(r.failing_output, 0);
    const auto o = static_cast<std::size_t>(r.failing_output);
    EXPECT_NE(simulate(a, r.counterexample)[o], simulate(b, r.counterexample)[o]);
}

TEST(SatEquivalence, MutationFuzzingCatchesSingleGateChanges) {
    // Mutate one gate of a decomposed network; whenever the mutation
    // changes the function (confirmed independently by simulation), the
    // SAT oracle must refute with a valid counterexample.
    const Network input = benchgen::make_f51m();
    const decomp::DecompFlowResult d = decomp::decompose_network(input);
    std::mt19937_64 rng(0xf22);
    int refuted = 0, function_preserving = 0;
    for (int trial = 0; trial < 24; ++trial) {
        const Network mutated = mutate_one_gate(d.network, rng);
        const EquivalenceResult eq = sat_equivalent(input, mutated);
        // A mutation can be masked (redundant logic); cross-check the
        // verdict against long random simulation either way.
        const EquivalenceResult sim = random_equivalent(input, mutated, 256, trial);
        if (!sim.equivalent) {
            ASSERT_FALSE(eq.equivalent) << "SAT missed a simulation-visible bug";
        }
        if (eq.equivalent) {
            ++function_preserving;
        } else {
            ++refuted;
            expect_resimulates(input, mutated, eq);
        }
    }
    // On this circuit the vast majority of single-gate flips must be
    // function-changing and caught.
    EXPECT_GT(refuted, function_preserving);
}

/// `network` with output `output` complemented on exactly one pattern:
/// every input equal to `value` — invisible to random simulation at
/// these widths.
Network plant_difference(const Network& network, int output, bool value) {
    Network planted = network;
    NodeId hit = planted.add_constant(true);
    for (const NodeId x : network.inputs()) {
        hit = planted.add_and(hit, value ? x : planted.add_not(x));
    }
    OutputPort& out = planted.outputs()[static_cast<std::size_t>(output)];
    out.driver = planted.add_xor(out.driver, hit);
    return planted;
}

/// The reference verdict, or nullopt when the plain miter exhausts the
/// conflict budget (multiplier miters without sweeping often do).
std::optional<bool> reference_verdict(const Network& a, const Network& b,
                                      std::int64_t budget) {
    CecParams reference;
    reference.fraig = false;
    reference.output_conflict_limit = budget;
    try {
        const EquivalenceResult r = sat_equivalent(a, b, reference);
        if (!r.equivalent) expect_resimulates(a, b, r);
        return r.equivalent;
    } catch (const std::runtime_error&) {
        return std::nullopt;
    }
}

TEST(SatEquivalence, SweepAgreesWithReferenceModeOnWideMutations) {
    // The sweep (strash, cut-point substitution) against the fraig=false
    // reference (plain Tseitin miters) on the optimized networks of the
    // two widest arithmetic rows. SAT is called directly, without the
    // random pre-pass.
    for (const Network& input : {benchgen::make_c6288(), benchgen::make_mac(16)}) {
        const decomp::DecompFlowResult d = decomp::decompose_network(input);
        // Single-gate flips: simulation-visible ones must be refuted; the
        // reference must agree wherever it decides within its budget.
        std::mt19937_64 rng(0x6288);
        for (int trial = 0; trial < 6; ++trial) {
            const Network mutated = mutate_one_gate(d.network, rng);
            const EquivalenceResult sweep = sat_equivalent(input, mutated);
            EXPECT_TRUE(sweep.exact);
            if (!sweep.equivalent) expect_resimulates(input, mutated, sweep);
            if (!random_equivalent(input, mutated, 64, trial).equivalent) {
                EXPECT_FALSE(sweep.equivalent) << input.model_name() << " trial " << trial;
            }
            if (const std::optional<bool> ref = reference_verdict(input, mutated, 2000)) {
                EXPECT_EQ(sweep.equivalent, *ref) << input.model_name() << " trial " << trial;
            }
        }
        // Single-pattern differences random signatures cannot see: the
        // sweep's SAT queries must find the planted pattern, and the
        // reference decides these within its budget.
        for (const int output : {0, 7}) {
            for (const bool value : {false, true}) {
                const Network planted = plant_difference(d.network, output, value);
                CecStats stats;
                const EquivalenceResult sweep = sat_equivalent(input, planted, {}, &stats);
                ASSERT_FALSE(sweep.equivalent) << input.model_name() << " output " << output;
                EXPECT_GT(stats.sat_calls, 0u);
                EXPECT_EQ(sweep.failing_output, output);
                EXPECT_EQ(sweep.counterexample, std::vector<bool>(input.inputs().size(), value));
                expect_resimulates(input, planted, sweep);
                EXPECT_EQ(reference_verdict(input, planted, 20000), std::optional<bool>(false));
            }
        }
    }
}

TEST(SatEquivalence, StatsAccumulateAcrossChecks) {
    // One CecStats reused across the two checks of a sign-off must add
    // up to the two checks' separate counts — conflicts included.
    const Network input = benchgen::make_wallace_multiplier(8);
    const decomp::DecompFlowResult d = decomp::decompose_network(input);
    const Network again = decomp::decompose_network(d.network).network;
    CecStats first, second, reused;
    ASSERT_TRUE(sat_equivalent(input, d.network, {}, &first).equivalent);
    ASSERT_TRUE(sat_equivalent(input, again, {}, &second).equivalent);
    ASSERT_TRUE(sat_equivalent(input, d.network, {}, &reused).equivalent);
    ASSERT_TRUE(sat_equivalent(input, again, {}, &reused).equivalent);
    EXPECT_GT(first.conflicts, 0u);
    EXPECT_GT(second.conflicts, 0u);
    EXPECT_EQ(reused.conflicts, first.conflicts + second.conflicts);
    EXPECT_EQ(reused.sat_calls, first.sat_calls + second.sat_calls);
    EXPECT_EQ(reused.proved_internal, first.proved_internal + second.proved_internal);
    EXPECT_EQ(reused.structural_merges, first.structural_merges + second.structural_merges);
    EXPECT_GT(first.structural_merges, 0u);
}

TEST(SatEquivalence, IdenticalLogicMergesStructurally) {
    // Two copies of the same network hash onto one literal per node: the
    // proof needs no SAT call at all.
    CecStats stats;
    const EquivalenceResult r = sat_equivalent(full_adder(), full_adder(), {}, &stats);
    EXPECT_TRUE(r.equivalent);
    EXPECT_EQ(stats.sat_calls, 0u);
    EXPECT_EQ(stats.candidate_pairs, 0u);
    EXPECT_GT(stats.structural_merges, 0u);
}

/// Exhaustive simulation and the BDD engine must agree on `input` against
/// its optimized network and against `mutations` single-gate mutations of
/// it, with every counterexample re-simulating.
void expect_exhaustive_agrees_with_bdd(const Network& input, int mutations) {
    const decomp::DecompFlowResult d = decomp::decompose_network(input);
    std::mt19937_64 rng(0xe4a);
    std::vector<Network> candidates{d.network};
    for (int m = 0; m < mutations; ++m) candidates.push_back(mutate_one_gate(d.network, rng));
    for (const Network& candidate : candidates) {
        const EquivalenceResult ex = exhaustive_equivalent(input, candidate);
        const EquivalenceResult bdd = bdd_equivalent(input, candidate);
        EXPECT_EQ(ex.engine, EquivEngine::kExhaustive);
        ASSERT_EQ(ex.equivalent, bdd.equivalent) << input.model_name();
        if (!ex.equivalent) {
            expect_resimulates(input, candidate, ex);
            expect_resimulates(input, candidate, bdd);
        }
    }
}

TEST(CheckEquivalent, ExhaustiveAgreesWithBddOnNarrowTableIIRows) {
    // Every Table II row with at most 20 inputs at paper width except
    // Rev, which has its own test below.
    for (const Network& input : {benchgen::make_alu2(), benchgen::make_vda(),
                                 benchgen::make_f51m(), benchgen::make_misex3()}) {
        ASSERT_LE(input.inputs().size(), 20u);
        expect_exhaustive_agrees_with_bdd(input, 6);
    }
}

TEST(CheckEquivalent, ExhaustiveAgreesWithBddOnReciprocal15) {
    // Rev at 15 bits, where its global BDD still builds in seconds.
    expect_exhaustive_agrees_with_bdd(benchgen::make_reciprocal(15), 2);
}

TEST(CheckEquivalent, AutoDispatchesByInputCount) {
    // 3 inputs <= exhaustive_input_limit: exhaustive simulation proves it.
    {
        const EquivalenceResult r = check_equivalent(full_adder(), full_adder());
        EXPECT_TRUE(r.equivalent);
        EXPECT_TRUE(r.exact);
        EXPECT_EQ(r.engine, EquivEngine::kExhaustive);
    }
    // Forcing the limit to 0 pushes the same pair to the SAT engine.
    {
        CecParams params;
        params.exhaustive_input_limit = 0;
        const EquivalenceResult r = check_equivalent(full_adder(), full_adder(), params);
        EXPECT_TRUE(r.equivalent);
        EXPECT_TRUE(r.exact);
        EXPECT_EQ(r.engine, EquivEngine::kSat);
    }
}

TEST(CheckEquivalent, SimEngineNeverClaimsExactAgreement) {
    CecParams params;
    params.engine = EquivEngine::kSim;
    const EquivalenceResult r = check_equivalent(full_adder(), full_adder(), params);
    EXPECT_TRUE(r.equivalent);
    EXPECT_FALSE(r.exact);  // sampled only — the old silent downgrade, now labeled
    EXPECT_EQ(r.engine, EquivEngine::kSim);
}

TEST(CheckEquivalent, WideCircuitsGetExactSatSignOffNotRandomDowngrade) {
    // 32 inputs: beyond any feasible global BDD. The legacy path silently
    // returned a random-simulation verdict here; the oracle must now
    // produce an exact SAT proof.
    const Network input = benchgen::make_wallace_multiplier(8);  // 16 PIs
    const Network wide = benchgen::make_array_multiplier(16);    // 32 PIs
    const decomp::DecompFlowResult d = decomp::decompose_network(wide);
    const EquivalenceResult r = check_equivalent(wide, d.network);
    EXPECT_TRUE(r.equivalent);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.engine, EquivEngine::kSat);
    // And a 16-input circuit is proven by exhaustive simulation under the
    // same defaults.
    const decomp::DecompFlowResult ds = decomp::decompose_network(input);
    const EquivalenceResult rs = check_equivalent(input, ds.network);
    EXPECT_TRUE(rs.equivalent);
    EXPECT_EQ(rs.engine, EquivEngine::kExhaustive);
}

TEST(CheckEquivalent, EngineNamesRoundTrip) {
    for (const EquivEngine e : {EquivEngine::kAuto, EquivEngine::kBdd,
                                EquivEngine::kSat, EquivEngine::kSim}) {
        EXPECT_EQ(parse_equiv_engine(equiv_engine_name(e)), e);
    }
    EXPECT_THROW((void)parse_equiv_engine("bogus"), std::invalid_argument);
}

TEST(CheckEquivalent, BddRefutationCarriesCounterexampleToo) {
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
        b.add_output("f", b.add_xor(x, y));
    }
    const EquivalenceResult r = bdd_equivalent(a, b);
    ASSERT_FALSE(r.equivalent);
    EXPECT_TRUE(r.exact);
    ASSERT_EQ(r.counterexample.size(), 2u);
    EXPECT_EQ(r.failing_output, 0);
    EXPECT_NE(simulate(a, r.counterexample)[0], simulate(b, r.counterexample)[0]);
}

}  // namespace
}  // namespace bdsmaj::net
