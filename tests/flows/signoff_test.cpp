// The chained sign-off (flows::verify_synthesis_result): input ==
// optimized, then optimized == mapped netlist. A broken mapped netlist
// fails with a counterexample that separates it from the input itself; a
// broken optimized network fails at the first link; correct flows of
// every kind still pass, directly and through the service.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::flows {
namespace {

using net::GateKind;
using net::Network;
using net::NodeId;

/// Flip one gate to its dual kind (AND/OR, NAND/NOR, XOR/XNOR), retrying
/// until random simulation shows the function changed.
Network mutate_one_gate(const Network& network, std::mt19937_64& rng) {
    std::vector<NodeId> candidates;
    for (std::size_t id = 0; id < network.node_count(); ++id) {
        switch (network.node(static_cast<NodeId>(id)).kind) {
            case GateKind::kAnd:
            case GateKind::kOr:
            case GateKind::kNand:
            case GateKind::kNor:
            case GateKind::kXor:
            case GateKind::kXnor:
                candidates.push_back(static_cast<NodeId>(id));
                break;
            default: break;
        }
    }
    if (candidates.empty()) throw std::logic_error("no gate to mutate");
    for (int attempt = 0; attempt < 100; ++attempt) {
        Network mutated = network;
        net::Node& node = mutated.node(candidates[rng() % candidates.size()]);
        switch (node.kind) {
            case GateKind::kAnd: node.kind = GateKind::kOr; break;
            case GateKind::kOr: node.kind = GateKind::kAnd; break;
            case GateKind::kNand: node.kind = GateKind::kNor; break;
            case GateKind::kNor: node.kind = GateKind::kNand; break;
            case GateKind::kXor: node.kind = GateKind::kXnor; break;
            default: node.kind = GateKind::kXor; break;
        }
        if (!net::random_equivalent(network, mutated, 16, rng()).equivalent) return mutated;
    }
    throw std::logic_error("no visible mutation found");
}

/// alu2 (10 inputs) signs off by exhaustive simulation, dalu (75 inputs)
/// by the SAT sweep.
const char* const kCircuits[] = {"alu2", "dalu"};

TEST(SignOff, MutatedMappedNetlistFailsWithAnInputCounterexample) {
    std::mt19937_64 rng(7);
    for (const char* name : kCircuits) {
        SCOPED_TRACE(name);
        const Network input = benchgen::benchmark_by_name(name, /*quick=*/true);
        SynthesisResult r = flow_bdsmaj(input);
        for (int trial = 0; trial < 4; ++trial) {
            SynthesisResult broken = r;
            broken.mapped.netlist = mutate_one_gate(r.mapped.netlist, rng);
            EXPECT_THROW(verify_synthesis_result(input, broken), std::runtime_error);
            ASSERT_TRUE(broken.equivalence.has_value());
            const net::EquivalenceResult& eq = *broken.equivalence;
            EXPECT_FALSE(eq.equivalent);
            EXPECT_TRUE(eq.exact);
            // Found on the second link (optimized vs mapped), the witness
            // separates the input from the mapped netlist as well.
            ASSERT_GE(eq.failing_output, 0);
            const auto o = static_cast<std::size_t>(eq.failing_output);
            EXPECT_NE(net::simulate(input, eq.counterexample)[o],
                      net::simulate(broken.mapped.netlist, eq.counterexample)[o]);
        }
    }
}

TEST(SignOff, MutatedOptimizedNetworkFailsAtTheFirstLink) {
    // A raised cancel token makes the checkpoint between the two links
    // throw FlowCancelled: a mismatch reported instead was found by the
    // first link, and a correct result reaches the checkpoint.
    std::mt19937_64 rng(11);
    const std::atomic<bool> stop{true};
    FlowOptions options;
    options.cancel = &stop;
    for (const char* name : kCircuits) {
        SCOPED_TRACE(name);
        const Network input = benchgen::benchmark_by_name(name, /*quick=*/true);
        SynthesisResult r = flow_bdsmaj(input);
        SynthesisResult intact = r;
        EXPECT_THROW(verify_synthesis_result(input, intact, options), decomp::FlowCancelled);
        r.optimized = mutate_one_gate(r.optimized, rng);
        EXPECT_THROW(verify_synthesis_result(input, r, options), std::runtime_error);
        ASSERT_TRUE(r.equivalence.has_value());
        EXPECT_FALSE(r.equivalence->equivalent);
        const auto o = static_cast<std::size_t>(r.equivalence->failing_output);
        EXPECT_NE(net::simulate(input, r.equivalence->counterexample)[o],
                  net::simulate(r.optimized, r.equivalence->counterexample)[o]);
    }
}

TEST(SignOff, AllFlowsPassOnMcncDirectlyAndThroughTheService) {
    FlowOptions options;
    options.verify = true;
    SynthesisService service;
    for (const char* name : kCircuits) {
        SCOPED_TRACE(name);
        const Network input = benchgen::benchmark_by_name(name, /*quick=*/true);
        // run_all_flows signs ABC and DC off itself; the BDS flows inside.
        for (const SynthesisResult& r : run_all_flows(input, options)) {
            ASSERT_TRUE(r.equivalence.has_value()) << r.flow_name;
            EXPECT_TRUE(r.equivalence->equivalent) << r.flow_name;
            EXPECT_TRUE(r.equivalence->exact) << r.flow_name;
        }
        for (const char* flow : {"bdsmaj", "bdspga", "abc", "dc"}) {
            SynthesisJobParams jp;
            jp.flow = flow;
            jp.verify = true;
            const FlowResult fr = service.submit(input, jp).result.get();
            ASSERT_EQ(fr.status, JobStatus::kCompleted) << flow;
            const SynthesisResult& r = fr.results.at(0).at(0);
            ASSERT_TRUE(r.equivalence.has_value()) << flow;
            EXPECT_TRUE(r.equivalence->equivalent) << flow;
            EXPECT_TRUE(r.equivalence->exact) << flow;
        }
    }
}

}  // namespace
}  // namespace bdsmaj::flows
