#pragma once
// The four synthesis flows compared in Table II, each from input network to
// mapped netlist over the same CMOS 22 nm cell library:
//
//   * BDS-MAJ : partition -> BDD decomposition with majority (this paper)
//               -> direct MAJ/XOR/XNOR cell assignment + NAND/NOR/INV cover
//   * BDS-PGA : same engine without the majority stage (Table I baseline)
//   * ABC     : AIG + resyn2-style script, mapped without XOR/MUX motif
//               recovery
//   * DC      : commercial-style proxy — best-of multiple recipes at high
//               area effort (see docs/architecture.md, "Substitutions", for
//               the substitution rationale)

#include <optional>
#include <string>
#include <vector>

#include "decomp/flow.hpp"
#include "mapping/mapper.hpp"
#include "network/cec.hpp"
#include "network/network.hpp"

namespace bdsmaj::flows {

/// Per-run knobs of every flow: the decomposition parameters the BDS flows
/// hand to decomp::decompose_network, plus the flow-level preset and
/// sign-off. Each BDS flow picks `engine.use_majority` itself (BDS-MAJ
/// on, BDS-PGA off). ABC and DC ignore the decomposition knobs: DC's
/// internal decomposition runs the engine defaults and takes only
/// `cancel` and `deadline`, so its netlists never depend on them.
struct FlowOptions : decomp::DecompFlowParams {
    /// Decomposition strategy preset for the BDS flows (see
    /// decomp::preset_catalog()); it replaces `engine.preset`. "paper"
    /// reproduces the published ladder byte-for-byte. Non-default presets
    /// also decorate the flow name ("BDS-MAJ(exact-aggressive)").
    std::string preset = "paper";
    /// Equivalence engine for the sign-off below.
    net::EquivEngine oracle = net::EquivEngine::kAuto;
    /// Sign off each flow before returning (all four flows):
    /// verify_synthesis_result proves input == optimized, then optimized
    /// == mapped netlist. Exact at any input width for every engine but
    /// kSim.
    bool verify = false;
};

struct SynthesisResult {
    std::string flow_name;
    net::Network optimized;           ///< technology-independent result
    net::NetworkStats optimized_stats;
    mapping::MappedResult mapped;
    double optimize_seconds = 0.0;
    decomp::EngineStats engine_stats;  ///< BDS flows only
    /// Sign-off verdict when FlowOptions::verify was set: the verdict of
    /// the chain's last link (optimized vs mapped netlist), with `exact`
    /// true only if both links were exact. Always `equivalent`, or the
    /// flow would have thrown; `verify_seconds` is the total sign-off time
    /// (both links).
    std::optional<net::EquivalenceResult> equivalence;
    double verify_seconds = 0.0;
};

/// The library shared by all flows (paper SV-B1).
[[nodiscard]] const mapping::CellLibrary& default_library();

/// The cancellation and deadline checkpoint of every flow layer:
/// decomp::FlowCancelled once `options.cancel` is set, then
/// decomp::DeadlineExceeded once `options.deadline` has passed.
using decomp::checkpoint;

/// The one sign-off of every flow (FlowOptions::verify, the service, the
/// CLI), a chain of two exact checks with `options.oracle`: `input` ==
/// `result.optimized`, then `result.optimized` == `result.mapped.netlist`.
/// Transitivity gives input == mapped with the same guarantee. Runs
/// checkpoint(options) between the links. On a mismatch it records the
/// failing link's verdict in `result.equivalence` and throws
/// std::runtime_error; the counterexample then distinguishes the input
/// from that stage too, since every earlier link was proven (under kSim,
/// only sampled). On success it records the verdict and the sign-off wall
/// time.
void verify_synthesis_result(const net::Network& input, SynthesisResult& result,
                             const FlowOptions& options = {});

/// The four flows of Table II. Each signs itself off when
/// `options.verify` is set. The BDS flows honor every decomposition knob;
/// their result depends only on the preset and the engine/manager
/// parameters, never on `jobs`. ABC and DC are serial and
/// preset-independent; DC checkpoints (checkpoint(options)) between its
/// candidates.
[[nodiscard]] SynthesisResult flow_bdsmaj(const net::Network& input,
                                          const FlowOptions& options = {});
[[nodiscard]] SynthesisResult flow_bdspga(const net::Network& input,
                                          const FlowOptions& options = {});
[[nodiscard]] SynthesisResult flow_abc(const net::Network& input,
                                       const FlowOptions& options = {});
[[nodiscard]] SynthesisResult flow_dc(const net::Network& input,
                                      const FlowOptions& options = {});

/// All four, in Table II column order, with checkpoint(options) after each
/// flow (the last one too: a run that overran inside DC or its sign-off
/// never returns normally).
[[nodiscard]] std::vector<SynthesisResult> run_all_flows(const net::Network& input,
                                                         const FlowOptions& options = {});

/// One flow by name: "bdsmaj", "bdspga", "abc", "dc" (one result, followed
/// by checkpoint(options)) or "all" (run_all_flows). Any other name throws
/// std::invalid_argument.
[[nodiscard]] std::vector<SynthesisResult> run_flow(const net::Network& input,
                                                    const std::string& flow,
                                                    const FlowOptions& options = {});

/// Batched suite synthesis: entry i of the result is run_flow(inputs[i],
/// flow, options), with checkpoint(options) before each circuit. A single
/// input keeps the whole `options.jobs` budget for its supernodes; a
/// larger suite fans the budget out across circuits on the shared process
/// pool (runtime::global_pool()), each circuit running with jobs = 1.
/// Networks are independent, so the outputs are identical at any budget;
/// only wall-clock changes. This is what the Table I/II sweeps, the bench
/// harness and flows::SynthesisService (flows/service.hpp, the
/// admission-controlled asynchronous front door) run.
[[nodiscard]] std::vector<std::vector<SynthesisResult>> run_suite(
    const std::vector<net::Network>& inputs, const FlowOptions& options = {},
    const std::string& flow = "all");

}  // namespace bdsmaj::flows
