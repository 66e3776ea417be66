#include "flows/flows.hpp"

#include <chrono>
#include <stdexcept>

#include "aig/convert.hpp"
#include "aig/opt.hpp"
#include "network/cleanup.hpp"
#include "runtime/scheduler.hpp"

namespace bdsmaj::flows {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

void verify_synthesis_result(const net::Network& input, SynthesisResult& result,
                             const FlowOptions& options) {
    const auto start = Clock::now();
    net::CecParams cec;
    cec.engine = options.oracle;
    // The chain: input == optimized, then optimized == mapped. The mapped
    // netlist is a cell cover of the optimized network, so the second link
    // is almost all structural merges.
    const auto link = [&](const net::Network& reference, const net::Network& stage) {
        result.equivalence = net::check_equivalent(reference, stage, cec);
        if (!result.equivalence->equivalent) {
            throw std::runtime_error(
                result.flow_name + ": verification failed (engine " +
                net::equiv_engine_name(result.equivalence->engine) +
                "): " + result.equivalence->reason);
        }
        return result.equivalence->exact;
    };
    const bool first_exact = link(input, result.optimized);
    checkpoint(options);
    const bool second_exact = link(result.optimized, result.mapped.netlist);
    result.equivalence->exact = first_exact && second_exact;
    result.verify_seconds = seconds_since(start);
}

namespace {

SynthesisResult from_decomposition(const std::string& name, const net::Network& input,
                                   bool use_majority, const FlowOptions& options) {
    const auto start = Clock::now();
    decomp::DecompFlowParams params = options;
    params.engine.use_majority = use_majority;
    params.engine.preset = options.preset;
    decomp::DecompFlowResult d = decomp::decompose_network(input, params);
    SynthesisResult result;
    // Non-default presets surface in the flow name so multi-preset sweeps
    // stay tellable apart in logs and CLI output.
    result.flow_name = options.preset == "paper" ? name : name + "(" + options.preset + ")";
    result.engine_stats = d.engine_stats;
    result.optimized = std::move(d.network);
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds = seconds_since(start);
    result.mapped = mapping::map_network(result.optimized, default_library());
    if (options.verify) verify_synthesis_result(input, result, options);
    return result;
}

}  // namespace

const mapping::CellLibrary& default_library() {
    static const mapping::CellLibrary lib = mapping::CellLibrary::cmos22nm();
    return lib;
}

SynthesisResult flow_bdsmaj(const net::Network& input, const FlowOptions& options) {
    return from_decomposition("BDS-MAJ", input, /*use_majority=*/true, options);
}

SynthesisResult flow_bdspga(const net::Network& input, const FlowOptions& options) {
    return from_decomposition("BDS-PGA", input, /*use_majority=*/false, options);
}

SynthesisResult flow_abc(const net::Network& input, const FlowOptions& options) {
    const auto start = Clock::now();
    SynthesisResult result;
    result.flow_name = "ABC";
    aig::Aig a = aig::network_to_aig(net::cleanup(input));
    a = aig::resyn2(a);
    std::vector<std::string> in_names, out_names;
    for (const net::NodeId id : input.inputs()) in_names.push_back(input.node(id).name);
    for (const net::OutputPort& po : input.outputs()) out_names.push_back(po.name);
    // The paper's point about standard mappers is that they hide XOR/MAJ
    // structure (SV-B1); the faithful ABC configuration therefore maps the
    // plain AIG without structural motif recovery. The DC proxy, modeling
    // the stronger commercial tool, keeps recovery on.
    aig::AigToNetworkOptions map_options;
    map_options.detect_xor_mux = false;
    result.optimized =
        net::cleanup(aig::aig_to_network(a, in_names, out_names, map_options));
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds = seconds_since(start);
    result.mapped = mapping::map_network(result.optimized, default_library());
    if (options.verify) verify_synthesis_result(input, result, options);
    return result;
}

std::vector<SynthesisResult> run_all_flows(const net::Network& input,
                                           const FlowOptions& options) {
    // The BDS flows checkpoint internally (between supernodes) and DC
    // between its candidates; the ABC pass and each sign-off link are not
    // interruptible, so check the token — and the hard deadline — at every
    // flow boundary, the last one included.
    std::vector<SynthesisResult> out;
    for (const auto flow : {flow_bdsmaj, flow_bdspga, flow_abc, flow_dc}) {
        out.push_back(flow(input, options));
        checkpoint(options);
    }
    return out;
}

std::vector<SynthesisResult> run_flow(const net::Network& input, const std::string& flow,
                                      const FlowOptions& options) {
    if (flow == "all") return run_all_flows(input, options);
    std::vector<SynthesisResult> out;
    if (flow == "bdsmaj") {
        out.push_back(flow_bdsmaj(input, options));
    } else if (flow == "bdspga") {
        out.push_back(flow_bdspga(input, options));
    } else if (flow == "abc") {
        out.push_back(flow_abc(input, options));
    } else if (flow == "dc") {
        out.push_back(flow_dc(input, options));
    } else {
        throw std::invalid_argument("unknown flow \"" + flow + "\"");
    }
    // As in run_all_flows: a run that overran inside its flow, its mapping
    // or its sign-off must not report completion.
    checkpoint(options);
    return out;
}

std::vector<std::vector<SynthesisResult>> run_suite(const std::vector<net::Network>& inputs,
                                                    const FlowOptions& options,
                                                    const std::string& flow) {
    std::vector<std::vector<SynthesisResult>> results(inputs.size());
    FlowOptions per_circuit = options;
    if (inputs.size() > 1) per_circuit.jobs = 1;  // the budget fans out across circuits
    runtime::parallel_for(inputs.size(), runtime::effective_jobs(options.jobs),
                          [&](std::size_t i, int /*worker*/) {
                              // Between-circuit checkpoint; the flows' own
                              // checkpoints cover long single circuits.
                              checkpoint(options);
                              results[i] = run_flow(inputs[i], flow, per_circuit);
                          });
    return results;
}

}  // namespace bdsmaj::flows
