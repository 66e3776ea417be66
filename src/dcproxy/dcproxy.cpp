// Design Compiler proxy (see docs/architecture.md, "Substitutions").
//
// The paper compares against Synopsys DC with `compile -area -effort high`.
// DC is closed source; the proxy models a strong conventional flow by
// running several unrelated recipes at higher effort and keeping the best
// mapped area — the multi-recipe, area-effort behaviour commercial tools
// exhibit — while staying majority-blind like DC's 2013 mapper. The
// candidates, in tie-breaking order:
//   1. the AIG script (resyn2);
//   2. the AIG script twice (resyn2 of candidate 1's AIG, computed once);
//   3. the BDD decomposition flow without majority support, then resyn2;
//   4. that decomposition as it stands.

#include <chrono>

#include "aig/convert.hpp"
#include "aig/opt.hpp"
#include "flows/flows.hpp"
#include "network/cleanup.hpp"

namespace bdsmaj::flows {

namespace {

net::Network to_network(const aig::Aig& a, const net::Network& input) {
    std::vector<std::string> in_names, out_names;
    for (const net::NodeId id : input.inputs()) in_names.push_back(input.node(id).name);
    for (const net::OutputPort& po : input.outputs()) out_names.push_back(po.name);
    return net::cleanup(aig::aig_to_network(a, in_names, out_names));
}

aig::Aig resyn2_of(const net::Network& input) {
    return aig::resyn2(aig::network_to_aig(net::cleanup(input)));
}

}  // namespace

SynthesisResult flow_dc(const net::Network& input, const FlowOptions& options) {
    const auto start = std::chrono::steady_clock::now();
    SynthesisResult result;
    result.flow_name = "DC";

    // checkpoint(options) after each candidate: the recipes themselves are
    // not interruptible, so a cancelled or overdue run stops between them.
    std::vector<net::Network> candidates;
    {
        const aig::Aig once = resyn2_of(input);
        candidates.push_back(to_network(once, input));
        checkpoint(options);
        candidates.push_back(to_network(aig::resyn2(once), input));
        checkpoint(options);
    }
    {
        // The engine defaults, not the caller's decomposition knobs: the
        // proxy models a fixed commercial recipe. Only the stop conditions
        // pass through.
        decomp::DecompFlowParams params;
        params.engine.use_majority = false;
        params.cancel = options.cancel;
        params.deadline = options.deadline;
        decomp::DecompFlowResult d = decomp::decompose_network(input, params);
        candidates.push_back(to_network(resyn2_of(d.network), d.network));
        checkpoint(options);
        candidates.push_back(std::move(d.network));
    }

    bool first = true;
    for (net::Network& candidate : candidates) {
        mapping::MappedResult mapped =
            mapping::map_network(candidate, default_library());
        if (first || mapped.area_um2 < result.mapped.area_um2) {
            result.mapped = std::move(mapped);
            result.optimized = std::move(candidate);
            first = false;
        }
    }
    result.optimized_stats = result.optimized.stats();
    result.optimize_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (options.verify) verify_synthesis_result(input, result, options);
    return result;
}

}  // namespace bdsmaj::flows
