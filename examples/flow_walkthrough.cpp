// Walk through the BDS-MAJ pipeline of Fig. 3 phase by phase on one
// circuit, printing what each stage sees and produces:
//   network partitioning -> local BDDs (+ sifting) -> decomposition with
//   majority support -> shared factoring -> cleanup -> mapping.

#include <algorithm>
#include <cstdio>

#include "benchgen/arith.hpp"
#include "decomp/flow.hpp"
#include "decomp/partition.hpp"
#include "flows/flows.hpp"
#include "network/simulate.hpp"

int main() {
    using namespace bdsmaj;
    const net::Network input = benchgen::make_mac(8);
    std::printf("=== input: %s ===\n", input.model_name().c_str());
    const net::NetworkStats in_stats = input.stats();
    std::printf("PIs=%d POs=%d nodes=%d depth=%d\n\n", in_stats.inputs,
                in_stats.outputs, in_stats.total(), input.logic_depth());

    std::printf("=== phase 1: network partitioning (partial collapse) ===\n");
    const auto supernodes = decomp::partition_network(input, {});
    std::size_t max_leaves = 0, max_cone = 0;
    for (const auto& sn : supernodes) {
        max_leaves = std::max(max_leaves, sn.leaves.size());
        max_cone = std::max(max_cone, sn.cone.size());
    }
    std::printf("%zu supernodes; widest support %zu leaves; largest cone %zu gates\n\n",
                supernodes.size(), max_leaves, max_cone);

    std::printf("=== phases 2-4: local BDDs, reordering, decomposition ===\n");
    const decomp::DecompFlowResult d = decomp::decompose_network(input);
    const decomp::EngineStats& es = d.engine_stats;
    std::printf("decomposition steps: AND=%d OR=%d XOR=%d MAJ=%d MUX(Shannon)=%d\n",
                es.and_steps, es.or_steps, es.xor_steps, es.maj_steps, es.mux_steps);
    std::printf("majority decompositions evaluated=%d, rejected by the global "
                "k=1.6 gate=%d\n",
                es.maj_attempts, es.maj_rejected);
    const net::NetworkStats s = d.network.stats();
    std::printf("factored network: AND=%d OR=%d XOR=%d XNOR=%d MAJ=%d (total %d) "
                "in %.3fs\n\n",
                s.and_nodes, s.or_nodes, s.xor_nodes, s.xnor_nodes, s.maj_nodes,
                s.total(), d.seconds);

    std::printf("=== phase 5: technology mapping (CMOS 22nm) ===\n");
    const mapping::MappedResult mapped =
        mapping::map_network(d.network, flows::default_library());
    const net::NetworkStats ms = mapped.netlist.stats();
    std::printf("cells: NAND/NOR=%d XOR2/XNOR2=%d MAJ3=%d INV=%d\n",
                ms.and_nodes + ms.or_nodes, ms.xor_nodes + ms.xnor_nodes,
                ms.maj_nodes, ms.not_nodes);
    std::printf("area %.2f um^2, %d cells, critical path %.3f ns\n\n",
                mapped.area_um2, mapped.gate_count, mapped.delay_ns);

    std::printf("=== sign-off ===\n");
    const auto eq1 = net::check_equivalent(input, d.network);
    const auto eq2 = net::check_equivalent(input, mapped.netlist);
    std::printf("decomposed network equivalent: %s\n", eq1.equivalent ? "yes" : "NO");
    std::printf("mapped netlist equivalent    : %s\n", eq2.equivalent ? "yes" : "NO");
    return eq1.equivalent && eq2.equivalent ? 0 : 1;
}
