// Suite-level integration: every Table I benchmark (quick widths) runs
// through the BDS-MAJ and BDS-PGA decomposition flows with functional
// sign-off, plus aggregate shape checks corresponding to the paper's
// headline claims.

#include <gtest/gtest.h>

#include <chrono>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "flows/flows.hpp"
#include "network/blif.hpp"
#include "network/simulate.hpp"

namespace bdsmaj {
namespace {

/// The BDS-PGA (Table I baseline) configuration: no majority stage.
decomp::DecompFlowParams pga_params() {
    decomp::DecompFlowParams params;
    params.engine.use_majority = false;
    return params;
}

class SuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteTest, BdsMajFlowIsEquivalent) {
    const net::Network input = benchgen::benchmark_by_name(GetParam(), /*quick=*/true);
    const decomp::DecompFlowResult r = decomp::decompose_network(input);
    const auto eq = net::check_equivalent(input, r.network, 20, 64);
    EXPECT_TRUE(eq.equivalent) << GetParam() << ": " << eq.reason;
}

TEST_P(SuiteTest, BdsPgaFlowIsEquivalentAndMajFree) {
    const net::Network input = benchgen::benchmark_by_name(GetParam(), /*quick=*/true);
    const decomp::DecompFlowResult r = decomp::decompose_network(input, pga_params());
    const auto eq = net::check_equivalent(input, r.network, 20, 64);
    EXPECT_TRUE(eq.equivalent) << GetParam() << ": " << eq.reason;
    EXPECT_EQ(r.network.stats().maj_nodes, 0) << GetParam();
}

TEST_P(SuiteTest, MappedNetlistIsEquivalent) {
    const net::Network input = benchgen::benchmark_by_name(GetParam(), /*quick=*/true);
    const decomp::DecompFlowResult r = decomp::decompose_network(input);
    const mapping::MappedResult mapped =
        mapping::map_network(r.network, flows::default_library());
    const auto eq = net::check_equivalent(input, mapped.netlist, 20, 64);
    EXPECT_TRUE(eq.equivalent) << GetParam() << ": " << eq.reason;
    EXPECT_GT(mapped.gate_count, 0) << GetParam();
    EXPECT_GT(mapped.delay_ns, 0.0) << GetParam();
}

TEST_P(SuiteTest, BlifRoundTripOfDecomposedNetwork) {
    const net::Network input = benchgen::benchmark_by_name(GetParam(), /*quick=*/true);
    const decomp::DecompFlowResult r = decomp::decompose_network(input);
    const net::Network again = net::parse_blif(net::write_blif(r.network));
    const auto eq = net::check_equivalent(r.network, again, 20, 64);
    EXPECT_TRUE(eq.equivalent) << GetParam() << ": " << eq.reason;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteTest,
    ::testing::ValuesIn(benchgen::benchmark_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
        std::string name = info.param;
        for (char& c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
        }
        return name;
    });

TEST(SuiteAggregate, MajReducesTotalNodesAcrossSuite) {
    // The Table I headline at quick widths: BDS-MAJ's total node count over
    // the whole suite must be well below BDS-PGA's.
    long maj_total = 0, pga_total = 0, maj_nodes = 0;
    for (const auto& bc : benchgen::table_suite(/*quick=*/true)) {
        maj_total += decomp::decompose_network(bc.network).network.stats().total();
        pga_total += decomp::decompose_network(bc.network, pga_params()).network.stats().total();
        maj_nodes += decomp::decompose_network(bc.network).network.stats().maj_nodes;
    }
    EXPECT_LT(maj_total, pga_total);
    const double reduction =
        100.0 * (1.0 - static_cast<double>(maj_total) / static_cast<double>(pga_total));
    EXPECT_GT(reduction, 10.0) << "paper reports 29.1% at full widths";
    EXPECT_GT(maj_nodes, 0);
}

TEST(SuiteAggregate, RuntimeStaysInteractive) {
    // SV-B3: the paper stresses runtime efficiency; at quick widths the
    // whole decomposition suite must stay well under a minute.
    const auto start = std::chrono::steady_clock::now();
    for (const auto& bc : benchgen::table_suite(/*quick=*/true)) {
        (void)decomp::decompose_network(bc.network);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_LT(seconds, 60.0);
}

}  // namespace
}  // namespace bdsmaj
