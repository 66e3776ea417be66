// Pins the CDCL solver's search trajectory. A solver change that only
// makes each conflict cheaper (data layout, watch-list walking, clause
// storage) must leave every counter below identical: the same conflicts,
// decisions, propagations, restarts, learned clauses and literals,
// minimized literals and database reductions. Exact chain synthesis and
// the SAT sign-off are pure functions of that trajectory, so identical
// counters mean identical chains, netlists and verdicts.
//
// A change that alters the search on purpose (a new minimization, a
// different restart or reduction policy) must re-pin these values
// deliberately; the failure message prints the fresh values in
// initializer form.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/exact_sat.hpp"
#include "flows/flows.hpp"
#include "network/cec.hpp"
#include "sat/solver.hpp"

namespace bdsmaj {
namespace {

std::string initializer(const sat::SolverStats& s) {
    std::ostringstream out;
    out << "{" << s.conflicts << ", " << s.decisions << ", " << s.propagations << ", "
        << s.restarts << ", " << s.learned_clauses << ", " << s.learned_literals << ", "
        << s.minimized_literals << ", " << s.db_reductions << "}";
    return out.str();
}

std::uint64_t parity_tt(int n) {
    std::uint64_t tt = 0;
    for (int m = 0; m < (1 << n); ++m) {
        if (std::popcount(static_cast<unsigned>(m)) & 1) tt |= 1ULL << m;
    }
    return tt;
}

struct ExactCase {
    const char* name;
    std::uint64_t tt;
    int inputs;
    long long budget;
    decomp::ExactSatStatus status;
    long long conflicts;
    sat::SolverStats stats;
};

constexpr std::uint64_t x0 = 0xaaaaaaaaaaaaaaaaULL;
constexpr std::uint64_t x1 = 0xccccccccccccccccULL;
constexpr std::uint64_t x2 = 0xf0f0f0f0f0f0f0f0ULL;
constexpr std::uint64_t x3 = 0xff00ff00ff00ff00ULL;
constexpr std::uint64_t x4 = 0xffff0000ffff0000ULL;
constexpr std::uint64_t x5 = 0xffffffff00000000ULL;
constexpr std::uint64_t kMask5 = 0xffffffffULL;

constexpr std::uint64_t maj(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    return (a & b) | (a & c) | (b & c);
}

std::uint64_t maj5_tt() {
    std::uint64_t tt = 0;
    for (int m = 0; m < 32; ++m) {
        if (std::popcount(static_cast<unsigned>(m)) >= 3) tt |= 1ULL << m;
    }
    return tt;
}

/// The minimum-chain classes of ExactSat.CappingAtTheMinimumChainLength-
/// ChangesNothing, plus one 6-input function that exhausts a 10000-conflict
/// budget: the only case long enough to exercise restarts deep into the
/// Luby sequence and learned-clause database reductions.
std::vector<ExactCase> exact_cases() {
    using decomp::ExactSatStatus;
    const std::uint64_t mux_tree6 = (x0 & (x1 ^ x2)) | (~x0 & maj(x3, x4, x5));
    return {
        {"maj5", maj5_tt(), 5, 10000, ExactSatStatus::kFound, 5502,
         {5502, 9910, 108922, 21, 5502, 81490, 31296, 1}},
        {"parity5", parity_tt(5), 5, 10000, ExactSatStatus::kFound, 743,
         {743, 1650, 12518, 2, 743, 8924, 3813, 0}},
        {"and5", x0 & x1 & x2 & x3 & x4 & kMask5, 5, 10000, ExactSatStatus::kFound, 3410,
         {3410, 6390, 73643, 13, 3410, 51224, 14555, 0}},
        {"maj_of_maj", maj(maj(x0, x1, x2), x3, x4) & kMask5, 5, 10000,
         ExactSatStatus::kFound, 64,
         {64, 401, 1343, 0, 64, 635, 125, 0}},
        {"maj_with_parity", maj(x0, x1, x2 ^ x3 ^ x4) & kMask5, 5, 10000,
         ExactSatStatus::kFound, 1412,
         {1412, 2657, 25295, 6, 1412, 17994, 6806, 0}},
        {"parity6", parity_tt(6), 6, 10000, ExactSatStatus::kFound, 3962,
         {3962, 7237, 117657, 14, 3962, 86791, 57713, 0}},
        {"mux_tree6", mux_tree6, 6, 10000, ExactSatStatus::kFound, 1218,
         {1218, 3563, 29288, 5, 1218, 21533, 6629, 0}},
        {"maj_xor_maj6", maj(x0, x1, x2) ^ maj(x3, x4, x5), 6, 10000,
         ExactSatStatus::kFound, 243,
         {243, 1523, 6915, 0, 243, 4598, 865, 0}},
        {"hard6_budget", 0x9e3779b97f4a7c15ULL, 6, 10000, ExactSatStatus::kUnknown, 10002,
         {10002, 20850, 261582, 30, 10002, 239896, 105230, 3}},
    };
}

TEST(SolverTrajectory, ExactChainSynthesisCountersArePinned) {
    for (const ExactCase& c : exact_cases()) {
        SCOPED_TRACE(c.name);
        decomp::ExactSatParams params;
        params.conflict_budget = c.budget;
        params.max_steps = 8;
        // The CDCL search from the fanin floor: exact_sat_synthesize runs
        // this loop from five steps, after deciding shorter chains.
        const decomp::ExactSatResult res =
            decomp::detail::cdcl_chain_search(c.tt, c.inputs, params, 1);
        EXPECT_EQ(res.status, c.status);
        EXPECT_EQ(res.conflicts, c.conflicts);
        EXPECT_EQ(res.solver_stats.conflicts, static_cast<std::uint64_t>(res.conflicts));
        EXPECT_TRUE(res.solver_stats == c.stats)
            << "pinned " << initializer(c.stats) << "\n  fresh  " << initializer(res.solver_stats)
            << " (conflicts " << res.conflicts << ")";
    }
}

TEST(SolverTrajectory, IncrementalAssumptionSolvesArePinned) {
    // Random 3-SAT near the threshold, solved repeatedly under assumption
    // sets with clauses added between calls: pins the counters plus a
    // hash of every verdict, model and final-conflict core.
    sat::Solver s;
    std::vector<sat::Var> vars;
    for (int i = 0; i < 120; ++i) vars.push_back(s.new_var());
    std::uint64_t rng = 0x2545f4914f6cdd1dULL;
    const auto next = [&rng](int bound) {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<int>(rng % static_cast<std::uint64_t>(bound));
    };
    const auto random_lit = [&] {
        return sat::Lit::make(vars[static_cast<std::size_t>(next(120))], next(2) == 1);
    };
    for (int c = 0; c < 480; ++c) (void)s.add_clause(random_lit(), random_lit(), random_lit());
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    const auto mix = [&digest](std::uint64_t x) { digest = (digest ^ x) * 0x100000001b3ULL; };
    for (int round = 0; round < 24; ++round) {
        std::vector<sat::Lit> assumptions;
        for (int a = 0; a < 6; ++a) assumptions.push_back(random_lit());
        const sat::SolveResult r = s.solve(assumptions, 3000);
        mix(static_cast<std::uint64_t>(r));
        if (r == sat::SolveResult::kSat) {
            for (const sat::Var v : vars) mix(static_cast<std::uint64_t>(s.model_value(v)));
        }
        for (const sat::Lit p : s.conflict_core()) mix(static_cast<std::uint64_t>(p.x));
        (void)s.add_clause(random_lit(), random_lit(), random_lit());
    }
    EXPECT_EQ(digest, 6242010344236090347ULL);
    const sat::SolverStats pinned{1098, 1369, 30829, 1, 1098, 9824, 1164, 0};
    EXPECT_TRUE(s.stats() == pinned)
        << "pinned " << initializer(pinned) << "\n  fresh  " << initializer(s.stats());
}

struct SignoffCase {
    const char* benchmark;
    std::uint64_t sat_calls;
    std::uint64_t conflicts;
    std::uint64_t candidate_pairs;
    std::uint64_t refuted_internal;
};

TEST(SolverTrajectory, SatSignoffCountersArePinned) {
    // The flow's own sign-off chain (input == optimized network, then
    // optimized == mapped netlist) with the SAT engine forced, counted
    // into one CecStats.
    const std::vector<SignoffCase> cases = {
        {"Div 18 bit", 1379, 2806, 825, 330},
        {"SQRT 32 bit", 410, 9353, 205, 0},
    };
    for (const SignoffCase& c : cases) {
        SCOPED_TRACE(c.benchmark);
        const net::Network input = benchgen::benchmark_by_name(c.benchmark);
        const flows::SynthesisResult r = flows::flow_bdsmaj(input);
        net::CecParams params;
        params.engine = net::EquivEngine::kSat;
        net::CecStats stats;
        ASSERT_TRUE(net::check_equivalent(input, r.optimized, params, &stats).equivalent);
        ASSERT_TRUE(
            net::check_equivalent(r.optimized, r.mapped.netlist, params, &stats).equivalent);
        EXPECT_EQ(stats.sat_calls, c.sat_calls);
        EXPECT_EQ(stats.conflicts, c.conflicts);
        EXPECT_EQ(stats.candidate_pairs, c.candidate_pairs);
        EXPECT_EQ(stats.refuted_internal, c.refuted_internal);
    }
}

}  // namespace
}  // namespace bdsmaj
