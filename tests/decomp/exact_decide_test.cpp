// The constructive decider for chains of up to four steps, checked four
// ways: golden verdicts on classes CDCL decides only with far more than
// the default budget, completeness on seeded random chains drawn from the
// gate alphabet, agreement with the CDCL search wherever that search
// decides, and the shape of every chain found (exactly its length in live
// gates, computing its class). A disagreement fails; nothing falls back.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "decomp/exact_decide.hpp"
#include "decomp/exact_sat.hpp"

namespace bdsmaj::decomp {
namespace {

std::uint64_t eval_table(std::uint8_t h, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
    std::uint64_t r = 0;
    for (int x = 0; x < 8; ++x) {
        if ((h >> x) & 1) r |= ((x & 1) ? a : ~a) & ((x & 2) ? b : ~b) & ((x & 4) ? c : ~c);
    }
    return r;
}

int depth_of(const WideStructure& s) {
    std::vector<int> depth;
    const auto ref_depth = [&](const WideRef& r) {
        return r.is_const() || r.is_input() ? 0
                                            : depth[static_cast<std::size_t>(r.index - WideRef::kGateBase)];
    };
    for (const WideGate& g : s.gates) {
        int d = std::max(ref_depth(g.a), ref_depth(g.b));
        if (g.op == ExactOp::kMaj || g.op == ExactOp::kMux) d = std::max(d, ref_depth(g.c));
        depth.push_back(d + 1);
    }
    return ref_depth(s.output);
}

/// Every chain found has exactly its length in live gates (the build
/// drops dead ones, so a shorter live chain would show as fewer gates),
/// computes its class, and took no conflicts.
void expect_well_formed(const ExactSatResult& res, std::uint64_t tt) {
    ASSERT_EQ(res.status, ExactSatStatus::kFound);
    EXPECT_EQ(res.structure->eval_tt(), tt);
    EXPECT_EQ(res.structure->canonical, tt);
    EXPECT_EQ(res.structure->gate_count(), res.steps_tried);
    EXPECT_EQ(res.conflicts, 0);
    EXPECT_EQ(res.sat_calls, 0);
}

ExactSatParams decided_only() {
    ExactSatParams params;
    params.max_steps = detail::kDecidedSteps;
    return params;
}

struct Golden {
    std::uint64_t tt;
    int inputs;
    int steps;  ///< shortest chain; 0 when none of up to four steps exists
};

/// Classes on which the CDCL search exhausts its default 10000-conflict
/// budget (seeds 1 and 3 of jobbench presets_cold). Their verdicts at four
/// steps were proven by the CDCL search with a 2M-conflict budget, at
/// 14k to 168k conflicts each.
const std::vector<Golden>& golden_classes() {
    static const std::vector<Golden> classes = {
        {0x0000001b5f005f5fULL, 6, 4}, {0x0000001b5f5f5f5fULL, 6, 4},
        {0x00060696969f9fffULL, 6, 4}, {0x000000000003c047ULL, 6, 0},
        {0x00000000007f7f7fULL, 6, 0}, {0x00000000166e8997ULL, 5, 0},
        {0x000000001ff1f77fULL, 6, 0}, {0x0000000f7777777fULL, 6, 0},
        {0x0000000f1111111fULL, 6, 0}, {0x0000001e001e2d1eULL, 6, 0},
        {0x0000001f3f001f1fULL, 6, 0}, {0x0000003f1d101d10ULL, 6, 0},
        {0x0000069ff6f69900ULL, 6, 0}, {0x0356a903c0956ac0ULL, 6, 0},
        {0x0000000f7077f0ffULL, 6, 0}, {0x000001af55ff05afULL, 6, 0},
        {0x0000077707770777ULL, 6, 0},
    };
    return classes;
}

TEST(ExactDecide, GoldenVerdictsOfBudgetExhaustedClasses) {
    for (const Golden& g : golden_classes()) {
        SCOPED_TRACE(testing::Message() << std::hex << g.tt);
        const ExactSatResult res = exact_sat_synthesize(g.tt, g.inputs, decided_only());
        if (g.steps == 0) {
            EXPECT_EQ(res.status, ExactSatStatus::kUnsat) << "no chain of four steps";
            EXPECT_EQ(res.structure, nullptr);
            EXPECT_EQ(res.conflicts, 0);
            EXPECT_EQ(res.steps_tried, detail::kDecidedSteps);
        } else {
            expect_well_formed(res, g.tt);
            EXPECT_EQ(res.structure->gate_count(), g.steps);
        }
    }
}

TEST(ExactDecide, FiveStepChainIsLeftToTheSearchFromFiveSteps) {
    // No chain of four steps; the CDCL search, which now starts at five
    // steps, finds a five-step chain well inside the default budget.
    const ExactSatResult res = exact_sat_synthesize(0x0000077707770777ULL, 6);
    ASSERT_EQ(res.status, ExactSatStatus::kFound);
    EXPECT_EQ(res.structure->eval_tt(), 0x0000077707770777ULL);
    EXPECT_EQ(res.structure->gate_count(), 5);
    EXPECT_EQ(res.steps_tried, 5);
    EXPECT_EQ(res.conflicts, 3442);
}

TEST(ExactDecide, FindsAChainNoLongerThanEverySeededRandomChain) {
    // Chains of 1-4 steps over 5 and 6 inputs, each step a random gate of
    // the alphabet (a normal table with a random output polarity) over
    // three distinct earlier signals. The decider must find a chain no
    // longer than the generator's live steps, and when it is as long, no
    // deeper.
    std::vector<std::uint8_t> normal;
    for (int h = 0; h < 256; h += 2) {
        if (detail::normal_table_allowed(static_cast<std::uint8_t>(h))) {
            normal.push_back(static_cast<std::uint8_t>(h));
        }
    }
    ASSERT_EQ(static_cast<int>(normal.size()), exact_sat_operator_count());
    std::mt19937_64 rng(20261021);
    int exact_length = 0;
    for (int trial = 0; trial < 2400; ++trial) {
        const int n = 5 + trial % 2;
        const int steps = 1 + static_cast<int>(rng() % 4);
        const std::uint64_t mask = detail::tt_mask(n);
        std::vector<std::uint64_t> value(detail::kInputTt, detail::kInputTt + n);
        std::vector<std::array<int, 3>> operand;
        for (int s = 0; s < steps; ++s) {
            const int universe = static_cast<int>(value.size());
            std::array<int, 3> op{};
            do {
                for (int& o : op) o = static_cast<int>(rng() % static_cast<unsigned>(universe));
            } while (op[0] == op[1] || op[1] == op[2] || op[0] == op[2]);
            std::uint8_t h = normal[rng() % normal.size()];
            if (rng() & 1) h = static_cast<std::uint8_t>(~h);
            value.push_back(eval_table(h, value[static_cast<std::size_t>(op[0])],
                                       value[static_cast<std::size_t>(op[1])],
                                       value[static_cast<std::size_t>(op[2])]) & mask);
            operand.push_back(op);
        }
        // Live steps and depth of the generating chain.
        std::vector<int> depth(static_cast<std::size_t>(n + steps), 0);
        for (int s = 0; s < steps; ++s) {
            int d = 0;
            for (const int o : operand[static_cast<std::size_t>(s)]) {
                d = std::max(d, depth[static_cast<std::size_t>(o)]);
            }
            depth[static_cast<std::size_t>(n + s)] = d + 1;
        }
        std::vector<bool> live(static_cast<std::size_t>(steps), false);
        live.back() = true;
        int live_steps = 0;
        for (int s = steps - 1; s >= 0; --s) {
            if (!live[static_cast<std::size_t>(s)]) continue;
            ++live_steps;
            for (const int o : operand[static_cast<std::size_t>(s)]) {
                if (o >= n) live[static_cast<std::size_t>(o - n)] = true;
            }
        }
        const std::uint64_t tt = value.back();
        SCOPED_TRACE(testing::Message() << "trial " << trial << " tt " << std::hex << tt);
        const ExactSatResult res = exact_sat_synthesize(tt, n, decided_only());
        ASSERT_NO_FATAL_FAILURE(expect_well_formed(res, tt));
        ASSERT_LE(res.structure->gate_count(), live_steps);
        if (res.structure->gate_count() == live_steps) {
            ++exact_length;
            EXPECT_LE(depth_of(*res.structure), depth[static_cast<std::size_t>(n + steps - 1)]);
        }
    }
    EXPECT_GT(exact_length, 1000) << "most generated chains are already minimal";
}

/// Every distinct (class, inputs) that jobbench presets_cold synthesized
/// on seeds 1 and 3, logged from the CDCL-only synthesis.
const std::vector<std::pair<std::uint64_t, int>>& logged_classes() {
    static const std::vector<std::pair<std::uint64_t, int>> classes = {
        {0x000000000000018bULL, 5},
        {0x00000000000001aaULL, 5},
        {0x00000000000001aaULL, 6},
        {0x00000000000001afULL, 5},
        {0x0000000000000777ULL, 5},
        {0x00000000000007f7ULL, 5},
        {0x00000000000007f7ULL, 6},
        {0x00000000000007ffULL, 6},
        {0x0000000000017fffULL, 5},
        {0x0000000000035557ULL, 5},
        {0x000000000003c047ULL, 5},
        {0x000000000003c047ULL, 6},
        {0x000000000003dddfULL, 5},
        {0x000000000003ddffULL, 5},
        {0x000000000003ddffULL, 6},
        {0x0000000000060696ULL, 5},
        {0x0000000000077077ULL, 5},
        {0x0000000000077077ULL, 6},
        {0x0000000000077777ULL, 5},
        {0x0000000000077777ULL, 6},
        {0x000000000007f077ULL, 5},
        {0x000000000007f0f7ULL, 6},
        {0x00000000000f335fULL, 5},
        {0x00000000001717ffULL, 5},
        {0x00000000001717ffULL, 6},
        {0x00000000001bdda0ULL, 5},
        {0x00000000007f7f7fULL, 6},
        {0x0000000001199bbfULL, 5},
        {0x00000000017ffe80ULL, 5},
        {0x0000000001aeae5bULL, 5},
        {0x00000000037e7ec0ULL, 5},
        {0x0000000006609999ULL, 5},
        {0x00000000166e8997ULL, 5},
        {0x000000001ff1f77fULL, 6},
        {0x0000000300051117ULL, 6},
        {0x00000003400c500fULL, 6},
        {0x000000069fffffffULL, 6},
        {0x00000006f6ffffffULL, 6},
        {0x0000000f1111111fULL, 6},
        {0x0000000f7077f0ffULL, 6},
        {0x0000000f7373737fULL, 6},
        {0x0000000f7777777fULL, 6},
        {0x00000017171717ffULL, 6},
        {0x0000001717ffffffULL, 6},
        {0x0000001b1b1b1b1bULL, 6},
        {0x0000001b5f005f5fULL, 6},
        {0x0000001b5f5f5f5fULL, 6},
        {0x0000001e001e2d1eULL, 6},
        {0x0000001f3f001f1fULL, 6},
        {0x0000001f3f003f3fULL, 6},
        {0x0000001f3f1f3f1fULL, 6},
        {0x0000003f15153f3fULL, 6},
        {0x0000003f1d101d10ULL, 6},
        {0x0000003f1d1d1d1dULL, 6},
        {0x0000006969ffffffULL, 6},
        {0x000000ff17e8e817ULL, 6},
        {0x000000ff1f111fffULL, 6},
        {0x000000ff1f1f1fffULL, 6},
        {0x000001af55ff05afULL, 6},
        {0x0000069ff6f69900ULL, 6},
        {0x0000077707770777ULL, 6},
        {0x000007770fff0777ULL, 6},
        {0x000007f7f7f707f7ULL, 6},
        {0x00060666666f6fffULL, 6},
        {0x00060696969f9fffULL, 6},
        {0x001717ffffe8e800ULL, 6},
        {0x033f566aa995033fULL, 6},
        {0x0356a903c0956ac0ULL, 6},
    };
    return classes;
}

/// The decider's verdict at four steps must equal the CDCL search's
/// wherever that search decides within 20000 conflicts.
void expect_agreement(std::uint64_t tt, int n, int* compared) {
    const ExactSatResult decided = exact_sat_synthesize(tt, n, decided_only());
    ExactSatParams cdcl_params = decided_only();
    cdcl_params.conflict_budget = 20000;
    const ExactSatResult cdcl = detail::cdcl_chain_search(tt, n, cdcl_params, 1);
    ASSERT_NE(decided.status, ExactSatStatus::kUnknown);
    if (decided.status == ExactSatStatus::kFound) {
        ASSERT_NO_FATAL_FAILURE(expect_well_formed(decided, tt));
    }
    if (cdcl.status == ExactSatStatus::kUnknown) return;
    ++*compared;
    EXPECT_EQ(decided.status, cdcl.status);
    if (decided.status == ExactSatStatus::kFound && cdcl.status == ExactSatStatus::kFound) {
        EXPECT_EQ(decided.structure->gate_count(), cdcl.structure->gate_count());
    }
}

TEST(ExactDecide, AgreesWithCdclOnLoggedWorkloadClasses) {
    int compared = 0;
    for (const auto& [tt, n] : logged_classes()) {
        SCOPED_TRACE(testing::Message() << std::hex << tt << " n=" << std::dec << n);
        expect_agreement(tt, n, &compared);
    }
    EXPECT_EQ(compared, 37) << "the CDCL search decides 37 of the 68 within its budget";
}

TEST(ExactDecide, AgreesWithCdclOnEveryThreeInputFunction) {
    int compared = 0;
    for (int f = 0; f < 256; ++f) {
        SCOPED_TRACE(f);
        const ExactSatResult res = exact_sat_synthesize(static_cast<std::uint64_t>(f), 3,
                                                        decided_only());
        if (res.status == ExactSatStatus::kFound && res.structure->gate_count() == 0) continue;
        expect_agreement(static_cast<std::uint64_t>(f), 3, &compared);
    }
    EXPECT_EQ(compared, 256 - 8) << "constants and the six literals need no chain";
}

TEST(ExactDecide, ShortestChainIsChosenByDepth) {
    // MAJ-5 takes four steps; the decider returns the shallowest of them.
    std::uint64_t maj5 = 0;
    for (int m = 0; m < 32; ++m) {
        if (std::popcount(static_cast<unsigned>(m)) >= 3) maj5 |= 1ULL << m;
    }
    const ExactSatResult res = exact_sat_synthesize(maj5, 5, decided_only());
    ASSERT_NO_FATAL_FAILURE(expect_well_formed(res, maj5));
    EXPECT_EQ(res.structure->gate_count(), 4);
    EXPECT_EQ(depth_of(*res.structure), 3);
}

}  // namespace
}  // namespace bdsmaj::decomp
