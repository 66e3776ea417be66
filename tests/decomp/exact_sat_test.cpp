// SAT-based exact synthesis of 5-6 input chains: encoding soundness
// (exhaustive at 3 vars), known-function gate counts, the step-cap and
// budget contracts, budget-exhaustion behavior (clean kUnknown, nothing
// partial), determinism, the wide cone match/emit path against network
// simulation, and the wide class cache semantics.

#include "decomp/exact_sat.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "bdd/bdd.hpp"
#include "decomp/exact_decide.hpp"
#include "network/builder.hpp"
#include "network/network.hpp"
#include "network/simulate.hpp"
#include "tt/npn.hpp"

namespace bdsmaj::decomp {
namespace {

using bdd::Bdd;
using bdd::Manager;
using net::Signal;

std::uint64_t mask_of(int n) {
    return n >= 6 ? ~0ULL : ((1ULL << (1u << n)) - 1);
}

std::uint64_t parity_tt(int n) {
    std::uint64_t tt = 0;
    for (int m = 0; m < (1 << n); ++m) {
        if (std::popcount(static_cast<unsigned>(m)) & 1) tt |= 1ULL << m;
    }
    return tt;
}

std::uint64_t maj5_tt() {
    std::uint64_t tt = 0;
    for (int m = 0; m < 32; ++m) {
        if (std::popcount(static_cast<unsigned>(m)) >= 3) tt |= 1ULL << m;
    }
    return tt;
}

bool same_program(const WideStructure& a, const WideStructure& b) {
    if (a.gates.size() != b.gates.size()) return false;
    const auto same_ref = [](const WideRef& x, const WideRef& y) {
        return x.index == y.index && x.complemented == y.complemented;
    };
    for (std::size_t i = 0; i < a.gates.size(); ++i) {
        if (a.gates[i].op != b.gates[i].op) return false;
        if (!same_ref(a.gates[i].a, b.gates[i].a)) return false;
        if (!same_ref(a.gates[i].b, b.gates[i].b)) return false;
        if (!same_ref(a.gates[i].c, b.gates[i].c)) return false;
    }
    return same_ref(a.output, b.output);
}

TEST(ExactSat, OperatorAlphabetIsSubstantial) {
    // 15 fanin-2 projections + MAJ and MUX polarity variants; the exact
    // number is an implementation detail, but it must comfortably exceed
    // the bare 5-op alphabet and stay well under the 128 normal tables.
    const int count = exact_sat_operator_count();
    EXPECT_GE(count, 20);
    EXPECT_LT(count, 128);
}

TEST(ExactSat, ExhaustiveThreeVariableSoundnessAndCompleteness) {
    // Every 3-var function is realizable in a few steps; all 256 must
    // come back kFound with a validated program. This is the strongest
    // cheap probe of the encoding (selection, operator tables, CEGAR).
    for (int f = 0; f < 256; ++f) {
        const ExactSatResult res =
            exact_sat_synthesize(static_cast<std::uint64_t>(f), 3);
        ASSERT_EQ(res.status, ExactSatStatus::kFound) << "tt " << f;
        ASSERT_NE(res.structure, nullptr);
        EXPECT_EQ(res.structure->eval_tt(), static_cast<std::uint64_t>(f));
        EXPECT_LE(res.structure->gate_count(), 4) << "tt " << f;
    }
}

TEST(ExactSat, ZeroGateSpecialCases) {
    // Constants and (complemented) projections short-circuit the solver.
    for (const std::uint64_t tt :
         {std::uint64_t{0}, mask_of(5), std::uint64_t{0xaaaaaaaaULL},
          ~std::uint64_t{0xaaaaaaaaULL} & mask_of(5)}) {
        const ExactSatResult res = exact_sat_synthesize(tt, 5);
        ASSERT_EQ(res.status, ExactSatStatus::kFound);
        EXPECT_EQ(res.structure->gate_count(), 0);
        EXPECT_EQ(res.structure->eval_tt(), tt);
        EXPECT_EQ(res.conflicts, 0);
    }
}

TEST(ExactSat, KnownFiveVariableFunctions) {
    // MAJ-5: classically 4 MAJ-3 steps; our alphabet can only do better.
    ExactSatResult res = exact_sat_synthesize(maj5_tt(), 5);
    ASSERT_EQ(res.status, ExactSatStatus::kFound);
    EXPECT_EQ(res.structure->eval_tt(), maj5_tt());
    EXPECT_LE(res.structure->gate_count(), 4);
    EXPECT_GE(res.structure->gate_count(), 2) << "fanin bound: 2r+1 >= 5";

    // Parity-5: four fanin-2 XOR steps (XOR-3 is not a one-gate table).
    res = exact_sat_synthesize(parity_tt(5), 5);
    ASSERT_EQ(res.status, ExactSatStatus::kFound);
    EXPECT_EQ(res.structure->eval_tt(), parity_tt(5));
    EXPECT_EQ(res.structure->gate_count(), 4);
}

TEST(ExactSat, UnsatWhenMaxStepsBelowMinimum) {
    // Parity-5 needs 4 steps; capping at 3 must prove impossibility, not
    // hang or hallucinate.
    ExactSatParams params;
    params.max_steps = 3;
    const ExactSatResult res = exact_sat_synthesize(parity_tt(5), 5, params);
    EXPECT_EQ(res.status, ExactSatStatus::kUnsat);
    EXPECT_EQ(res.structure, nullptr);
}

TEST(ExactSat, BudgetExhaustionIsACleanUnknown) {
    // A nonpositive budget refuses immediately; a tiny budget on a hard
    // 6-var function runs out mid-search. Either way: kUnknown, no
    // partial structure, conflicts within the budget.
    ExactSatParams params;
    params.conflict_budget = 0;
    ExactSatResult res = exact_sat_synthesize(parity_tt(6), 6, params);
    EXPECT_EQ(res.status, ExactSatStatus::kUnknown);
    EXPECT_EQ(res.structure, nullptr);
    EXPECT_EQ(res.conflicts, 0);

    params.conflict_budget = 3;
    res = exact_sat_synthesize(parity_tt(6) ^ maj5_tt(), 6, params);
    EXPECT_EQ(res.status, ExactSatStatus::kUnknown);
    EXPECT_EQ(res.structure, nullptr);
}

TEST(ExactSat, SynthesisIsDeterministic) {
    std::mt19937_64 rng(4242);
    for (int trial = 0; trial < 6; ++trial) {
        const std::uint64_t tt = rng() & mask_of(5);
        const ExactSatResult a = exact_sat_synthesize(tt, 5);
        const ExactSatResult b = exact_sat_synthesize(tt, 5);
        ASSERT_EQ(a.status, b.status);
        EXPECT_EQ(a.conflicts, b.conflicts);
        EXPECT_EQ(a.sat_calls, b.sat_calls);
        if (a.status == ExactSatStatus::kFound) {
            EXPECT_TRUE(same_program(*a.structure, *b.structure));
        }
    }
}

/// Build a BDD for an n-var function over the given manager variables.
Bdd bdd_of_tt_w(Manager& mgr, std::uint64_t tt, const std::vector<int>& vars) {
    Bdd f = mgr.zero();
    for (int m = 0; m < (1 << vars.size()); ++m) {
        if (!((tt >> m) & 1)) continue;
        Bdd minterm = mgr.one();
        for (std::size_t i = 0; i < vars.size(); ++i) {
            const Bdd lit = mgr.var_bdd(vars[i]);
            minterm = mgr.apply_and(minterm, ((m >> i) & 1) ? lit : !lit);
        }
        f = mgr.apply_or(f, minterm);
    }
    return f;
}

/// A random function guaranteed to be a short chain over the gate
/// alphabet AND to depend on all five variables: either two 3-operand
/// gates (MAJ/MUX) covering the shuffled literals, or a fanin-2
/// AND/OR/XOR fold over all five. Uniform random 5-var functions usually
/// need 5+ steps, where the intermediate UNSAT proofs exhaust any sane
/// budget — structured cones like the ones the strategy pipeline
/// actually extracts are the representative case. (Gates picking random
/// operands from a pool do NOT work here: the result covers all five
/// literals only ~0.1% of the time.)
std::uint64_t random_structured_tt(std::mt19937_64& rng) {
    const std::uint64_t mask = mask_of(5);
    const std::uint64_t lits[5] = {0xaaaaaaaaULL, 0xccccccccULL,
                                   0xf0f0f0f0ULL, 0xff00ff00ULL,
                                   0xffff0000ULL};
    for (int attempt = 0; attempt < 64; ++attempt) {
        int order[5] = {0, 1, 2, 3, 4};
        for (int i = 4; i > 0; --i) {
            std::swap(order[i], order[static_cast<int>(rng() % (i + 1))]);
        }
        std::uint64_t a[5];
        for (int i = 0; i < 5; ++i) {
            a[i] = lits[order[i]];
            if (rng() & 1) a[i] = ~a[i] & mask;
        }
        const auto op3 = [&](std::uint64_t x, std::uint64_t y,
                             std::uint64_t z) {
            return (rng() & 1) ? ((x & y) | (x & z) | (y & z))
                               : ((x & y) | (~x & z & mask));
        };
        std::uint64_t tt;
        if (rng() & 1) {
            std::uint64_t g1 = op3(a[0], a[1], a[2]);
            if (rng() & 1) g1 = ~g1 & mask;
            tt = op3(g1, a[3], a[4]);
        } else {
            tt = a[0];
            for (int i = 1; i < 5; ++i) {
                if (rng() & 1) tt = ~tt & mask;
                switch (rng() % 3) {
                    case 0: tt &= a[i]; break;
                    case 1: tt |= a[i]; break;
                    default: tt ^= a[i]; break;
                }
            }
        }
        // MAJ/MUX composition can still swallow a variable; verify.
        bool full_support = true;
        for (int i = 0; i < 5; ++i) {
            if ((((tt >> (1u << i)) ^ tt) & ~lits[i] & mask) == 0) {
                full_support = false;
                break;
            }
        }
        if (full_support) return tt;
    }
    return maj5_tt();  // effectively unreachable fallback
}

TEST(ExactSat, RandomFiveVarConesMatchSimulation) {
    // The full strategy-path contract: extract a 5-var cone truth table,
    // canonicalize, synthesize the canonical class, replay through the
    // inverse NPN transform into a real network, and simulate every
    // minterm against the BDD. Scattered support exercises the binding.
    // Ten structured cones must all synthesize; two uniform-random tts
    // ride along to exercise the clean budget-exhaustion path.
    std::mt19937_64 rng(20260809);
    const std::vector<int> vars = {0, 2, 3, 5, 6};
    ExactSatParams params;
    params.conflict_budget = 40000;
    int found = 0;
    for (int trial = 0; trial < 12; ++trial) {
        const bool structured = trial < 10;
        const std::uint64_t tt =
            structured ? random_structured_tt(rng) : (rng() & mask_of(5));
        Manager mgr(7);
        const Bdd f = bdd_of_tt_w(mgr, tt, vars);
        const auto match = match_cone_wide(mgr, f, 5, 6);
        if (!match.has_value()) continue;  // degenerate support; rare
        ASSERT_EQ(match->support_size, 5);
        EXPECT_EQ(tt::apply_npn_w(match->tt, 5, match->transform),
                  match->canonical);

        const ExactSatResult res =
            exact_sat_synthesize(match->canonical, 5, params);
        if (res.status != ExactSatStatus::kFound) {
            // Budget exhaustion is a legal, clean outcome on hard random
            // functions; it must never produce a partial structure.
            EXPECT_FALSE(structured)
                << "structured cone " << tt << " should be easy";
            EXPECT_EQ(res.status, ExactSatStatus::kUnknown);
            EXPECT_EQ(res.structure, nullptr);
            continue;
        }
        ++found;
        ASSERT_EQ(res.structure->eval_tt(), match->canonical);

        net::Network network;
        net::HashedNetworkBuilder builder(network);
        std::vector<Signal> leaves;
        for (int i = 0; i < 7; ++i) {
            leaves.push_back(
                Signal{network.add_input("x" + std::to_string(i)), false});
        }
        const Signal root =
            emit_exact_cone_wide(*match, *res.structure, builder, leaves);
        network.add_output("f", builder.realize(root));
        for (std::uint64_t m = 0; m < (1u << 7); ++m) {
            std::vector<bool> input;
            for (int i = 0; i < 7; ++i) input.push_back((m >> i) & 1);
            bool expected = false;
            int idx = 0;
            for (std::size_t i = 0; i < vars.size(); ++i) {
                if ((m >> vars[i]) & 1) idx |= 1 << i;
            }
            expected = ((tt >> idx) & 1) != 0;
            ASSERT_EQ(net::simulate(network, input)[0], expected)
                << "tt " << tt << " minterm " << m;
        }
    }
    EXPECT_GE(found, 10) << "every structured cone must synthesize";
}

TEST(ExactSat, WideCacheInsertLookupAndNegativeEntries) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::uint64_t cls = tt::npn_canonical_w(maj5_tt(), 5);
    EXPECT_EQ(cache.lookup_wide(5, cls), nullptr);

    // A kUnsat is a proof: it covers every cap up to its own. MAJ-5 needs
    // 4 steps, so a cap of 3 proves impossibility.
    ExactSatParams capped;
    capped.max_steps = 3;
    const ExactSatResult proof = exact_sat_synthesize(cls, 5, capped);
    ASSERT_EQ(proof.status, ExactSatStatus::kUnsat);
    cache.record_wide_failure(5, cls, 3);
    EXPECT_TRUE(cache.wide_failure_covers(5, cls, 3));
    EXPECT_TRUE(cache.wide_failure_covers(5, cls, 2));
    EXPECT_FALSE(cache.wide_failure_covers(5, cls, 4));

    const ExactSatResult res = exact_sat_synthesize(cls, 5);
    ASSERT_EQ(res.status, ExactSatStatus::kFound);
    const auto published = cache.insert_wide(res.structure);
    EXPECT_EQ(published.get(), res.structure.get()) << "first insert wins";
    EXPECT_EQ(cache.lookup_wide(5, cls).get(), published.get());
    // Publishing a program clears the negative entry.
    EXPECT_FALSE(cache.wide_failure_covers(5, cls, 3));

    // Second insert of a rival program loses to the first.
    const ExactSatResult again = exact_sat_synthesize(cls, 5);
    ASSERT_EQ(again.status, ExactSatStatus::kFound);
    EXPECT_EQ(cache.insert_wide(again.structure).get(), published.get());

    EXPECT_GE(cache.stats().classes_cached, 1);
    EXPECT_GE(cache.stats().hits, 1u);
}

/// Classes with a known minimum chain length r*, for the cap contract the
/// strategy's incumbent bound relies on.
struct MinChain {
    const char* name;
    std::uint64_t tt;
    int inputs;
    int min_steps;
};

std::vector<MinChain> min_chain_classes() {
    const std::uint64_t x0 = 0xaaaaaaaaaaaaaaaaULL;
    const std::uint64_t x1 = 0xccccccccccccccccULL;
    const std::uint64_t x2 = 0xf0f0f0f0f0f0f0f0ULL;
    const std::uint64_t x3 = 0xff00ff00ff00ff00ULL;
    const std::uint64_t x4 = 0xffff0000ffff0000ULL;
    const std::uint64_t x5 = 0xffffffff00000000ULL;
    const auto maj = [](std::uint64_t a, std::uint64_t b, std::uint64_t c) {
        return (a & b) | (a & c) | (b & c);
    };
    const std::uint64_t m5 = mask_of(5);
    const std::uint64_t mux_tree6 = (x0 & (x1 ^ x2)) | (~x0 & maj(x3, x4, x5));
    return {
        {"maj5", maj5_tt(), 5, 4},
        {"parity5", parity_tt(5), 5, 4},
        {"and5", x0 & x1 & x2 & x3 & x4 & m5, 5, 4},
        {"maj_of_maj", maj(maj(x0, x1, x2), x3, x4) & m5, 5, 2},
        {"maj_with_parity", maj(x0, x1, x2 ^ x3 ^ x4) & m5, 5, 3},
        {"parity6", parity_tt(6), 6, 5},
        {"mux_tree6", mux_tree6, 6, 3},
        {"maj_xor_maj6", maj(x0, x1, x2) ^ maj(x3, x4, x5), 6, 3},
    };
}

/// The two searches the cap and budget contracts hold for: the full
/// synthesis (short chains decided, CDCL from five steps) and the CDCL
/// search alone from the fanin floor.
enum class Search { kSynthesize, kCdclOnly };

ExactSatResult run_search(Search search, const MinChain& c, const ExactSatParams& params) {
    return search == Search::kSynthesize
               ? exact_sat_synthesize(c.tt, c.inputs, params)
               : detail::cdcl_chain_search(c.tt, c.inputs, params, 1);
}

TEST(ExactSat, CappingAtTheMinimumChainLengthChangesNothing) {
    // The search grows r from its fanin floor and proves every shorter
    // length UNSAT first, so a cap at r* replays the uncapped trajectory
    // exactly (same chain, same conflicts) and a cap at r* - 1 finds
    // nothing. Found chains have exactly steps_tried live gates.
    for (const Search search : {Search::kSynthesize, Search::kCdclOnly})
    for (const MinChain& c : min_chain_classes()) {
        SCOPED_TRACE(c.name);
        SCOPED_TRACE(search == Search::kSynthesize ? "synthesize" : "cdcl only");
        ExactSatParams uncapped;
        uncapped.max_steps = 8;
        const ExactSatResult full = run_search(search, c, uncapped);
        ASSERT_EQ(full.status, ExactSatStatus::kFound);
        EXPECT_EQ(full.structure->gate_count(), c.min_steps);
        EXPECT_EQ(full.structure->gate_count(), full.steps_tried);

        ExactSatParams at_min = uncapped;
        at_min.max_steps = c.min_steps;
        const ExactSatResult capped = run_search(search, c, at_min);
        ASSERT_EQ(capped.status, ExactSatStatus::kFound);
        EXPECT_TRUE(same_program(*capped.structure, *full.structure));
        EXPECT_EQ(capped.conflicts, full.conflicts);
        EXPECT_EQ(capped.steps_tried, full.steps_tried);
        EXPECT_EQ(capped.structure->gate_count(), capped.steps_tried);

        ExactSatParams below = uncapped;
        below.max_steps = c.min_steps - 1;
        const ExactSatResult none = run_search(search, c, below);
        EXPECT_EQ(none.status, ExactSatStatus::kUnsat);
        EXPECT_EQ(none.structure, nullptr);
        EXPECT_LE(none.conflicts, full.conflicts);
    }
}

TEST(ExactSat, CachedChainIsReproducedOnlyAboveItsConflicts) {
    // A search stops on the conflict that uses up its budget, before the
    // model is complete: a chain that took C conflicts is found again at
    // budget C + 1 (same program, same conflicts) but not at budget C. A
    // chain decided by construction took 0 conflicts: budget 0 refuses,
    // budget 1 finds it.
    for (const Search search : {Search::kSynthesize, Search::kCdclOnly})
    for (const MinChain& c : min_chain_classes()) {
        SCOPED_TRACE(c.name);
        SCOPED_TRACE(search == Search::kSynthesize ? "synthesize" : "cdcl only");
        ExactSatParams params;
        const ExactSatResult full = run_search(search, c, params);
        ASSERT_EQ(full.status, ExactSatStatus::kFound);
        if (search == Search::kCdclOnly || c.min_steps > detail::kDecidedSteps) {
            ASSERT_GT(full.conflicts, 0);
        } else {
            ASSERT_EQ(full.conflicts, 0);
        }

        params.conflict_budget = full.conflicts;
        EXPECT_EQ(run_search(search, c, params).status, ExactSatStatus::kUnknown);

        params.conflict_budget = full.conflicts + 1;
        const ExactSatResult again = run_search(search, c, params);
        ASSERT_EQ(again.status, ExactSatStatus::kFound);
        EXPECT_TRUE(same_program(*again.structure, *full.structure));
        EXPECT_EQ(again.conflicts, full.conflicts);
    }
}

}  // namespace
}  // namespace bdsmaj::decomp
