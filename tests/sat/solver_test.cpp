#include "sat/solver.hpp"

#include <gtest/gtest.h>

#include <array>
#include <random>
#include <vector>

#include "sat/cnf.hpp"

namespace bdsmaj::sat {
namespace {

Lit pos(Var v) { return Lit::make(v); }
Lit neg(Var v) { return Lit::make(v, true); }

TEST(Solver, EmptyFormulaIsSat) {
    Solver s;
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, UnitPropagationChains) {
    // x0, x0 -> x1, x1 -> x2, x2 -> x3: all forced true at level 0.
    Solver s;
    const Var x0 = s.new_var(), x1 = s.new_var(), x2 = s.new_var(), x3 = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(x0)));
    ASSERT_TRUE(s.add_clause(neg(x0), pos(x1)));
    ASSERT_TRUE(s.add_clause(neg(x1), pos(x2)));
    ASSERT_TRUE(s.add_clause(neg(x2), pos(x3)));
    EXPECT_EQ(s.fixed_value(x3), Value::kTrue);
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    for (const Var v : {x0, x1, x2, x3}) EXPECT_EQ(s.model_value(v), Value::kTrue);
}

TEST(Solver, ContradictoryUnitsAreUnsat) {
    Solver s;
    const Var x = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(x)));
    EXPECT_FALSE(s.add_clause(neg(x)));
    EXPECT_FALSE(s.okay());
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, ConflictDrivenLearning) {
    // (a | b) (a | !b) (!a | c) (!a | !c): UNSAT, but only discoverable
    // through conflict analysis (no unit clauses to start from).
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
    ASSERT_TRUE(s.add_clause(pos(a), neg(b)));
    ASSERT_TRUE(s.add_clause(neg(a), pos(c)));
    ASSERT_TRUE(s.add_clause(neg(a), neg(c)));
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Solver, TautologyAndDuplicateLiteralsHandled) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var();
    // Tautology (a | !a | b) is dropped; duplicate (a | a) collapses to a unit.
    ASSERT_TRUE(s.add_clause(std::vector<Lit>{pos(a), neg(a), pos(b)}));
    ASSERT_TRUE(s.add_clause(std::vector<Lit>{pos(a), pos(a)}));
    EXPECT_EQ(s.fixed_value(a), Value::kTrue);
    EXPECT_EQ(s.fixed_value(b), Value::kUndef);
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

/// Pigeonhole PHP(n+1, n): n+1 pigeons in n holes — classically hard UNSAT
/// that exercises deep conflict analysis and restarts.
SolveResult pigeonhole(int pigeons, int holes) {
    Solver s;
    std::vector<std::vector<Var>> in(static_cast<std::size_t>(pigeons));
    for (auto& row : in) {
        for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
    }
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> some;
        for (int h = 0; h < holes; ++h) some.push_back(pos(in[p][h]));
        if (!s.add_clause(std::move(some))) return SolveResult::kUnsat;
    }
    for (int h = 0; h < holes; ++h) {
        for (int p1 = 0; p1 < pigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
                if (!s.add_clause(neg(in[p1][h]), neg(in[p2][h]))) {
                    return SolveResult::kUnsat;
                }
            }
        }
    }
    return s.solve();
}

TEST(Solver, PigeonholeThreeIsUnsat) {
    EXPECT_EQ(pigeonhole(4, 3), SolveResult::kUnsat);
}

TEST(Solver, PigeonholeFitsExactlyIsSat) {
    EXPECT_EQ(pigeonhole(3, 3), SolveResult::kSat);
}

TEST(Solver, IncrementalAssumptions) {
    // a XOR b as clauses; assumptions pick each quadrant without
    // permanently constraining the formula.
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), t = s.new_var();
    // t <-> a XOR b.
    ASSERT_TRUE(s.add_clause(neg(t), pos(a), pos(b)));
    ASSERT_TRUE(s.add_clause(neg(t), neg(a), neg(b)));
    ASSERT_TRUE(s.add_clause(pos(t), neg(a), pos(b)));
    ASSERT_TRUE(s.add_clause(pos(t), pos(a), neg(b)));

    ASSERT_EQ(s.solve({pos(t), pos(a)}), SolveResult::kSat);
    EXPECT_EQ(s.model_value(b), Value::kFalse);
    ASSERT_EQ(s.solve({pos(t), neg(a)}), SolveResult::kSat);
    EXPECT_EQ(s.model_value(b), Value::kTrue);
    ASSERT_EQ(s.solve({neg(t), pos(a)}), SolveResult::kSat);
    EXPECT_EQ(s.model_value(b), Value::kTrue);

    // Contradictory assumptions: UNSAT with a core over the assumptions,
    // and the solver stays usable afterwards.
    ASSERT_TRUE(s.add_clause(pos(a)));
    ASSERT_EQ(s.solve({pos(t), pos(b)}), SolveResult::kUnsat);
    EXPECT_FALSE(s.conflict_core().empty());
    for (const Lit l : s.conflict_core()) {
        EXPECT_TRUE(l == neg(t) || l == neg(b)) << "core literal " << l.x;
    }
    EXPECT_EQ(s.solve({pos(t)}), SolveResult::kSat);
    EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, LearnedClausesPersistAcrossSolves) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
    ASSERT_TRUE(s.add_clause(pos(a), neg(b)));
    ASSERT_EQ(s.solve({neg(a)}), SolveResult::kUnsat);
    // The refutation under the assumption must not poison later solves.
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_EQ(s.model_value(a), Value::kTrue);
    ASSERT_TRUE(s.add_clause(neg(a), pos(c)));
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_EQ(s.model_value(c), Value::kTrue);
}

TEST(Solver, ConflictBudgetYieldsUnknown) {
    // PHP(7,6) needs far more than 5 conflicts; the budget must surface as
    // kUnknown (never a wrong verdict) and leave the solver reusable.
    Solver s;
    constexpr int kPigeons = 7, kHoles = 6;
    std::vector<std::vector<Var>> in(kPigeons);
    for (auto& row : in) {
        for (int h = 0; h < kHoles; ++h) row.push_back(s.new_var());
    }
    for (int p = 0; p < kPigeons; ++p) {
        std::vector<Lit> some;
        for (int h = 0; h < kHoles; ++h) some.push_back(pos(in[p][h]));
        ASSERT_TRUE(s.add_clause(std::move(some)));
    }
    for (int h = 0; h < kHoles; ++h) {
        for (int p1 = 0; p1 < kPigeons; ++p1) {
            for (int p2 = p1 + 1; p2 < kPigeons; ++p2) {
                ASSERT_TRUE(s.add_clause(neg(in[p1][h]), neg(in[p2][h])));
            }
        }
    }
    EXPECT_EQ(s.solve({}, 5), SolveResult::kUnknown);
    EXPECT_EQ(s.solve(), SolveResult::kUnsat);  // unbounded retry still works
}

/// Reference check: brute-force satisfiability of a clause set.
bool brute_force_sat(int vars, const std::vector<std::vector<Lit>>& clauses) {
    for (std::uint32_t m = 0; m < (1u << vars); ++m) {
        bool all = true;
        for (const auto& cl : clauses) {
            bool any = false;
            for (const Lit l : cl) {
                const bool v = ((m >> l.var()) & 1) != 0;
                if (v != l.negated()) { any = true; break; }
            }
            if (!any) { all = false; break; }
        }
        if (all) return true;
    }
    return false;
}

TEST(Solver, RandomThreeSatAgreesWithBruteForce) {
    std::mt19937_64 rng(0xc0ffee);
    for (int trial = 0; trial < 200; ++trial) {
        const int vars = 6;
        // ~4.3 clauses/var straddles the phase transition: a healthy mix
        // of SAT and UNSAT instances.
        const int clauses = 24 + static_cast<int>(rng() % 6);
        Solver s;
        for (int v = 0; v < vars; ++v) (void)s.new_var();
        std::vector<std::vector<Lit>> cnf;
        bool ok = true;
        for (int c = 0; c < clauses; ++c) {
            std::vector<Lit> cl;
            for (int k = 0; k < 3; ++k) {
                cl.push_back(Lit::make(static_cast<Var>(rng() % vars), (rng() & 1) != 0));
            }
            cnf.push_back(cl);
            ok = s.add_clause(std::move(cl)) && ok;
        }
        const bool expected = brute_force_sat(vars, cnf);
        const SolveResult got = ok ? s.solve() : SolveResult::kUnsat;
        ASSERT_EQ(got == SolveResult::kSat, expected) << "trial " << trial;
        if (got == SolveResult::kSat) {
            // The model must actually satisfy every clause.
            for (const auto& cl : cnf) {
                bool any = false;
                for (const Lit l : cl) any = any || s.model_true(l);
                ASSERT_TRUE(any) << "trial " << trial;
            }
        }
    }
}

TEST(Solver, ScopedQueriesOnGateConesAgreeWithBruteForce) {
    // A random AND/XOR/MAJ circuit over 8 inputs, Tseitin-encoded, queried
    // as the equivalence checker does: "x & !y" for two gates, branching
    // only on their fanin closure, with proven-equal pairs tied by binary
    // clauses afterwards. Every verdict must match enumeration, and a SAT
    // model's inputs (unassigned ones read as false) must witness it.
    std::mt19937_64 rng(0x5c0bed);
    for (int trial = 0; trial < 20; ++trial) {
        constexpr int kInputs = 8;
        constexpr int kGates = 40;
        Solver s;
        TseitinEncoder enc(s);
        std::vector<Lit> lits;
        std::vector<std::array<int, 3>> fanins;  // per node; -1 padded
        std::vector<int> kinds;                  // 0 AND, 1 XOR, 2 MAJ; -1 input
        std::vector<std::array<bool, 3>> fanin_neg;
        for (int i = 0; i < kInputs; ++i) {
            lits.push_back(enc.fresh());
            fanins.push_back({-1, -1, -1});
            fanin_neg.push_back({false, false, false});
            kinds.push_back(-1);
        }
        for (int g = 0; g < kGates; ++g) {
            const int n = static_cast<int>(lits.size());
            const int kind = static_cast<int>(rng() % 3);
            std::array<int, 3> f{-1, -1, -1};
            std::array<bool, 3> fn{false, false, false};
            std::array<Lit, 3> in{};
            for (int k = 0; k < (kind == 2 ? 3 : 2); ++k) {
                f[k] = static_cast<int>(rng() % n);
                fn[k] = (rng() & 1) != 0;
                in[k] = lits[f[k]] ^ fn[k];
            }
            lits.push_back(kind == 0   ? enc.encode_and(in[0], in[1])
                           : kind == 1 ? enc.encode_xor(in[0], in[1])
                                       : enc.encode_maj(in[0], in[1], in[2]));
            fanins.push_back(f);
            fanin_neg.push_back(fn);
            kinds.push_back(kind);
        }
        const auto eval = [&](unsigned pattern) {
            std::vector<bool> v(lits.size());
            for (std::size_t i = 0; i < lits.size(); ++i) {
                if (kinds[i] < 0) {
                    v[i] = ((pattern >> i) & 1) != 0;
                    continue;
                }
                std::array<bool, 3> a{};
                for (int k = 0; k < 3; ++k) {
                    if (fanins[i][k] >= 0) a[k] = v[fanins[i][k]] != fanin_neg[i][k];
                }
                v[i] = kinds[i] == 0   ? (a[0] && a[1])
                       : kinds[i] == 1 ? (a[0] != a[1])
                                       : ((a[0] && a[1]) || (a[0] && a[2]) || (a[1] && a[2]));
            }
            return v;
        };
        for (int q = 0; q < 30; ++q) {
            const int x = kInputs + static_cast<int>(rng() % kGates);
            const int y = kInputs + static_cast<int>(rng() % kGates);
            if (x == y) continue;
            // The definition closure of x and y.
            std::vector<int> cone{x, y};
            std::vector<bool> in_cone(lits.size(), false);
            in_cone[x] = in_cone[y] = true;
            for (std::size_t i = 0; i < cone.size(); ++i) {
                for (const int f : fanins[cone[i]]) {
                    if (f >= 0 && !in_cone[f]) {
                        in_cone[f] = true;
                        cone.push_back(f);
                    }
                }
            }
            std::vector<Var> scope;
            for (const int node : cone) scope.push_back(lits[node].var());
            bool differs = false;
            for (unsigned p = 0; p < (1u << kInputs) && !differs; ++p) {
                const std::vector<bool> v = eval(p);
                differs = v[x] && !v[y];
            }
            const SolveResult r = s.solve_within({lits[x], ~lits[y]}, scope);
            ASSERT_NE(r, SolveResult::kUnknown);
            ASSERT_EQ(r == SolveResult::kSat, differs) << "trial " << trial << " query " << q;
            if (r == SolveResult::kSat) {
                unsigned pattern = 0;
                for (int i = 0; i < kInputs; ++i) {
                    if (s.model_true(lits[i])) pattern |= 1u << i;
                }
                const std::vector<bool> v = eval(pattern);
                EXPECT_TRUE(v[x] && !v[y]) << "trial " << trial << " query " << q;
            } else if (s.solve_within({~lits[x], lits[y]}, scope) == SolveResult::kUnsat) {
                ASSERT_TRUE(s.add_clause(~lits[x], lits[y]));
                ASSERT_TRUE(s.add_clause(lits[x], ~lits[y]));
            }
        }
        // Scoped queries leave an ordinary solver behind.
        EXPECT_EQ(s.solve(), SolveResult::kSat);
    }
}

TEST(Solver, StatsAccumulate) {
    Solver s;
    ASSERT_EQ(pigeonhole(4, 3), SolveResult::kUnsat);  // warms nothing on s
    const Var a = s.new_var(), b = s.new_var();
    ASSERT_TRUE(s.add_clause(pos(a), pos(b)));
    ASSERT_EQ(s.solve(), SolveResult::kSat);
    EXPECT_GT(s.stats().propagations + s.stats().decisions, 0u);
}

}  // namespace
}  // namespace bdsmaj::sat
