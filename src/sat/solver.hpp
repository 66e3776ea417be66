#pragma once
// Compact CDCL SAT solver: the exact-decision substrate shared by the
// combinational equivalence oracle (network/cec.hpp) and SAT-based exact
// synthesis of 5-6 variable cones (decomp/exact_sat.hpp).
//
// MiniSat-family architecture, trimmed to what the synthesis stack needs:
//   * two-literal watching with blocker caching,
//   * first-UIP conflict analysis with basic recursive-free clause
//     minimization,
//   * VSIDS branching (exponential decay, heap order) with phase saving,
//   * Luby restarts and activity-driven learned-clause reduction,
//   * incremental solving under assumptions: clauses may be added between
//     solve() calls and stay learned across them, which is what lets the
//     equivalence checker discharge hundreds of candidate-node miters
//     against one shared CNF,
//   * conflict budgets, so callers can bound speculative queries and fall
//     back (the answer is kUnknown, never a wrong verdict),
//   * scoped queries (solve_within): branching restricted to a caller-
//     given variable set, for formulas where any conflict-free assignment
//     of that set extends to a full model — the equivalence checker's
//     fanin cones.
//
// Hot-path layout. Values are kept per literal (lit_val_[lit.x]), so a
// literal's value is one byte load; the model and the saved phases are
// derived from it and from the trail. Clauses live in one flat arena
// (ClauseRef = offset) as [header][literals][activity, learnt only]: the
// header carries size/learnt/dead flags, and the literals always start
// one word after it. Propagation walks each watch list with raw pointers;
// conflict analysis reads reason and level from one per-variable record.
// add_clause sorts into a member buffer and allocates nothing once warm.
// The solver never frees arena space mid-run — per-query solvers are
// short-lived and reduce_db() only detaches — so refs stay stable.
//
// Trajectory contract. Exact synthesis results (and so netlists) and the
// sign-off's work are pure functions of the search trajectory: which
// watcher is visited when, which literal becomes the new watch, the order
// analysis bumps variables in. A change that only makes the search cheaper
// must keep every SolverStats counter identical on the pinned cases of
// tests/sat/solver_trajectory_test.cpp; a change that alters the search
// on purpose re-pins them deliberately (docs/performance.md, "SAT core").

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace bdsmaj::sat {

using Var = std::int32_t;

/// Literal: variable with polarity, MiniSat encoding (2*var + negated).
/// Invalid literals compare equal to kUndefLit.
struct Lit {
    std::int32_t x = -2;

    [[nodiscard]] static Lit make(Var v, bool negated = false) {
        return Lit{(v << 1) | static_cast<std::int32_t>(negated)};
    }
    [[nodiscard]] Var var() const noexcept { return x >> 1; }
    [[nodiscard]] bool negated() const noexcept { return (x & 1) != 0; }
    [[nodiscard]] Lit operator~() const noexcept { return Lit{x ^ 1}; }
    /// XOR with a polarity flag: `lit ^ true` complements.
    [[nodiscard]] Lit operator^(bool b) const noexcept {
        return Lit{x ^ static_cast<std::int32_t>(b)};
    }
    bool operator==(const Lit&) const = default;
};

inline constexpr Lit kUndefLit{-2};

/// Tri-state assignment value.
enum class Value : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

[[nodiscard]] inline Value operator^(Value v, bool b) {
    return v == Value::kUndef
               ? Value::kUndef
               : static_cast<Value>(static_cast<std::uint8_t>(v) ^
                                    static_cast<std::uint8_t>(b));
}

enum class SolveResult { kSat, kUnsat, kUnknown };

struct SolverStats {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;
    std::uint64_t learned_literals = 0;
    std::uint64_t minimized_literals = 0;  ///< removed by clause minimization
    std::uint64_t db_reductions = 0;

    bool operator==(const SolverStats&) const = default;
    SolverStats& operator+=(const SolverStats& o) {
        conflicts += o.conflicts;
        decisions += o.decisions;
        propagations += o.propagations;
        restarts += o.restarts;
        learned_clauses += o.learned_clauses;
        learned_literals += o.learned_literals;
        minimized_literals += o.minimized_literals;
        db_reductions += o.db_reductions;
        return *this;
    }
};

class Solver {
public:
    Solver();

    // ---- Problem construction ---------------------------------------------
    [[nodiscard]] Var new_var();
    [[nodiscard]] int num_vars() const noexcept { return static_cast<int>(vardata_.size()); }

    /// Add a clause (empty = immediate contradiction). Literals are
    /// deduplicated; tautologies are dropped; level-0 false literals are
    /// removed. Returns false when the formula became unsatisfiable at
    /// level 0 (the solver stays usable only for reporting kUnsat).
    /// Allocation-free once the solver is warm: the literals are sorted
    /// into a member scratch buffer, never into a fresh vector.
    bool add_clause(std::span<const Lit> lits);
    bool add_clause(Lit a) { return add_clause(std::span<const Lit>(&a, 1)); }
    bool add_clause(Lit a, Lit b) {
        const std::array<Lit, 2> lits{a, b};
        return add_clause(std::span<const Lit>(lits));
    }
    bool add_clause(Lit a, Lit b, Lit c) {
        const std::array<Lit, 3> lits{a, b, c};
        return add_clause(std::span<const Lit>(lits));
    }

    // ---- Solving -----------------------------------------------------------
    /// Solve under `assumptions` (each forced true for this call only).
    /// `conflict_limit` <= 0 means unbounded; hitting the budget yields
    /// kUnknown with the solver reset to level 0 and reusable.
    [[nodiscard]] SolveResult solve(const std::vector<Lit>& assumptions = {},
                                    std::int64_t conflict_limit = 0);

    /// solve() that branches only on `scope` and answers kSat as soon as
    /// every scope variable is assigned without conflict; variables
    /// outside the scope are left to propagation, and their model values
    /// may be kUndef. The scope must hold every assumption's variable.
    /// A kSat answer is sound only when the caller guarantees that every
    /// conflict-free assignment of the scope extends to a full model (as
    /// for a set closed under Tseitin gate definitions, when every other
    /// clause is implied by those definitions); kUnsat is always sound.
    /// Plain solve() calls keep their search path: the scoped queue is
    /// separate from the solver's own decision order.
    [[nodiscard]] SolveResult solve_within(const std::vector<Lit>& assumptions,
                                           std::span<const Var> scope,
                                           std::int64_t conflict_limit = 0);

    /// Model access after kSat: the value a variable/literal took.
    [[nodiscard]] Value model_value(Var v) const { return model_[static_cast<std::size_t>(v)]; }
    [[nodiscard]] bool model_true(Lit p) const {
        return (model_[static_cast<std::size_t>(p.var())] ^ p.negated()) == Value::kTrue;
    }

    /// After kUnsat under assumptions: the subset of assumptions the proof
    /// used (negated — the standard "final conflict" clause). Empty when
    /// the formula is unsatisfiable regardless of assumptions.
    [[nodiscard]] const std::vector<Lit>& conflict_core() const noexcept { return conflict_; }

    /// Current level-0 value of a variable (kUndef if unfixed): what the
    /// encoder uses to constant-fold against already-proven units.
    [[nodiscard]] Value fixed_value(Var v) const;

    [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
    [[nodiscard]] bool okay() const noexcept { return ok_; }

private:
    using ClauseRef = std::uint32_t;
    static constexpr ClauseRef kNoClause = ~ClauseRef{0};

    // Arena clause layout: [header][lits...][activity (learnt only)].
    // Header: size << 2 | learnt << 1 | dead. The literals start right
    // after the header for every clause, so the propagation loop reaches
    // them without testing the learnt bit.
    struct Watcher {
        ClauseRef cref = kNoClause;
        Lit blocker = kUndefLit;
    };
    /// What conflict analysis reads per variable, kept side by side.
    struct VarData {
        ClauseRef reason = kNoClause;
        std::int32_t level = 0;
    };
    /// VSIDS decision queue: a binary max-heap on activity.
    struct VarHeap {
        std::vector<Var> heap;
        std::vector<std::int32_t> pos;  ///< per var; -1 = not queued
    };

    [[nodiscard]] std::uint32_t clause_size(ClauseRef c) const { return arena_[c] >> 2; }
    [[nodiscard]] bool clause_learnt(ClauseRef c) const { return (arena_[c] & 2) != 0; }
    [[nodiscard]] bool clause_dead(ClauseRef c) const { return (arena_[c] & 1) != 0; }
    [[nodiscard]] Lit* clause_lits(ClauseRef c) {
        return reinterpret_cast<Lit*>(arena_.data() + c + 1);
    }
    [[nodiscard]] float& clause_activity(ClauseRef c) {
        return reinterpret_cast<float&>(arena_[c + 1 + clause_size(c)]);
    }

    [[nodiscard]] Value value(Lit p) const { return lit_val_[static_cast<std::size_t>(p.x)]; }
    [[nodiscard]] int decision_level() const noexcept { return static_cast<int>(trail_lim_.size()); }

    ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt);
    void attach_clause(ClauseRef c);
    void detach_clause(ClauseRef c);
    void unchecked_enqueue(Lit p, ClauseRef reason) {
        lit_val_[static_cast<std::size_t>(p.x)] = Value::kTrue;
        lit_val_[static_cast<std::size_t>(p.x ^ 1)] = Value::kFalse;
        vardata_[static_cast<std::size_t>(p.var())] = {reason, decision_level()};
        trail_.push_back(p);
    }
    ClauseRef propagate();
    void analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel);
    void analyze_final(Lit p);
    void cancel_until(int level);
    [[nodiscard]] Lit pick_branch_lit();
    SolveResult search(std::int64_t conflict_budget);
    void reduce_db();

    // VSIDS heap.
    void var_bump(Var v);
    void var_decay() { var_inc_ *= (1.0 / 0.95); }
    void heap_insert(VarHeap& h, Var v);
    [[nodiscard]] Var heap_pop(VarHeap& h);
    void heap_sift_up(VarHeap& h, int i);
    void heap_sift_down(VarHeap& h, int i);
    [[nodiscard]] bool heap_less(Var a, Var b) const {
        return activity_[static_cast<std::size_t>(a)] > activity_[static_cast<std::size_t>(b)];
    }

    void clause_bump(ClauseRef c);

    bool ok_ = true;
    std::vector<std::uint32_t> arena_;
    std::vector<ClauseRef> clauses_;  ///< problem clauses
    std::vector<ClauseRef> learnts_;
    std::vector<std::vector<Watcher>> watches_;  ///< indexed by Lit.x

    std::vector<Value> lit_val_;      ///< per literal (Lit.x): value of the literal
    std::vector<Value> model_;        ///< per var, snapshot at kSat
    std::vector<VarData> vardata_;    ///< per var
    std::vector<Lit> trail_;
    std::vector<std::int32_t> trail_lim_;
    std::size_t qhead_ = 0;

    std::vector<double> activity_;
    double var_inc_ = 1.0;
    VarHeap order_;  ///< every unassigned variable
    /// During solve_within() only: the scope's unassigned variables, the
    /// one queue decisions come from. pos -2 = outside the scope.
    VarHeap scope_order_;
    bool scoped_ = false;
    std::vector<std::uint8_t> polarity_;  ///< saved phase (1 = last true)

    double cla_inc_ = 1.0;
    double max_learnts_ = 0;

    std::vector<Lit> assumptions_;
    std::vector<Lit> conflict_;
    std::vector<std::uint8_t> seen_;
    std::vector<Lit> analyze_clear_;  ///< pre-minimization learnt set
    std::vector<Lit> add_tmp_;        ///< add_clause sort/dedup scratch
    std::vector<Lit> learnt_;         ///< search() learnt-clause scratch

    SolverStats stats_;
};

}  // namespace bdsmaj::sat
