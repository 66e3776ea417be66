#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/fault_inject.hpp"

namespace bdsmaj::sat {

namespace {

/// Luby restart sequence (unit = 128 conflicts): 1 1 2 1 1 2 4 ...
std::int64_t luby(std::int64_t i) {
    // Find the finite subsequence containing index i and its size.
    std::int64_t size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i = i % size;
    }
    return std::int64_t{1} << seq;
}

constexpr std::int64_t kRestartUnit = 128;

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
    const Var v = static_cast<Var>(vardata_.size());
    lit_val_.push_back(Value::kUndef);
    lit_val_.push_back(Value::kUndef);
    model_.push_back(Value::kUndef);
    vardata_.push_back({});
    activity_.push_back(0.0);
    order_.pos.push_back(-1);
    scope_order_.pos.push_back(-2);
    polarity_.push_back(0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(order_, v);
    return v;
}

Value Solver::fixed_value(Var v) const {
    const Value val = value(Lit::make(v));
    if (val == Value::kUndef || vardata_[static_cast<std::size_t>(v)].level != 0) {
        return Value::kUndef;
    }
    return val;
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt) {
    const ClauseRef c = static_cast<ClauseRef>(arena_.size());
    arena_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                     (learnt ? 2u : 0u));
    for (const Lit p : lits) arena_.push_back(static_cast<std::uint32_t>(p.x));
    if (learnt) {
        arena_.push_back(0);  // activity slot
        clause_activity(c) = 0.0f;
    }
    return c;
}

void Solver::attach_clause(ClauseRef c) {
    Lit* lits = clause_lits(c);
    watches_[static_cast<std::size_t>((~lits[0]).x)].push_back({c, lits[1]});
    watches_[static_cast<std::size_t>((~lits[1]).x)].push_back({c, lits[0]});
}

void Solver::detach_clause(ClauseRef c) {
    Lit* lits = clause_lits(c);
    for (int k = 0; k < 2; ++k) {
        auto& ws = watches_[static_cast<std::size_t>((~lits[k]).x)];
        for (std::size_t i = 0; i < ws.size(); ++i) {
            if (ws[i].cref == c) {
                ws[i] = ws.back();
                ws.pop_back();
                break;
            }
        }
    }
}

bool Solver::add_clause(std::span<const Lit> lits) {
    if (!ok_) return false;
    // Adding clauses is only legal at level 0 (between solve() calls).
    cancel_until(0);
    add_tmp_.assign(lits.begin(), lits.end());
    std::sort(add_tmp_.begin(), add_tmp_.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    // Compact in place: the kept prefix never overtakes the read cursor.
    std::size_t kept = 0;
    Lit prev = kUndefLit;
    for (const Lit p : add_tmp_) {
        if (p == prev) continue;
        if (p == ~prev) return true;  // tautology
        const Value v = value(p);
        if (v == Value::kTrue) return true;  // satisfied at level 0
        prev = p;
        if (v == Value::kFalse) continue;  // falsified at level 0: drop the literal
        add_tmp_[kept++] = p;
    }
    add_tmp_.resize(kept);
    if (add_tmp_.empty()) {
        ok_ = false;
        return false;
    }
    if (add_tmp_.size() == 1) {
        unchecked_enqueue(add_tmp_[0], kNoClause);
        if (propagate() != kNoClause) ok_ = false;
        return ok_;
    }
    const ClauseRef c = alloc_clause(add_tmp_, /*learnt=*/false);
    clauses_.push_back(c);
    attach_clause(c);
    return true;
}

Solver::ClauseRef Solver::propagate() {
    // Visit order, blocker rule and watch moves are those of the textbook
    // two-watched-literal loop; only the bookkeeping is lean: raw watcher
    // pointers, per-literal values, literals at a fixed clause offset.
    ClauseRef confl = kNoClause;
    const Value* const val = lit_val_.data();
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];  // p became true
        ++stats_.propagations;
        std::vector<Watcher>& ws = watches_[static_cast<std::size_t>(p.x)];
        const Lit false_lit = ~p;
        Watcher* i = ws.data();
        Watcher* j = i;
        Watcher* const end = i + ws.size();
        while (i != end) {
            // Blocker short-circuit: clause already satisfied.
            const Lit blocker = i->blocker;
            if (val[blocker.x] == Value::kTrue) [[likely]] {
                *j++ = *i++;
                continue;
            }
            const ClauseRef c = i->cref;
            ++i;
            Lit* lits = clause_lits(c);
            // Normalize: the falsified watch (~p) goes to slot 1. It is
            // one of the two watched slots, so this is a branch-free swap.
            const Lit first = lits[0] == false_lit ? lits[1] : lits[0];
            lits[0] = first;
            lits[1] = false_lit;
            // (first == blocker cannot be true here: the blocker test failed.)
            const Value first_val = val[first.x];
            if (first_val == Value::kTrue) {
                *j++ = {c, first};
                continue;
            }
            const Lit* const lits_end = lits + clause_size(c);
            Lit* k = lits + 2;
            while (k != lits_end && val[k->x] == Value::kFalse) ++k;
            if (k != lits_end) {
                lits[1] = *k;
                *k = false_lit;
                watches_[static_cast<std::size_t>(lits[1].x ^ 1)].push_back({c, first});
                continue;
            }
            // Unit or conflicting.
            *j++ = {c, first};
            if (first_val == Value::kFalse) {
                confl = c;
                qhead_ = trail_.size();
                while (i != end) *j++ = *i++;
            } else {
                unchecked_enqueue(first, c);
            }
        }
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        if (confl != kNoClause) break;
    }
    return confl;
}

void Solver::var_bump(Var v) {
    double& a = activity_[static_cast<std::size_t>(v)];
    a += var_inc_;
    if (a > 1e100) {
        for (double& x : activity_) x *= 1e-100;
        var_inc_ *= 1e-100;
    }
    const int pos = order_.pos[static_cast<std::size_t>(v)];
    if (pos >= 0) heap_sift_up(order_, pos);
    if (scoped_) {
        const int scope_pos = scope_order_.pos[static_cast<std::size_t>(v)];
        if (scope_pos >= 0) heap_sift_up(scope_order_, scope_pos);
    }
}

void Solver::clause_bump(ClauseRef c) {
    float& a = clause_activity(c);
    a += static_cast<float>(cla_inc_);
    if (a > 1e20f) {
        for (const ClauseRef l : learnts_) {
            if (!clause_dead(l)) clause_activity(l) *= 1e-20f;
        }
        cla_inc_ *= 1e-20;
    }
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel) {
    out_learnt.clear();
    out_learnt.push_back(kUndefLit);  // slot for the asserting literal
    int path_count = 0;
    Lit p = kUndefLit;
    std::size_t index = trail_.size();
    const VarData* const vd = vardata_.data();
    std::uint8_t* const seen = seen_.data();
    const int level_now = decision_level();

    do {
        const Lit* lits = clause_lits(confl);
        const std::uint32_t size = clause_size(confl);
        if (clause_learnt(confl)) clause_bump(confl);
        for (std::uint32_t k = (p == kUndefLit ? 0 : 1); k < size; ++k) {
            const Lit q = lits[k];
            const std::size_t v = static_cast<std::size_t>(q.var());
            const std::int32_t lv = vd[v].level;
            if (seen[v] == 0 && lv > 0) {
                var_bump(q.var());
                seen[v] = 1;
                if (lv >= level_now) {
                    ++path_count;
                } else {
                    out_learnt.push_back(q);
                }
            }
        }
        // Walk the trail back to the next marked literal.
        while (seen[static_cast<std::size_t>(trail_[index - 1].var())] == 0) --index;
        --index;
        p = trail_[index];
        confl = vd[static_cast<std::size_t>(p.var())].reason;
        seen[static_cast<std::size_t>(p.var())] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Basic clause minimization: a reason-implied literal whose entire
    // reason clause is already marked is redundant. Keep the pre-
    // minimization set so every seen_ flag gets cleared afterwards.
    analyze_clear_ = out_learnt;
    std::size_t j = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
        const Lit q = out_learnt[i];
        const ClauseRef r = vd[static_cast<std::size_t>(q.var())].reason;
        bool redundant = false;
        if (r != kNoClause) {
            redundant = true;
            const Lit* rl = clause_lits(r);
            const std::uint32_t rs = clause_size(r);
            for (std::uint32_t k = 0; k < rs; ++k) {
                const std::size_t v = static_cast<std::size_t>(rl[k].var());
                if (seen[v] == 0 && vd[v].level > 0) {
                    redundant = false;
                    break;
                }
            }
        }
        if (redundant) {
            ++stats_.minimized_literals;
        } else {
            out_learnt[j++] = q;
        }
    }
    out_learnt.resize(j);

    // Backtrack level: highest level among the non-asserting literals.
    out_btlevel = 0;
    if (out_learnt.size() > 1) {
        std::size_t max_i = 1;
        std::int32_t max_level = vd[static_cast<std::size_t>(out_learnt[1].var())].level;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            const std::int32_t lv = vd[static_cast<std::size_t>(out_learnt[i].var())].level;
            if (lv > max_level) {
                max_i = i;
                max_level = lv;
            }
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = max_level;
    }
    for (const Lit q : analyze_clear_) {
        if (q != kUndefLit) seen[static_cast<std::size_t>(q.var())] = 0;
    }
    seen[static_cast<std::size_t>(p.var())] = 0;
}

void Solver::analyze_final(Lit p) {
    // The negation of the assumption subset that forced the conflict.
    conflict_.clear();
    conflict_.push_back(~p);
    if (decision_level() == 0) return;
    seen_[static_cast<std::size_t>(p.var())] = 1;
    for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(trail_lim_[0]);) {
        const std::size_t vi = static_cast<std::size_t>(trail_[i].var());
        if (seen_[vi] == 0) continue;
        const VarData& d = vardata_[vi];
        if (d.reason == kNoClause) {
            if (d.level > 0) conflict_.push_back(~trail_[i]);
        } else {
            const Lit* lits = clause_lits(d.reason);
            const std::uint32_t size = clause_size(d.reason);
            for (std::uint32_t k = 1; k < size; ++k) {
                const std::size_t v = static_cast<std::size_t>(lits[k].var());
                if (vardata_[v].level > 0) seen_[v] = 1;
            }
        }
        seen_[vi] = 0;
    }
    seen_[static_cast<std::size_t>(p.var())] = 0;
}

void Solver::cancel_until(int target) {
    if (decision_level() <= target) return;
    const std::int32_t limit = trail_lim_[static_cast<std::size_t>(target)];
    for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(limit);) {
        const Lit p = trail_[i];  // true until now
        const Var v = p.var();
        const std::size_t vi = static_cast<std::size_t>(v);
        polarity_[vi] = p.negated() ? 0 : 1;  // phase saving
        lit_val_[static_cast<std::size_t>(p.x)] = Value::kUndef;
        lit_val_[static_cast<std::size_t>(p.x ^ 1)] = Value::kUndef;
        vardata_[vi].reason = kNoClause;
        if (order_.pos[vi] < 0) heap_insert(order_, v);
        if (scoped_ && scope_order_.pos[vi] == -1) heap_insert(scope_order_, v);
    }
    trail_.resize(static_cast<std::size_t>(limit));
    trail_lim_.resize(static_cast<std::size_t>(target));
    qhead_ = trail_.size();
}

// ---- VSIDS order heap ------------------------------------------------------

void Solver::heap_insert(VarHeap& h, Var v) {
    h.pos[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(h.heap.size());
    h.heap.push_back(v);
    heap_sift_up(h, static_cast<int>(h.heap.size()) - 1);
}

Var Solver::heap_pop(VarHeap& h) {
    const Var top = h.heap[0];
    h.pos[static_cast<std::size_t>(top)] = -1;
    h.heap[0] = h.heap.back();
    h.heap.pop_back();
    if (!h.heap.empty()) {
        h.pos[static_cast<std::size_t>(h.heap[0])] = 0;
        heap_sift_down(h, 0);
    }
    return top;
}

void Solver::heap_sift_up(VarHeap& h, int i) {
    const Var v = h.heap[static_cast<std::size_t>(i)];
    while (i > 0) {
        const int parent = (i - 1) >> 1;
        if (!heap_less(v, h.heap[static_cast<std::size_t>(parent)])) break;
        h.heap[static_cast<std::size_t>(i)] = h.heap[static_cast<std::size_t>(parent)];
        h.pos[static_cast<std::size_t>(h.heap[static_cast<std::size_t>(i)])] = i;
        i = parent;
    }
    h.heap[static_cast<std::size_t>(i)] = v;
    h.pos[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_sift_down(VarHeap& h, int i) {
    const Var v = h.heap[static_cast<std::size_t>(i)];
    const int n = static_cast<int>(h.heap.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n &&
            heap_less(h.heap[static_cast<std::size_t>(child + 1)],
                      h.heap[static_cast<std::size_t>(child)])) {
            ++child;
        }
        if (!heap_less(h.heap[static_cast<std::size_t>(child)], v)) break;
        h.heap[static_cast<std::size_t>(i)] = h.heap[static_cast<std::size_t>(child)];
        h.pos[static_cast<std::size_t>(h.heap[static_cast<std::size_t>(i)])] = i;
        i = child;
    }
    h.heap[static_cast<std::size_t>(i)] = v;
    h.pos[static_cast<std::size_t>(v)] = i;
}

Lit Solver::pick_branch_lit() {
    VarHeap& h = scoped_ ? scope_order_ : order_;
    while (!h.heap.empty()) {
        const Var v = heap_pop(h);
        if (value(Lit::make(v)) == Value::kUndef) {
            return Lit::make(v, polarity_[static_cast<std::size_t>(v)] == 0);
        }
    }
    return kUndefLit;
}

// ---- Learned-clause reduction ---------------------------------------------

void Solver::reduce_db() {
    ++stats_.db_reductions;
    std::vector<ClauseRef> live;
    live.reserve(learnts_.size());
    for (const ClauseRef c : learnts_) {
        if (!clause_dead(c)) live.push_back(c);
    }
    std::sort(live.begin(), live.end(), [this](ClauseRef a, ClauseRef b) {
        return clause_activity(a) < clause_activity(b);
    });
    std::vector<ClauseRef> kept;
    kept.reserve(live.size());
    const std::size_t target = live.size() / 2;
    for (std::size_t i = 0; i < live.size(); ++i) {
        const ClauseRef c = live[i];
        Lit* lits = clause_lits(c);
        const bool locked = vardata_[static_cast<std::size_t>(lits[0].var())].reason == c &&
                            value(lits[0]) == Value::kTrue;
        if (i < target && !locked && clause_size(c) > 2) {
            detach_clause(c);
            arena_[c] |= 1;  // dead
        } else {
            kept.push_back(c);
        }
    }
    learnts_ = std::move(kept);
}

// ---- Search ----------------------------------------------------------------

SolveResult Solver::search(std::int64_t conflict_budget) {
    std::vector<Lit>& learnt = learnt_;
    std::int64_t restart_limit = luby(static_cast<std::int64_t>(stats_.restarts)) * kRestartUnit;
    std::int64_t conflicts_this_restart = 0;

    while (true) {
        const ClauseRef confl = propagate();
        if (confl != kNoClause) {
            ++stats_.conflicts;
            ++conflicts_this_restart;
            if (decision_level() == 0) {
                ok_ = false;
                conflict_.clear();
                return SolveResult::kUnsat;
            }
            int bt_level = 0;
            analyze(confl, learnt, bt_level);
            cancel_until(bt_level);
            ++stats_.learned_clauses;
            stats_.learned_literals += learnt.size();
            if (learnt.size() == 1) {
                unchecked_enqueue(learnt[0], kNoClause);
            } else {
                const ClauseRef c = alloc_clause(learnt, /*learnt=*/true);
                learnts_.push_back(c);
                attach_clause(c);
                clause_bump(c);
                unchecked_enqueue(learnt[0], c);
            }
            var_decay();
            cla_inc_ *= (1.0 / 0.999);
            continue;
        }

        if (conflict_budget > 0 && static_cast<std::int64_t>(stats_.conflicts) >= conflict_budget) {
            cancel_until(0);
            return SolveResult::kUnknown;
        }
        if (conflicts_this_restart >= restart_limit) {
            ++stats_.restarts;
            cancel_until(0);
            restart_limit = luby(static_cast<std::int64_t>(stats_.restarts)) * kRestartUnit;
            conflicts_this_restart = 0;
            continue;
        }
        if (static_cast<double>(learnts_.size()) >= max_learnts_ + trail_.size()) {
            reduce_db();
            max_learnts_ *= 1.1;
        }

        // Assumptions first, then VSIDS decisions.
        Lit next = kUndefLit;
        while (static_cast<std::size_t>(decision_level()) < assumptions_.size()) {
            const Lit p = assumptions_[static_cast<std::size_t>(decision_level())];
            const Value v = value(p);
            if (v == Value::kTrue) {
                trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
            } else if (v == Value::kFalse) {
                // p is the failing assumption; analyze_final negates it
                // into the core itself.
                analyze_final(p);
                return SolveResult::kUnsat;
            } else {
                next = p;
                break;
            }
        }
        if (next == kUndefLit &&
            static_cast<std::size_t>(decision_level()) >= assumptions_.size()) {
            next = pick_branch_lit();
            if (next == kUndefLit) {
                for (std::size_t v = 0; v < model_.size(); ++v) {
                    model_[v] = value(Lit::make(static_cast<Var>(v)));
                }
                return SolveResult::kSat;
            }
            ++stats_.decisions;
        }
        trail_lim_.push_back(static_cast<std::int32_t>(trail_.size()));
        unchecked_enqueue(next, kNoClause);
    }
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions,
                          std::int64_t conflict_limit) {
    // Chaos site: a fault deep inside a strategy's SAT call must surface
    // as that job's failure, never as a wrong verdict.
    runtime::fault_point(runtime::FaultSite::kSatSolve);
    conflict_.clear();
    if (!ok_) return SolveResult::kUnsat;
    assumptions_ = assumptions;
    if (max_learnts_ < 1) {
        max_learnts_ = std::max(4000.0, static_cast<double>(clauses_.size()) / 3.0);
    }
    const std::int64_t budget =
        conflict_limit <= 0 ? 0
                            : static_cast<std::int64_t>(stats_.conflicts) + conflict_limit;
    const SolveResult r = search(budget);
    cancel_until(0);
    assumptions_.clear();
    return r;
}

SolveResult Solver::solve_within(const std::vector<Lit>& assumptions,
                                 std::span<const Var> scope,
                                 std::int64_t conflict_limit) {
    // Only the scope is queued for decisions, so the search ends (kSat)
    // once the scope is assigned. The solver's own queue order_ is left
    // as it was, apart from the activity bumps every solve applies.
    for (const Var v : scope) scope_order_.pos[static_cast<std::size_t>(v)] = -1;
    for (const Var v : scope) {
        if (scope_order_.pos[static_cast<std::size_t>(v)] == -1 &&
            value(Lit::make(v)) == Value::kUndef) {
            heap_insert(scope_order_, v);
        }
    }
    scoped_ = true;
    const auto unscope = [&] {
        scoped_ = false;
        for (const Var v : scope) scope_order_.pos[static_cast<std::size_t>(v)] = -2;
        scope_order_.heap.clear();
    };
    SolveResult r = SolveResult::kUnknown;
    try {
        r = solve(assumptions, conflict_limit);
    } catch (...) {
        unscope();  // an injected fault must not leave the solver scoped
        throw;
    }
    unscope();
    return r;
}

}  // namespace bdsmaj::sat
