#include "decomp/exact_sat.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "decomp/exact_decide.hpp"
#include "sat/solver.hpp"

namespace bdsmaj::decomp {

namespace {

using detail::kInputTt;
using detail::tt_mask;

// ---------------------------------------------------------------------------
// Operator alphabet: the distinct normal 8-bit tables one gate of
// {MAJ, AND, OR, XOR, MUX} can realize over three ordered operand slots
// with per-operand complements. Enumerated once; the forbidden-pattern
// clauses keep every step's f-bits inside the set and decode maps a table
// back to its realization (deterministically: first enumeration wins).
// ---------------------------------------------------------------------------

struct OpRealization {
    ExactOp op = ExactOp::kAnd;
    std::array<std::uint8_t, 3> slot{0, 1, 2};  ///< gate arg -> triple slot
    std::uint8_t neg = 0;  ///< complement mask over triple slots
};

struct OpAlphabet {
    std::map<std::uint8_t, OpRealization> table;  ///< ordered => determinism
    std::array<bool, 256> allowed{};
};

const OpAlphabet& op_alphabet() {
    static const OpAlphabet alpha = [] {
        OpAlphabet a;
        const auto slot_bit = [](int pattern, int s) { return (pattern >> s) & 1; };
        const auto try_insert = [&](ExactOp op, std::array<std::uint8_t, 3> slot,
                                    std::uint8_t neg, int arity) {
            std::uint8_t h = 0;
            for (int v = 0; v < 8; ++v) {
                int x[3];
                for (int q = 0; q < arity; ++q) {
                    x[q] = slot_bit(v, slot[static_cast<std::size_t>(q)]) ^
                           ((neg >> slot[static_cast<std::size_t>(q)]) & 1);
                }
                int out = 0;
                switch (op) {
                    case ExactOp::kAnd: out = x[0] & x[1]; break;
                    case ExactOp::kOr: out = x[0] | x[1]; break;
                    case ExactOp::kXor: out = x[0] ^ x[1]; break;
                    case ExactOp::kMaj:
                        out = (x[0] & x[1]) | (x[0] & x[2]) | (x[1] & x[2]);
                        break;
                    case ExactOp::kMux: out = x[0] ? x[1] : x[2]; break;
                }
                h = static_cast<std::uint8_t>(h | (out << v));
            }
            if (h & 1) return;  // not normal: unusable in a normal chain
            if (a.allowed[h]) return;  // first realization wins
            a.allowed[h] = true;
            a.table.emplace(h, OpRealization{op, slot, neg});
        };

        // Fanin-2 projections over the three slot pairs. XOR only needs the
        // uncomplemented polarity (complements flip its output, which a
        // normal chain cannot absorb); AND/OR keep the normal subset of
        // operand polarities.
        constexpr std::array<std::array<std::uint8_t, 2>, 3> kPairs{
            {{0, 1}, {0, 2}, {1, 2}}};
        for (const auto& pr : kPairs) {
            const std::array<std::uint8_t, 3> slot{pr[0], pr[1], 0};
            for (int p0 = 0; p0 < 2; ++p0) {
                for (int p1 = 0; p1 < 2; ++p1) {
                    const auto neg = static_cast<std::uint8_t>((p0 << pr[0]) |
                                                               (p1 << pr[1]));
                    try_insert(ExactOp::kAnd, slot, neg, 2);
                    try_insert(ExactOp::kOr, slot, neg, 2);
                    try_insert(ExactOp::kXor, slot, neg, 2);
                }
            }
        }
        // MAJ over all operand polarities (normal subset survives).
        for (int neg = 0; neg < 8; ++neg) {
            try_insert(ExactOp::kMaj, {0, 1, 2},
                       static_cast<std::uint8_t>(neg), 3);
        }
        // MUX over every (select, then, else) role assignment + polarities.
        constexpr std::array<std::array<std::uint8_t, 3>, 6> kRoles{
            {{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}};
        for (const auto& role : kRoles) {
            for (int neg = 0; neg < 8; ++neg) {
                try_insert(ExactOp::kMux, role, static_cast<std::uint8_t>(neg), 3);
            }
        }
        return a;
    }();
    return alpha;
}

// ---------------------------------------------------------------------------
// Chain encoding over one incremental sat::Solver: steps are appended as
// the chain length grows, with per-r output bindings and symmetry clauses
// guarded by an assumption literal.
// ---------------------------------------------------------------------------

struct Triple {
    std::uint8_t j = 0, k = 0, l = 0;  ///< operand indices, j < k < l
    [[nodiscard]] bool contains(int x) const noexcept {
        return j == x || k == x || l == x;
    }
};

/// All operand triples j < k < l over universe size `u`.
std::vector<Triple> full_triples(int u) {
    std::vector<Triple> out;
    for (int j = 0; j < u; ++j) {
        for (int k = j + 1; k < u; ++k) {
            for (int l = k + 1; l < u; ++l) {
                out.push_back(Triple{static_cast<std::uint8_t>(j),
                                     static_cast<std::uint8_t>(k),
                                     static_cast<std::uint8_t>(l)});
            }
        }
    }
    return out;
}

struct StepVars {
    std::array<sat::Var, 8> f{};  ///< f[1..7]; pattern 000 is implicitly 0
    std::vector<Triple> triples;
    std::vector<sat::Var> sel;  ///< parallel to triples
    std::vector<sat::Var> val;  ///< parallel to the active minterm list
};

class ChainEncoding {
public:
    ChainEncoding(std::uint64_t target, int n) : target_(target), n_(n) {}

    sat::Solver& solver() { return solver_; }
    [[nodiscard]] int num_steps() const {
        return static_cast<int>(steps_.size());
    }

    /// Append one step reading any triple of the inputs and earlier
    /// steps. Adds operator-alphabet and selection clauses plus value
    /// bindings for every already-active minterm.
    void add_step() {
        const OpAlphabet& alpha = op_alphabet();
        StepVars sv;
        sv.triples = full_triples(n_ + num_steps());
        for (int v = 1; v < 8; ++v) sv.f[static_cast<std::size_t>(v)] = solver_.new_var();
        // Forbid every normal 8-bit table outside the one-gate alphabet.
        std::vector<sat::Lit> clause;
        for (int h = 0; h < 256; h += 2) {
            if (alpha.allowed[static_cast<std::size_t>(h)]) continue;
            clause.clear();
            for (int v = 1; v < 8; ++v) {
                clause.push_back(sat::Lit::make(sv.f[static_cast<std::size_t>(v)],
                                                ((h >> v) & 1) != 0));
            }
            solver_.add_clause(clause);
        }
        sv.sel.reserve(sv.triples.size());
        clause.clear();
        for (std::size_t t = 0; t < sv.triples.size(); ++t) {
            sv.sel.push_back(solver_.new_var());
            clause.push_back(sat::Lit::make(sv.sel.back()));
        }
        solver_.add_clause(clause);  // at least one triple selected
        sv.val.reserve(minterms_.size());
        for (std::size_t mi = 0; mi < minterms_.size(); ++mi) {
            sv.val.push_back(solver_.new_var());
        }
        steps_.push_back(std::move(sv));
        const int i = static_cast<int>(steps_.size()) - 1;
        for (std::size_t mi = 0; mi < minterms_.size(); ++mi) {
            bind_step_minterm(i, static_cast<int>(mi));
        }
    }

    /// Activate minterm `m`: every step gets a value variable and binding
    /// clauses tying it to the selected operands and operator bits.
    /// Returns the minterm's index in the active list.
    int add_minterm(std::uint32_t m) {
        minterms_.push_back(m);
        const int mi = static_cast<int>(minterms_.size()) - 1;
        for (StepVars& sv : steps_) sv.val.push_back(solver_.new_var());
        for (int i = 0; i < static_cast<int>(steps_.size()); ++i) {
            bind_step_minterm(i, mi);
        }
        return mi;
    }

    [[nodiscard]] int num_minterms() const {
        return static_cast<int>(minterms_.size());
    }

    /// Clause "output step equals the target at active minterm mi",
    /// guarded (guard must be false or the clause holds).
    void add_output_binding(int mi, sat::Lit guard) {
        const StepVars& out = steps_.back();
        const std::uint32_t m = minterms_[static_cast<std::size_t>(mi)];
        const bool bit = ((target_ >> m) & 1) != 0;
        solver_.add_clause(~guard,
                           sat::Lit::make(out.val[static_cast<std::size_t>(mi)], !bit));
    }

    /// Symmetry breaking: every non-output step must be referenced by a
    /// selected triple of a later step (a minimal chain has no dead step).
    void add_use_all_steps(sat::Lit guard) {
        const int r = num_steps();
        std::vector<sat::Lit> clause;
        for (int i = 0; i < r - 1; ++i) {
            clause.clear();
            clause.push_back(~guard);
            const int operand = n_ + i;
            for (int i2 = i + 1; i2 < r; ++i2) {
                const StepVars& sv = steps_[static_cast<std::size_t>(i2)];
                for (std::size_t t = 0; t < sv.triples.size(); ++t) {
                    if (sv.triples[t].contains(operand)) {
                        clause.push_back(sat::Lit::make(sv.sel[t]));
                    }
                }
            }
            solver_.add_clause(clause);
        }
    }

    /// Decode the model into per-step (table, triple) choices and the
    /// chain's full truth table. Deterministic: smallest selected triple.
    struct Decoded {
        std::vector<std::uint8_t> h;
        std::vector<Triple> triple;
        std::uint64_t tt = 0;
    };
    [[nodiscard]] Decoded decode() const {
        const std::uint64_t mask = tt_mask(n_);
        Decoded d;
        std::vector<std::uint64_t> step_tt;
        for (const StepVars& sv : steps_) {
            std::uint8_t h = 0;
            for (int v = 1; v < 8; ++v) {
                if (solver_.model_true(
                        sat::Lit::make(sv.f[static_cast<std::size_t>(v)]))) {
                    h = static_cast<std::uint8_t>(h | (1 << v));
                }
            }
            std::size_t chosen = sv.triples.size();
            for (std::size_t t = 0; t < sv.triples.size(); ++t) {
                if (solver_.model_true(sat::Lit::make(sv.sel[t]))) {
                    chosen = t;
                    break;
                }
            }
            assert(chosen < sv.triples.size() && "at-least-one clause");
            const Triple tr = sv.triples[chosen];
            const auto operand_tt = [&](int x) {
                return x < n_ ? (kInputTt[x] & mask)
                              : step_tt[static_cast<std::size_t>(x - n_)];
            };
            const std::uint64_t a = operand_tt(tr.j);
            const std::uint64_t b = operand_tt(tr.k);
            const std::uint64_t c = operand_tt(tr.l);
            std::uint64_t tt = 0;
            for (int v = 1; v < 8; ++v) {
                if (!((h >> v) & 1)) continue;
                tt |= ((v & 1) ? a : ~a) & ((v & 2) ? b : ~b) &
                      ((v & 4) ? c : ~c);
            }
            step_tt.push_back(tt & mask);
            d.h.push_back(h);
            d.triple.push_back(tr);
        }
        d.tt = step_tt.empty() ? 0 : step_tt.back();
        return d;
    }

private:
    /// The selection/operator/value consistency clauses for one
    /// (step, minterm) pair: for every triple and every operand pattern
    /// consistent with the minterm's input bits,
    ///   sel & (operands match pattern) -> (value <-> f[pattern]).
    /// Input operands are compile-time constants at a fixed minterm, so
    /// all-input triples collapse to two unit-ish clauses.
    void bind_step_minterm(int i, int mi) {
        StepVars& sv = steps_[static_cast<std::size_t>(i)];
        const std::uint32_t m = minterms_[static_cast<std::size_t>(mi)];
        const sat::Lit vi = sat::Lit::make(sv.val[static_cast<std::size_t>(mi)]);
        std::vector<sat::Lit> base;
        std::vector<sat::Lit> clause;
        for (std::size_t t = 0; t < sv.triples.size(); ++t) {
            const Triple tr = sv.triples[t];
            const std::array<int, 3> ops{tr.j, tr.k, tr.l};
            for (int v = 0; v < 8; ++v) {
                base.clear();
                base.push_back(sat::Lit::make(sv.sel[t], true));
                bool consistent = true;
                for (int s = 0; s < 3 && consistent; ++s) {
                    const int bit = (v >> s) & 1;
                    const int x = ops[static_cast<std::size_t>(s)];
                    if (x < n_) {
                        // Input: its value at minterm m is a constant.
                        if (((m >> x) & 1) != static_cast<std::uint32_t>(bit)) {
                            consistent = false;
                        }
                    } else {
                        const sat::Var xv =
                            steps_[static_cast<std::size_t>(x - n_)]
                                .val[static_cast<std::size_t>(mi)];
                        // "operand != bit" escape literal.
                        base.push_back(sat::Lit::make(xv, bit == 1));
                    }
                }
                if (!consistent) continue;
                if (v == 0) {
                    // f(000) == 0 (normal chain): value must be false.
                    clause = base;
                    clause.push_back(~vi);
                    solver_.add_clause(clause);
                    continue;
                }
                const sat::Lit fv =
                    sat::Lit::make(sv.f[static_cast<std::size_t>(v)]);
                clause = base;
                clause.push_back(~vi);
                clause.push_back(fv);
                solver_.add_clause(clause);
                clause = base;
                clause.push_back(vi);
                clause.push_back(~fv);
                solver_.add_clause(clause);
            }
        }
    }

    sat::Solver solver_;
    std::uint64_t target_ = 0;
    int n_ = 0;
    std::vector<StepVars> steps_;
    std::vector<std::uint32_t> minterms_;
};

/// Build the decoded model into a dead-code-eliminated WideStructure
/// computing `tt` (the pre-normalization target); output complementation
/// is `out_compl`.
std::shared_ptr<const WideStructure> build_structure(
    const ChainEncoding::Decoded& d, std::uint64_t tt, int n, bool out_compl) {
    const OpAlphabet& alpha = op_alphabet();
    const int r = static_cast<int>(d.h.size());
    struct TempGate {
        ExactOp op;
        std::array<int, 3> operand{-1, -1, -1};  ///< input < n, else n + step
        std::array<bool, 3> compl_in{false, false, false};
        int arity = 2;
    };
    std::vector<TempGate> temp;
    temp.reserve(static_cast<std::size_t>(r));
    for (int i = 0; i < r; ++i) {
        const auto it = alpha.table.find(d.h[static_cast<std::size_t>(i)]);
        assert(it != alpha.table.end() && "forbidden-pattern clauses");
        const OpRealization& real = it->second;
        const Triple tr = d.triple[static_cast<std::size_t>(i)];
        const std::array<int, 3> slot_operand{tr.j, tr.k, tr.l};
        TempGate g;
        g.op = real.op;
        g.arity = (real.op == ExactOp::kMaj || real.op == ExactOp::kMux) ? 3 : 2;
        for (int q = 0; q < g.arity; ++q) {
            const int s = real.slot[static_cast<std::size_t>(q)];
            g.operand[static_cast<std::size_t>(q)] =
                slot_operand[static_cast<std::size_t>(s)];
            g.compl_in[static_cast<std::size_t>(q)] = ((real.neg >> s) & 1) != 0;
        }
        temp.push_back(g);
    }
    // Reachability from the output step; unused filler steps (the use-all
    // clause counts triple slots, not gate arguments) are dropped.
    std::vector<bool> live(static_cast<std::size_t>(r), false);
    std::vector<int> stack{r - 1};
    while (!stack.empty()) {
        const int i = stack.back();
        stack.pop_back();
        if (live[static_cast<std::size_t>(i)]) continue;
        live[static_cast<std::size_t>(i)] = true;
        const TempGate& g = temp[static_cast<std::size_t>(i)];
        for (int q = 0; q < g.arity; ++q) {
            const int x = g.operand[static_cast<std::size_t>(q)];
            if (x >= n) stack.push_back(x - n);
        }
    }
    auto s = std::make_shared<WideStructure>();
    s->canonical = tt;
    s->num_inputs = static_cast<std::uint8_t>(n);
    std::vector<int> remap(static_cast<std::size_t>(r), -1);
    for (int i = 0; i < r; ++i) {
        if (!live[static_cast<std::size_t>(i)]) continue;
        const TempGate& g = temp[static_cast<std::size_t>(i)];
        WideGate wg;
        wg.op = g.op;
        const auto make_ref = [&](int q) {
            const int x = g.operand[static_cast<std::size_t>(q)];
            const bool c = g.compl_in[static_cast<std::size_t>(q)];
            return x < n ? WideRef::input(x, c)
                         : WideRef::gate(remap[static_cast<std::size_t>(x - n)], c);
        };
        wg.a = make_ref(0);
        wg.b = make_ref(1);
        if (g.arity == 3) wg.c = make_ref(2);
        remap[static_cast<std::size_t>(i)] = static_cast<int>(s->gates.size());
        s->gates.push_back(wg);
    }
    s->output = WideRef::gate(remap[static_cast<std::size_t>(r - 1)], out_compl);
    assert(s->eval_tt() == tt);
    return s;
}

/// Support of `tt` over n variables: which inputs it actually depends on.
int support_size_of(std::uint64_t tt, int n) {
    const std::uint64_t mask = tt_mask(n);
    int count = 0;
    for (int v = 0; v < n; ++v) {
        const std::uint64_t mv = kInputTt[v];
        const int shift = 1 << v;
        const std::uint64_t flipped =
            (((tt & mv) >> shift) | ((tt & ~mv) << shift)) & mask;
        if (flipped != tt) ++count;
    }
    return count;
}

// ---------------------------------------------------------------------------
// The synthesis driver: r-iteration, CEGAR, budget accounting.
// ---------------------------------------------------------------------------

class SatSynthesizer {
public:
    SatSynthesizer(std::uint64_t tt, int n, const ExactSatParams& params)
        : tt_(tt), n_(n), params_(params), mask_(tt_mask(n)) {}

    /// Chain lengths below `first_length` are skipped. With
    /// `decide_short`, lengths up to detail::kDecidedSteps are decided by
    /// construction (no conflicts) and CDCL starts above them.
    ExactSatResult run(int first_length, bool decide_short) {
        ExactSatResult res;
        const bool out_compl = (tt_ & 1) != 0;
        const std::uint64_t g = out_compl ? (~tt_ & mask_) : tt_;

        // Zero-gate programs: constants and (uncomplemented, since g is
        // normal) input projections.
        if (g == 0) {
            auto s = std::make_shared<WideStructure>();
            s->canonical = tt_;
            s->num_inputs = static_cast<std::uint8_t>(n_);
            s->output = WideRef::constant(out_compl);
            assert(s->eval_tt() == tt_);
            res.status = ExactSatStatus::kFound;
            res.structure = std::move(s);
            return res;
        }
        for (int v = 0; v < n_; ++v) {
            if (g != (kInputTt[v] & mask_)) continue;
            auto s = std::make_shared<WideStructure>();
            s->canonical = tt_;
            s->num_inputs = static_cast<std::uint8_t>(n_);
            s->output = WideRef::input(v, out_compl);
            assert(s->eval_tt() == tt_);
            res.status = ExactSatStatus::kFound;
            res.structure = std::move(s);
            return res;
        }

        // Fanin bound: r steps expose at most 2r + 1 leaf slots.
        const int supp = support_size_of(g, n_);
        const int r_min = std::max(1, (supp - 1 + 1) / 2);
        if (params_.conflict_budget <= 0) {
            finish(res, ExactSatStatus::kUnknown);
            return res;
        }
        int first = std::max(r_min, first_length);

        if (decide_short) {
            detail::ShortChainDecider decider(g, n_);
            const int decided_end = std::min(params_.max_steps, detail::kDecidedSteps);
            for (int r = first; r <= decided_end; ++r) {
                res.steps_tried = r;
                const std::optional<std::vector<detail::NormalStep>> chain = decider.find(r);
                if (!chain) continue;
                ChainEncoding::Decoded d;
                for (const detail::NormalStep& step : *chain) {
                    d.h.push_back(step.table);
                    d.triple.push_back(
                        Triple{step.operand[0], step.operand[1], step.operand[2]});
                }
                res.structure = build_structure(d, tt_, n_, out_compl);
                // Validated like a decoded model: nothing unproven is served.
                finish(res, res.structure->eval_tt() == tt_ ? ExactSatStatus::kFound
                                                            : ExactSatStatus::kUnknown);
                if (res.status != ExactSatStatus::kFound) res.structure.reset();
                return res;
            }
            if (params_.max_steps <= detail::kDecidedSteps) {
                finish(res, ExactSatStatus::kUnsat);
                return res;
            }
            first = std::max(first, detail::kDecidedSteps + 1);
        }

        // CDCL over one incremental encoding, one length at a time.
        ChainEncoding enc(g, n_);
        for (int r = first; r <= params_.max_steps; ++r) {
            res.steps_tried = r;
            while (enc.num_steps() < r) enc.add_step();
            const sat::Lit guard = sat::Lit::make(enc.solver().new_var());
            for (int mi = 0; mi < enc.num_minterms(); ++mi) {
                enc.add_output_binding(mi, guard);
            }
            enc.add_use_all_steps(guard);
            for (;;) {
                const long long remaining = params_.conflict_budget - spent_;
                if (remaining <= 0) {
                    finish(res, ExactSatStatus::kUnknown, &enc);
                    return res;
                }
                const sat::SolveResult sr = solve(enc, {guard}, remaining);
                ++res.sat_calls;
                if (sr == sat::SolveResult::kUnknown) {
                    finish(res, ExactSatStatus::kUnknown, &enc);
                    return res;
                }
                if (sr == sat::SolveResult::kUnsat) {
                    // Kill this generation's clauses and move to r + 1.
                    enc.solver().add_clause(~guard);
                    break;
                }
                const ChainEncoding::Decoded d = enc.decode();
                if (d.tt == g) {
                    res.structure = build_structure(d, tt_, n_, out_compl);
                    finish(res, ExactSatStatus::kFound, &enc);
                    return res;
                }
                const int mi = enc.add_minterm(next_counterexample(d.tt, g));
                enc.add_output_binding(mi, guard);
            }
        }
        finish(res, ExactSatStatus::kUnsat, &enc);
        return res;
    }

private:
    sat::SolveResult solve(ChainEncoding& enc,
                           const std::vector<sat::Lit>& assumptions,
                           long long limit) {
        const std::uint64_t before = enc.solver().stats().conflicts;
        const sat::SolveResult sr = enc.solver().solve(assumptions, limit);
        spent_ += static_cast<long long>(enc.solver().stats().conflicts - before);
        return sr;
    }

    /// Lowest differing minterm. Minterm 0 can never differ: the chain is
    /// normal and the target is normalized.
    static std::uint32_t next_counterexample(std::uint64_t have,
                                             std::uint64_t want) {
        const std::uint64_t diff = have ^ want;
        assert(diff != 0 && (diff & 1) == 0);
        return static_cast<std::uint32_t>(std::countr_zero(diff));
    }

    /// `enc` is the call's solver, if it built one.
    void finish(ExactSatResult& res, ExactSatStatus status,
                ChainEncoding* enc = nullptr) const {
        res.status = status;
        res.conflicts = spent_;
        if (enc != nullptr) res.solver_stats = enc->solver().stats();
    }

    std::uint64_t tt_;
    int n_;
    ExactSatParams params_;
    std::uint64_t mask_;
    long long spent_ = 0;
};

// ---------------------------------------------------------------------------
// Canonicalization memo: a 6-var exact NPN walk visits ~92k transforms,
// and the strategy pipeline canonicalizes every cone it serves — repeated
// shapes (there are few distinct classes in real netlists) should pay
// once per process.
// ---------------------------------------------------------------------------

struct WideCanonEntry {
    std::uint64_t canonical = 0;
    tt::NpnTransformW transform;
};

std::uint64_t wide_canonical_memo(std::uint64_t tt, int n,
                                  tt::NpnTransformW* transform) {
    static std::mutex mutex;
    static std::array<std::unordered_map<std::uint64_t, WideCanonEntry>, 3> memo;
    if (n < 4 || n > 6) return tt::npn_canonical_w(tt, n, transform);
    const std::size_t slot = static_cast<std::size_t>(n - 4);
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = memo[slot].find(tt);
        if (it != memo[slot].end()) {
            if (transform != nullptr) *transform = it->second.transform;
            return it->second.canonical;
        }
    }
    WideCanonEntry e;
    e.canonical = tt::npn_canonical_w(tt, n, &e.transform);
    if (transform != nullptr) *transform = e.transform;
    std::lock_guard<std::mutex> lock(mutex);
    memo[slot].emplace(tt, e);
    return e.canonical;
}

}  // namespace

ExactSatResult exact_sat_synthesize(std::uint64_t tt, int num_inputs,
                                    const ExactSatParams& params) {
    // The triple encoding needs an operand universe of at least three, so
    // the smallest supported input count is 3 (callers use 5-6).
    assert(num_inputs >= 3 && num_inputs <= 6);
    const std::uint64_t mask = tt_mask(num_inputs);
    SatSynthesizer synth(tt & mask, num_inputs, params);
    return synth.run(1, true);
}

namespace detail {

bool normal_table_allowed(std::uint8_t table) {
    return op_alphabet().allowed[table];
}

ExactSatResult cdcl_chain_search(std::uint64_t tt, int num_inputs,
                                 const ExactSatParams& params, int first_length) {
    assert(num_inputs >= 3 && num_inputs <= 6);
    const std::uint64_t mask = tt_mask(num_inputs);
    SatSynthesizer synth(tt & mask, num_inputs, params);
    return synth.run(first_length, false);
}

}  // namespace detail

std::optional<WideConeMatch> match_cone_wide(bdd::Manager& mgr,
                                             const bdd::Bdd& f,
                                             int min_support, int max_support) {
    assert(max_support <= 6);
    const std::vector<int> support = mgr.support_vars(f);
    const int size = static_cast<int>(support.size());
    if (size < min_support || size > max_support) return std::nullopt;
    WideConeMatch match;
    match.support_size = size;
    match.num_inputs = std::max(size, 4);
    for (int i = 0; i < size; ++i) {
        match.support[static_cast<std::size_t>(i)] =
            support[static_cast<std::size_t>(i)];
    }
    // Minterm bits above the support are padding inputs, which f ignores.
    std::vector<bool> values(static_cast<std::size_t>(mgr.num_vars()), false);
    for (std::uint32_t m = 0; m < (1u << match.num_inputs); ++m) {
        for (int i = 0; i < size; ++i) {
            values[static_cast<std::size_t>(support[static_cast<std::size_t>(i)])] =
                ((m >> i) & 1) != 0;
        }
        if (mgr.eval(f, values)) match.tt |= 1ULL << m;
    }
    match.canonical =
        wide_canonical_memo(match.tt, match.num_inputs, &match.transform);
    return match;
}

net::Signal emit_exact_cone_wide(const WideConeMatch& match,
                                 const WideStructure& s, net::GateSink& sink,
                                 std::span<const net::Signal> leaves) {
    assert(s.canonical == match.canonical);
    assert(s.num_inputs == match.num_inputs);
    const int n = match.num_inputs;
    std::array<int, 6> invperm{};
    for (int v = 0; v < n; ++v) {
        invperm[match.transform.permutation[static_cast<std::size_t>(v)]] = v;
    }
    std::array<net::Signal, 6> input{};
    std::array<bool, 6> input_ready{};
    std::vector<net::Signal> value;
    value.reserve(s.gates.size());
    const auto resolve = [&](const WideRef& r) -> net::Signal {
        net::Signal v;
        if (r.is_const()) {
            v = sink.constant(r.complemented);
            return v;
        }
        if (r.is_input()) {
            if (!input_ready[r.index]) {
                const int pos = invperm[r.index];
                const bool negated =
                    ((match.transform.input_negation >> pos) & 1) != 0;
                const net::Signal leaf =
                    pos < match.support_size
                        ? leaves[static_cast<std::size_t>(
                              match.support[static_cast<std::size_t>(pos)])]
                        : sink.constant(false);
                input[r.index] = negated ? !leaf : leaf;
                input_ready[r.index] = true;
            }
            v = input[r.index];
        } else {
            v = value[static_cast<std::size_t>(r.index - WideRef::kGateBase)];
        }
        return r.complemented ? !v : v;
    };
    for (const WideGate& g : s.gates) {
        net::Signal out;
        switch (g.op) {
            case ExactOp::kAnd:
                out = sink.build_and(resolve(g.a), resolve(g.b));
                break;
            case ExactOp::kOr:
                out = sink.build_or(resolve(g.a), resolve(g.b));
                break;
            case ExactOp::kXor:
                out = sink.build_xor(resolve(g.a), resolve(g.b));
                break;
            case ExactOp::kMaj:
                out = sink.build_maj(resolve(g.a), resolve(g.b), resolve(g.c));
                break;
            case ExactOp::kMux:
                out = sink.build_mux(resolve(g.a), resolve(g.b), resolve(g.c));
                break;
        }
        value.push_back(out);
    }
    const net::Signal canonical_out = resolve(s.output);
    return match.transform.output_negation ? !canonical_out : canonical_out;
}

int exact_sat_operator_count() {
    return static_cast<int>(op_alphabet().table.size());
}

}  // namespace bdsmaj::decomp
