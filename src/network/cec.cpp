#include "network/cec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sat/cnf.hpp"

namespace bdsmaj::net {

namespace {

EquivalenceResult structural_mismatch(std::string reason, EquivEngine engine) {
    EquivalenceResult r;
    r.equivalent = false;
    r.exact = true;
    r.engine = engine;
    r.reason = std::move(reason);
    return r;
}

/// Topological level of every node (inputs/constants = 0). Candidate
/// queries run in merged level order so a node's proof can lean on
/// cut-points already substituted in its transitive fanin.
std::vector<int> node_levels(const Network& network, const std::vector<NodeId>& order) {
    std::vector<int> level(network.node_count(), 0);
    for (const NodeId id : order) {
        const Node& n = network.node(id);
        int l = 0;
        for (const NodeId f : n.fanins) l = std::max(l, level[f] + 1);
        level[id] = l;
    }
    return level;
}

std::uint64_t hash_words(const std::uint64_t* words, std::size_t count) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < count; ++i) {
        h ^= words[i] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    }
    return h;
}

/// Structurally hashed CNF construction over one solver. Gates are keyed
/// by (kind, canonical fanin literals) once trivial cases have folded
/// away, so the same logic encoded twice — within one network or across
/// the two sides of a miter — yields one literal. Proven equalities are
/// recorded as literal substitutions that resolve() follows; keys are
/// built from resolved fanins, so logic over a substituted node hashes
/// onto logic over its representative. Each gate variable's fanin
/// variables are recorded, so a query can be scoped to its cone.
class StrashEncoder {
public:
    StrashEncoder(sat::Solver& solver, std::uint64_t& hits)
        : tseitin_(solver), true_(tseitin_.constant(true)), hits_(hits) {}

    [[nodiscard]] sat::TseitinEncoder& tseitin() { return tseitin_; }
    [[nodiscard]] sat::Lit constant(bool value) const { return value ? true_ : ~true_; }

    [[nodiscard]] sat::Lit resolve(sat::Lit lit) const {
        while (static_cast<std::size_t>(lit.var()) < subst_.size() &&
               subst_[static_cast<std::size_t>(lit.var())] != sat::kUndefLit) {
            lit = subst_[static_cast<std::size_t>(lit.var())] ^ lit.negated();
        }
        return lit;
    }

    /// Fanin variables of a gate variable (-1 padded); all -1 for inputs
    /// and the constant.
    [[nodiscard]] const std::array<sat::Var, 3>& fanins(sat::Var v) const {
        static constexpr std::array<sat::Var, 3> kNone{-1, -1, -1};
        const auto i = static_cast<std::size_t>(v);
        return i < fanins_.size() ? fanins_[i] : kNone;
    }

    /// Record `from == to` for two resolved literals of distinct variables;
    /// the caller ties the variables in the CNF.
    void substitute(sat::Lit from, sat::Lit to) {
        const auto v = static_cast<std::size_t>(from.var());
        if (subst_.size() <= v) subst_.resize(v + 1, sat::kUndefLit);
        subst_[v] = to ^ from.negated();
    }

    /// Literal of a non-input node over its resolved fanin literals.
    [[nodiscard]] sat::Lit gate(const Node& n, const std::vector<sat::Lit>& in) {
        switch (n.kind) {
            case GateKind::kInput: break;
            case GateKind::kConst0: return constant(false);
            case GateKind::kConst1: return constant(true);
            case GateKind::kBuf: return in[0];
            case GateKind::kNot: return ~in[0];
            case GateKind::kAnd: return and2(in[0], in[1]);
            case GateKind::kOr: return or2(in[0], in[1]);
            case GateKind::kNand: return ~and2(in[0], in[1]);
            case GateKind::kNor: return ~or2(in[0], in[1]);
            case GateKind::kXor: return xor2(in[0], in[1]);
            case GateKind::kXnor: return ~xor2(in[0], in[1]);
            case GateKind::kMaj: return maj3(in[0], in[1], in[2]);
            case GateKind::kMux: return mux(in[0], in[1], in[2]);
            case GateKind::kSop: {
                sat::Lit out = constant(false);
                for (const Cube& cube : n.sop.cubes()) {
                    sat::Lit term = constant(true);
                    for (std::size_t k = 0; k < cube.lits.size(); ++k) {
                        if (cube.lits[k] == Lit::kDash) continue;
                        term = and2(term, in[k] ^ (cube.lits[k] == Lit::kNeg));
                    }
                    out = or2(out, term);
                }
                return out;
            }
        }
        throw std::logic_error("StrashEncoder::gate: primary inputs have no gate");
    }

private:
    enum Tag : std::int32_t { kAndTag, kXorTag, kMajTag, kMuxTag };
    struct Key {
        std::int32_t tag, x, y, z;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const noexcept {
            std::uint64_t h = static_cast<std::uint64_t>(k.tag);
            for (const std::int32_t v : {k.x, k.y, k.z}) {
                h = (h ^ static_cast<std::uint32_t>(v)) * 0x9e3779b97f4a7c15ULL;
                h ^= h >> 29;
            }
            return static_cast<std::size_t>(h);
        }
    };

    [[nodiscard]] bool is_const(sat::Lit l) const { return l.var() == true_.var(); }

    template <typename Make>
    sat::Lit lookup(const Key& key, Make make) {
        const auto [it, inserted] = table_.try_emplace(key, sat::kUndefLit);
        if (!inserted) {
            ++hits_;
            return resolve(it->second);
        }
        it->second = make();
        const auto v = static_cast<std::size_t>(it->second.var());
        if (fanins_.size() <= v) fanins_.resize(v + 1, {-1, -1, -1});
        const bool binary = key.tag == kAndTag || key.tag == kXorTag;
        fanins_[v] = {key.x >> 1, key.y >> 1, binary ? -1 : key.z >> 1};
        return it->second;
    }

    sat::Lit and2(sat::Lit x, sat::Lit y) {
        if (x == y) return x;
        if (x == ~y) return constant(false);
        if (is_const(x)) return x == true_ ? y : x;
        if (is_const(y)) return y == true_ ? x : y;
        if (y.x < x.x) std::swap(x, y);
        return lookup({kAndTag, x.x, y.x, 0}, [&] { return tseitin_.encode_and(x, y); });
    }

    sat::Lit or2(sat::Lit x, sat::Lit y) { return ~and2(~x, ~y); }

    sat::Lit xor2(sat::Lit x, sat::Lit y) {
        // Inputs positive, polarity moved to the output.
        const bool neg = x.negated() != y.negated();
        x = x ^ x.negated();
        y = y ^ y.negated();
        if (x == y) return constant(neg);
        if (is_const(x)) return ~y ^ neg;  // positive constant literal = true
        if (is_const(y)) return ~x ^ neg;
        if (y.x < x.x) std::swap(x, y);
        return lookup({kXorTag, x.x, y.x, 0}, [&] { return tseitin_.encode_xor(x, y); }) ^
               neg;
    }

    sat::Lit maj3(sat::Lit x, sat::Lit y, sat::Lit z) {
        if (x == y || x == z) return x;
        if (y == z) return y;
        if (x == ~y) return z;
        if (x == ~z) return y;
        if (y == ~z) return x;
        if (is_const(x)) return x == true_ ? or2(y, z) : and2(y, z);
        if (is_const(y)) return y == true_ ? or2(x, z) : and2(x, z);
        if (is_const(z)) return z == true_ ? or2(x, y) : and2(x, y);
        // Self-duality: at most one complemented fanin.
        const bool neg = static_cast<int>(x.negated()) + static_cast<int>(y.negated()) +
                             static_cast<int>(z.negated()) >= 2;
        std::array<sat::Lit, 3> f{x ^ neg, y ^ neg, z ^ neg};
        std::sort(f.begin(), f.end(), [](sat::Lit p, sat::Lit q) { return p.x < q.x; });
        return lookup({kMajTag, f[0].x, f[1].x, f[2].x},
                      [&] { return tseitin_.encode_maj(f[0], f[1], f[2]); }) ^
               neg;
    }

    sat::Lit mux(sat::Lit s, sat::Lit t, sat::Lit e) {
        if (is_const(s)) return s == true_ ? t : e;
        if (t == e) return t;
        if (s.negated()) {
            s = ~s;
            std::swap(t, e);
        }
        if (t == ~e) return xor2(s, e);
        if (t == s) return or2(s, e);
        if (t == ~s) return and2(~s, e);
        if (e == s) return and2(s, t);
        if (e == ~s) return or2(~s, t);
        if (is_const(t)) return t == true_ ? or2(s, e) : and2(~s, e);
        if (is_const(e)) return e == true_ ? or2(~s, t) : and2(s, t);
        // Positive then-input, polarity moved to the output.
        const bool neg = t.negated();
        t = t ^ neg;
        e = e ^ neg;
        return lookup({kMuxTag, s.x, t.x, e.x},
                      [&] { return tseitin_.encode_mux(s, t, e); }) ^
               neg;
    }

    sat::TseitinEncoder tseitin_;
    sat::Lit true_;
    std::uint64_t& hits_;
    std::unordered_map<Key, sat::Lit, KeyHash> table_;
    std::vector<sat::Lit> subst_;  ///< per variable; kUndefLit = not substituted
    std::vector<std::array<sat::Var, 3>> fanins_;  ///< per gate variable
};

/// The sweeping state for one sat_equivalent() call. Side 0 is network
/// `a`, side 1 network `b`.
struct Fraig {
    const Network& a;
    const Network& b;
    const CecParams& params;
    CecStats& stats;

    sat::Solver solver;
    StrashEncoder enc{solver, stats.structural_merges};
    std::vector<sat::Lit> pi_lits;
    /// Per side, the literal each node was encoded to (kUndefLit until the
    /// schedule reaches it); read through enc.resolve().
    std::array<std::vector<sat::Lit>, 2> lits;
    std::vector<sat::Lit> fanin_lits;  ///< encode() scratch
    /// prove_equal() scratch: the queried cone, and per-variable marks
    /// (cone_mark[v] == cone_stamp means v is in the current cone).
    std::vector<sat::Var> cone;
    std::vector<std::uint32_t> cone_mark;
    std::uint32_t cone_stamp = 0;

    /// Merged candidate schedule: (level, side, node id).
    struct Slot {
        int level;
        int side;
        NodeId id;
    };
    std::vector<Slot> schedule;
    std::array<std::vector<NodeId>, 2> order;

    /// Base random stimulus, regenerated identically each pass:
    /// base_stim[round * inputs + pi]. Counterexample patterns from refuted
    /// candidates accumulate in `extra_patterns` and are packed into
    /// additional 64-pattern rounds.
    std::vector<std::uint64_t> base_stim;
    std::vector<std::vector<bool>> extra_patterns;

    /// Per-pass stimulus (`rounds` words per input, input-major) and
    /// signatures (`rounds` words per node, node-major, per side).
    std::size_t rounds = 0;
    std::vector<std::uint64_t> stim;
    std::array<std::vector<std::uint64_t>, 2> sig;
    /// Per side, nodes whose proof exhausted its conflict budget: later
    /// passes do not spend the budget on them again.
    std::array<std::vector<bool>, 2> gave_up;

    Fraig(const Network& a_in, const Network& b_in, const CecParams& p, CecStats& s)
        : a(a_in), b(b_in), params(p), stats(s) {
        for (std::size_t i = 0; i < a.inputs().size(); ++i) {
            pi_lits.push_back(enc.tseitin().fresh());
        }
        for (const int side : {0, 1}) {
            const Network& n = network(side);
            lits[side].assign(n.node_count(), sat::kUndefLit);
            gave_up[side].assign(n.node_count(), false);
            for (std::size_t i = 0; i < n.inputs().size(); ++i) {
                lits[side][n.inputs()[i]] = pi_lits[i];
            }
        }
    }
    Fraig(const Fraig&) = delete;
    Fraig& operator=(const Fraig&) = delete;
    /// The solver is private to one call, so its total is this call's
    /// conflict count, added on every exit path.
    ~Fraig() { stats.conflicts += solver.stats().conflicts; }

    [[nodiscard]] const Network& network(int side) const { return side == 0 ? a : b; }

    /// Resolved literal of a node, encoding it on first use (its fanins
    /// come earlier in the schedule, so they are encoded already).
    sat::Lit encode(int side, NodeId id) {
        sat::Lit& lit = lits[side][id];
        if (lit == sat::kUndefLit) {
            const Node& n = network(side).node(id);
            fanin_lits.clear();
            for (const NodeId f : n.fanins) fanin_lits.push_back(enc.resolve(lits[side][f]));
            lit = enc.gate(n, fanin_lits);
        }
        return enc.resolve(lit);
    }

    /// Resolved literal of every output port of one side.
    [[nodiscard]] std::vector<sat::Lit> outputs(int side) const {
        std::vector<sat::Lit> out;
        for (const OutputPort& po : network(side).outputs()) {
            out.push_back(enc.resolve(lits[side][po.driver]));
        }
        return out;
    }

    /// Extract the primary-input pattern of the current SAT model.
    [[nodiscard]] std::vector<bool> model_pattern() const {
        std::vector<bool> pattern(pi_lits.size());
        for (std::size_t i = 0; i < pi_lits.size(); ++i) {
            pattern[i] = solver.model_true(pi_lits[i]);
        }
        return pattern;
    }

    /// The definition closure of x and y: both variables and, transitively,
    /// the fanin variables of every gate among them.
    void collect_cone(sat::Lit x, sat::Lit y) {
        cone_mark.resize(static_cast<std::size_t>(solver.num_vars()), 0);
        ++cone_stamp;
        cone.clear();
        const auto visit = [this](sat::Var v) {
            std::uint32_t& mark = cone_mark[static_cast<std::size_t>(v)];
            if (mark == cone_stamp) return;
            mark = cone_stamp;
            cone.push_back(v);
        };
        visit(x.var());
        visit(y.var());
        for (std::size_t i = 0; i < cone.size(); ++i) {
            for (const sat::Var f : enc.fanins(cone[i])) {
                if (f >= 0) visit(f);
            }
        }
    }

    /// Prove x == y with two assumption queries (x & !y, then !x & y);
    /// on success tie the two literals with binary clauses.
    ///
    /// Over the strashed encoding each query branches only on the cone of
    /// x and y. That is exact: every clause is a gate definition, a tie
    /// between proven-equal literals or a clause learnt from those, so
    /// the cone's definitions fix its gates as functions of its inputs,
    /// and a conflict-free assignment of the cone extends to a full model
    /// (choose the other inputs freely, then every other gate by its
    /// definition; ties and learnt clauses are implied). The plain
    /// Tseitin reference mode records no fanins and searches everything.
    sat::SolveResult prove_equal(sat::Lit x, sat::Lit y, std::int64_t conflict_limit) {
        if (params.fraig) collect_cone(x, y);
        for (const std::vector<sat::Lit>& query : {std::vector<sat::Lit>{x, ~y},
                                                   std::vector<sat::Lit>{~x, y}}) {
            ++stats.sat_calls;
            const sat::SolveResult res =
                params.fraig ? solver.solve_within(query, cone, conflict_limit)
                             : solver.solve(query, conflict_limit);
            if (res != sat::SolveResult::kUnsat) return res;
        }
        (void)solver.add_clause(~x, y);
        (void)solver.add_clause(x, ~y);
        return sat::SolveResult::kUnsat;
    }

    /// An output pair the signatures already tell apart.
    struct Witness {
        int output;
        std::vector<bool> pattern;
    };

    /// Learn internal cut-points until a pass stops refuting candidates
    /// (each refutation adds a distinguishing pattern, so passes strictly
    /// shrink the candidate classes; the cap is a safety net only). The
    /// first pass encodes every reachable node. Stops early, with the
    /// witness, as soon as the signatures of an output pair differ.
    std::optional<Witness> sweep() {
        for (const int side : {0, 1}) {
            const Network& n = network(side);
            order[side] = n.topo_order();
            const std::vector<int> level = node_levels(n, order[side]);
            for (const NodeId id : order[side]) {
                if (n.node(id).kind != GateKind::kInput) {
                    schedule.push_back({level[id], side, id});
                }
            }
        }
        std::stable_sort(schedule.begin(), schedule.end(),
                         [](const Slot& x, const Slot& y) { return x.level < y.level; });

        const auto base_rounds = static_cast<std::size_t>(std::max(1, params.signature_rounds));
        std::mt19937_64 rng(params.seed ^ 0xf7a19ULL);
        base_stim.resize(base_rounds * pi_lits.size());
        for (auto& w : base_stim) w = rng();

        constexpr int kMaxPasses = 8;
        for (int pass = 0; pass < kMaxPasses; ++pass) {
            resimulate(base_rounds);
            if (std::optional<Witness> w = output_mismatch()) return w;
            if (fraig_pass() == 0) break;
        }
        return std::nullopt;
    }

    /// The first output pattern on which the current signatures differ.
    [[nodiscard]] std::optional<Witness> output_mismatch() const {
        for (std::size_t o = 0; o < a.outputs().size(); ++o) {
            const std::uint64_t* sa = &sig[0][a.outputs()[o].driver * rounds];
            const std::uint64_t* sb = &sig[1][b.outputs()[o].driver * rounds];
            for (std::size_t r = 0; r < rounds; ++r) {
                const std::uint64_t diff = sa[r] ^ sb[r];
                if (diff == 0) continue;
                const int bit = std::countr_zero(diff);
                Witness w{static_cast<int>(o), std::vector<bool>(pi_lits.size())};
                for (std::size_t i = 0; i < pi_lits.size(); ++i) {
                    w.pattern[i] = ((stim[i * rounds + r] >> bit) & 1) != 0;
                }
                return w;
            }
        }
        return std::nullopt;
    }

    /// Recompute every node's signature over the base rounds plus the
    /// accumulated counterexample patterns.
    void resimulate(std::size_t base_rounds) {
        const std::size_t n = pi_lits.size();
        rounds = base_rounds + (extra_patterns.size() + 63) / 64;
        stim.assign(n * rounds, 0);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t r = 0; r < base_rounds; ++r) {
                stim[i * rounds + r] = base_stim[r * n + i];
            }
        }
        for (std::size_t k = 0; k < extra_patterns.size(); ++k) {
            const std::vector<bool>& pat = extra_patterns[k];
            for (std::size_t i = 0; i < n; ++i) {
                if (pat[i]) stim[i * rounds + base_rounds + k / 64] |= std::uint64_t{1} << (k % 64);
            }
        }
        stats.sim_rounds += rounds;
        std::vector<std::uint64_t> scratch;
        for (const int side : {0, 1}) {
            simulate_words_into(network(side), order[side], stim, sig[side], scratch, rounds);
        }
    }

    /// One sweep pass: bucket nodes by canonical signature and try to
    /// prove each candidate equal to an earlier member of its bucket.
    /// Returns the number of candidates refuted (their counterexamples are
    /// now in extra_patterns, so the next pass separates them).
    int fraig_pass() {
        struct Entry {
            const std::uint64_t* sig;  ///< canonical = sig ^ flip
            bool flip;
            sat::Lit lit;  ///< canonical literal (already polarity-adjusted)
        };
        std::unordered_map<std::uint64_t, std::vector<Entry>> buckets;
        buckets.reserve(schedule.size());

        // Seed with the constant-false function so constant nodes (and
        // nodes the stimulus proves constant) collapse onto the shared
        // constant literal.
        const std::vector<std::uint64_t> zero_sig(rounds, 0);
        buckets[hash_words(zero_sig.data(), rounds)].push_back(
            Entry{zero_sig.data(), false, enc.constant(false)});

        int refuted = 0;
        std::vector<std::uint64_t> canon(rounds);
        for (const Slot& slot : schedule) {
            const sat::Lit raw = encode(slot.side, slot.id);
            const std::uint64_t* s = &sig[slot.side][slot.id * rounds];
            const bool flip = (s[0] & 1) != 0;
            const sat::Lit lit = raw ^ flip;
            for (std::size_t r = 0; r < rounds; ++r) canon[r] = flip ? ~s[r] : s[r];

            std::vector<Entry>& bucket = buckets[hash_words(canon.data(), rounds)];
            bool merged = false;
            for (const Entry& e : bucket) {
                bool same = true;
                for (std::size_t r = 0; r < rounds && same; ++r) {
                    same = canon[r] == (e.flip ? ~e.sig[r] : e.sig[r]);
                }
                if (!same) continue;
                const sat::Lit rep = enc.resolve(e.lit);
                if (rep == lit) {
                    ++stats.structural_merges;  // already the same literal
                    merged = true;
                    break;
                }
                if (gave_up[slot.side][slot.id]) break;
                ++stats.candidate_pairs;
                const sat::SolveResult res =
                    prove_equal(lit, rep, params.internal_conflict_limit);
                if (res == sat::SolveResult::kUnsat) {
                    enc.substitute(lit, rep);  // cut-point: fanouts build over rep
                    ++stats.proved_internal;
                    merged = true;
                } else if (res == sat::SolveResult::kSat) {
                    extra_patterns.push_back(model_pattern());
                    ++stats.refuted_internal;
                    ++refuted;
                } else {
                    gave_up[slot.side][slot.id] = true;
                    ++stats.unknown_internal;
                }
                break;  // one attempt per pass; signatures re-separate refuted pairs
            }
            if (!merged) bucket.push_back(Entry{s, flip, lit});
        }
        return refuted;
    }
};

}  // namespace

EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                 const CecParams& params, CecStats* stats) {
    if (a.inputs().size() != b.inputs().size()) {
        return structural_mismatch("input counts differ", EquivEngine::kSat);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return structural_mismatch("output counts differ", EquivEngine::kSat);
    }
    CecStats local_stats;
    CecStats& st = stats != nullptr ? *stats : local_stats;

    Fraig fraig(a, b, params, st);
    std::vector<sat::Lit> out_a, out_b;
    if (params.fraig) {
        if (std::optional<Fraig::Witness> w = fraig.sweep()) {
            return verified_counterexample(a, b, w->output, std::move(w->pattern),
                                           "signature", EquivEngine::kSat);
        }
        out_a = fraig.outputs(0);
        out_b = fraig.outputs(1);
    } else {
        out_a = fraig.enc.tseitin().encode(a, fraig.pi_lits);
        out_b = fraig.enc.tseitin().encode(b, fraig.pi_lits);
    }

    // Per-output miters: each output pair must be proven equal.
    for (std::size_t o = 0; o < out_a.size(); ++o) {
        if (out_a[o] == out_b[o]) continue;  // structurally one literal
        const sat::SolveResult res =
            fraig.prove_equal(out_a[o], out_b[o], params.output_conflict_limit);
        if (res == sat::SolveResult::kSat) {
            return verified_counterexample(a, b, static_cast<int>(o),
                                           fraig.model_pattern(), "SAT",
                                           EquivEngine::kSat);
        }
        if (res == sat::SolveResult::kUnknown) {
            throw std::runtime_error(
                "sat_equivalent: output miter exhausted its conflict budget "
                "(raise output_conflict_limit; sign-off must not be silently "
                "incomplete)");
        }
    }

    EquivalenceResult r;
    r.equivalent = true;
    r.exact = true;
    r.engine = EquivEngine::kSat;
    return r;
}

EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                   const CecParams& params, CecStats* stats) {
    // Fast refutation first: bit-parallel random simulation catches the
    // overwhelming majority of real bugs before any proof machinery runs.
    const int rounds = std::max(1, params.sim_rounds);
    EquivalenceResult sim = random_equivalent(a, b, rounds, params.seed);
    if (!sim.equivalent) return sim;  // exact: structural or re-verified cex
    if (params.engine == EquivEngine::kSim) return sim;  // sampled, exact=false

    switch (params.engine) {
        case EquivEngine::kBdd:
            return bdd_equivalent(a, b);
        case EquivEngine::kSat:
            return sat_equivalent(a, b, params, stats);
        case EquivEngine::kExhaustive:
            return exhaustive_equivalent(a, b);
        case EquivEngine::kAuto:
        default:
            if (static_cast<int>(a.inputs().size()) <= params.exhaustive_input_limit) {
                return exhaustive_equivalent(a, b);
            }
            return sat_equivalent(a, b, params, stats);
    }
}

EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                   int exhaustive_input_limit, int random_rounds,
                                   std::uint64_t seed) {
    CecParams params;
    params.engine = EquivEngine::kAuto;
    params.sim_rounds = random_rounds;
    params.seed = seed;
    params.exhaustive_input_limit = exhaustive_input_limit;
    return check_equivalent(a, b, params);
}

}  // namespace bdsmaj::net
