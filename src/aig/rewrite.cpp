#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "aig/opt.hpp"

namespace bdsmaj::aig {

namespace {

using detail::CutTable;
using detail::FactorInstr;
using detail::FactorProgram;

constexpr std::uint64_t kVarMasks[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};
constexpr std::uint64_t kOnes = ~std::uint64_t{0};
constexpr CutTable kZeros{0, 0, 0, 0};
constexpr CutTable kAllOnes{kOnes, kOnes, kOnes, kOnes};

/// Projection x_i (i < 8); variables 6 and 7 select the word.
CutTable cut_var(int i) {
    if (i < 6) return {kVarMasks[i], kVarMasks[i], kVarMasks[i], kVarMasks[i]};
    return i == 6 ? CutTable{0, kOnes, 0, kOnes} : CutTable{0, 0, kOnes, kOnes};
}

CutTable operator&(const CutTable& a, const CutTable& b) {
    return {a[0] & b[0], a[1] & b[1], a[2] & b[2], a[3] & b[3]};
}
CutTable operator|(const CutTable& a, const CutTable& b) {
    return {a[0] | b[0], a[1] | b[1], a[2] | b[2], a[3] | b[3]};
}
CutTable operator~(const CutTable& a) { return {~a[0], ~a[1], ~a[2], ~a[3]}; }

CutTable cofactor(const CutTable& t, int var, bool value) {
    if (var == 6) {
        return value ? CutTable{t[1], t[1], t[3], t[3]} : CutTable{t[0], t[0], t[2], t[2]};
    }
    if (var == 7) {
        return value ? CutTable{t[2], t[3], t[2], t[3]} : CutTable{t[0], t[1], t[0], t[1]};
    }
    const std::uint64_t mask = kVarMasks[var];
    const int shift = 1 << var;
    CutTable out;
    for (int i = 0; i < 4; ++i) {
        out[i] = value ? (t[i] & mask) | ((t[i] & mask) >> shift)
                       : (t[i] & ~mask) | ((t[i] & ~mask) << shift);
    }
    return out;
}

bool depends_on(const CutTable& t, int var) {
    if (var == 6) return t[0] != t[1] || t[2] != t[3];
    if (var == 7) return t[0] != t[2] || t[1] != t[3];
    const int shift = 1 << var;
    std::uint64_t diff = 0;
    for (const std::uint64_t w : t) diff |= (w ^ (w >> shift)) & ~kVarMasks[var];
    return diff != 0;
}

/// A product term: bit i of `pos` (`neg`) = positive (complemented)
/// literal of variable i.
struct MaskCube {
    std::uint8_t pos = 0;
    std::uint8_t neg = 0;
};

/// Minato-Morreale ISOP and quick factor over MaskCubes, mirroring
/// net::Sop::isop and net::detail::factor_generic step for step (same
/// split variable, cube order, divisor scan and AND/OR pairing) so the
/// emitted program is the one the generic pair would record.
class CutCompiler {
public:
    FactorProgram compile(const CutTable& function, int num_vars) {
        (void)isop(function, function, num_vars - 1);
        prog_.result = factor(0, cubes_.size());
        return std::move(prog_);
    }

private:
    /// Appends a cover of some function between `lower` and `upper` to
    /// cubes_ and returns that function.
    CutTable isop(const CutTable& lower, const CutTable& upper, int var) {
        if (upper == kZeros) return kZeros;
        int split = -1;
        if (lower != kAllOnes) {
            for (int v = var; v >= 0; --v) {
                if (depends_on(lower, v) || depends_on(upper, v)) {
                    split = v;
                    break;
                }
            }
        }
        if (split < 0) {
            cubes_.push_back(MaskCube{});
            return kAllOnes;
        }
        const CutTable l0 = cofactor(lower, split, false);
        const CutTable l1 = cofactor(lower, split, true);
        const CutTable u0 = cofactor(upper, split, false);
        const CutTable u1 = cofactor(upper, split, true);
        const auto bit = static_cast<std::uint8_t>(1u << split);

        std::size_t from = cubes_.size();
        const CutTable cover0 = isop(l0 & ~u1, u0, split - 1);
        for (std::size_t i = from; i < cubes_.size(); ++i) cubes_[i].neg |= bit;
        from = cubes_.size();
        const CutTable cover1 = isop(l1 & ~u0, u1, split - 1);
        for (std::size_t i = from; i < cubes_.size(); ++i) cubes_[i].pos |= bit;
        const CutTable cover_dash =
            isop((l0 & ~cover0) | (l1 & ~cover1), u0 & u1, split - 1);
        const CutTable vs = cut_var(split);
        return (~vs & cover0) | (vs & cover1) | cover_dash;
    }

    std::uint32_t emit(FactorInstr instr) {
        prog_.instrs.push_back(instr);
        return static_cast<std::uint32_t>(prog_.instrs.size() - 1);
    }
    std::uint32_t emit_lit(int var, bool positive) {
        return emit({FactorInstr::kLit, static_cast<std::uint32_t>(var), positive ? 1u : 0u});
    }

    /// Pairwise reduction, carrying an odd last term to the next round.
    template <std::size_t N>
    std::uint32_t balanced(std::array<std::uint32_t, N>& terms, std::size_t size,
                           FactorInstr::Op op) {
        assert(size > 0);
        while (size > 1) {
            for (std::size_t i = 0; i + 1 < size; i += 2) {
                terms[i / 2] = emit({op, terms[i], terms[i + 1]});
            }
            if (size % 2 == 1) terms[size / 2] = terms[size - 1];
            size = (size + 1) / 2;
        }
        return terms[0];
    }

    std::uint32_t and_tree(MaskCube c) {
        std::array<std::uint32_t, 8> terms{};
        std::size_t size = 0;
        for (int v = 0; v < 8; ++v) {
            if ((c.pos >> v) & 1) terms[size++] = emit_lit(v, true);
            if ((c.neg >> v) & 1) terms[size++] = emit_lit(v, false);
        }
        return balanced(terms, size, FactorInstr::kAnd);
    }

    /// Factors cubes_[begin, end). Quotient and remainder are staged past
    /// the end of cubes_ and popped once factored.
    std::uint32_t factor(std::size_t begin, std::size_t end) {
        if (begin == end) return emit({FactorInstr::kConst0});
        for (std::size_t i = begin; i < end; ++i) {
            if (cubes_[i].pos == 0 && cubes_[i].neg == 0) {
                return emit({FactorInstr::kConst1});
            }
        }
        if (end - begin == 1) return and_tree(cubes_[begin]);

        // Most frequent literal in at least two cubes; ties keep the first
        // in (variable ascending, negative before positive) order, which
        // is ascending index in counts (2v = negative, 2v + 1 = positive).
        std::array<int, 16> counts{};
        for (std::size_t i = begin; i < end; ++i) {
            for (unsigned m = cubes_[i].neg; m != 0; m &= m - 1) {
                ++counts[2 * std::countr_zero(m)];
            }
            for (unsigned m = cubes_[i].pos; m != 0; m &= m - 1) {
                ++counts[2 * std::countr_zero(m) + 1];
            }
        }
        int best = 1;
        int divisor = -1;
        bool positive = false;
        for (int k = 0; k < 16; ++k) {
            if (counts[k] > best) {
                best = counts[k];
                divisor = k / 2;
                positive = (k & 1) != 0;
            }
        }
        if (divisor < 0) {
            // No shared literal, so at most 16 cubes (one per literal).
            std::array<std::uint32_t, 16> terms{};
            assert(end - begin <= terms.size());
            std::size_t size = 0;
            for (std::size_t i = begin; i < end; ++i) terms[size++] = and_tree(cubes_[i]);
            return balanced(terms, size, FactorInstr::kOr);
        }

        const auto bit = static_cast<std::uint8_t>(1u << divisor);
        const auto has_divisor = [&](MaskCube c) {
            return ((positive ? c.pos : c.neg) & bit) != 0;
        };
        const std::size_t quotient = cubes_.size();
        for (std::size_t i = begin; i < end; ++i) {
            MaskCube c = cubes_[i];
            if (!has_divisor(c)) continue;
            (positive ? c.pos : c.neg) &= static_cast<std::uint8_t>(~bit);
            cubes_.push_back(c);
        }
        const std::uint32_t lit = emit_lit(divisor, positive);
        const std::uint32_t q = factor(quotient, cubes_.size());
        cubes_.resize(quotient);
        const std::uint32_t left = emit({FactorInstr::kAnd, lit, q});
        const std::size_t remainder = cubes_.size();
        for (std::size_t i = begin; i < end; ++i) {
            const MaskCube c = cubes_[i];
            if (!has_divisor(c)) cubes_.push_back(c);
        }
        if (cubes_.size() == remainder) return left;
        const std::uint32_t right = factor(remainder, cubes_.size());
        cubes_.resize(remainder);
        return emit({FactorInstr::kOr, left, right});
    }

    std::vector<MaskCube> cubes_;
    FactorProgram prog_;
};

}  // namespace

namespace detail {

FactorProgram compile_cut_function(const CutTable& function, int num_vars) {
    if (num_vars < 0 || num_vars > 8) {
        throw std::invalid_argument("compile_cut_function: num_vars must be in [0, 8]");
    }
    return CutCompiler().compile(function, num_vars);
}

}  // namespace detail

namespace {

/// Out-of-place cut rewriting. For every AND node of the input we choose
/// between (a) structural re-copy of its fanins plus one AND, and (b)
/// resynthesis of a grown cut's function from its ISOP factored form over
/// the already-copied cut leaves. Option (b) wins when it creates fewer
/// nodes than the node plus its cut-local MFFC would cost — the classical
/// rewriting gain test, evaluated by trial construction with rollback.
class Rewriter {
public:
    Rewriter(const Aig& in, const RewriteParams& params)
        : in_(in),
          params_(params),
          fanout_(in.fanout_counts()),
          memo_(in.node_count(), kLitInvalid),
          input_pos_(in.node_count(), 0),
          cone_stamp_(in.node_count(), 0),
          aux_stamp_(in.node_count(), 0),
          slot_stamp_(in.node_count(), 0),
          slot_value_(in.node_count(), 0) {}

    Aig run() {
        for (std::size_t i = 0; i < in_.input_count(); ++i) {
            input_map_.push_back(out_.add_input());
        }
        for (std::size_t i = 0; i < in_.inputs().size(); ++i) {
            input_pos_[in_.inputs()[i]] = i;
        }
        for (const Lit po : in_.outputs()) out_.add_output(copy(po));
        return std::move(out_);
    }

private:
    // ---- cut growing -------------------------------------------------------

    /// Grow one cut from node n by repeatedly expanding an AND leaf, with a
    /// strategy-dependent choice of which leaf to expand.
    std::vector<NodeId> grow_cut(NodeId n, int strategy) const {
        std::vector<NodeId> cut{lit_node(in_.fanin0(n)), lit_node(in_.fanin1(n))};
        std::sort(cut.begin(), cut.end());
        cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
        std::vector<NodeId> frozen;
        while (true) {
            // Expandable leaves are AND nodes not yet frozen.
            int pick = -1;
            for (std::size_t i = 0; i < cut.size(); ++i) {
                const std::size_t probe =
                    (i + static_cast<std::size_t>(strategy)) % cut.size();
                if (in_.is_and(cut[probe]) &&
                    std::find(frozen.begin(), frozen.end(), cut[probe]) == frozen.end()) {
                    pick = static_cast<int>(probe);
                    break;
                }
            }
            if (pick < 0) break;
            const NodeId leaf = cut[static_cast<std::size_t>(pick)];
            std::vector<NodeId> next = cut;
            next.erase(next.begin() + pick);
            for (const Lit f : {in_.fanin0(leaf), in_.fanin1(leaf)}) {
                const NodeId fn = lit_node(f);
                if (fn != kConstNode &&
                    std::find(next.begin(), next.end(), fn) == next.end()) {
                    next.push_back(fn);
                }
            }
            if (next.size() > static_cast<std::size_t>(params_.cut_size)) {
                frozen.push_back(leaf);
                continue;
            }
            std::sort(next.begin(), next.end());
            cut = std::move(next);
        }
        return cut;
    }

    /// Internal cone nodes between n (inclusive) and the cut leaves.
    /// Membership tests run on generation-stamped scratch arrays (leaves in
    /// cone_stamp_, visited in aux_stamp_) — no per-call hash sets.
    std::vector<NodeId> cone_of(NodeId n, const std::vector<NodeId>& cut) {
        const std::uint32_t gen = ++gen_;
        for (const NodeId leaf : cut) cone_stamp_[leaf] = gen;
        aux_stamp_[n] = gen;
        std::vector<NodeId> stack{n};
        std::vector<NodeId> cone;
        while (!stack.empty()) {
            const NodeId v = stack.back();
            stack.pop_back();
            cone.push_back(v);
            for (const Lit f : {in_.fanin0(v), in_.fanin1(v)}) {
                const NodeId fn = lit_node(f);
                if (fn == kConstNode || cone_stamp_[fn] == gen ||
                    aux_stamp_[fn] == gen) {
                    continue;
                }
                aux_stamp_[fn] = gen;
                stack.push_back(fn);
            }
        }
        std::sort(cone.begin(), cone.end());  // ascending = topological
        return cone;
    }

    /// Number of cone nodes that die when n is replaced: nodes all of whose
    /// fanouts lie inside the removable set (seeded by n itself). Worklist
    /// propagation over stamped reference counters; reaches the same fixed
    /// point as the naive "rescan the cone until stable" formulation, one
    /// fanin reference at a time instead of O(|cone|^2) per round.
    int mffc_size(NodeId n, const std::vector<NodeId>& cone) {
        const std::uint32_t gen = ++gen_;
        for (const NodeId v : cone) cone_stamp_[v] = gen;
        aux_stamp_[n] = gen;  // aux = removable
        std::vector<NodeId> worklist{n};
        int count = 1;
        while (!worklist.empty()) {
            const NodeId u = worklist.back();
            worklist.pop_back();
            for (const Lit f : {in_.fanin0(u), in_.fanin1(u)}) {
                const NodeId v = lit_node(f);
                if (cone_stamp_[v] != gen || aux_stamp_[v] == gen) continue;
                if (slot_stamp_[v] != gen) {
                    slot_stamp_[v] = gen;
                    slot_value_[v] = 0;
                }
                if (++slot_value_[v] == fanout_[v]) {
                    aux_stamp_[v] = gen;
                    ++count;
                    worklist.push_back(v);
                }
            }
        }
        return count;
    }

    /// Truth table of n over the ordered cut leaves (leaf i = variable i).
    CutTable cut_function(NodeId n, const std::vector<NodeId>& cut,
                          const std::vector<NodeId>& cone) {
        const std::uint32_t gen = ++gen_;
        // slot_value_[v] indexes into tables_ while stamped.
        tables_.clear();
        for (std::size_t i = 0; i < cut.size(); ++i) {
            slot_stamp_[cut[i]] = gen;
            slot_value_[cut[i]] = static_cast<std::uint32_t>(tables_.size());
            tables_.push_back(cut_var(static_cast<int>(i)));
        }
        const auto eval = [&](Lit l) {
            const CutTable& t = tables_[slot_value_[lit_node(l)]];
            return lit_complemented(l) ? ~t : t;
        };
        for (const NodeId v : cone) {
            if (slot_stamp_[v] == gen) continue;
            const CutTable t = eval(in_.fanin0(v)) & eval(in_.fanin1(v));
            slot_stamp_[v] = gen;
            slot_value_[v] = static_cast<std::uint32_t>(tables_.size());
            tables_.push_back(t);
        }
        return tables_[slot_value_[n]];
    }

    /// The compiled factored form of a cut function, from the per-call
    /// cache. Datapath circuits repeat the same cut functions (full adders,
    /// carries) thousands of times; map nodes are stable, so the pointer
    /// stays valid for the whole pass.
    const FactorProgram* program_for(const CutTable& function, int num_vars) {
        auto [it, fresh] = factor_cache_.try_emplace(CutKey{function, num_vars});
        if (fresh) it->second = detail::compile_cut_function(function, num_vars);
        return &it->second;
    }

    Lit build_factored(const FactorProgram& prog, const std::vector<Lit>& leaves) {
        values_.resize(prog.instrs.size());
        for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
            const FactorInstr& instr = prog.instrs[i];
            switch (instr.op) {
                case FactorInstr::kConst0: values_[i] = kLitFalse; break;
                case FactorInstr::kConst1: values_[i] = kLitTrue; break;
                case FactorInstr::kLit:
                    values_[i] = instr.b != 0 ? leaves[instr.a] : lit_not(leaves[instr.a]);
                    break;
                case FactorInstr::kAnd:
                    values_[i] = out_.land(values_[instr.a], values_[instr.b]);
                    break;
                case FactorInstr::kOr:
                    values_[i] = out_.lor(values_[instr.a], values_[instr.b]);
                    break;
            }
        }
        return values_[prog.result];
    }

    // ---- main copy recursion ----------------------------------------------

    Lit copy(Lit l) {
        const NodeId n = lit_node(l);
        const bool c = lit_complemented(l);
        if (n == kConstNode) return c ? kLitTrue : kLitFalse;
        if (in_.is_input(n)) {
            const Lit mapped = input_map_[input_pos_[n]];
            return c ? lit_not(mapped) : mapped;
        }
        if (memo_[n] != kLitInvalid) {
            return c ? lit_not(memo_[n]) : memo_[n];
        }

        int best_cost = 0;
        bool have_best = false;
        const FactorProgram* best_prog = nullptr;
        std::vector<Lit> best_leaves;

        for (int strategy = 0; strategy < params_.cut_variants; ++strategy) {
            const std::vector<NodeId> cut = grow_cut(n, strategy);
            if (cut.size() < 2) continue;
            const std::vector<NodeId> cone = cone_of(n, cut);
            const int budget = mffc_size(n, cone);
            // Copy the leaves (permanent: they are almost always needed).
            std::vector<Lit> leaves;
            leaves.reserve(cut.size());
            for (const NodeId leaf : cut) leaves.push_back(copy(make_lit(leaf, false)));
            const FactorProgram* prog =
                program_for(cut_function(n, cut, cone), static_cast<int>(cut.size()));
            // Trial build with rollback.
            const std::size_t marked = out_.mark();
            (void)build_factored(*prog, leaves);
            const int created = static_cast<int>(out_.mark() - marked);
            const bool acceptable =
                params_.zero_gain ? created <= budget : created < budget;
            if (acceptable && (!have_best || created < best_cost)) {
                have_best = true;
                best_cost = created;
                best_prog = prog;
                best_leaves = leaves;
            }
            out_.truncate(marked);  // candidates are rebuilt at commit time
        }

        Lit result;
        if (have_best) {
            result = build_factored(*best_prog, best_leaves);
        } else {
            const Lit f0 = copy(in_.fanin0(n));
            const Lit f1 = copy(in_.fanin1(n));
            result = out_.land(f0, f1);
        }
        memo_[n] = result;
        return c ? lit_not(result) : result;
    }

    const Aig& in_;
    RewriteParams params_;
    std::vector<std::uint32_t> fanout_;
    Aig out_;
    std::vector<Lit> input_map_;
    std::vector<Lit> memo_;                   // by input NodeId; kLitInvalid = unset
    std::vector<std::size_t> input_pos_;      // by input NodeId
    // Generation-stamped scratch over input NodeIds (see gen_).
    std::vector<std::uint32_t> cone_stamp_;
    std::vector<std::uint32_t> aux_stamp_;
    std::vector<std::uint32_t> slot_stamp_;
    std::vector<std::uint32_t> slot_value_;
    std::uint32_t gen_ = 0;
    struct CutKey {
        CutTable function;
        int num_vars;
        bool operator==(const CutKey&) const = default;
    };
    struct CutKeyHash {
        std::size_t operator()(const CutKey& k) const noexcept {
            std::uint64_t h = static_cast<std::uint64_t>(k.num_vars);
            for (const std::uint64_t w : k.function) {
                h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
                h ^= h >> 29;
            }
            return static_cast<std::size_t>(h);
        }
    };
    std::unordered_map<CutKey, FactorProgram, CutKeyHash> factor_cache_;
    std::vector<CutTable> tables_;  // cut_function scratch
    std::vector<Lit> values_;       // replay scratch
};

}  // namespace

Aig rewrite(const Aig& in, const RewriteParams& params) {
    // Cut functions are 256-bit tables and cubes 8-bit masks.
    if (params.cut_size < 2 || params.cut_size > 8) {
        throw std::invalid_argument("aig::rewrite: cut_size must be in [2, 8]");
    }
    Aig out = Rewriter(in, params).run();
    // MFFC budgets are estimates: a replacement can keep its cone alive
    // through other fanouts. Guarantee monotonicity by falling back to the
    // input when the reachable size grew.
    if (out.and_count() > in.and_count()) return in;
    return out;
}

Aig resyn2(const Aig& in) {
    // balance; rewrite; refactor(=rewrite@8); balance; rewrite -z; balance —
    // the shape of ABC's resyn2 with our pass inventory.
    Aig a = balance(in);
    a = rewrite(a, RewriteParams{4, 3, false});
    a = rewrite(a, RewriteParams{8, 3, false});
    a = balance(a);
    a = rewrite(a, RewriteParams{4, 3, true});
    Aig b = rewrite(a, RewriteParams{4, 3, false});
    if (b.and_count() > a.and_count()) b = std::move(a);
    return balance(b);
}

}  // namespace bdsmaj::aig
