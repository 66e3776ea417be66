#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <mutex>
#include <stdexcept>

#include "aig/opt.hpp"

namespace bdsmaj::aig {

namespace {

using detail::CutTable;
using detail::FactorInstr;
using detail::FactorProgram;
using detail::PackedProgram;

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

namespace {

std::uint64_t key_hash(const CutTable& function, int num_vars) {
    std::uint64_t h = static_cast<std::uint64_t>(num_vars);
    for (const std::uint64_t w : function) {
        h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
    }
    return h;
}

/// Writes the AND/OR steps of `prog` to `words` in packed form and
/// returns the program, pointing into `words`.
PackedProgram pack(const FactorProgram& prog, std::vector<std::uint16_t>& words) {
    std::vector<std::uint32_t> code(prog.instrs.size());
    std::vector<std::uint32_t> steps;
    for (std::size_t i = 0; i < prog.instrs.size(); ++i) {
        const FactorInstr& instr = prog.instrs[i];
        switch (instr.op) {
            case FactorInstr::kConst0: code[i] = 0; break;
            case FactorInstr::kConst1: code[i] = 1; break;
            case FactorInstr::kLit: code[i] = 2 + 2 * instr.a + (instr.b != 0 ? 0 : 1); break;
            case FactorInstr::kAnd:
            case FactorInstr::kOr:
                code[i] = PackedProgram::kFirstStepCode + static_cast<std::uint32_t>(steps.size());
                // An irredundant cover of 8 variables has at most 256 cubes
                // of 8 literals, so a factored form has under 2,400 steps.
                if (code[i] >= PackedProgram::kWideCodes) {
                    throw std::logic_error("compiled cut program exceeds the packed operand range");
                }
                steps.push_back((instr.op == FactorInstr::kOr ? 1u << 31 : 0u) |
                                code[instr.a] << 15 | code[instr.b]);
                break;
        }
    }
    PackedProgram out;
    out.size = static_cast<std::uint32_t>(steps.size());
    out.result = code[prog.result];
    out.wide = PackedProgram::kFirstStepCode + out.size > PackedProgram::kNarrowCodes;
    words.clear();
    for (const std::uint32_t w : steps) {
        if (out.wide) {
            words.push_back(static_cast<std::uint16_t>(w));
            words.push_back(static_cast<std::uint16_t>(w >> 16));
        } else {
            words.push_back(static_cast<std::uint16_t>((w >> 31) << 15 | (w >> 15 & 0x7f) << 7 |
                                                       (w & 0x7f)));
        }
    }
    out.steps = words.data();
    return out;
}

}  // namespace

/// One shard: an arena of entries and an open-addressing index over them.
/// An entry is 16-bit words: the key's table (16 words), the leaf count
/// with the wide flag in bit 4, the step count, the result code, then the
/// steps. Arena chunks never move, so a stored program stays valid for
/// the store's lifetime.
struct CompiledCutStore::Shard {
    static constexpr std::size_t kKeyWords = sizeof(CutTable) / sizeof(std::uint16_t);
    static constexpr std::size_t kHeaderWords = kKeyWords + 3;
    /// 16 KiB, enough for the longest entry (19 + 2 * 2,400 words); small,
    /// so the unfilled tail of a shard's last chunk stays small too.
    static constexpr std::size_t kChunkWords = 8192;

    std::mutex mutex;
    std::vector<const std::uint16_t*> slots;  // power-of-two size; nullptr = empty
    std::vector<std::unique_ptr<std::uint16_t[]>> chunks;
    std::size_t chunk_used = kChunkWords;
    std::size_t arena_words = 0;  // words of stored entries
    CompiledCutStoreStats stats;

    static int num_vars_of(const std::uint16_t* e) { return e[kKeyWords] & 0xf; }

    static PackedProgram view(const std::uint16_t* e) {
        PackedProgram p;
        p.steps = e + kHeaderWords;
        p.size = e[kKeyWords + 1];
        p.result = e[kKeyWords + 2];
        p.wide = (e[kKeyWords] & 0x10) != 0;
        p.stored = true;
        return p;
    }

    std::size_t bytes(std::size_t words, std::size_t slot_count) const {
        return words * sizeof(std::uint16_t) + slot_count * sizeof(slots[0]);
    }

    /// The slot that holds (or would hold) the key.
    std::size_t probe(const CutTable& function, int num_vars, std::uint64_t hash) const {
        const std::size_t mask = slots.size() - 1;
        for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
            const std::uint16_t* e = slots[i];
            if (e == nullptr || (num_vars_of(e) == num_vars &&
                                 std::memcmp(e, function.data(), sizeof(CutTable)) == 0)) {
                return i;
            }
        }
    }

    const std::uint16_t* find(const CutTable& function, int num_vars, std::uint64_t hash) const {
        return slots.empty() ? nullptr : slots[probe(function, num_vars, hash)];
    }

    /// Stores `prog` (its steps are the `words`), or returns nullptr when
    /// that would take the shard past `budget` bytes. The key must not be
    /// stored yet.
    const std::uint16_t* insert(const CutTable& function, int num_vars, std::uint64_t hash,
                                const PackedProgram& prog,
                                const std::vector<std::uint16_t>& words, std::size_t budget) {
        const std::size_t size = kHeaderWords + words.size();
        // The index stays at most half full.
        const std::size_t slot_count =
            2 * (stats.entries + 1) > slots.size() ? std::max<std::size_t>(64, 2 * slots.size())
                                                   : slots.size();
        if (bytes(arena_words + size, slot_count) > budget) return nullptr;
        if (slot_count != slots.size()) {
            std::vector<const std::uint16_t*> old(slot_count, nullptr);
            old.swap(slots);
            for (const std::uint16_t* e : old) {
                if (e == nullptr) continue;
                CutTable key;
                std::memcpy(key.data(), e, sizeof(CutTable));
                const int n = num_vars_of(e);
                slots[probe(key, n, key_hash(key, n))] = e;
            }
        }
        if (chunk_used + size > kChunkWords) {
            chunks.push_back(std::make_unique_for_overwrite<std::uint16_t[]>(kChunkWords));
            chunk_used = 0;
        }
        std::uint16_t* e = chunks.back().get() + chunk_used;
        std::memcpy(e, function.data(), sizeof(CutTable));
        e[kKeyWords] = static_cast<std::uint16_t>(num_vars | (prog.wide ? 0x10 : 0));
        e[kKeyWords + 1] = static_cast<std::uint16_t>(prog.size);
        e[kKeyWords + 2] = static_cast<std::uint16_t>(prog.result);
        std::copy(words.begin(), words.end(), e + kHeaderWords);
        chunk_used += size;
        arena_words += size;
        slots[probe(function, num_vars, hash)] = e;
        ++stats.entries;
        stats.bytes = bytes(arena_words, slots.size());
        return e;
    }
};

CompiledCutStore::CompiledCutStore(std::size_t budget_bytes)
    : shard_budget_(budget_bytes / kShards), shards_(std::make_unique<Shard[]>(kShards)) {}

CompiledCutStore::~CompiledCutStore() = default;

CompiledCutStore& CompiledCutStore::shared() {
    static CompiledCutStore store(kSharedBudgetBytes);
    return store;
}

PackedProgram CompiledCutStore::get(const CutTable& function, int num_vars,
                                    std::vector<std::uint16_t>& spill) {
    const std::uint64_t hash = key_hash(function, num_vars);
    Shard& shard = shards_[hash >> 60 & (kShards - 1)];
    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        ++shard.stats.lookups;
        if (const std::uint16_t* e = shard.find(function, num_vars, hash)) {
            return Shard::view(e);
        }
        ++shard.stats.compiles;
    }
    // Compile outside the lock; a racing thread may store the same
    // program first, and then its copy is served.
    const PackedProgram compiled = pack(compile_cut_function(function, num_vars), spill);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint16_t* e = shard.find(function, num_vars, hash);
    if (e == nullptr) e = shard.insert(function, num_vars, hash, compiled, spill, shard_budget_);
    if (e != nullptr) return Shard::view(e);
    ++shard.stats.refused;
    return compiled;
}

CompiledCutStoreStats CompiledCutStore::stats() const {
    CompiledCutStoreStats total;
    for (std::size_t i = 0; i < kShards; ++i) {
        Shard& shard = shards_[i];
        const std::lock_guard<std::mutex> lock(shard.mutex);
        total.lookups += shard.stats.lookups;
        total.compiles += shard.stats.compiles;
        total.entries += shard.stats.entries;
        total.bytes += shard.stats.bytes;
        total.refused += shard.stats.refused;
    }
    return total;
}

}  // namespace detail

namespace {

/// A grown cut: at most 8 leaves, ascending.
struct Cut {
    std::array<NodeId, 8> leaves{};
    std::size_t size = 0;

    bool operator==(const Cut& other) const {
        return size == other.size &&
               std::equal(leaves.begin(), leaves.begin() + static_cast<std::ptrdiff_t>(size),
                          other.leaves.begin());
    }
};

/// Out-of-place cut rewriting. For every AND node of the input we choose
/// between (a) structural re-copy of its fanins plus one AND, and (b)
/// resynthesis of a grown cut's function from its ISOP factored form over
/// the already-copied cut leaves. Option (b) wins when it creates fewer
/// nodes than the node plus its cut-local MFFC would cost — the classical
/// rewriting gain test, evaluated by trial construction with rollback.
class Rewriter {
public:
    Rewriter(const Aig& in, const RewriteParams& params, detail::CompiledCutStore& store)
        : in_(in),
          params_(params),
          store_(store),
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
    /// strategy-dependent choice of which leaf to expand. A leaf whose
    /// expansion would exceed the cut size is frozen. Frozen leaves never
    /// leave the cut, so there are at most 8 of them.
    Cut grow_cut(NodeId n, int strategy) const {
        Cut cut;
        const NodeId f0 = lit_node(in_.fanin0(n));
        const NodeId f1 = lit_node(in_.fanin1(n));
        cut.leaves[0] = std::min(f0, f1);
        cut.leaves[1] = std::max(f0, f1);
        cut.size = f0 == f1 ? 1 : 2;
        std::array<NodeId, 8> frozen{};
        std::size_t frozen_size = 0;
        const auto is_frozen = [&](NodeId leaf) {
            const auto end = frozen.begin() + static_cast<std::ptrdiff_t>(frozen_size);
            return std::find(frozen.begin(), end, leaf) != end;
        };
        while (true) {
            // Expandable leaves are AND nodes not yet frozen.
            std::size_t pick = cut.size;
            for (std::size_t i = 0; i < cut.size; ++i) {
                const std::size_t probe = (i + static_cast<std::size_t>(strategy)) % cut.size;
                if (in_.is_and(cut.leaves[probe]) && !is_frozen(cut.leaves[probe])) {
                    pick = probe;
                    break;
                }
            }
            if (pick == cut.size) break;
            const NodeId leaf = cut.leaves[pick];
            // The cut without the leaf, plus its non-constant fanins, kept
            // ascending: one more leaf than the largest cut fits.
            std::array<NodeId, 9> next{};
            std::size_t size = 0;
            for (std::size_t i = 0; i < cut.size; ++i) {
                if (i != pick) next[size++] = cut.leaves[i];
            }
            for (const Lit f : {in_.fanin0(leaf), in_.fanin1(leaf)}) {
                const NodeId fn = lit_node(f);
                const auto end = next.begin() + static_cast<std::ptrdiff_t>(size);
                const auto at = std::lower_bound(next.begin(), end, fn);
                if (fn == kConstNode || (at != end && *at == fn)) continue;
                std::copy_backward(at, end, end + 1);
                *at = fn;
                ++size;
            }
            if (size > static_cast<std::size_t>(params_.cut_size)) {
                frozen[frozen_size++] = leaf;
                continue;
            }
            std::copy_n(next.begin(), size, cut.leaves.begin());
            cut.size = size;
        }
        return cut;
    }

    /// Internal cone nodes between n (inclusive) and the cut leaves, into
    /// cone_. Membership tests run on generation-stamped scratch arrays
    /// (leaves in cone_stamp_, visited in aux_stamp_) — no per-call hash sets.
    void cone_of(NodeId n, const Cut& cut) {
        const std::uint32_t gen = ++gen_;
        for (std::size_t i = 0; i < cut.size; ++i) cone_stamp_[cut.leaves[i]] = gen;
        aux_stamp_[n] = gen;
        stack_.assign(1, n);
        cone_.clear();
        while (!stack_.empty()) {
            const NodeId v = stack_.back();
            stack_.pop_back();
            cone_.push_back(v);
            for (const Lit f : {in_.fanin0(v), in_.fanin1(v)}) {
                const NodeId fn = lit_node(f);
                if (fn == kConstNode || cone_stamp_[fn] == gen ||
                    aux_stamp_[fn] == gen) {
                    continue;
                }
                aux_stamp_[fn] = gen;
                stack_.push_back(fn);
            }
        }
        std::sort(cone_.begin(), cone_.end());  // ascending = topological
    }

    /// Number of cone_ nodes that die when n is replaced: nodes all of
    /// whose fanouts lie inside the removable set (seeded by n itself).
    /// Worklist propagation over stamped reference counters; reaches the
    /// same fixed point as the naive "rescan the cone until stable"
    /// formulation, one fanin reference at a time instead of O(|cone|^2)
    /// per round.
    int mffc_size(NodeId n) {
        const std::uint32_t gen = ++gen_;
        for (const NodeId v : cone_) cone_stamp_[v] = gen;
        aux_stamp_[n] = gen;  // aux = removable
        stack_.assign(1, n);
        int count = 1;
        while (!stack_.empty()) {
            const NodeId u = stack_.back();
            stack_.pop_back();
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
                    stack_.push_back(v);
                }
            }
        }
        return count;
    }

    /// Truth table of n over the ordered cut leaves (leaf i = variable i).
    CutTable cut_function(NodeId n, const Cut& cut) {
        const std::uint32_t gen = ++gen_;
        // slot_value_[v] indexes into tables_ while stamped.
        tables_.clear();
        for (std::size_t i = 0; i < cut.size; ++i) {
            slot_stamp_[cut.leaves[i]] = gen;
            slot_value_[cut.leaves[i]] = static_cast<std::uint32_t>(tables_.size());
            tables_.push_back(cut_var(static_cast<int>(i)));
        }
        const auto eval = [&](Lit l) {
            const CutTable& t = tables_[slot_value_[lit_node(l)]];
            return lit_complemented(l) ? ~t : t;
        };
        for (const NodeId v : cone_) {
            if (slot_stamp_[v] == gen) continue;
            const CutTable t = eval(in_.fanin0(v)) & eval(in_.fanin1(v));
            slot_stamp_[v] = gen;
            slot_value_[v] = static_cast<std::uint32_t>(tables_.size());
            tables_.push_back(t);
        }
        return tables_[slot_value_[n]];
    }

    /// Replays a packed program over the copied leaves.
    Lit build(const PackedProgram& prog, const std::array<Lit, 8>& leaves, std::size_t count) {
        frame_.resize(PackedProgram::kFirstStepCode + prog.size);
        frame_[0] = kLitFalse;
        frame_[1] = kLitTrue;
        for (std::size_t i = 0; i < count; ++i) {
            frame_[2 + 2 * i] = leaves[i];
            frame_[3 + 2 * i] = lit_not(leaves[i]);
        }
        for (std::uint32_t k = 0; k < prog.size; ++k) {
            const PackedProgram::Step s = prog.step(k);
            frame_[PackedProgram::kFirstStepCode + k] =
                s.is_or ? out_.lor(frame_[s.a], frame_[s.b]) : out_.land(frame_[s.a], frame_[s.b]);
        }
        return frame_[prog.result];
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
        PackedProgram best_prog;
        std::array<Lit, 8> best_leaves{};
        std::size_t best_size = 0;
        std::vector<std::uint16_t> best_spill;  // only when the store is full

        // This node's evaluated cuts sit above `evaluated` on evaluated_;
        // the leaf copies below recurse, and every frame pops its own.
        const std::size_t evaluated = evaluated_.size();
        for (int strategy = 0; strategy < params_.cut_variants; ++strategy) {
            const Cut cut = grow_cut(n, strategy);
            if (cut.size < 2) continue;
            // A cut an earlier strategy evaluated, with no node created
            // since (its leaves are copied), creates as many nodes again
            // and cannot beat the strict best-cost test.
            const std::size_t now = out_.mark();
            if (std::any_of(evaluated_.begin() + static_cast<std::ptrdiff_t>(evaluated),
                            evaluated_.end(), [&](const Evaluated& e) {
                                return e.mark == now && e.cut == cut;
                            })) {
                continue;
            }
            // Copy the leaves (permanent: they are almost always needed).
            std::array<Lit, 8> leaves{};
            for (std::size_t i = 0; i < cut.size; ++i) {
                leaves[i] = copy(make_lit(cut.leaves[i], false));
            }
            // Trial build with rollback.
            const std::size_t marked = out_.mark();
            evaluated_.push_back({cut, marked});
            cone_of(n, cut);
            const int budget = mffc_size(n);
            const PackedProgram prog = store_.get(cut_function(n, cut),
                                                  static_cast<int>(cut.size), spill_);
            (void)build(prog, leaves, cut.size);
            const int created = static_cast<int>(out_.mark() - marked);
            const bool acceptable =
                params_.zero_gain ? created <= budget : created < budget;
            if (acceptable && (!have_best || created < best_cost)) {
                have_best = true;
                best_cost = created;
                best_prog = prog;
                best_leaves = leaves;
                best_size = cut.size;
                if (!prog.stored) {  // spill_ is reused by the next compile
                    best_spill.assign(prog.steps, prog.steps + (prog.wide ? 2 : 1) * prog.size);
                    best_prog.steps = best_spill.data();
                }
            }
            out_.truncate(marked);  // candidates are rebuilt at commit time
        }
        evaluated_.resize(evaluated);

        Lit result;
        if (have_best) {
            result = build(best_prog, best_leaves, best_size);
        } else {
            const Lit f0 = copy(in_.fanin0(n));
            const Lit f1 = copy(in_.fanin1(n));
            result = out_.land(f0, f1);
        }
        memo_[n] = result;
        return c ? lit_not(result) : result;
    }

    struct Evaluated {
        Cut cut;
        std::size_t mark;  // out_.mark() when its trial build started
    };

    const Aig& in_;
    RewriteParams params_;
    detail::CompiledCutStore& store_;
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
    // Scratch reused by every node; none of it lives across a recursive copy.
    std::vector<NodeId> stack_;     // cone_of / mffc_size worklist
    std::vector<NodeId> cone_;      // cone of the cut under evaluation
    std::vector<CutTable> tables_;  // cut_function values
    std::vector<std::uint16_t> spill_;  // programs the full store cannot keep
    std::vector<Lit> frame_;        // build() operand frame
    std::vector<Evaluated> evaluated_;  // a stack, one segment per open copy()
};

}  // namespace

namespace detail {

Aig rewrite_with_store(const Aig& in, const RewriteParams& params, CompiledCutStore& store) {
    // Cut functions are 256-bit tables and cubes 8-bit masks.
    if (params.cut_size < 2 || params.cut_size > 8) {
        throw std::invalid_argument("aig::rewrite: cut_size must be in [2, 8]");
    }
    Aig out = Rewriter(in, params, store).run();
    // MFFC budgets are estimates: a replacement can keep its cone alive
    // through other fanouts. Guarantee monotonicity by falling back to the
    // input when the reachable size grew.
    if (out.and_count() > in.and_count()) return in;
    return out;
}

}  // namespace detail

Aig rewrite(const Aig& in, const RewriteParams& params) {
    return detail::rewrite_with_store(in, params, detail::CompiledCutStore::shared());
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
