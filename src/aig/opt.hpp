#pragma once
// AIG optimization passes composing the "resyn2"-style script the paper
// uses as its ABC configuration (SV-B1: "ABC resyn2 optimization script").
//
//  * balance  — delay-oriented AND-tree rebalancing (Huffman combining by
//               level), out of place;
//  * rewrite  — cut-based resynthesis: per node, grow small cuts, rebuild
//               the cut function from its ISOP factored form, and keep the
//               variant that creates fewer nodes than re-copying the
//               node's cut-local MFFC (the ABC gain test);
//  * resyn2   — the alternation of the two at cut sizes 4 and 8
//               (the larger cut plays the role of ABC's refactor).
//
// All passes are out-of-place: they produce a new AIG and never mutate the
// input, so every intermediate can be equivalence-checked.
//
// Cuts have at most 8 leaves, so rewrite works on fixed-width words, as
// ABC does (Mishchenko et al., "DAG-aware AIG rewriting", DAC 2006): a cut
// function is a 256-bit table (detail::CutTable) evaluated straight from
// the cone, and detail::compile_cut_function turns it into a factored
// straight-line program with a Minato-Morreale ISOP over (pos, neg) 8-bit
// cube masks followed by the quick factor. The kernel emits exactly the
// program net::Sop::isop followed by net::detail::factor_generic would.
// Compiled programs live in one process-wide CompiledCutStore keyed on
// (table, leaf count): datapath circuits repeat the same cut functions
// thousands of times, within a pass and across the ABC and DC flows of
// every job. The store keeps programs packed (16- or 32-bit steps,
// literals folded into the operands) under a fixed byte budget and then
// stops inserting, so it never evicts and its handles never dangle
// (docs/performance.md, "AIG comparator flows").

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "aig/aig.hpp"

namespace bdsmaj::aig {

struct RewriteParams {
    int cut_size = 4;       ///< K of the grown cuts, in [2, 8] (rewrite throws otherwise)
    int cut_variants = 3;   ///< greedy growth strategies per node
    bool zero_gain = false; ///< accept equal-cost replacements (perturbation)
};

[[nodiscard]] Aig balance(const Aig& in);
/// Throws std::invalid_argument when params.cut_size is outside [2, 8].
[[nodiscard]] Aig rewrite(const Aig& in, const RewriteParams& params = {});
[[nodiscard]] Aig resyn2(const Aig& in);

namespace detail {

/// Truth table of a function of at most 8 variables: bit m of the 256-bit
/// string (word m >> 6, bit m & 63) is the value on minterm m, variable i
/// being bit i of m. A function of n < 8 variables is replicated across
/// the table (as tt::TruthTable::normalize does within a word), so the
/// variables it lacks never appear in its support.
using CutTable = std::array<std::uint64_t, 4>;

/// One step of a compiled factored form.
struct FactorInstr {
    enum Op : std::uint8_t { kConst0, kConst1, kLit, kAnd, kOr };
    Op op = kConst0;
    std::uint32_t a = 0;  // kLit: leaf position; kAnd/kOr: operand index
    std::uint32_t b = 0;  // kLit: 1 = positive;  kAnd/kOr: operand index
};

/// A factored form as a straight-line program over leaf positions; the
/// value of instruction `result` is the function.
struct FactorProgram {
    std::vector<FactorInstr> instrs;
    std::uint32_t result = 0;
};

/// The rewriter's compile kernel: ISOP of `function` over `num_vars`
/// variables, quick-factored into a program. Throws std::invalid_argument
/// when num_vars is outside [0, 8].
[[nodiscard]] FactorProgram compile_cut_function(const CutTable& function, int num_vars);

/// A compiled cut function in packed form: `size` AND/OR steps and the
/// operand code of the result. An operand code indexes the evaluation
/// frame [false, true, leaf 0, !leaf 0, ..., leaf 7, !leaf 7, step 0,
/// step 1, ...], so code 2 + 2i (3 + 2i) is leaf i (complemented) and
/// kFirstStepCode + k is the value of step k. Only AND and OR steps
/// remain, in the order of the program's kAnd/kOr instructions, so
/// replaying them creates the same nodes. A program whose codes fit in 7
/// bits (at most 110 steps, ~97% of them) takes one 16-bit word per step:
/// the OR flag in bit 15, the operands in bits 7-13 and 0-6. A longer one
/// is `wide`: two words per step, low half first, of a 32-bit word with
/// the OR flag in bit 31 and the operands in bits 15-29 and 0-14.
struct PackedProgram {
    static constexpr std::uint32_t kFirstStepCode = 18;
    static constexpr std::uint32_t kNarrowCodes = 1u << 7;
    static constexpr std::uint32_t kWideCodes = 1u << 15;

    struct Step {
        bool is_or;
        std::uint32_t a;
        std::uint32_t b;
    };

    const std::uint16_t* steps = nullptr;
    std::uint32_t size = 0;
    std::uint32_t result = 0;
    bool wide = false;
    /// True when `steps` points into the store (valid for the process
    /// lifetime); false when it points into the caller's spill buffer.
    bool stored = false;

    [[nodiscard]] Step step(std::uint32_t k) const {
        if (!wide) {
            const std::uint32_t w = steps[k];
            return {(w >> 15) != 0, w >> 7 & 0x7f, w & 0x7f};
        }
        const std::uint32_t w = steps[2 * k] | std::uint32_t{steps[2 * k + 1]} << 16;
        return {(w >> 31) != 0, w >> 15 & 0x7fff, w & 0x7fff};
    }
};

struct CompiledCutStoreStats {
    std::uint64_t lookups = 0;
    std::uint64_t compiles = 0;  ///< lookups that ran compile_cut_function
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;     ///< arena and table bytes charged to the budget
    std::uint64_t refused = 0;   ///< compiles not stored: the budget was spent
};

/// The compiled programs of the rewriter, keyed on (table, leaf count) in
/// mutex-guarded shards. A program is a pure function of its key, so the
/// first insert wins and a racing compile is dropped. Entries are never
/// evicted: once the byte budget is spent the store stops inserting and
/// get() compiles into the caller's spill buffer instead.
class CompiledCutStore {
public:
    /// Byte budget of the process-wide store: 1.5x the 4 MiB that the
    /// 27,000 distinct cut functions of the batch benchmark's ABC and DC
    /// jobs take.
    static constexpr std::size_t kSharedBudgetBytes = std::size_t{6} << 20;

    explicit CompiledCutStore(std::size_t budget_bytes);
    ~CompiledCutStore();
    CompiledCutStore(const CompiledCutStore&) = delete;
    CompiledCutStore& operator=(const CompiledCutStore&) = delete;

    /// The store every aig::rewrite call uses.
    [[nodiscard]] static CompiledCutStore& shared();

    /// The program of `function` over `num_vars` leaves (2 <= num_vars <=
    /// 8). When it is not stored and cannot be, it is compiled into
    /// `spill`, which the result then points into.
    [[nodiscard]] PackedProgram get(const CutTable& function, int num_vars,
                                    std::vector<std::uint16_t>& spill);

    [[nodiscard]] CompiledCutStoreStats stats() const;

private:
    struct Shard;
    static constexpr std::size_t kShards = 16;
    std::size_t shard_budget_;
    std::unique_ptr<Shard[]> shards_;
};

/// aig::rewrite against a given store (the public entry uses
/// CompiledCutStore::shared()); the result does not depend on the store.
[[nodiscard]] Aig rewrite_with_store(const Aig& in, const RewriteParams& params,
                                     CompiledCutStore& store);

}  // namespace detail

}  // namespace bdsmaj::aig
