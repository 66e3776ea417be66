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
// Compiled programs are cached per rewrite call, keyed on (table, leaf
// count): datapath circuits repeat the same cut functions thousands of
// times. The cache dies with the call, so no memory outlives one pass; a
// process-wide cache raised batch peak RSS by ~70% (docs/performance.md,
// "AIG comparator flows").

#include <array>
#include <cstdint>
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

}  // namespace detail

}  // namespace bdsmaj::aig
