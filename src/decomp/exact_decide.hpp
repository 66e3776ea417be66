#pragma once
// Constructive decision procedure for short exact chains (internal to the
// exact_sat tier; see docs/exact-synthesis.md, "Short chains by
// construction").
//
// Decides "does a chain of at most r steps over {MAJ, AND, OR, XOR, MUX}
// with free polarities compute g?" for r <= kDecidedSteps without a SAT
// solver, by a complete top-down case split on what the output step reads:
//
//   (A) one step plus inputs: the operand's required function is a
//       cofactor or a diagonal substitution of g, a fully specified
//       function over the same inputs, so the question recurses on r - 1;
//   (B) two steps, one of them reading only inputs: that step is
//       enumerated from the one-step functions over g's support, the
//       other operand's function follows with don't-cares and is matched
//       by a chain of r - 2 steps over the inputs and the enumerated step;
//   (C) two steps, neither reading only inputs (r = 4): the first step is
//       shared below both; it and the second step are enumerated;
//   (D) three steps (r = 4): the two lower operands are enumerated.
//
// Every chain of r <= 4 steps falls in exactly one case, so a negative
// answer is a proof. The procedure is deterministic: the chain it returns
// is a pure function of (g, n, r).

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace bdsmaj::decomp::detail {

/// Longest chain decided by construction; CDCL search starts above it.
inline constexpr int kDecidedSteps = 4;

/// Truth tables of the six canonical-space inputs over 64 bits.
inline constexpr std::uint64_t kInputTt[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

/// The low 2^n bits that hold an n-input truth table.
constexpr std::uint64_t tt_mask(int n) {
    return n >= 6 ? ~0ULL : ((1ULL << (1u << n)) - 1);
}

/// One step of a normal chain, in the encoding the CDCL tier decodes:
/// an 8-bit normal operator table over the operand triple
/// (operand[0] < operand[1] < operand[2]); operands below n are inputs,
/// n + i is step i. Bit (x0 + 2 x1 + 4 x2) of the table is the step's
/// value for operand values (x0, x1, x2).
struct NormalStep {
    std::uint8_t table = 0;
    std::array<std::uint8_t, 3> operand{};
};

/// True when the normal 8-bit table is one gate of the alphabet with
/// operand polarities (the exact_sat tier's forbidden-pattern set).
[[nodiscard]] bool normal_table_allowed(std::uint8_t table);

/// Decides short chains for one normal target g (bit 0 clear, low 2^n
/// bits, 3 <= n <= 6). Sub-results are memoized across find() calls, so
/// callers ask for r = floor, floor + 1, ... on one object.
class ShortChainDecider {
public:
    ShortChainDecider(std::uint64_t g, int num_inputs);
    ~ShortChainDecider();
    ShortChainDecider(const ShortChainDecider&) = delete;
    ShortChainDecider& operator=(const ShortChainDecider&) = delete;

    /// A chain of at most `steps` (<= kDecidedSteps) steps computing g,
    /// of minimum depth among such chains, as normal steps whose last step
    /// is the output; nullopt when none exists. Callers that have already
    /// asked for every shorter length get a chain of exactly `steps` steps.
    [[nodiscard]] std::optional<std::vector<NormalStep>> find(int steps);

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace bdsmaj::decomp::detail
