#pragma once
// NPN canonicalization of functions of up to six variables.
//
// Two functions are NPN-equivalent when one can be obtained from the other
// by Negating inputs, Permuting inputs, and/or Negating the output. The
// exact cone strategy (decomp/exact_sat.hpp) caches one program per NPN
// class, so it needs an exact canonicalizer plus the transform that maps
// a function onto its class representative (and back): the wide walk
// below (npn_canonical_w), used for 4, 5 and 6 inputs. The 16-bit
// functions first in this header apply every transform from scratch; they
// are the plain reference the wide walk is tested against.

#include <array>
#include <cstdint>

namespace bdsmaj::tt {

/// One N/P/N transform on a 4-variable function: first complement the
/// inputs selected by `input_negation`, then route original input i to
/// position `permutation[i]`, then optionally complement the output.
struct NpnTransform {
    std::array<std::uint8_t, 4> permutation{0, 1, 2, 3};
    std::uint8_t input_negation = 0;
    bool output_negation = false;
};

/// Apply `t` to a 16-bit truth table.
[[nodiscard]] std::uint16_t apply_npn(std::uint16_t tt, const NpnTransform& t);

/// Transform that undoes `t` (apply_npn(apply_npn(f, t), inverse) == f).
[[nodiscard]] NpnTransform invert_npn(const NpnTransform& t);

/// Exact NPN-canonical representative of `tt` (minimum 16-bit value over
/// all 768 transforms). When `transform` is non-null it receives a
/// transform such that apply_npn(tt, *transform) == canonical(tt).
[[nodiscard]] std::uint16_t npn_canonical(std::uint16_t tt,
                                          NpnTransform* transform = nullptr);

/// Number of distinct NPN classes over 4 variables (222); exposed for tests.
[[nodiscard]] int npn_class_count();

// ---------------------------------------------------------------------------
// Wide NPN: up to 6 variables over 64-bit truth tables (low 2^n bits hold
// the function; the rest must be zero for n < 6). The exact backend
// canonicalizes 4-6-input cone truth tables through these before
// synthesizing or probing the class cache — n = 6 has 6! * 2^6 * 2 = 92160
// transforms, so the canonicalizer walks them incrementally (adjacent
// transpositions + Gray-coded negations, O(1) table updates per step)
// instead of applying each transform from scratch.
// ---------------------------------------------------------------------------

/// One N/P/N transform on an n-variable function (n <= 6), same semantics
/// as NpnTransform: complement inputs in `input_negation`, route original
/// input i to position `permutation[i]`, optionally complement the output.
/// Entries at positions >= n are identity and ignored.
struct NpnTransformW {
    std::array<std::uint8_t, 6> permutation{0, 1, 2, 3, 4, 5};
    std::uint8_t input_negation = 0;
    bool output_negation = false;
};

/// Apply `t` to a truth table over `n` variables (1 <= n <= 6).
[[nodiscard]] std::uint64_t apply_npn_w(std::uint64_t tt, int n,
                                        const NpnTransformW& t);

/// Transform that undoes `t` over `n` variables.
[[nodiscard]] NpnTransformW invert_npn_w(const NpnTransformW& t, int n);

/// Exact NPN-canonical representative of the n-variable `tt` (minimum
/// 64-bit value over all n! * 2^n * 2 transforms). When `transform` is
/// non-null it receives a transform with apply_npn_w(tt, n, *transform)
/// == canonical.
[[nodiscard]] std::uint64_t npn_canonical_w(std::uint64_t tt, int n,
                                            NpnTransformW* transform = nullptr);

}  // namespace bdsmaj::tt
