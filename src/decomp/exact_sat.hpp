#pragma once
// Exact chain synthesis for the cones of the exact strategy: four inputs
// (cones of up to four support variables, padded) and five or six.
//
// Enumerating every function is hopeless at 2^32 / 2^64 functions, so each
// NPN class is synthesized on demand, once per process, by asking a
// sequence of percy-style questions: "does an r-step straight-line chain
// over {MAJ, AND, OR, XOR, MUX} with free input/output polarities compute
// tt?" for r growing from a fanin lower bound. The encoding is the standard
// selection-variable scheme over *normal* chains:
//
//   * step i picks an ordered operand triple (j < k < l) from the inputs
//     and earlier steps via selection variables sel_i[t];
//   * seven operator bits f_i[1..7] give the step's output for each
//     nonzero operand pattern — f_i(000) = 0 is implicit, making every
//     step a normal function. The gate alphabet with polarities is closed
//     under output complement (~AND = OR of complements, ~MAJ = MAJ of
//     complements, ~MUX(s,t,e) = MUX(s,~t,~e), XOR absorbs complements),
//     so normal chains lose no generality: the target is normalized to
//     tt(0...0) = 0 and the recorded output polarity restores it;
//   * per-operator-bit "forbidden pattern" clauses restrict each step's
//     8-bit table to the ~30 tables a single gate of the alphabet (with
//     operand polarities) can realize; decode maps the table back to
//     (op, operand roles, operand complements);
//   * value variables v_i[m] tie steps to the target on a small, growing
//     set of counterexample minterms (CEGAR): a candidate model is decoded
//     and evaluated against the full 64-bit truth table in O(r) word ops,
//     and the lowest differing minterm refines the encoding. Most calls
//     converge with a handful of minterms instead of all 2^n;
//   * chain lengths share one incremental solver (sat/solver.hpp): the
//     r-specific clauses (output binding, use-every-step symmetry
//     breaking) are guarded by a per-r assumption literal, so learned
//     clauses survive the r -> r+1 step and the dead generation is killed
//     with one unit clause.
//
// Chains of up to four steps never reach the solver: a constructive
// decision procedure (decomp/exact_decide.hpp) settles every length from
// the fanin floor to four without conflicts, returning the shallowest
// minimum-length chain or a proof that none exists. The CDCL search above
// starts at five steps.
//
// Everything is budgeted by solver conflicts — never wall time — and all
// tie-breaks (counterexample choice, triple decode) are deterministic, so
// a result is a pure function of (tt, n, params): racing
// workers, any jobs count, and any run-to-run timing converge on identical
// programs. Budget exhaustion returns kUnknown and the caller falls back
// to the heuristic ladder; nothing is partially emitted.

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "bdd/bdd.hpp"
#include "decomp/exact.hpp"
#include "network/gate_sink.hpp"
#include "sat/solver.hpp"
#include "tt/npn.hpp"

namespace bdsmaj::decomp {

/// Verdict of one chain synthesis.
enum class ExactSatStatus : std::uint8_t {
    kFound,    ///< chain found and validated against the full truth table
    kUnsat,    ///< proven: no chain of <= max_steps steps computes tt
    kUnknown,  ///< conflict budget exhausted before a verdict
};

struct ExactSatParams {
    /// Total CDCL conflicts one synthesize call may spend, across every
    /// chain length it searches (five steps and up; shorter lengths are
    /// decided without conflicts). Conflicts — not time — keep the verdict
    /// machine-independent. <= 0 means no budget: immediate kUnknown.
    long long conflict_budget = 10000;
    /// Largest chain length tried before giving up with kUnsat.
    int max_steps = 8;
};

/// Conflict budget of every exact-strategy synthesis. Fixed, so each
/// cached program and each negative entry is a pure function of its class
/// and step cap: every one of the 222 four-input classes is found well
/// inside it (the most costly takes about 6k conflicts), and five- and
/// six-input classes stop at the lengths decided by construction, which
/// spend no conflicts. No synthesis of the strategy ever exhausts it.
inline constexpr long long kExactConflictBudget = 100000;

struct ExactSatResult {
    ExactSatStatus status = ExactSatStatus::kUnknown;
    std::shared_ptr<const WideStructure> structure;  ///< kFound only
    long long conflicts = 0;  ///< solver conflicts actually spent
    int sat_calls = 0;
    int steps_tried = 0;  ///< last chain length attempted
    /// Search counters summed over every solver the call built, counted
    /// from each solver's creation (clause loading included) to its last
    /// solve: the trajectory fingerprint a solver change must preserve.
    sat::SolverStats solver_stats;
};

/// Synthesize a minimum-length chain computing the n-variable function
/// `tt` (low 2^n bits; 3 <= n <= 6 — the strategy pipeline calls with 4-6,
/// n = 3 is allowed for tests). Lengths up to four are decided by
/// construction (zero conflicts; a chain found there has minimum depth
/// among the minimum-length chains, and with max_steps <= 4 a miss is a
/// kUnsat proof); longer ones by the CDCL search. On kFound the
/// structure's gates are dead-code-eliminated, validated by eval_tt(), and
/// `structure->canonical == tt`. Deterministic: identical (tt, n, params)
/// always produce the identical result, including the exact gate list.
[[nodiscard]] ExactSatResult exact_sat_synthesize(
    std::uint64_t tt, int num_inputs, const ExactSatParams& params = {});

namespace detail {

/// The CDCL chain search of exact_sat_synthesize on its own, starting at
/// chain length max(first_length, fanin floor) with no decided prefix.
/// exact_sat_synthesize runs this very loop from length five; tests pin
/// the solver's trajectory through it at any first length.
[[nodiscard]] ExactSatResult cdcl_chain_search(std::uint64_t tt, int num_inputs,
                                               const ExactSatParams& params,
                                               int first_length);

}  // namespace detail

/// How a concrete cone maps onto a canonical class: truth table over the
/// sorted support padded to `num_inputs` = max(4, support size) inputs
/// (the padding inputs are don't-cares), NPN class and transform
/// (apply_npn_w(tt, num_inputs, transform) == canonical), support
/// variables.
struct WideConeMatch {
    std::uint64_t tt = 0;
    std::uint64_t canonical = 0;
    tt::NpnTransformW transform;
    std::array<int, 6> support{-1, -1, -1, -1, -1, -1};
    int support_size = 0;
    int num_inputs = 0;
};

/// Extract the truth table of `f` when its support size is within
/// [min_support, max_support] (max_support <= 6); nullopt otherwise.
/// Canonicalization is memoized process-wide (a 6-var canonicalization
/// walks ~92k transforms; repeated cone shapes pay it once).
[[nodiscard]] std::optional<WideConeMatch> match_cone_wide(
    bdd::Manager& mgr, const bdd::Bdd& f, int min_support, int max_support);

/// Replay `s` into `sink` for the cone described by `match`: canonical
/// input j resolves through the inverse NPN transform to the leaf of the
/// matching support variable (complemented as needed), and the program's
/// output polarity absorbs the transform's output negation. A padding
/// input binds to constant zero; the cone does not depend on it.
/// `leaves[v]` must be the sink signal of manager variable v.
[[nodiscard]] net::Signal emit_exact_cone_wide(
    const WideConeMatch& match, const WideStructure& s, net::GateSink& sink,
    std::span<const net::Signal> leaves);

/// Size of the one-gate operator alphabet (distinct normal 3-operand
/// tables realizable by one {MAJ,AND,OR,XOR,MUX} gate with operand
/// polarities); exposed for tests and docs.
[[nodiscard]] int exact_sat_operator_count();

}  // namespace bdsmaj::decomp
