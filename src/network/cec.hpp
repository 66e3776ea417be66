#pragma once
// Combinational equivalence checking (CEC): the exact sign-off oracle
// behind check_equivalent().
//
// Bit-parallel random simulation refutes cheap mismatches first. What
// survives is proven by one of two exact engines, chosen by input width:
//
//   * Narrow circuits (kAuto, at most `exhaustive_input_limit` inputs):
//     exhaustive simulation of all 2^n patterns (simulate.hpp). At 20
//     inputs that is 16k words per node — well under a second on the
//     benchmark circuits, where the global BDD of a reciprocal or a
//     multiplier is exponential.
//   * Wider circuits: a FRAIG-style SAT sweep over the in-repo CDCL solver
//     (sat/solver.hpp). Nodes of both networks are encoded lazily, in
//     merged level order, through a structural hash on (gate kind, fanin
//     literals), so identical logic in the two networks shares one
//     literal. Internal nodes are grouped into candidate-equivalence
//     classes by simulation signatures; each candidate is proven against
//     its class representative with two bounded assumption queries
//     (x & !y, !x & y) that branch only on the two nodes' fanin cone
//     (sat::Solver::solve_within). A proven node becomes a cut-point: fanouts not yet
//     encoded are built over the representative's literal (and may then
//     hash onto the other network's logic), and two binary clauses tie
//     the old variable to it. Decomposition preserves supernode boundary
//     functions, so the two networks are riddled with internal
//     equivalences the signatures find; the output miters at the end are
//     mostly structural identities.
//
// Every inequivalence verdict carries a concrete counterexample extracted
// from the SAT model (or the failing simulation word) and is re-verified
// by single-pattern simulation before it reaches the caller.

#include <cstdint>

#include "network/simulate.hpp"

namespace bdsmaj::net {

/// Tuning knobs for the CEC oracle. The defaults are what every flow and
/// test uses; the bench harness varies `engine` only.
struct CecParams {
    EquivEngine engine = EquivEngine::kAuto;
    /// Plain random-simulation refutation rounds (64 patterns each) run
    /// before any proof work.
    int sim_rounds = 64;
    /// Signature rounds used to build candidate-equivalence classes for
    /// the SAT engine (64 patterns each; counterexample patterns from
    /// failed candidate proofs are appended as extra rounds).
    int signature_rounds = 64;
    std::uint64_t seed = 0x5eed;
    /// kAuto proves by exhaustive simulation when the input count is at
    /// most this, and with the SAT sweep above it.
    int exhaustive_input_limit = 20;
    /// Sweep internal equivalences over a structurally hashed encoding
    /// before the output miters. Off = both networks Tseitin-encoded as
    /// they are, then plain per-output miters (reference mode for testing).
    bool fraig = true;
    /// Conflict budget per internal candidate query; exhausted candidates
    /// are skipped (never unsound). <= 0 means unbounded.
    std::int64_t internal_conflict_limit = 2000;
    /// Conflict budget per output miter; 0/negative = unbounded (output
    /// proofs are the actual sign-off and must not silently give up —
    /// exhausting a positive budget here throws).
    std::int64_t output_conflict_limit = 0;
};

/// Observability counters filled by the SAT engine (zeros for the other
/// engines). Every counter accumulates, so one CecStats can be reused
/// across several checks.
struct CecStats {
    std::uint64_t sim_rounds = 0;           ///< total simulation rounds run
    std::uint64_t candidate_pairs = 0;      ///< internal equalities attempted
    std::uint64_t proved_internal = 0;      ///< ... proven and substituted as cut-points
    std::uint64_t refuted_internal = 0;     ///< ... refuted by a SAT model
    std::uint64_t unknown_internal = 0;     ///< ... skipped on conflict budget
    std::uint64_t structural_merges = 0;    ///< strash hits and free candidate merges
    std::uint64_t sat_calls = 0;            ///< total solver queries
    std::uint64_t conflicts = 0;            ///< total solver conflicts
};

/// SAT miter equivalence proof (exact at any input count). Networks are
/// matched positionally on inputs and outputs. `params.engine` is ignored.
[[nodiscard]] EquivalenceResult sat_equivalent(const Network& a, const Network& b,
                                               const CecParams& params = {},
                                               CecStats* stats = nullptr);

/// Engine-selectable equivalence oracle.
///   kAuto : random simulation, then exhaustive simulation
///           (inputs <= exhaustive_input_limit) or the SAT sweep.
///   kBdd  : random simulation, then the BDD proof regardless of width.
///   kSat  : random simulation, then the SAT sweep.
///   kExhaustive : random simulation, then exhaustive simulation
///           regardless of width (throws above 40 inputs).
///   kSim  : random simulation only — agreement is NOT exact.
/// Except under kSim, the returned verdict always has `exact == true`.
[[nodiscard]] EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                                 const CecParams& params,
                                                 CecStats* stats = nullptr);

}  // namespace bdsmaj::net
