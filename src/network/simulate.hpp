#pragma once
// Network simulation and equivalence checking.
//
// Four complementary engines:
//   * 64-way bit-parallel random simulation (fast falsification on any size)
//   * exhaustive simulation: every one of the 2^n input patterns, a block
//     of 64-pattern words at a time — the exact proof kAuto uses on narrow
//     circuits (n <= 20), where it costs milliseconds whatever the
//     network's BDD size
//   * exact equivalence through shared-manager BDD construction (an
//     explicit engine only — the global BDD of a multiplier or a
//     reciprocal is intrinsically exponential)
//   * the simulation-guided SAT sweep (network/cec.hpp): structurally
//     hashed CNF over an in-repo CDCL solver, exact at any input count —
//     what kAuto uses on every wider circuit.

#include <cstdint>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "network/network.hpp"

namespace bdsmaj::net {

/// Build the BDD of an SOP node over fanin functions supplied by
/// `fanin(i)`. The cube terms are combined by balanced pairwise OR
/// reduction: a sequential accumulator repeats work proportional to the
/// growing intermediate BDD once per cube, pairwise reduction keeps the
/// operands small. Shared by the equivalence checker and the supernode
/// BDD builder.
template <typename FaninFn>
[[nodiscard]] bdd::Bdd sop_to_bdd(bdd::Manager& mgr, const Sop& sop,
                                  FaninFn&& fanin) {
    std::vector<bdd::Bdd> terms;
    terms.reserve(sop.cubes().size());
    for (const Cube& cube : sop.cubes()) {
        bdd::Bdd term = mgr.one();
        for (std::size_t i = 0; i < cube.lits.size(); ++i) {
            if (cube.lits[i] == Lit::kDash) continue;
            const bdd::Bdd& fi = fanin(i);
            term = mgr.apply_and(term, cube.lits[i] == Lit::kPos ? fi : !fi);
        }
        terms.push_back(std::move(term));
    }
    while (terms.size() > 1) {
        std::vector<bdd::Bdd> next;
        next.reserve(terms.size() / 2 + 1);
        for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
            next.push_back(mgr.apply_or(terms[i], terms[i + 1]));
        }
        if (terms.size() % 2 == 1) next.push_back(std::move(terms.back()));
        terms = std::move(next);
    }
    return terms.empty() ? mgr.zero() : std::move(terms[0]);
}

/// One 64-pattern simulation: `pi_words[i]` is the stimulus of input i
/// (bit k = pattern k); returns one word per output port.
[[nodiscard]] std::vector<std::uint64_t> simulate_words(
    const Network& network, const std::vector<std::uint64_t>& pi_words);

/// Simulation core over a precomputed topological order, `words`
/// 64-pattern words per node at a time. `pi_words` holds `words`
/// consecutive words per primary input (input i at [i * words, (i + 1) *
/// words)); the words of every input and of every node in `order` land
/// in the caller-owned `value` at [id * words, (id + 1) * words). Other
/// nodes' words are left unspecified (the buffer is reused, not cleared).
/// Multi-round callers — the random and exhaustive equivalence checks and
/// the SAT checker's signatures — hoist the order and the buffers out of
/// their loops. `scratch` is reusable SOP-evaluation space.
void simulate_words_into(const Network& network, const std::vector<NodeId>& order,
                         const std::vector<std::uint64_t>& pi_words,
                         std::vector<std::uint64_t>& value,
                         std::vector<std::uint64_t>& scratch, std::size_t words = 1);

/// Single-pattern convenience wrapper.
[[nodiscard]] std::vector<bool> simulate(const Network& network,
                                         const std::vector<bool>& pi_values);

/// Equivalence-checking engine. kAuto refutes by simulation first, then
/// proves by exhaustive simulation on narrow circuits and with the SAT
/// sweep everywhere else; kSim alone never *proves* anything (exact stays
/// false on agreement). kExhaustive names the engine behind kAuto's
/// narrow-circuit verdicts; requesting it directly forces the enumeration
/// (parse_equiv_engine, and so --oracle, does not offer it).
enum class EquivEngine : std::uint8_t { kAuto, kBdd, kSat, kSim, kExhaustive };

[[nodiscard]] const char* equiv_engine_name(EquivEngine engine);
/// Parse "auto" / "bdd" / "sat" / "sim"; throws std::invalid_argument.
[[nodiscard]] EquivEngine parse_equiv_engine(const std::string& name);

/// Result of an equivalence query.
struct EquivalenceResult {
    bool equivalent = false;
    /// True when the verdict is a proof: an exhaustive-simulation, BDD or
    /// SAT argument, or a concrete re-simulated counterexample. False means the verdict
    /// is only sampled (random simulation agreed) — callers asserting
    /// sign-off must check this, not just `equivalent`.
    bool exact = false;
    /// Engine that produced the verdict (never kAuto).
    EquivEngine engine = EquivEngine::kSim;
    std::string reason;  // human-readable mismatch description
    /// On inequivalence with a known witness: the failing primary-input
    /// assignment (positionally indexed) and the differing output port.
    std::vector<bool> counterexample;
    int failing_output = -1;
};

/// Random simulation with `rounds` x 64 patterns. Inputs/outputs are
/// matched positionally; PI and PO counts must agree. A mismatch comes
/// with a re-verified counterexample pattern (exact refutation);
/// agreement is only sampled (exact = false).
[[nodiscard]] EquivalenceResult random_equivalent(const Network& a,
                                                  const Network& b, int rounds,
                                                  std::uint64_t seed);

/// Exact equivalence by simulating both networks on all 2^n input
/// patterns: inputs 0-5 take the six projection words, higher inputs take
/// their bits from the word index. The first differing pattern comes back
/// as a re-simulated counterexample. Cost is 2^n / 64 words per node, so
/// it is meant for n <= ~24; throws std::invalid_argument above 40 inputs.
[[nodiscard]] EquivalenceResult exhaustive_equivalent(const Network& a, const Network& b);

/// Exact equivalence by building both networks' output BDDs in one manager.
/// Practical only for tiny input counts on these benchmark classes (the
/// multiplier BDD is exponential); inequivalence comes with a
/// counterexample pattern extracted from the difference BDD.
[[nodiscard]] EquivalenceResult bdd_equivalent(const Network& a, const Network& b);

/// The default exact sign-off: simulation for fast refutation, then an
/// exhaustive-simulation proof when the input count is at most
/// `exhaustive_input_limit` and the SAT sweep (network/cec.hpp) above it.
/// Exact at ANY input count — the result's `exact` flag is always true.
/// Implemented in network/cec.cpp; an engine-selectable overload lives in
/// cec.hpp.
[[nodiscard]] EquivalenceResult check_equivalent(const Network& a, const Network& b,
                                                 int exhaustive_input_limit = 20,
                                                 int random_rounds = 64,
                                                 std::uint64_t seed = 0x5eed);

/// Build the BDD of every output of `network` in `mgr`, using manager
/// variable i for primary input i. Exposed because flows construct global
/// BDDs for verification and for the DC-proxy collapse.
[[nodiscard]] std::vector<bdd::Bdd> network_to_bdds(const Network& network,
                                                    bdd::Manager& mgr);

/// Shared by all engines: turn a witness pattern into a refutation
/// verdict, re-verifying it by single-pattern simulation of both networks
/// first (throws std::logic_error if the engine's witness does not
/// actually distinguish them — a checker bug, never a user error).
[[nodiscard]] EquivalenceResult verified_counterexample(
    const Network& a, const Network& b, int output_index,
    std::vector<bool> pattern, const char* origin, EquivEngine engine);

/// Human-readable description of a failing pattern (used in `reason`).
[[nodiscard]] std::string describe_counterexample(const Network& a, int output_index,
                                                  const std::vector<bool>& pattern,
                                                  bool value_a, bool value_b);

}  // namespace bdsmaj::net
