#pragma once
// Exact synthesis backend for small cones (<= 4 support variables).
//
// Any function reaching the decomposition engine whose support fits in four
// variables has a 16-bit truth table; NPN canonicalization (tt/npn.hpp)
// collapses the 65536 functions into 222 classes. This module serves, per
// class, a minimal-gate-count fanout-free structure over the engine's gate
// alphabet {MAJ, AND, OR, XOR, MUX, NOT} — NOT is free (signals carry
// polarity), so AND with input/output complements subsumes OR/NAND/NOR and
// XOR subsumes XNOR.
//
// Costs come from a one-time dynamic program over all 65536 truth tables
// (Dijkstra by gate count: cost(op(a, b)) <= cost(a) + cost(b) + 1, with
// 3-input MAJ/MUX taking at least one literal operand — the tractable tree
// grammar; see docs/performance.md). Per-class replay programs are
// materialized lazily on first miss into a process-wide, mutex-sharded
// cache shared by every decomposer on every thread: one enumeration serves
// all jobs for the rest of the process lifetime.
//
// A structure is a straight-line program over canonical-space inputs; the
// ConeMatch carries the NPN transform that binds those inputs back onto the
// engine's leaf signals (with polarities), so replay composes with any
// GateSink — the shared hash-consing builder or a worker's GateTape alike.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bdd/bdd.hpp"
#include "network/gate_sink.hpp"
#include "tt/npn.hpp"

namespace bdsmaj::decomp {

/// Operand of an exact-structure gate: a canonical-space input literal
/// (index 0..3), an earlier gate of the same program (index 4 + gate
/// position), or a constant, each with an optional complement.
struct ExactRef {
    static constexpr std::uint8_t kConstIndex = 0xff;
    std::uint8_t index = kConstIndex;
    bool complemented = false;  ///< for kConstIndex: true = constant one

    [[nodiscard]] static ExactRef input(int i, bool c) {
        return {static_cast<std::uint8_t>(i), c};
    }
    [[nodiscard]] static ExactRef gate(int g, bool c) {
        return {static_cast<std::uint8_t>(4 + g), c};
    }
    [[nodiscard]] static ExactRef constant(bool one) { return {kConstIndex, one}; }
    [[nodiscard]] bool is_const() const noexcept { return index == kConstIndex; }
    [[nodiscard]] bool is_input() const noexcept { return !is_const() && index < 4; }
    [[nodiscard]] ExactRef operator!() const { return {index, !complemented}; }
};

/// kOr exists for the wide (5-6 input) SAT-synthesized programs only: the
/// narrow backend absorbs OR into AND via free complemented refs, but a
/// wide gate's 8-bit operator table must be realizable without an output
/// complement, so OR is a first-class op there.
enum class ExactOp : std::uint8_t { kAnd, kXor, kMaj, kMux, kOr };

struct ExactGate {
    ExactOp op = ExactOp::kAnd;
    ExactRef a, b, c;  ///< c is used by kMaj and kMux (select = a) only
};

/// A straight-line replay program computing one NPN-canonical function of
/// the four canonical-space inputs. Immutable once published by the cache.
struct ExactStructure {
    std::uint16_t canonical = 0;   ///< the class this program computes
    std::vector<ExactGate> gates;  ///< topologically ordered
    ExactRef output;               ///< may reference an input or constant

    [[nodiscard]] int gate_count() const noexcept {
        return static_cast<int>(gates.size());
    }
    /// Evaluate the program over 16-bit truth-table arithmetic; returns the
    /// function of the output. Used by tests and debug assertions to prove
    /// the program really computes `canonical`.
    [[nodiscard]] std::uint16_t eval_tt() const;
};

/// How a concrete cone maps onto a cached structure: its truth table over
/// the (sorted, padded-to-4) support, the NPN class, and the transform
/// with apply_npn(tt, transform) == structure.canonical.
struct ConeMatch {
    std::uint16_t tt = 0;
    std::uint16_t canonical = 0;
    tt::NpnTransform transform;
    std::array<int, 4> support{-1, -1, -1, -1};  ///< manager var per position
    int support_size = 0;
};

/// Extract the truth table of `f` when its support has at most
/// `max_support` (<= 4) variables; nullopt otherwise. Callers should
/// pre-filter on DAG size — a function on <= 4 variables never has more
/// than a handful of BDD nodes, so a size check makes the common reject
/// path O(1).
[[nodiscard]] std::optional<ConeMatch> match_cone(bdd::Manager& mgr,
                                                  const bdd::Bdd& f,
                                                  int max_support = 4);

/// Replay `s` into `sink` for the cone described by `match`: canonical
/// input j resolves through the inverse NPN transform to the leaf signal
/// of the corresponding support variable (complemented as needed), and the
/// program's output polarity absorbs the transform's output negation.
/// `leaves[v]` must be the sink signal of manager variable v.
[[nodiscard]] net::Signal emit_exact_cone(const ConeMatch& match,
                                          const ExactStructure& s,
                                          net::GateSink& sink,
                                          std::span<const net::Signal> leaves);

// ---------------------------------------------------------------------------
// Wide (5-6 input) structures, produced by the SAT-based exact backend
// (decomp/exact_sat.hpp). Same straight-line replay shape as
// ExactStructure, but over up to six canonical-space inputs and 64-bit
// truth tables; gates are full fanin-3 chain steps (the SAT encoding lifts
// the narrow backend's one-literal-operand tree-grammar restriction).
// ---------------------------------------------------------------------------

/// Operand of a wide gate: canonical-space input (index 0..5), an earlier
/// gate (index 6 + position), or a constant. The input base is fixed at 6
/// regardless of the actual input count so refs stay stable across n.
struct WideRef {
    static constexpr std::uint8_t kConstIndex = 0xff;
    static constexpr std::uint8_t kGateBase = 6;
    std::uint8_t index = kConstIndex;
    bool complemented = false;  ///< for kConstIndex: true = constant one

    [[nodiscard]] static WideRef input(int i, bool c) {
        return {static_cast<std::uint8_t>(i), c};
    }
    [[nodiscard]] static WideRef gate(int g, bool c) {
        return {static_cast<std::uint8_t>(kGateBase + g), c};
    }
    [[nodiscard]] static WideRef constant(bool one) { return {kConstIndex, one}; }
    [[nodiscard]] bool is_const() const noexcept { return index == kConstIndex; }
    [[nodiscard]] bool is_input() const noexcept {
        return !is_const() && index < kGateBase;
    }
    [[nodiscard]] WideRef operator!() const { return {index, !complemented}; }
};

struct WideGate {
    ExactOp op = ExactOp::kAnd;
    WideRef a, b, c;  ///< c is used by kMaj and kMux (select = a) only
};

/// A straight-line program computing one wide NPN-canonical function of
/// `num_inputs` (5 or 6) canonical-space inputs. Immutable once published.
struct WideStructure {
    std::uint64_t canonical = 0;  ///< class tt in the low 2^num_inputs bits
    std::uint8_t num_inputs = 0;
    std::vector<WideGate> gates;  ///< topologically ordered
    WideRef output;

    [[nodiscard]] int gate_count() const noexcept {
        return static_cast<int>(gates.size());
    }
    /// Evaluate over 64-bit truth-table arithmetic (masked to 2^num_inputs
    /// bits); proves the program really computes `canonical`.
    [[nodiscard]] std::uint64_t eval_tt() const;
};

/// Verdict of one SAT chain synthesis (decomp/exact_sat.hpp); declared
/// here because the wide negative cache keys its entries on it.
enum class ExactSatStatus : std::uint8_t {
    kFound,    ///< chain found and validated against the full truth table
    kUnsat,    ///< proven: no chain of <= max_steps steps computes tt
    kUnknown,  ///< conflict budget exhausted before a verdict
};

/// Effort of the synthesis that found a cached wide program: the
/// conflicts it spent and the chain length it reached. A chain is found
/// only after every shorter length is proven chain-free, and a search
/// replays the same trajectory at any budget or step cap until it stops,
/// so a cold synthesis at (budget, max_steps) finds exactly this program
/// iff budget > conflicts and max_steps >= steps_tried; with less budget
/// it stops on its last conflict, with a smaller cap no chain exists.
/// -1 = unknown (an entry prewarmed from disk).
struct WideSynthesisCost {
    long long conflicts = -1;
    int steps_tried = -1;

    /// True when a cold synthesis at this effort finds the program; always
    /// true for an unknown cost (prewarmed entries are served as they are).
    [[nodiscard]] bool reproduced_by(long long budget, int max_steps) const noexcept {
        return conflicts < 0 || (budget > conflicts && max_steps >= steps_tried);
    }
};

/// Telemetry of the process-wide class cache.
struct ExactCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;   ///< first-touch materializations
    int classes_cached = 0;
    std::uint64_t wide_hits = 0;
    std::uint64_t wide_misses = 0;  ///< lookups that found no wide program
    int wide_classes_cached = 0;
    int wide_failures_recorded = 0;  ///< classes with a negative entry
};

/// Process-wide NPN-class structure cache. Thread-safe; the underlying
/// cost table is enumerated once per process (on the first miss), the
/// per-class replay programs are materialized lazily under per-shard
/// mutexes and then shared by every thread for the process lifetime.
class ExactSynthesisCache {
public:
    /// The singleton shared by all decomposers/jobs/threads.
    [[nodiscard]] static ExactSynthesisCache& instance();

    /// Structure for an NPN-canonical class; `was_hit` (optional) reports
    /// whether the program was already materialized. Never fails: every
    /// 16-bit function is reachable in the enumeration grammar.
    [[nodiscard]] std::shared_ptr<const ExactStructure> lookup(
        std::uint16_t canonical, bool* was_hit = nullptr);

    /// Persist every materialized class to `path` (versioned binary
    /// format), via a temp file + atomic rename so a crash mid-save never
    /// corrupts an existing cache file. Entries are written in canonical
    /// order, so the bytes are deterministic for a given class set.
    /// Returns the number of classes written, or -1 on I/O failure.
    int save_to_file(const std::string& path) const;

    /// Pre-warm from a file written by save_to_file. Tolerant by design:
    /// a missing file, bad magic, unknown version or truncated payload
    /// loads nothing (returns 0) instead of failing the run, and every
    /// entry is re-validated (reference well-formedness + the program
    /// must evaluate to its claimed class) before being trusted — a
    /// corrupted structure is skipped, never served. Already-materialized
    /// classes keep their in-memory program (first insert wins). Accepts
    /// both the legacy narrow-only version 1 files and the version 2
    /// layout that appends SAT-found wide programs. Returns the number of
    /// classes actually inserted (narrow + wide).
    int load_from_file(const std::string& path);

    // --- Wide (5-6 input) SAT-synthesized programs -----------------------

    /// Program for a wide canonical class, or nullptr when none has been
    /// synthesized yet (the SAT backend is on-demand; a miss here is the
    /// caller's cue to synthesize). `cost` (optional) receives the effort
    /// recorded with the program. Thread-safe.
    [[nodiscard]] std::shared_ptr<const WideStructure> lookup_wide(
        int num_inputs, std::uint64_t canonical, WideSynthesisCost* cost = nullptr);

    /// Publish a synthesized program with the effort that found it; first
    /// insert wins (racing workers that synthesized the same class
    /// concurrently found the same program at the same cost). Returns the
    /// canonical in-cache pointer. Clears any negative entry for the class.
    std::shared_ptr<const WideStructure> insert_wide(
        std::shared_ptr<const WideStructure> s, WideSynthesisCost cost = {});

    /// Drop every materialized class, wide program and negative entry, and
    /// zero the telemetry: the state of a fresh process, for tests that
    /// must not depend on what ran before them. Thread-safe; programs
    /// already handed out stay valid (they are shared).
    void clear();

    /// True when a synthesis at (budget, max_steps) is known to fail: a
    /// recorded proof covers the step cap, or one recorded budget-exhausted
    /// attempt had at least this budget AND this cap. Retrying is pointless
    /// and would burn the budget again.
    [[nodiscard]] bool wide_failure_covers(int num_inputs,
                                           std::uint64_t canonical,
                                           long long budget, int max_steps);

    /// Record a failed synthesis attempt at (budget, max_steps). A kUnsat
    /// proves no chain of <= max_steps steps exists, so it covers every
    /// budget at caps <= max_steps. A kUnknown (budget exhausted) covers
    /// only budgets <= budget at caps <= max_steps; attempts that cross
    /// (more budget, lower cap) are kept side by side, never merged into
    /// a claim no run made, so the covered set does not depend on the
    /// order attempts arrive in. In-memory only, never persisted.
    void record_wide_failure(int num_inputs, std::uint64_t canonical,
                             ExactSatStatus status, long long budget,
                             int max_steps);

    [[nodiscard]] ExactCacheStats stats() const;

private:
    ExactSynthesisCache() = default;

    static constexpr std::size_t kShards = 16;
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<std::uint16_t, std::shared_ptr<const ExactStructure>> map;
    };
    struct WideFailure {
        /// Largest step cap proven chain-free; -1 = no proof.
        int proven_steps = -1;
        /// Budget-exhausted attempts as (budget, max_steps), none covering
        /// another and none within the proven cap (a tiny Pareto set).
        std::vector<std::pair<long long, int>> exhausted;

        [[nodiscard]] bool covers(long long budget, int max_steps) const;
    };
    struct WideEntry {
        std::shared_ptr<const WideStructure> structure;
        WideSynthesisCost cost;
    };
    /// Wide classes are few (hundreds, each guarded by an expensive SAT
    /// call), so a single mutex over both per-n maps is not a bottleneck.
    struct WideStore {
        mutable std::mutex mutex;
        // Index 0 holds 5-input classes, index 1 holds 6-input classes.
        std::array<std::unordered_map<std::uint64_t, WideEntry>, 2> map;
        std::array<std::unordered_map<std::uint64_t, WideFailure>, 2> failures;
    };
    static bool wide_slot(int num_inputs, std::size_t* slot);

    std::array<Shard, kShards> shards_;
    WideStore wide_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> wide_hits_{0};
    std::atomic<std::uint64_t> wide_misses_{0};
};

/// Minimal gate count of `tt` in the enumeration grammar (exposed for
/// tests; forces the one-time cost enumeration on first call).
[[nodiscard]] int exact_gate_cost(std::uint16_t tt);

}  // namespace bdsmaj::decomp
