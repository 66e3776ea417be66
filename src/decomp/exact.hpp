#pragma once
// Exact synthesis of small cones: the straight-line program types, and the
// process-wide cache of programs per NPN class shared by every decomposer
// on every thread.
//
// A cone whose support fits in six variables has a truth table of at most
// 64 bits. Its NPN class (tt/npn.hpp) is served by a minimum-length chain
// over the engine's gate alphabet {MAJ, AND, OR, XOR, MUX} with free
// input/output polarities, found once per class by the chain synthesizer
// (decomp/exact_sat.hpp) and cached here. Cones of up to four support
// variables are padded to four inputs, so the 222 four-input classes cover
// them all; five- and six-input cones keep their width.
//
// A structure is a straight-line program over canonical-space inputs; the
// cone match (decomp/exact_sat.hpp) carries the NPN transform that binds
// those inputs back onto the engine's leaf signals (with polarities), so
// replay composes with any GateSink — the shared hash-consing builder or
// a worker's GateTape alike.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bdsmaj::decomp {

/// Gate operators. OR is first-class (not AND with complements) because a
/// gate's 8-bit operator table must be realizable without an output
/// complement.
enum class ExactOp : std::uint8_t { kAnd, kXor, kMaj, kMux, kOr };

/// Operand of a gate: canonical-space input (index 0..5), an earlier gate
/// (index 6 + position), or a constant. The input base is fixed at 6
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

/// A straight-line program computing one NPN-canonical function of
/// `num_inputs` (4 to 6) canonical-space inputs. Immutable once published.
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

/// Verdict of one chain synthesis (decomp/exact_sat.hpp); declared here
/// because the negative cache keys its entries on it.
enum class ExactSatStatus : std::uint8_t {
    kFound,    ///< chain found and validated against the full truth table
    kUnsat,    ///< proven: no chain of <= max_steps steps computes tt
    kUnknown,  ///< conflict budget exhausted before a verdict
};

/// Effort of the synthesis that found a cached program: the
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
    std::uint64_t misses = 0;  ///< lookups that found no program
    int classes_cached = 0;
    int failures_recorded = 0;  ///< classes with a negative entry
};

/// Process-wide NPN-class program cache, keyed by (input count, canonical
/// class). Thread-safe; programs are synthesized on demand by the caller
/// (a miss is the cue), published here and then shared by every thread
/// for the process lifetime.
class ExactSynthesisCache {
public:
    /// The singleton shared by all decomposers/jobs/threads.
    [[nodiscard]] static ExactSynthesisCache& instance();

    /// Persist every cached program to `path` (versioned binary format),
    /// via a temp file + atomic rename so a crash mid-save never corrupts
    /// an existing cache file. Entries are written in (input count,
    /// canonical) order, so the bytes are deterministic for a given class
    /// set. Returns the number of classes written, or -1 on I/O failure.
    int save_to_file(const std::string& path) const;

    /// Pre-warm from a file written by save_to_file. Tolerant by design:
    /// a missing file, bad magic, unknown version (older layouts included)
    /// or truncated payload loads nothing (returns 0) instead of failing
    /// the run, and every entry is re-validated (reference
    /// well-formedness + the program must evaluate to its claimed class)
    /// before being trusted — a corrupted structure is skipped, never
    /// served. Already-cached classes keep their in-memory program (first
    /// insert wins). Returns the number of classes actually inserted.
    int load_from_file(const std::string& path);

    /// Program for a canonical class of `num_inputs` (4 to 6) inputs, or
    /// nullptr when none has been synthesized yet (synthesis is
    /// on-demand; a miss here is the caller's cue to synthesize). `cost`
    /// (optional) receives the effort recorded with the program.
    [[nodiscard]] std::shared_ptr<const WideStructure> lookup_wide(
        int num_inputs, std::uint64_t canonical, WideSynthesisCost* cost = nullptr);

    /// Publish a synthesized program with the effort that found it; first
    /// insert wins (racing workers that synthesized the same class
    /// concurrently found the same program at the same cost). Returns the
    /// canonical in-cache pointer. Clears any negative entry for the class.
    std::shared_ptr<const WideStructure> insert_wide(
        std::shared_ptr<const WideStructure> s, WideSynthesisCost cost = {});

    /// Drop every program and negative entry, and zero the telemetry: the
    /// state of a fresh process, for tests that must not depend on what
    /// ran before them. Thread-safe; programs already handed out stay
    /// valid (they are shared).
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

    struct Failure {
        /// Largest step cap proven chain-free; -1 = no proof.
        int proven_steps = -1;
        /// Budget-exhausted attempts as (budget, max_steps), none covering
        /// another and none within the proven cap (a tiny Pareto set).
        std::vector<std::pair<long long, int>> exhausted;

        [[nodiscard]] bool covers(long long budget, int max_steps) const;
    };
    struct Entry {
        std::shared_ptr<const WideStructure> structure;
        WideSynthesisCost cost;
    };
    /// Index of the per-input-count maps; false outside 4..6.
    static bool slot_of(int num_inputs, std::size_t* slot);

    /// Classes are few (at most 222 four-input ones plus the 5-6-input
    /// classes a run meets), so one mutex over the per-n maps suffices.
    mutable std::mutex mutex_;
    std::array<std::unordered_map<std::uint64_t, Entry>, 3> map_;
    std::array<std::unordered_map<std::uint64_t, Failure>, 3> failures_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bdsmaj::decomp
