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
    /// on-demand; a miss here is the caller's cue to synthesize).
    [[nodiscard]] std::shared_ptr<const WideStructure> lookup_wide(
        int num_inputs, std::uint64_t canonical);

    /// Publish a synthesized program; first insert wins (racing workers
    /// that synthesized the same class concurrently found the same
    /// program). Returns the canonical in-cache pointer. Clears any
    /// negative entry for the class.
    std::shared_ptr<const WideStructure> insert_wide(
        std::shared_ptr<const WideStructure> s);

    /// Drop every program and negative entry, and zero the telemetry: the
    /// state of a fresh process, for tests that must not depend on what
    /// ran before them. Thread-safe; programs already handed out stay
    /// valid (they are shared).
    void clear();

    /// True when a synthesis capped at `max_steps` is known to fail: a
    /// recorded proof covers the step cap, so retrying is pointless.
    [[nodiscard]] bool wide_failure_covers(int num_inputs,
                                           std::uint64_t canonical, int max_steps);

    /// Record a proof (a kUnsat synthesis) that no chain of <= max_steps
    /// steps computes the class; it covers every cap <= max_steps.
    /// In-memory only, never persisted.
    void record_wide_failure(int num_inputs, std::uint64_t canonical, int max_steps);

    [[nodiscard]] ExactCacheStats stats() const;

private:
    ExactSynthesisCache() = default;

    /// Index of the per-input-count maps; false outside 4..6.
    static bool slot_of(int num_inputs, std::size_t* slot);

    /// Classes are few (at most 222 four-input ones plus the 5-6-input
    /// classes a run meets), so one mutex over the per-n maps suffices.
    mutable std::mutex mutex_;
    std::array<std::unordered_map<std::uint64_t, std::shared_ptr<const WideStructure>>, 3>
        map_;
    /// Per class, the largest step cap proven chain-free.
    std::array<std::unordered_map<std::uint64_t, int>, 3> failures_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bdsmaj::decomp
