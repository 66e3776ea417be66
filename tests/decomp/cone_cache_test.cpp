// The cone memoization contract (decomp/cone_cache.hpp): caching NEVER
// changes a result. Cache-on runs are byte-identical to cache-off runs at
// any job count, warm runs are byte-identical to cold runs, eviction under
// a tiny budget degrades performance only, and a simulation-hash collision
// between different cones can never alias their tapes (equality always
// compares the full canonical form). Plus the canonical-folding guarantee:
// cones that provably drive the BDD manager through the identical call
// sequence (NAND vs NOT-of-AND, OR vs De Morgan AND, swapped commutative
// operands) share one cache entry.

#include "decomp/cone_cache.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/flow.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "network/gate_tape.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::decomp {
namespace {

using net::Network;

std::uint64_t simulation_signature(const Network& net) {
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](std::uint64_t w) {
        for (int b = 0; b < 8; ++b) {
            hash ^= (w >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    std::uint64_t state = 0x5eed5eed5eed5eedull;
    const auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int round = 0; round < 4; ++round) {
        std::vector<std::uint64_t> pi(net.inputs().size());
        for (auto& w : pi) w = next();
        for (const std::uint64_t w : net::simulate_words(net, pi)) mix(w);
    }
    return hash;
}

struct Fingerprint {
    std::string blif;
    int total_gates = 0;
    int maj_gates = 0;
    std::uint64_t signature = 0;

    bool operator==(const Fingerprint&) const = default;
};

struct FlowRun {
    Fingerprint fp;
    EngineStats stats;
};

FlowRun run_flow(const Network& input, bool cone_cache, int jobs,
             const std::string& preset = "paper") {
    DecompFlowParams params;
    params.engine.preset = preset;
    params.cone_cache = cone_cache;
    params.jobs = jobs;
    const DecompFlowResult r = decompose_network(input, params);
    const net::NetworkStats s = r.network.stats();
    return FlowRun{Fingerprint{net::write_blif(r.network), s.total(), s.maj_nodes,
                           simulation_signature(r.network)},
               r.engine_stats};
}

TEST(ConeCache, CacheOnEqualsCacheOffAcrossMcncSuite) {
    // The headline guarantee over the whole MCNC quick suite: with the
    // cache cold, warm, or disabled the emitted network is byte-identical.
    ConeCache::instance().clear();
    for (const benchgen::BenchmarkCase& bc : benchgen::table_suite(/*quick=*/true)) {
        if (!bc.is_mcnc) continue;
        const FlowRun off = run_flow(bc.network, /*cone_cache=*/false, 1);
        const FlowRun cold = run_flow(bc.network, /*cone_cache=*/true, 1);
        const FlowRun warm = run_flow(bc.network, /*cone_cache=*/true, 1);
        ASSERT_EQ(off.fp.blif, cold.fp.blif) << bc.name << ": cold drifted";
        ASSERT_EQ(off.fp.blif, warm.fp.blif) << bc.name << ": warm drifted";
        EXPECT_EQ(off.fp, cold.fp) << bc.name;
        EXPECT_EQ(off.fp, warm.fp) << bc.name;
        // Telemetry sanity: the cold run misses at least once, the warm
        // run's supernodes are all hits.
        EXPECT_GT(cold.stats.cone_cache_misses, 0) << bc.name;
        EXPECT_EQ(warm.stats.cone_cache_misses, 0) << bc.name;
        EXPECT_GT(warm.stats.cone_cache_hits, 0) << bc.name;
        // A hit replays the cold run's engine stats verbatim.
        EXPECT_EQ(cold.stats.total_steps(), warm.stats.total_steps()) << bc.name;
        EXPECT_EQ(cold.stats.sift_swaps, warm.stats.sift_swaps) << bc.name;
    }
}

TEST(ConeCache, ByteIdenticalAtAnyJobCountOnAndOff) {
    // jobs x cache matrix on the most self-similar circuits: every cell
    // must produce the same bytes.
    for (const char* name : {"C6288", "dalu"}) {
        const Network input = benchgen::benchmark_by_name(name, /*quick=*/true);
        ConeCache::instance().clear();
        const Fingerprint baseline = run_flow(input, /*cone_cache=*/false, 1).fp;
        for (const bool cached : {false, true}) {
            for (const int jobs : {1, 4}) {
                ConeCache::instance().clear();
                const FlowRun r = run_flow(input, cached, jobs);
                ASSERT_EQ(baseline.blif, r.fp.blif)
                    << name << " cache=" << cached << " jobs=" << jobs;
                EXPECT_EQ(baseline, r.fp)
                    << name << " cache=" << cached << " jobs=" << jobs;
            }
        }
        // And once more WITHOUT clearing: fully warm at jobs=4.
        const FlowRun warm = run_flow(input, /*cone_cache=*/true, 4);
        ASSERT_EQ(baseline.blif, warm.fp.blif) << name << " warm jobs=4";
        EXPECT_EQ(warm.stats.cone_cache_misses, 0) << name;
    }
}

TEST(ConeCache, IntraCircuitSelfSimilarityHitsOnC6288) {
    // C6288 (quick: arraymult8) is an array multiplier — hundreds of
    // full-adder cones with identical canonical forms. Even a cold run
    // must serve most supernodes from the cache.
    ConeCache::instance().clear();
    const Network input = benchgen::benchmark_by_name("C6288", /*quick=*/true);
    const FlowRun cold = run_flow(input, /*cone_cache=*/true, 1);
    EXPECT_GT(cold.stats.cone_cache_hits, cold.stats.cone_cache_misses)
        << "an array multiplier should be dominated by repeated cones";
}

TEST(ConeCache, EvictionUnderTinyBudgetNeverChangesResults) {
    const Network input = benchgen::benchmark_by_name("dalu", /*quick=*/true);
    ConeCache& cache = ConeCache::instance();
    cache.clear();
    const Fingerprint baseline = run_flow(input, /*cone_cache=*/false, 1).fp;

    const std::size_t old_budget = cache.budget_bytes();
    cache.set_budget_bytes(4 << 10);  // 4 KiB: a handful of tapes at most
    cache.clear();
    const FlowRun squeezed = run_flow(input, /*cone_cache=*/true, 1);
    const ConeCacheStats cs = cache.stats();
    cache.set_budget_bytes(old_budget);
    cache.clear();

    ASSERT_EQ(baseline.blif, squeezed.fp.blif);
    EXPECT_GT(squeezed.stats.cone_cache_evictions, 0)
        << "a 4 KiB budget must evict on this circuit";
    EXPECT_LE(cs.bytes, static_cast<long long>(4 << 10))
        << "footprint must respect the budget";
}

TEST(ConeCache, WarmCacheAcrossServiceJobsIsDeterministicAndCounted) {
    // Two identical jobs through the SynthesisService: the second rides
    // the cache warmed by the first (process-wide, across jobs) and must
    // return byte-identical networks.
    ConeCache::instance().clear();
    const Network input = benchgen::benchmark_by_name("C6288", /*quick=*/true);
    flows::SynthesisService service;
    flows::SynthesisJobParams jp;
    jp.flow = "bdsmaj";
    jp.jobs = 2;
    jp.verify = false;
    auto first = service.submit(input, jp);
    const flows::FlowResult r1 = first.result.get();
    auto second = service.submit(input, jp);
    const flows::FlowResult r2 = second.result.get();

    ASSERT_EQ(r1.status, flows::JobStatus::kCompleted);
    ASSERT_EQ(r2.status, flows::JobStatus::kCompleted);
    const flows::SynthesisResult& s1 = r1.results.at(0).at(0);
    const flows::SynthesisResult& s2 = r2.results.at(0).at(0);
    EXPECT_EQ(net::write_blif(s1.optimized), net::write_blif(s2.optimized));
    EXPECT_EQ(s1.mapped.gate_count, s2.mapped.gate_count);
    EXPECT_GT(s1.engine_stats.cone_cache_misses, 0);
    EXPECT_EQ(s2.engine_stats.cone_cache_misses, 0)
        << "the second job must be served entirely from the warm cache";
    const flows::ServiceStats st = service.stats();
    EXPECT_GT(st.cone_cache_hits, 0);
    EXPECT_GT(st.cone_cache_entries, 0);
    EXPECT_GT(st.cone_cache_bytes, 0);
}

// ---------------------------------------------------------------------------
// Canonical-key unit tests on hand-built supernodes.
// ---------------------------------------------------------------------------

/// Supernode over every internal node of `net` (single output), leaves =
/// primary inputs in order. The networks built below are single-cone by
/// construction.
Supernode whole_network_supernode(const Network& net) {
    Supernode sn;
    sn.leaves.assign(net.inputs().begin(), net.inputs().end());
    std::set<net::NodeId> leaf_set(sn.leaves.begin(), sn.leaves.end());
    for (net::NodeId id = 0; id < static_cast<net::NodeId>(net.node_count()); ++id) {
        if (leaf_set.count(id) == 0) sn.cone.push_back(id);
    }
    sn.root = net.outputs().front().driver;
    return sn;
}

std::string test_config() {
    return cone_cache_config_blob(EngineParams{}, bdd::ManagerParams{}, true);
}

TEST(ConeCache, PolarityFoldingUnifiesEquivalentCallSequences) {
    ConeKeyBuilder keys;
    const std::string config = test_config();

    // NAND(a, b) vs NOT(AND(a, b)): identical manager calls, one key.
    Network nand_net("nand");
    {
        const auto a = nand_net.add_input("a"), b = nand_net.add_input("b");
        nand_net.add_output("o", nand_net.add_gate(net::GateKind::kNand, {a, b}));
    }
    Network not_and_net("not_and");
    {
        const auto a = not_and_net.add_input("a"), b = not_and_net.add_input("b");
        not_and_net.add_output("o", not_and_net.add_not(not_and_net.add_and(a, b)));
    }
    const ConeKey k1 = keys.build(nand_net, whole_network_supernode(nand_net), config);
    const ConeKey k2 = keys.build(not_and_net, whole_network_supernode(not_and_net), config);
    EXPECT_EQ(k1.canonical, k2.canonical);
    EXPECT_EQ(k1.sim_hash, k2.sim_hash);

    // OR(a, b) vs NOT(AND(NOT a, NOT b)): the apply_or implementation.
    Network or_net("or");
    {
        const auto a = or_net.add_input("a"), b = or_net.add_input("b");
        or_net.add_output("o", or_net.add_or(a, b));
    }
    Network demorgan("demorgan");
    {
        const auto a = demorgan.add_input("a"), b = demorgan.add_input("b");
        demorgan.add_output(
            "o", demorgan.add_not(demorgan.add_and(demorgan.add_not(a),
                                                   demorgan.add_not(b))));
    }
    const ConeKey k3 = keys.build(or_net, whole_network_supernode(or_net), config);
    const ConeKey k4 = keys.build(demorgan, whole_network_supernode(demorgan), config);
    EXPECT_EQ(k3.canonical, k4.canonical);

    // Commutative operand order folds away: AND(a, b) == AND(b, a).
    Network ab("ab"), ba("ba");
    {
        const auto a = ab.add_input("a"), b = ab.add_input("b");
        ab.add_output("o", ab.add_and(a, b));
    }
    {
        const auto a = ba.add_input("a"), b = ba.add_input("b");
        ba.add_output("o", ba.add_and(b, a));
    }
    const ConeKey k5 = keys.build(ab, whole_network_supernode(ab), config);
    const ConeKey k6 = keys.build(ba, whole_network_supernode(ba), config);
    EXPECT_EQ(k5.canonical, k6.canonical);

    // But AND and NAND stay distinct (output polarity is in the key).
    EXPECT_NE(k1.canonical, k5.canonical);
    // And a different config blob keys a different entry.
    EngineParams other;
    other.preset = "exact-aggressive";
    const ConeKey k7 = keys.build(ab, whole_network_supernode(ab),
                                  cone_cache_config_blob(other, bdd::ManagerParams{}, true));
    EXPECT_NE(k5.canonical, k7.canonical);
}

TEST(ConeCache, ConfigBlobCoversEveryKnob) {
    // Every knob an emitted tape can depend on must move the config blob,
    // or two configurations would silently share cached tapes. The
    // structured bindings name every field of the parameter structs, so a
    // new field stops this test from compiling until it joins the list.
    [[maybe_unused]] const auto& [use_majority, maj, preset,
                                  exact_max_support] = EngineParams{};
    [[maybe_unused]] const auto& [max_candidates, max_iterations, k_local, k_global,
                                  min_then_fanin, min_else_fanin, use_restrict,
                                  xor_params] = MajDecompParams{};
    [[maybe_unused]] const auto& [max_var_candidates, max_growth] = XorDecompParams{};
    [[maybe_unused]] const auto& [cache_size_log2, cache_max_size_log2, gc_dead_threshold,
                                  sift_max_growth, sift_max_vars, sift_lower_bound,
                                  sift_converge, sift_converge_ratio, sift_max_passes,
                                  sift_symmetry, max_live_nodes,
                                  sift_max_swaps] = bdd::ManagerParams{};

    struct Knobs {
        EngineParams engine;
        bdd::ManagerParams manager;
        bool reorder = true;
    };
    const std::vector<std::pair<const char*, void (*)(Knobs&)>> changes = {
        {"use_majority", [](Knobs& k) { k.engine.use_majority = false; }},
        {"maj.max_candidates", [](Knobs& k) { k.engine.maj.max_candidates += 1; }},
        {"maj.max_iterations", [](Knobs& k) { k.engine.maj.max_iterations += 1; }},
        {"maj.k_local", [](Knobs& k) { k.engine.maj.k_local += 0.25; }},
        {"maj.k_global", [](Knobs& k) { k.engine.maj.k_global += 0.25; }},
        {"maj.min_then_fanin", [](Knobs& k) { k.engine.maj.min_then_fanin += 1; }},
        {"maj.min_else_fanin", [](Knobs& k) { k.engine.maj.min_else_fanin += 1; }},
        {"maj.use_restrict", [](Knobs& k) { k.engine.maj.use_restrict = false; }},
        {"maj.xor_params.max_var_candidates",
         [](Knobs& k) { k.engine.maj.xor_params.max_var_candidates += 1; }},
        {"maj.xor_params.max_growth",
         [](Knobs& k) { k.engine.maj.xor_params.max_growth += 0.5; }},
        {"preset", [](Knobs& k) { k.engine.preset = "exact-aggressive"; }},
        {"exact_max_support", [](Knobs& k) { k.engine.exact_max_support = 4; }},
        {"manager.cache_size_log2", [](Knobs& k) { k.manager.cache_size_log2 += 1; }},
        {"manager.cache_max_size_log2", [](Knobs& k) { k.manager.cache_max_size_log2 += 1; }},
        {"manager.gc_dead_threshold", [](Knobs& k) { k.manager.gc_dead_threshold += 1; }},
        {"manager.sift_max_growth", [](Knobs& k) { k.manager.sift_max_growth += 0.25; }},
        {"manager.sift_max_vars", [](Knobs& k) { k.manager.sift_max_vars += 1; }},
        {"manager.sift_lower_bound",
         [](Knobs& k) { k.manager.sift_lower_bound = !k.manager.sift_lower_bound; }},
        {"manager.sift_converge",
         [](Knobs& k) { k.manager.sift_converge = !k.manager.sift_converge; }},
        {"manager.sift_converge_ratio", [](Knobs& k) { k.manager.sift_converge_ratio *= 2; }},
        {"manager.sift_max_passes", [](Knobs& k) { k.manager.sift_max_passes += 1; }},
        {"manager.sift_symmetry",
         [](Knobs& k) { k.manager.sift_symmetry = !k.manager.sift_symmetry; }},
        {"manager.max_live_nodes", [](Knobs& k) { k.manager.max_live_nodes += 1; }},
        {"manager.sift_max_swaps", [](Knobs& k) { k.manager.sift_max_swaps += 1; }},
        {"reorder", [](Knobs& k) { k.reorder = false; }},
    };
    const Knobs defaults;
    const std::string base =
        cone_cache_config_blob(defaults.engine, defaults.manager, defaults.reorder);
    for (const auto& [name, change] : changes) {
        Knobs k;
        change(k);
        EXPECT_NE(cone_cache_config_blob(k.engine, k.manager, k.reorder), base) << name;
    }
}

TEST(ConeCache, SimHashCollisionCannotAliasEntries) {
    // Engineer a collision: over 8 leaves the stimulus set has exactly
    // 2 * 64 patterns, so at least 128 of the 256 minterms are never
    // exercised. Two cones that differ only on unexercised minterms get
    // the SAME simulation hash but must still be distinct cache entries —
    // equality compares the canonical form, not the hash.
    std::set<unsigned> seen;
    for (int r = 0; r < kConeSimRounds; ++r) {
        for (int t = 0; t < 64; ++t) {
            unsigned m = 0;
            for (std::size_t leaf = 0; leaf < 8; ++leaf) {
                m |= static_cast<unsigned>((cone_sim_word(r, leaf) >> t) & 1) << leaf;
            }
            seen.insert(m);
        }
    }
    // Two distinct absent minterms (both forced to exist by counting).
    std::vector<unsigned> absent;
    for (unsigned m = 0; m < 256 && absent.size() < 2; ++m) {
        if (seen.count(m) == 0) absent.push_back(m);
    }
    ASSERT_EQ(absent.size(), 2u);

    // f1 = x0 XOR minterm_{m0}(x),  f2 = x0 OR minterm_{m1}(x).
    // On every exercised pattern both minterms are 0, so both roots
    // simulate exactly like x0 — equal hash, different functions.
    const auto build = [](unsigned minterm, bool use_xor) {
        Network net(use_xor ? "f1" : "f2");
        std::vector<net::NodeId> xs;
        for (int i = 0; i < 8; ++i) xs.push_back(net.add_input("x" + std::to_string(i)));
        net::NodeId acc = ((minterm >> 0) & 1) ? xs[0] : net.add_not(xs[0]);
        for (int i = 1; i < 8; ++i) {
            const net::NodeId lit = ((minterm >> i) & 1) ? xs[static_cast<std::size_t>(i)]
                                                         : net.add_not(xs[static_cast<std::size_t>(i)]);
            acc = net.add_and(acc, lit);
        }
        net.add_output("o", use_xor ? net.add_xor(xs[0], acc) : net.add_or(xs[0], acc));
        return net;
    };
    const Network f1 = build(absent[0], /*use_xor=*/true);
    const Network f2 = build(absent[1], /*use_xor=*/false);

    ConeKeyBuilder keys;
    const std::string config = test_config();
    const ConeKey k1 = keys.build(f1, whole_network_supernode(f1), config);
    const ConeKey k2 = keys.build(f2, whole_network_supernode(f2), config);
    ASSERT_EQ(k1.sim_hash, k2.sim_hash) << "the engineered collision must hold";
    ASSERT_NE(k1.canonical, k2.canonical);

    // Data-structure level: inserting under k1 must not serve k2.
    ConeCache& cache = ConeCache::instance();
    cache.clear();
    auto tape = std::make_shared<net::GateTape>(8);
    cache.insert(k1, tape, EngineStats{});
    EXPECT_NE(cache.lookup(k1), nullptr);
    EXPECT_EQ(cache.lookup(k2), nullptr)
        << "hash collision aliased two different cones";

    // End to end: decomposing both with the cache on stays correct.
    cache.clear();
    for (const Network* input : {&f1, &f2}) {
        DecompFlowParams params;
        const DecompFlowResult r = decompose_network(*input, params);
        EXPECT_TRUE(net::check_equivalent(*input, r.network).equivalent)
            << input->model_name();
    }
    cache.clear();
}

TEST(ConeCache, StructurallyDistinctCanonicalEqualConesShareOneEntry) {
    // End-to-end folding check: a NAND network and its NOT(AND) rewrite
    // decompose through ONE cache entry — the second flow is all hits.
    ConeCache::instance().clear();
    Network nand_net("nand");
    {
        const auto a = nand_net.add_input("a"), b = nand_net.add_input("b");
        nand_net.add_output("o", nand_net.add_gate(net::GateKind::kNand, {a, b}));
    }
    Network not_and_net("not_and");
    {
        const auto a = not_and_net.add_input("a"), b = not_and_net.add_input("b");
        not_and_net.add_output("o", not_and_net.add_not(not_and_net.add_and(a, b)));
    }
    const FlowRun first = run_flow(nand_net, /*cone_cache=*/true, 1);
    const FlowRun second = run_flow(not_and_net, /*cone_cache=*/true, 1);
    EXPECT_GT(first.stats.cone_cache_misses, 0);
    EXPECT_EQ(second.stats.cone_cache_misses, 0)
        << "the folded cone must hit the NAND network's entry";
    EXPECT_GT(second.stats.cone_cache_hits, 0);
    // Both compute the same function; the replayed tape must too.
    EXPECT_TRUE(net::check_equivalent(nand_net, not_and_net).equivalent);
    ConeCache::instance().clear();
}

TEST(ConeCache, ZeroBudgetDisablesRetentionNotCorrectness) {
    ConeCache& cache = ConeCache::instance();
    const std::size_t old_budget = cache.budget_bytes();
    cache.set_budget_bytes(0);
    cache.clear();
    const Network input = benchgen::benchmark_by_name("f51m", /*quick=*/true);
    const FlowRun r = run_flow(input, /*cone_cache=*/true, 1);
    EXPECT_EQ(cache.stats().entries, 0) << "budget 0 must retain nothing";
    EXPECT_EQ(r.stats.cone_cache_hits, 0);
    cache.set_budget_bytes(old_budget);
    cache.clear();
    const FlowRun baseline = run_flow(input, /*cone_cache=*/false, 1);
    EXPECT_EQ(baseline.fp.blif, r.fp.blif);
    cache.clear();
}

}  // namespace
}  // namespace bdsmaj::decomp
