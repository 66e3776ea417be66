// The rewriter's process-wide compiled-cut store: golden resyn2
// structure, concurrent runs against the shared store, and the store's
// own contract. The golden hashes were taken from the rewriter before its
// compiled programs became process-wide; every later speedup of
// aig::rewrite must reproduce them bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aig/convert.hpp"
#include "aig/opt.hpp"
#include "benchgen/suite.hpp"
#include "network/cleanup.hpp"
#include "tt/truth_table.hpp"

namespace bdsmaj::aig {
namespace {

/// FNV-1a over the whole AIG: input count, every node's fanins in id
/// order, and the outputs. Equal hashes mean the same node numbering.
std::uint64_t structural_hash(const Aig& aig) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
        }
    };
    mix(aig.input_count());
    mix(aig.node_count());
    for (NodeId n = 0; n < aig.node_count(); ++n) {
        mix(aig.fanin0(n));
        mix(aig.fanin1(n));
    }
    for (const Lit po : aig.outputs()) mix(po);
    return h;
}

struct Golden {
    const char* circuit;  // quick-suite row label
    std::size_t ands;
    std::uint64_t hash;
};

constexpr Golden kGolden[] = {
    {"alu2", 67, 0x919f49b09cdd2ce6ULL},
    {"C6288", 576, 0x4c1d9dac7c25fecaULL},
    {"dalu", 376, 0xf8158ec2dc2c24f3ULL},
    {"Wallace 16 bit", 595, 0xd258c62ff456c377ULL},
    {"Div 18 bit", 737, 0x911d2e7b04d35a7fULL},
    {"MAC 16 bit", 774, 0xa15ea7efdcda1aa0ULL},
};

/// The ABC flow's input to resyn2.
Aig comparator_input(const char* circuit) {
    return network_to_aig(net::cleanup(benchgen::benchmark_by_name(circuit, true)));
}

TEST(Resyn2Golden, QuickSuiteStructureIsPinned) {
    for (const Golden& g : kGolden) {
        const Aig optimized = resyn2(comparator_input(g.circuit));
        EXPECT_EQ(optimized.and_count(), g.ands) << g.circuit;
        EXPECT_EQ(structural_hash(optimized), g.hash)
            << g.circuit << ": 0x" << std::hex << structural_hash(optimized);
    }
}

TEST(Resyn2Concurrent, FourThreadsMatchSerial) {
    constexpr std::size_t kCircuits = std::size(kGolden);
    std::vector<Aig> inputs;
    std::vector<std::uint64_t> serial;
    for (const Golden& g : kGolden) {
        inputs.push_back(comparator_input(g.circuit));
        serial.push_back(structural_hash(resyn2(inputs.back())));
    }
    // Each thread walks the circuits from a different start, so distinct
    // cut functions are first compiled on different threads.
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::uint64_t>> got(kThreads,
                                                std::vector<std::uint64_t>(kCircuits));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t k = 0; k < kCircuits; ++k) {
                const std::size_t i = (k + t) % kCircuits;
                got[t][i] = structural_hash(resyn2(inputs[i]));
            }
        });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kCircuits; ++i) {
            EXPECT_EQ(got[t][i], serial[i]) << "thread " << t << ", " << kGolden[i].circuit;
        }
    }
}

// ---- the store's contract ---------------------------------------------------

using detail::CompiledCutStore;
using detail::CutTable;
using detail::PackedProgram;

CutTable random_cut_table(int n, std::mt19937_64& rng) {
    const std::vector<std::uint64_t> w = tt::TruthTable::random(n, rng).words();
    CutTable out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = w[i % w.size()];
    return out;
}

CutTable var_table(int v) {
    CutTable t{};
    for (unsigned m = 0; m < 256; ++m) {
        if ((m >> v) & 1) t[m >> 6] |= std::uint64_t{1} << (m & 63);
    }
    return t;
}

/// The function a packed program computes over its leaves.
CutTable evaluate(const PackedProgram& p) {
    std::vector<CutTable> frame(PackedProgram::kFirstStepCode + p.size);
    frame[1] = CutTable{~0ULL, ~0ULL, ~0ULL, ~0ULL};
    for (int v = 0; v < 8; ++v) {
        frame[2 + 2 * v] = var_table(v);
        for (std::size_t w = 0; w < 4; ++w) frame[3 + 2 * v][w] = ~frame[2 + 2 * v][w];
    }
    for (std::uint32_t k = 0; k < p.size; ++k) {
        const PackedProgram::Step s = p.step(k);
        CutTable& out = frame[PackedProgram::kFirstStepCode + k];
        for (std::size_t w = 0; w < 4; ++w) {
            out[w] = s.is_or ? frame[s.a][w] | frame[s.b][w] : frame[s.a][w] & frame[s.b][w];
        }
    }
    return frame[p.result];
}

TEST(CompiledCutStore, ProgramsComputeTheirFunctions) {
    CompiledCutStore store(std::size_t{16} << 20);
    std::vector<std::uint16_t> spill;
    std::mt19937_64 rng(2024);
    bool narrow = false;
    bool wide = false;
    for (int n = 2; n <= 8; ++n) {
        for (int i = 0; i < 200; ++i) {
            const CutTable f = random_cut_table(n, rng);
            const PackedProgram p = store.get(f, n, spill);
            ASSERT_TRUE(p.stored);
            ASSERT_EQ(evaluate(p), f) << "n=" << n << " #" << i;
            (p.wide ? wide : narrow) = true;
        }
    }
    EXPECT_TRUE(narrow && wide) << "both step widths are exercised";
}

TEST(CompiledCutStore, CompilesEachKeyOnce) {
    CompiledCutStore store(std::size_t{1} << 20);
    std::vector<std::uint16_t> spill;
    std::mt19937_64 rng(7);
    const CutTable f = random_cut_table(6, rng);
    const PackedProgram first = store.get(f, 6, spill);
    const PackedProgram again = store.get(f, 6, spill);
    EXPECT_EQ(first.steps, again.steps) << "the stored copy is served";
    // The same table over more leaves is another key.
    const PackedProgram wider = store.get(f, 7, spill);
    EXPECT_NE(wider.steps, first.steps);
    const detail::CompiledCutStoreStats st = store.stats();
    EXPECT_EQ(st.lookups, 3u);
    EXPECT_EQ(st.compiles, 2u);
    EXPECT_EQ(st.entries, 2u);
    EXPECT_EQ(st.refused, 0u);
    EXPECT_GT(st.bytes, 0u);
}

TEST(CompiledCutStore, FullStoreSpillsAndRewritesIdentically) {
    // A store without budget keeps nothing: every program is compiled into
    // the spill buffer, and the winning one must outlive later compiles.
    for (const char* circuit : {"alu2", "C6288"}) {
        const Aig in = comparator_input(circuit);
        for (const int k : {4, 8}) {
            const RewriteParams params{k, 3, false};
            CompiledCutStore empty(0);
            CompiledCutStore roomy(std::size_t{64} << 20);
            const Aig spilled = detail::rewrite_with_store(in, params, empty);
            const Aig stored = detail::rewrite_with_store(in, params, roomy);
            EXPECT_EQ(structural_hash(spilled), structural_hash(stored)) << circuit << " k=" << k;
            const detail::CompiledCutStoreStats st = empty.stats();
            EXPECT_EQ(st.entries, 0u);
            EXPECT_EQ(st.bytes, 0u);
            EXPECT_EQ(st.refused, st.compiles);
            EXPECT_EQ(st.compiles, st.lookups);
            EXPECT_EQ(roomy.stats().refused, 0u);
        }
    }
}

}  // namespace
}  // namespace bdsmaj::aig
