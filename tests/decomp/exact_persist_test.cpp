// Disk persistence of the exact-synthesis class cache
// (ExactSynthesisCache::save_to_file / load_from_file): deterministic
// (input count, canonical)-sorted bytes, atomic write-then-rename, and a
// load path that is tolerant of garbage (missing file, bad magic, wrong
// or older version, truncation) and — critically — re-validates every
// entry semantically, so a corrupted file can never poison synthesis
// results. Covers the version-3 layout: one list of 4-, 5- and 6-input
// programs. Each test clears the process-wide cache first: none depends
// on test order.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "decomp/exact.hpp"
#include "decomp/exact_sat.hpp"
#include "tt/npn.hpp"

namespace bdsmaj::decomp {
namespace {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(static_cast<bool>(out)) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void put_u16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void put_u32(std::string& out, std::uint32_t v) {
    put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
    put_u16(out, static_cast<std::uint16_t>(v >> 16));
}

void put_u64(std::string& out, std::uint64_t v) {
    put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
    put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Serialize a wide structure exactly as save_to_file lays it out:
/// u8 num_inputs, u64 canonical, u16 gate count, gates as (op, a, b, c)
/// with each ref an (index, complemented) byte pair, then the output ref.
void append_wide_structure(std::string& out, const WideStructure& s) {
    out.push_back(static_cast<char>(s.num_inputs));
    put_u64(out, s.canonical);
    put_u16(out, static_cast<std::uint16_t>(s.gates.size()));
    for (const WideGate& g : s.gates) {
        out.push_back(static_cast<char>(g.op));
        for (const WideRef r : {g.a, g.b, g.c}) {
            out.push_back(static_cast<char>(r.index));
            out.push_back(static_cast<char>(r.complemented ? 1 : 0));
        }
    }
    out.push_back(static_cast<char>(s.output.index));
    out.push_back(static_cast<char>(s.output.complemented ? 1 : 0));
}

/// 5-input wide program: g0 = AND(x0, x1), g1 = MAJ(g0, x2, x3).
WideStructure wide_maj_of_and() {
    WideStructure s;
    s.num_inputs = 5;
    WideGate g0;
    g0.op = ExactOp::kAnd;
    g0.a = WideRef::input(0, false);
    g0.b = WideRef::input(1, false);
    WideGate g1;
    g1.op = ExactOp::kMaj;
    g1.a = WideRef::gate(0, false);
    g1.b = WideRef::input(2, false);
    g1.c = WideRef::input(3, false);
    s.gates = {g0, g1};
    s.output = WideRef::gate(1, false);
    s.canonical = s.eval_tt();
    return s;
}

/// 6-input wide program: a single XOR(x4, x5).
WideStructure wide_xor_top() {
    WideStructure s;
    s.num_inputs = 6;
    WideGate g;
    g.op = ExactOp::kXor;
    g.a = WideRef::input(4, false);
    g.b = WideRef::input(5, false);
    s.gates = {g};
    s.output = WideRef::gate(0, false);
    s.canonical = s.eval_tt();
    return s;
}

/// 4-input program: a single AND(x0, x1).
WideStructure four_and() {
    WideStructure s;
    s.num_inputs = 4;
    WideGate g;
    g.op = ExactOp::kAnd;
    g.a = WideRef::input(0, false);
    g.b = WideRef::input(1, false);
    s.gates = {g};
    s.output = WideRef::gate(0, false);
    s.canonical = s.eval_tt();
    return s;
}

/// 4-input zero-gate program: the literal x0.
WideStructure four_literal() {
    WideStructure s;
    s.num_inputs = 4;
    s.output = WideRef::input(0, false);
    s.canonical = s.eval_tt();
    return s;
}

/// A version-3 file holding `entries` in the given order.
std::string file_of(const std::vector<WideStructure>& entries) {
    std::string bytes("BMXC");
    put_u32(bytes, 3);  // version
    put_u32(bytes, static_cast<std::uint32_t>(entries.size()));
    for (const WideStructure& s : entries) append_wide_structure(bytes, s);
    return bytes;
}

/// Every test starts from the cache state of a fresh process, so the
/// suite passes the same in one process as one test per process.
class ExactPersist : public ::testing::Test {
protected:
    void SetUp() override { ExactSynthesisCache::instance().clear(); }
};

TEST_F(ExactPersist, SaveIsDeterministicAndAtomic) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    // Publish a handful of four-input classes in non-canonical order.
    for (const std::uint16_t f : {0x6996, 0x8888, 0x1ee1, 0x0001, 0xcafe}) {
        const ExactSatResult res = exact_sat_synthesize(tt::npn_canonical(f), 4);
        ASSERT_EQ(res.status, ExactSatStatus::kFound);
        ASSERT_NE(cache.insert_wide(res.structure), nullptr);
    }
    const int classes = cache.stats().classes_cached;
    ASSERT_GT(classes, 0);

    const std::string p1 = testing::TempDir() + "exact_persist_a.bin";
    const std::string p2 = testing::TempDir() + "exact_persist_b.bin";
    EXPECT_EQ(cache.save_to_file(p1), classes);
    EXPECT_EQ(cache.save_to_file(p2), classes);
    // Canonical-sorted serialization: byte-identical for the same set.
    EXPECT_EQ(read_file(p1), read_file(p2));
    // Atomic rename leaves no temp file behind.
    std::ifstream tmp(p1 + ".tmp", std::ios::binary);
    EXPECT_FALSE(static_cast<bool>(tmp));

    // Reloading into the same process inserts nothing (first insert wins,
    // every class is already cached) and changes no count.
    EXPECT_EQ(cache.load_from_file(p1), 0);
    EXPECT_EQ(cache.stats().classes_cached, classes);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST_F(ExactPersist, LoadPrewarmsAndLookupReportsHit) {
    // A crafted file prewarms a four-input class that was never
    // synthesized here; lookup then hits.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const WideStructure literal = four_literal();
    const std::string path = testing::TempDir() + "exact_persist_warm.bin";
    write_file(path, file_of({literal}));
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().classes_cached, 1);
    // Loading again: first insert wins.
    EXPECT_EQ(cache.load_from_file(path), 0);

    const auto s = cache.lookup_wide(4, literal.canonical);
    ASSERT_NE(s, nullptr) << "pre-warmed class should hit, not re-synthesize";
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(s->gate_count(), 0);
    EXPECT_EQ(s->eval_tt(), literal.canonical);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, GarbageFilesLoadNothing) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::string path = testing::TempDir() + "exact_persist_garbage.bin";

    // Missing file.
    std::remove(path.c_str());
    EXPECT_EQ(cache.load_from_file(path), 0);

    // Bad magic, and a file shorter than the magic.
    write_file(path, "NOPE\x03\x00\x00\x00\x00\x00\x00\x00");
    EXPECT_EQ(cache.load_from_file(path), 0);
    write_file(path, "BM");
    EXPECT_EQ(cache.load_from_file(path), 0);

    // Unknown version.
    {
        std::string bytes("BMXC");
        put_u32(bytes, 99);
        put_u32(bytes, 0);
        write_file(path, bytes);
        EXPECT_EQ(cache.load_from_file(path), 0);
    }

    // Truncated mid-entry: header promises one entry, payload ends early.
    {
        std::string bytes("BMXC");
        put_u32(bytes, 3);
        put_u32(bytes, 1);
        bytes.push_back(4);  // num_inputs, then nothing else
        write_file(path, bytes);
        EXPECT_EQ(cache.load_from_file(path), 0);
    }
    EXPECT_EQ(cache.stats().classes_cached, 0);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, SemanticallyCorruptEntriesAreSkipped) {
    // A well-framed entry whose program does NOT compute its claimed
    // class: claim the parity class but supply a bare literal. The
    // eval_tt() re-validation must reject it.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::uint16_t parity = tt::npn_canonical(0x6996);
    WideStructure lying = four_literal();
    ASSERT_NE(parity, lying.canonical);
    lying.canonical = parity;
    const std::string path = testing::TempDir() + "exact_persist_corrupt.bin";
    write_file(path, file_of({lying}));
    EXPECT_EQ(cache.load_from_file(path), 0) << "lying entry must be skipped";

    // Structurally invalid too: an output ref into a nonexistent gate.
    WideStructure dangling = four_literal();
    dangling.output = WideRef::gate(1, false);
    write_file(path, file_of({dangling}));
    EXPECT_EQ(cache.load_from_file(path), 0);

    EXPECT_EQ(cache.stats().classes_cached, 0);
    EXPECT_EQ(cache.lookup_wide(4, parity), nullptr);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, WideEntriesRoundTripThroughDisk) {
    // Hand-craft a version-3 file with one entry per input count, load it
    // cold, and prove lookup_wide serves each. Then save: the writer must
    // reproduce the crafted bytes exactly (the format is canonical — same
    // class set, same bytes), which pins the full load→save round trip.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::vector<WideStructure> entries = {four_and(), wide_maj_of_and(),
                                                wide_xor_top()};
    const std::string bytes = file_of(entries);

    const std::string path = testing::TempDir() + "exact_persist_wide.bin";
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 3);
    EXPECT_EQ(cache.stats().classes_cached, 3);

    for (const WideStructure& w : entries) {
        const auto s = cache.lookup_wide(w.num_inputs, w.canonical);
        ASSERT_NE(s, nullptr) << int{w.num_inputs};
        EXPECT_EQ(s->num_inputs, w.num_inputs);
        EXPECT_EQ(s->gate_count(), w.gate_count());
        EXPECT_EQ(s->eval_tt(), w.canonical);
    }
    // Classes are keyed per input count: the 6-input map does not hold
    // the 5-input class.
    EXPECT_EQ(cache.lookup_wide(6, wide_maj_of_and().canonical), nullptr);

    // First insert wins: reloading the same file inserts nothing.
    EXPECT_EQ(cache.load_from_file(path), 0);

    const std::string out = testing::TempDir() + "exact_persist_wide_out.bin";
    EXPECT_EQ(cache.save_to_file(out), 3);
    EXPECT_EQ(read_file(out), bytes);
    std::remove(path.c_str());
    std::remove(out.c_str());
}

TEST_F(ExactPersist, WideSaveIsSortedDeterministicAndSkipsFailures) {
    // Insert in deliberately unsorted order (6-input first); the saver
    // must write (num_inputs, canonical)-sorted bytes. Negative entries
    // (failure records) are in-memory only and must leave no trace.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const WideStructure six = wide_xor_top();
    const WideStructure five = wide_maj_of_and();
    const WideStructure four = four_and();
    ASSERT_NE(cache.insert_wide(std::make_shared<WideStructure>(six)), nullptr);
    ASSERT_NE(cache.insert_wide(std::make_shared<WideStructure>(five)), nullptr);
    ASSERT_NE(cache.insert_wide(std::make_shared<WideStructure>(four)), nullptr);

    // First insert wins: publishing a different program for an already
    // cached class returns the original copy.
    WideStructure rival = five;
    rival.gates.push_back(rival.gates.back());  // same function, one dead gate
    const auto kept = cache.insert_wide(std::make_shared<WideStructure>(rival));
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->gate_count(), five.gate_count());

    cache.record_wide_failure(5, 0x123456789ULL & 0xffffffffULL, 8);
    cache.record_wide_failure(4, 0x1ee1, 2);
    ASSERT_EQ(cache.stats().failures_recorded, 2);

    const std::string expected = file_of({four, five, six});
    const std::string p1 = testing::TempDir() + "exact_persist_wide_s1.bin";
    const std::string p2 = testing::TempDir() + "exact_persist_wide_s2.bin";
    EXPECT_EQ(cache.save_to_file(p1), 3);
    EXPECT_EQ(cache.save_to_file(p2), 3);
    EXPECT_EQ(read_file(p1), expected);
    EXPECT_EQ(read_file(p1), read_file(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST_F(ExactPersist, CorruptWideEntriesAreSkippedNarrowStillLoads) {
    // A file whose four-input entry is healthy but whose wider entries
    // are a parade of well-framed lies. Every lie must be rejected —
    // semantically (claims a class its program does not compute) or
    // structurally — while the healthy entry loads fine.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::vector<WideStructure> entries = {four_and()};
    // (1) Lying canonical: program computes c, entry claims c ^ 1.
    entries.push_back(wide_maj_of_and());
    entries.back().canonical ^= 1;
    // (2) Bad input counts: 7 is too wide, 3 too narrow.
    entries.push_back(wide_maj_of_and());
    entries.back().num_inputs = 7;
    entries.push_back(four_and());
    entries.back().num_inputs = 3;
    // (3) Forward gate reference: gate 0 reading gate 0's own output.
    entries.push_back(wide_xor_top());
    entries.back().gates[0].a = WideRef::gate(0, false);
    // (4) Canonical with bits above the 2^5-bit mask for a 5-input class.
    entries.push_back(wide_maj_of_and());
    entries.back().canonical |= 1ULL << 40;
    // (5) An input ref beyond the class's input count.
    entries.push_back(four_and());
    entries.back().gates[0].b = WideRef::input(4, false);

    const std::string path = testing::TempDir() + "exact_persist_wide_bad.bin";
    write_file(path, file_of(entries));
    EXPECT_EQ(cache.load_from_file(path), 1) << "the healthy entry only";
    EXPECT_EQ(cache.stats().classes_cached, 1);
    EXPECT_EQ(cache.lookup_wide(5, wide_maj_of_and().canonical), nullptr);

    const auto four = cache.lookup_wide(4, four_and().canonical);
    ASSERT_NE(four, nullptr);
    EXPECT_EQ(four->eval_tt(), four_and().canonical);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, TruncatedWideSectionKeepsNarrowEntries) {
    // Truncation is not contagious: the entries that parsed before the
    // cut still load.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::string path = testing::TempDir() + "exact_persist_wide_trunc.bin";

    // The count promises two entries; the second stops mid-header.
    std::string bytes("BMXC");
    put_u32(bytes, 3);
    put_u32(bytes, 2);
    append_wide_structure(bytes, four_and());
    bytes.push_back(5);  // num_inputs, then nothing
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().classes_cached, 1);
    EXPECT_NE(cache.lookup_wide(4, four_and().canonical), nullptr);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, TruncationSweepNeverCrashesOrLies) {
    // Torn-file drill: every prefix of a valid file must load without
    // crashing, and anything it does accept must be semantically valid
    // (the zero-trust re-validation).
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::vector<WideStructure> entries = {four_and(), wide_maj_of_and(),
                                                wide_xor_top()};
    const std::string bytes = file_of(entries);

    const std::string path = testing::TempDir() + "exact_persist_cut.bin";
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        write_file(path, bytes.substr(0, n));
        const int loaded = cache.load_from_file(path);
        EXPECT_GE(loaded, 0) << "cut at " << n;
        EXPECT_LE(loaded, 3) << "cut at " << n;
    }
    // The full file loaded last, so every entry is in; anything served
    // must compute its class.
    for (const WideStructure& w : entries) {
        const auto s = cache.lookup_wide(w.num_inputs, w.canonical);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->eval_tt(), w.canonical);
    }
    std::remove(path.c_str());
}

TEST_F(ExactPersist, BitFlipSweepNeverServesWrongProgram) {
    // Corruption drill: flip every bit of a valid file, one at a time, and
    // load each mutant. No mutant may crash the loader, and no mutant may
    // plant a program that does not compute the class it is filed under —
    // a wrong cached program would silently corrupt every later synthesis
    // that hits it, the one unrecoverable failure mode.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::vector<WideStructure> entries = {four_and(), wide_maj_of_and(),
                                                wide_xor_top()};
    const std::string bytes = file_of(entries);

    const std::string path = testing::TempDir() + "exact_persist_flip.bin";
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = bytes;
            mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
            write_file(path, mutant);
            (void)cache.load_from_file(path);
        }
    }
    // A flipped canonical and a flipped program can never agree (the
    // loader re-evaluates), so every class now cached must be honest.
    for (int n = 4; n <= 6; ++n) {
        for (const WideStructure& w : entries) {
            if (const auto s = cache.lookup_wide(n, w.canonical)) {
                EXPECT_EQ(s->num_inputs, n);
                EXPECT_EQ(s->eval_tt(), w.canonical);
            }
        }
    }
    std::remove(path.c_str());
}

TEST_F(ExactPersist, OlderVersionsLoadNothing) {
    // Versions 1 and 2 kept a separate 16-bit section for <= 4 inputs;
    // they are unknown versions now, and nothing in them is interpreted.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const WideStructure literal = four_literal();
    std::string v1("BMXC");
    put_u32(v1, 1);  // version
    put_u32(v1, 1);  // narrow count
    put_u16(v1, static_cast<std::uint16_t>(literal.canonical));
    put_u16(v1, 0);  // gate count
    v1.push_back(0);  // output: input 0, uncomplemented
    v1.push_back(0);
    std::string v2 = v1;
    v2[4] = 2;
    put_u32(v2, 1);  // wide count
    append_wide_structure(v2, wide_maj_of_and());

    const std::string path = testing::TempDir() + "exact_persist_old.bin";
    for (const std::string& bytes : {v1, v2}) {
        write_file(path, bytes);
        EXPECT_EQ(cache.load_from_file(path), 0);
    }
    EXPECT_EQ(cache.stats().classes_cached, 0);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace bdsmaj::decomp
