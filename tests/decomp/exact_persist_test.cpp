// Disk persistence of the exact-synthesis NPN structure cache
// (ExactSynthesisCache::save_to_file / load_from_file): deterministic
// canonical-sorted bytes, atomic write-then-rename, and a load path that
// is tolerant of garbage (missing file, bad magic, wrong version,
// truncation) and — critically — re-validates every entry semantically,
// so a corrupted file can never poison synthesis results. Covers both
// the narrow (<= 4-var) section and the version-2 wide (5-6 input,
// SAT-synthesized) section, plus version-1 compatibility. Each test
// clears the process-wide cache first: none depends on test order.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "decomp/exact.hpp"
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

/// Truth table of canonical-space literal x_i over 4 variables.
std::uint16_t literal_tt(int i) {
    constexpr std::uint16_t kLits[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};
    return kLits[i];
}

/// The literal NPN class: its canonical representative is itself a
/// (possibly complemented) literal. Finds which, so a valid zero-gate
/// narrow entry can be crafted for it.
std::uint16_t narrow_literal_class(std::uint8_t* out_index, bool* out_compl) {
    const std::uint16_t canonical = tt::npn_canonical(literal_tt(0));
    for (int i = 0; i < 4; ++i) {
        if (literal_tt(i) == canonical) {
            *out_index = static_cast<std::uint8_t>(i);
            *out_compl = false;
            return canonical;
        }
        if (static_cast<std::uint16_t>(~literal_tt(i)) == canonical) {
            *out_index = static_cast<std::uint8_t>(i);
            *out_compl = true;
            return canonical;
        }
    }
    ADD_FAILURE() << "literal class canonical is not a literal?";
    return canonical;
}

/// Append a valid zero-gate narrow entry for the literal class; returns
/// the class it claims (for later lookup).
std::uint16_t append_narrow_literal_entry(std::string& bytes) {
    std::uint8_t idx = 0;
    bool compl_out = false;
    const std::uint16_t canonical = narrow_literal_class(&idx, &compl_out);
    put_u16(bytes, canonical);
    put_u16(bytes, 0);  // gate count
    bytes.push_back(static_cast<char>(idx));
    bytes.push_back(static_cast<char>(compl_out ? 1 : 0));
    return canonical;
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

/// A well-formed file claiming one zero-gate entry: class `canonical`
/// computed by output ref (index, complemented).
std::string one_entry_file(std::uint16_t canonical, std::uint8_t out_index,
                           bool out_compl) {
    std::string bytes("BMXC");
    put_u32(bytes, 1);  // version
    put_u32(bytes, 1);  // count
    put_u16(bytes, canonical);
    put_u16(bytes, 0);  // gate count
    bytes.push_back(static_cast<char>(out_index));
    bytes.push_back(static_cast<char>(out_compl ? 1 : 0));
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
    // Materialize a handful of classes in non-canonical discovery order.
    for (const std::uint16_t f : {0x6996, 0x8888, 0x1ee1, 0x0001, 0xcafe}) {
        ASSERT_NE(cache.lookup(tt::npn_canonical(f)), nullptr);
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
    // every class is already materialized) and changes no count.
    EXPECT_EQ(cache.load_from_file(p1), 0);
    EXPECT_EQ(cache.stats().classes_cached, classes);
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST_F(ExactPersist, LoadPrewarmsAndLookupReportsHit) {
    // Hand-craft a valid file for the literal class — this test must not
    // materialize it first, so the load really inserts. (ctest runs each
    // test in its own process, so the singleton starts cold here.)
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::uint8_t idx = 0;
    bool compl_out = false;
    const std::uint16_t canonical = narrow_literal_class(&idx, &compl_out);

    const std::string path = testing::TempDir() + "exact_persist_warm.bin";
    write_file(path, one_entry_file(canonical, idx, compl_out));
    const int before = cache.stats().classes_cached;
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().classes_cached, before + 1);
    // Loading again: first insert wins.
    EXPECT_EQ(cache.load_from_file(path), 0);

    bool was_hit = false;
    const auto s = cache.lookup(canonical, &was_hit);
    ASSERT_NE(s, nullptr);
    EXPECT_TRUE(was_hit) << "pre-warmed class should hit, not re-enumerate";
    EXPECT_EQ(s->gate_count(), 0);
    EXPECT_EQ(s->eval_tt(), canonical);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, GarbageFilesLoadNothing) {
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::string path = testing::TempDir() + "exact_persist_garbage.bin";

    // Missing file.
    std::remove(path.c_str());
    EXPECT_EQ(cache.load_from_file(path), 0);

    // Bad magic.
    write_file(path, "NOPE\x01\x00\x00\x00\x00\x00\x00\x00");
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
        put_u32(bytes, 1);
        put_u32(bytes, 1);
        put_u16(bytes, 0x1234);  // canonical, then nothing else
        write_file(path, bytes);
        EXPECT_EQ(cache.load_from_file(path), 0);
    }
    std::remove(path.c_str());
}

TEST_F(ExactPersist, SemanticallyCorruptEntriesAreSkipped) {
    // A well-framed entry whose program does NOT compute its claimed
    // class: claim the parity class but supply a bare literal. The
    // eval_tt() re-validation must reject it — and a later lookup must
    // still produce a correct structure from enumeration.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::uint16_t parity = tt::npn_canonical(0x6996);
    ASSERT_NE(parity, literal_tt(0));
    const std::string path = testing::TempDir() + "exact_persist_corrupt.bin";
    write_file(path, one_entry_file(parity, /*out_index=*/0, /*out_compl=*/false));
    const int before = cache.stats().classes_cached;
    EXPECT_EQ(cache.load_from_file(path), 0) << "lying entry must be skipped";
    EXPECT_EQ(cache.stats().classes_cached, before);

    // Structurally invalid too: an output ref into a nonexistent gate.
    write_file(path, one_entry_file(parity, /*out_index=*/7, /*out_compl=*/false));
    EXPECT_EQ(cache.load_from_file(path), 0);

    const auto s = cache.lookup(parity);
    ASSERT_NE(s, nullptr);
    // The lying entry was a bare zero-gate literal; the genuine parity
    // structure needs real gates. Serving gates > 0 proves the rejected
    // entry never made it into the cache.
    EXPECT_GT(s->gate_count(), 0);
    EXPECT_EQ(s->eval_tt(), parity);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, WideEntriesRoundTripThroughDisk) {
    // Hand-craft a version-2 file with an empty narrow section and one
    // wide entry, load it cold, and prove lookup_wide serves it. Then
    // save: the writer must reproduce the crafted bytes exactly (the
    // format is canonical — same class set, same bytes), which pins the
    // full load→save round trip in one process.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const WideStructure wide = wide_maj_of_and();

    std::string bytes("BMXC");
    put_u32(bytes, 2);  // version
    put_u32(bytes, 0);  // narrow count
    put_u32(bytes, 1);  // wide count
    append_wide_structure(bytes, wide);

    const std::string path = testing::TempDir() + "exact_persist_wide.bin";
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().wide_classes_cached, 1);

    const auto s = cache.lookup_wide(5, wide.canonical);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->num_inputs, 5);
    EXPECT_EQ(s->gate_count(), 2);
    EXPECT_EQ(s->eval_tt(), wide.canonical);
    // Wide classes are keyed per input count: the 6-input map is empty.
    EXPECT_EQ(cache.lookup_wide(6, wide.canonical), nullptr);

    // First insert wins: reloading the same file inserts nothing.
    EXPECT_EQ(cache.load_from_file(path), 0);

    const std::string out = testing::TempDir() + "exact_persist_wide_out.bin";
    EXPECT_EQ(cache.save_to_file(out), 1);
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
    ASSERT_NE(cache.insert_wide(std::make_shared<WideStructure>(six)), nullptr);
    ASSERT_NE(cache.insert_wide(std::make_shared<WideStructure>(five)), nullptr);

    // First insert wins: publishing a different program for an already
    // cached class returns the original copy.
    WideStructure rival = five;
    rival.gates.push_back(rival.gates.back());  // same function, one dead gate
    const auto kept = cache.insert_wide(std::make_shared<WideStructure>(rival));
    ASSERT_NE(kept, nullptr);
    EXPECT_EQ(kept->gate_count(), five.gate_count());

    cache.record_wide_failure(5, 0x123456789ULL & 0xffffffffULL,
                              ExactSatStatus::kUnknown, 10000, 8);
    ASSERT_EQ(cache.stats().wide_failures_recorded, 1);

    std::string expected("BMXC");
    put_u32(expected, 2);  // version
    put_u32(expected, 0);  // narrow count
    put_u32(expected, 2);  // wide count: 5-input entry sorts first
    append_wide_structure(expected, five);
    append_wide_structure(expected, six);

    const std::string p1 = testing::TempDir() + "exact_persist_wide_s1.bin";
    const std::string p2 = testing::TempDir() + "exact_persist_wide_s2.bin";
    EXPECT_EQ(cache.save_to_file(p1), 2);
    EXPECT_EQ(cache.save_to_file(p2), 2);
    EXPECT_EQ(read_file(p1), expected);
    EXPECT_EQ(read_file(p1), read_file(p2));
    std::remove(p1.c_str());
    std::remove(p2.c_str());
}

TEST_F(ExactPersist, CorruptWideEntriesAreSkippedNarrowStillLoads) {
    // A version-2 file whose narrow section is healthy but whose wide
    // section is a parade of well-framed lies. Every wide entry must be
    // rejected — semantically (claims a class its program does not
    // compute) or structurally — while the narrow entry loads fine.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();

    std::string bytes("BMXC");
    put_u32(bytes, 2);  // version
    put_u32(bytes, 1);  // narrow count
    const std::uint16_t narrow_class = append_narrow_literal_entry(bytes);
    put_u32(bytes, 4);  // wide count

    // (1) Lying canonical: program computes c, entry claims c ^ 1.
    WideStructure lying = wide_maj_of_and();
    lying.canonical ^= 1;
    append_wide_structure(bytes, lying);
    // (2) Bad input count (7 is not a wide arity).
    WideStructure bad_n = wide_maj_of_and();
    bad_n.num_inputs = 7;
    append_wide_structure(bytes, bad_n);
    // (3) Forward gate reference: gate 0 reading gate 0's own output.
    WideStructure fwd = wide_xor_top();
    fwd.gates[0].a = WideRef::gate(0, false);
    append_wide_structure(bytes, fwd);
    // (4) Canonical with bits above the 2^5-bit mask for a 5-input class.
    WideStructure high_bits = wide_maj_of_and();
    high_bits.canonical |= 1ULL << 40;
    append_wide_structure(bytes, high_bits);

    const std::string path = testing::TempDir() + "exact_persist_wide_bad.bin";
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 1) << "narrow only";
    EXPECT_EQ(cache.stats().wide_classes_cached, 0);
    EXPECT_EQ(cache.lookup_wide(5, wide_maj_of_and().canonical), nullptr);

    bool was_hit = false;
    const auto narrow = cache.lookup(narrow_class, &was_hit);
    ASSERT_NE(narrow, nullptr);
    EXPECT_TRUE(was_hit);
    EXPECT_EQ(narrow->eval_tt(), narrow_class);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, TruncatedWideSectionKeepsNarrowEntries) {
    // Wide-section truncation is not contagious: the narrow entries that
    // parsed before the cut still load.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    const std::string path = testing::TempDir() + "exact_persist_wide_trunc.bin";

    // Version-2 file that ends before the wide count entirely.
    std::string no_count("BMXC");
    put_u32(no_count, 2);
    put_u32(no_count, 1);
    append_narrow_literal_entry(no_count);
    write_file(path, no_count);
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().wide_classes_cached, 0);

    // Wide count promises an entry but the payload stops mid-header.
    std::string mid_entry = no_count;
    put_u32(mid_entry, 1);
    mid_entry.push_back(5);  // num_inputs, then nothing
    write_file(path, mid_entry);
    EXPECT_EQ(cache.load_from_file(path), 0) << "narrow already cached";
    EXPECT_EQ(cache.stats().wide_classes_cached, 0);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, TruncationSweepNeverCrashesOrLies) {
    // Torn-file drill: every prefix of a valid version-2 file must load
    // without crashing, and anything it does accept must be semantically
    // valid (the zero-trust re-validation). ctest runs this test in its
    // own process, so the singleton starts cold and real inserts happen.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::string bytes("BMXC");
    put_u32(bytes, 2);  // version
    put_u32(bytes, 1);  // narrow count
    const std::uint16_t narrow_class = append_narrow_literal_entry(bytes);
    put_u32(bytes, 2);  // wide count
    const WideStructure five = wide_maj_of_and();
    const WideStructure six = wide_xor_top();
    append_wide_structure(bytes, five);
    append_wide_structure(bytes, six);

    const std::string path = testing::TempDir() + "exact_persist_cut.bin";
    for (std::size_t n = 0; n <= bytes.size(); ++n) {
        write_file(path, bytes.substr(0, n));
        const int loaded = cache.load_from_file(path);
        EXPECT_GE(loaded, 0) << "cut at " << n;
        EXPECT_LE(loaded, 3) << "cut at " << n;
    }
    // Whatever partial states loaded along the way, anything served must
    // compute its class.
    for (const WideStructure& w : {five, six}) {
        if (const auto s = cache.lookup_wide(w.num_inputs, w.canonical)) {
            EXPECT_EQ(s->eval_tt(), w.canonical);
        }
    }
    const auto narrow = cache.lookup(narrow_class);
    ASSERT_NE(narrow, nullptr);
    EXPECT_EQ(narrow->eval_tt(), narrow_class);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, BitFlipSweepNeverServesWrongProgram) {
    // Corruption drill: flip every bit of a valid version-2 file, one at a
    // time, and load each mutant. No mutant may crash the loader, and no
    // mutant may plant a program that does not compute the class it is
    // filed under — a wrong cached program would silently corrupt every
    // later synthesis that hits it, the one unrecoverable failure mode.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::string bytes("BMXC");
    put_u32(bytes, 2);
    put_u32(bytes, 1);
    const std::uint16_t narrow_class = append_narrow_literal_entry(bytes);
    put_u32(bytes, 2);
    const WideStructure five = wide_maj_of_and();
    const WideStructure six = wide_xor_top();
    append_wide_structure(bytes, five);
    append_wide_structure(bytes, six);

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
    // loader re-evaluates), so every wide class now cached must be honest.
    for (int n = 5; n <= 6; ++n) {
        for (const WideStructure& w : {five, six}) {
            if (const auto s = cache.lookup_wide(n, w.canonical)) {
                EXPECT_EQ(s->num_inputs, n);
                EXPECT_EQ(s->eval_tt(), w.canonical);
            }
        }
    }
    bool was_hit = false;
    const auto narrow = cache.lookup(narrow_class, &was_hit);
    ASSERT_NE(narrow, nullptr);
    EXPECT_EQ(narrow->eval_tt(), narrow_class);
    std::remove(path.c_str());
}

TEST_F(ExactPersist, VersionOneFilesLoadNarrowOnly) {
    // Legacy narrow-only files keep loading, and nothing after the
    // narrow section is ever interpreted as wide data under version 1.
    ExactSynthesisCache& cache = ExactSynthesisCache::instance();
    std::uint8_t idx = 0;
    bool compl_out = false;
    const std::uint16_t canonical = narrow_literal_class(&idx, &compl_out);

    std::string bytes = one_entry_file(canonical, idx, compl_out);
    // Trailing bytes that would be a plausible wide section — a v1
    // reader must ignore them.
    put_u32(bytes, 1);
    append_wide_structure(bytes, wide_maj_of_and());

    const std::string path = testing::TempDir() + "exact_persist_v1.bin";
    write_file(path, bytes);
    EXPECT_EQ(cache.load_from_file(path), 1);
    EXPECT_EQ(cache.stats().classes_cached, 1);
    EXPECT_EQ(cache.stats().wide_classes_cached, 0);
    EXPECT_EQ(cache.lookup_wide(5, wide_maj_of_and().canonical), nullptr);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace bdsmaj::decomp
