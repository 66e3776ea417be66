#include "network/blif.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "benchgen/suite.hpp"
#include "network/simulate.hpp"

namespace bdsmaj::net {
namespace {

constexpr const char* kFullAdderBlif = R"(
# a 1-bit full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
)";

std::uint64_t fnv64(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/// 30 random structured gates over five inputs; the four outputs are
/// named apart from their unnamed drivers.
Network random_gate_network(const std::string& name, std::mt19937_64& rng) {
    Network net(name);
    std::vector<NodeId> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(net.add_input("i" + std::to_string(i)));
    for (int g = 0; g < 30; ++g) {
        const auto pick = [&] { return pool[rng() % pool.size()]; };
        const int kind = static_cast<int>(rng() % 7);
        NodeId id = 0;
        switch (kind) {
            case 0: id = net.add_and(pick(), pick()); break;
            case 1: id = net.add_or(pick(), pick()); break;
            case 2: id = net.add_xor(pick(), pick()); break;
            case 3: id = net.add_not(pick()); break;
            case 4: id = net.add_maj(pick(), pick(), pick()); break;
            case 5: id = net.add_mux(pick(), pick(), pick()); break;
            default: id = net.add_xnor(pick(), pick()); break;
        }
        pool.push_back(id);
    }
    for (int o = 0; o < 4; ++o) {
        net.add_output("o" + std::to_string(o), pool[pool.size() - 1 - static_cast<std::size_t>(o)]);
    }
    return net;
}

TEST(Blif, ParsesFullAdder) {
    const Network net = parse_blif(kFullAdderBlif);
    EXPECT_EQ(net.model_name(), "fa");
    ASSERT_EQ(net.inputs().size(), 3u);
    ASSERT_EQ(net.outputs().size(), 2u);
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
        const auto out = simulate(net, {a, b, c});
        EXPECT_EQ(out[0], ((a + b + c) & 1) != 0);
        EXPECT_EQ(out[1], (a + b + c) >= 2);
    }
}

TEST(Blif, RoundTripPreservesFunction) {
    const Network net = parse_blif(kFullAdderBlif);
    const Network again = parse_blif(write_blif(net));
    EXPECT_TRUE(bdd_equivalent(net, again).equivalent);
}

TEST(Blif, LineContinuationsAndComments) {
    const Network net = parse_blif(
        ".model cont\n"
        ".inputs a \\\n  b\n"
        ".outputs y # trailing comment\n"
        ".names a b y\n"
        "11 1\n"
        ".end\n");
    EXPECT_EQ(net.inputs().size(), 2u);
    EXPECT_EQ(simulate(net, {true, true})[0], true);
    EXPECT_EQ(simulate(net, {true, false})[0], false);
}

TEST(Blif, OffsetPhaseCoverIsComplemented) {
    // Cover written in the 0 phase: y = NOT(a & b).
    const Network net = parse_blif(
        ".model off\n.inputs a b\n.outputs y\n"
        ".names a b y\n11 0\n.end\n");
    EXPECT_EQ(simulate(net, {true, true})[0], false);
    EXPECT_EQ(simulate(net, {false, true})[0], true);
}

TEST(Blif, ConstantNodes) {
    const Network net = parse_blif(
        ".model consts\n.inputs a\n.outputs one zero\n"
        ".names one\n1\n"
        ".names zero\n"
        ".end\n");
    const auto out = simulate(net, {false});
    EXPECT_TRUE(out[0]);
    EXPECT_FALSE(out[1]);
}

TEST(Blif, OutOfOrderBlocksResolve) {
    // g references h which is defined later.
    const Network net = parse_blif(
        ".model ooo\n.inputs a b\n.outputs g\n"
        ".names h a g\n11 1\n"
        ".names a b h\n10 1\n01 1\n"
        ".end\n");
    // g = (a^b) & a = a & !b.
    EXPECT_TRUE(simulate(net, {true, false})[0]);
    EXPECT_FALSE(simulate(net, {true, true})[0]);
}

TEST(Blif, OutOfOrderBlocksKeepSweepOrder) {
    // Node ids follow the fixed-point sweep over the blocks in file order:
    // p and r in the first sweep, q in the second, y in the third. A
    // topological order (DFS or Kahn) would give a b p q y r instead.
    const Network net = parse_blif(
        ".model sweep\n.inputs a b\n.outputs y r\n"
        ".names p q y\n11 1\n"
        ".names a p q\n1- 1\n-1 1\n"
        ".names a b p\n11 1\n"
        ".names a b r\n01 1\n"
        ".end\n");
    std::vector<std::string> names;
    for (NodeId id = 0; id < net.node_count(); ++id) names.push_back(net.node(id).name);
    EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "p", "r", "q", "y"}));
    EXPECT_EQ(net.node(5).fanins, (std::vector<NodeId>{2, 4}));
    ASSERT_EQ(net.outputs().size(), 2u);
    EXPECT_EQ(net.outputs()[0].driver, 5u);
    EXPECT_EQ(net.outputs()[1].driver, 3u);
}

TEST(Blif, ShuffledSuiteRoundTrips) {
    // Every quick Table II circuit, its .names blocks shuffled under a
    // fixed seed, reads back to a network that simulates like the
    // in-order one.
    std::mt19937_64 rng(2513);
    for (const std::string& name : benchgen::benchmark_names()) {
        const std::string text = write_blif(benchgen::benchmark_by_name(name, true));
        const std::size_t first = text.find("\n.names") + 1;
        const std::size_t end = text.rfind(".end");
        ASSERT_LT(first, end) << name;
        std::vector<std::string> blocks;
        for (std::size_t at = first; at < end;) {
            std::size_t next = text.find("\n.names", at);
            next = next == std::string::npos || next > end ? end : next + 1;
            blocks.push_back(text.substr(at, next - at));
            at = next;
        }
        std::shuffle(blocks.begin(), blocks.end(), rng);
        std::string shuffled = text.substr(0, first);
        for (const std::string& b : blocks) shuffled += b;
        shuffled += text.substr(end);
        ASSERT_NE(shuffled, text) << name;

        const Network in_order = parse_blif(text);
        const Network out_of_order = parse_blif(shuffled);
        EXPECT_EQ(out_of_order.node_count(), in_order.node_count()) << name;
        const EquivalenceResult eq = random_equivalent(in_order, out_of_order, 16, 7);
        EXPECT_TRUE(eq.equivalent) << name << ": " << eq.reason;
    }
}

TEST(Blif, WriterOutputIsPinned) {
    // FNV-1a hashes of write_blif output: structured gates, SOP covers,
    // generated "n<id>" names and output buffers stay byte-identical.
    struct Pin {
        const char* name;
        std::uint64_t fnv;
    };
    const Pin pins[] = {
        {"alu2", 0xd37a112ca473f336ull},       {"C6288", 0x5b666327d39f4f55ull},
        {"misex3", 0x92ed347a8fb50ebeull},     {"CLA 64 bit", 0x940230d280c76d21ull},
        {"Div 18 bit", 0xd4b81f5a9cf98142ull},
    };
    for (const Pin& p : pins) {
        EXPECT_EQ(fnv64(write_blif(benchgen::benchmark_by_name(p.name, true))), p.fnv)
            << p.name;
    }
    std::mt19937_64 rng(601);
    EXPECT_EQ(fnv64(write_blif(random_gate_network("rt0", rng))), 0x80e62e15a0b0dccbull);
}

TEST(Blif, ErrorsAreDiagnosed) {
    EXPECT_THROW((void)parse_blif(".model x\n.inputs a\n.outputs y\n.end\n"),
                 std::runtime_error);  // undriven output
    EXPECT_THROW((void)parse_blif(".model x\n.latch a b\n.end\n"),
                 std::runtime_error);  // sequential
    EXPECT_THROW((void)parse_blif("11 1\n"), std::runtime_error);  // stray cube
    EXPECT_THROW((void)parse_blif(".model x\n.inputs a\n.outputs y\n"
                                  ".names a y\n1 1\nq 1\n.end\n"),
                 std::exception);  // bad cube char (invalid_argument)
}

TEST(Blif, MixedPhaseCoversRejected) {
    EXPECT_THROW((void)parse_blif(".model x\n.inputs a b\n.outputs y\n"
                                  ".names a b y\n11 1\n00 0\n.end\n"),
                 std::runtime_error);
}

// Malformed-input hardening: every defect is rejected with a ParseError
// carrying the offending 1-based line, never UB, an assert, or a wrong
// network.

namespace {

// Expects parse_blif(text) to throw ParseError at `line` with `needle`
// somewhere in the message.
void expect_parse_error(const std::string& text, int line,
                        const std::string& needle) {
    try {
        (void)parse_blif(text);
        FAIL() << "expected ParseError(" << needle << ") for:\n" << text;
    } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

}  // namespace

TEST(BlifRobustness, TruncatedContinuationRejected) {
    expect_parse_error(".model t\n.inputs a b\n.outputs y\n.names a b \\",
                       4, "truncated");
}

TEST(BlifRobustness, UndeclaredSignalNamed) {
    expect_parse_error(
        ".model u\n.inputs a\n.outputs y\n.names a bogus y\n11 1\n.end\n",
        4, "undeclared signal 'bogus'");
}

TEST(BlifRobustness, DuplicateOutputRejected) {
    expect_parse_error(
        ".model d\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n",
        3, "duplicate output declaration 'y'");
}

TEST(BlifRobustness, DuplicateInputRejected) {
    expect_parse_error(".model d\n.inputs a a\n.outputs y\n.end\n",
                       2, "duplicate input declaration 'a'");
}

TEST(BlifRobustness, DuplicateDriverRejected) {
    expect_parse_error(
        ".model d\n.inputs a b\n.outputs y\n"
        ".names a y\n1 1\n.names b y\n1 1\n.end\n",
        6, "duplicate driver for signal 'y'");
}

TEST(BlifRobustness, NamesRedefiningInputRejected) {
    expect_parse_error(
        ".model d\n.inputs a b\n.outputs b\n.names a b\n1 1\n.end\n",
        4, "redefines primary input 'b'");
}

TEST(BlifRobustness, OversizedCubeRejected) {
    // 3 literals against a 2-input block: previously this flowed into the
    // SOP layer with a wrong-length pattern; now it is a diagnosed error.
    expect_parse_error(
        ".model o\n.inputs a b\n.outputs y\n.names a b y\n111 1\n.end\n",
        5, "3 literals for a 2-input .names block");
}

TEST(BlifRobustness, UndersizedCubeRejected) {
    expect_parse_error(
        ".model o\n.inputs a b c\n.outputs y\n.names a b c y\n10 1\n.end\n",
        5, "2 literals for a 3-input .names block");
}

TEST(BlifRobustness, BadCubeCharacterDiagnosedWithLine) {
    expect_parse_error(
        ".model o\n.inputs a b\n.outputs y\n.names a b y\n11 1\n1q 1\n.end\n",
        6, "bad cube character 'q'");
}

TEST(BlifRobustness, CombinationalCycleDiagnosed) {
    expect_parse_error(
        ".model c\n.inputs a\n.outputs y\n"
        ".names z a y\n11 1\n.names y a z\n11 1\n.end\n",
        4, "cycle");
}

TEST(BlifRobustness, ContinuationLineNumbersPointAtFirstPhysicalLine) {
    // The bad cube sits on physical lines 5-6 via a continuation; the
    // diagnostic must name line 5 (where the logical line starts).
    expect_parse_error(
        ".model c\n.inputs a b\n.outputs y\n.names a b y\n1 \\\n1 1\n.end\n",
        5, "bad cube line");
}

TEST(BlifRobustness, WideOffsetCoverDiagnosed) {
    // Complementing an off-set cover needs a truth table over the block's
    // inputs; past the table width that is a diagnosed limit.
    std::string inputs;
    for (int i = 0; i < 22; ++i) inputs += " x" + std::to_string(i);
    expect_parse_error(".model w\n.inputs" + inputs + "\n.outputs y\n.names" + inputs +
                           " y\n" + std::string(22, '1') + " 0\n.end\n",
                       4, "22-input");
}

TEST(BlifRobustness, InputsAfterDriverRejected) {
    // Both orders are rejected: .names then .inputs here, .inputs then
    // .names in NamesRedefiningInputRejected.
    expect_parse_error(".model r\n.names a x\n1 1\n.inputs a x\n.outputs x\n.end\n",
                       4, "'x'");
}

TEST(BlifRobustness, ReversedDeepChainParses) {
    // A 20,000-deep chain written output-first: one maj block then a
    // chain of inverters, every block listed before its fanin's.
    constexpr int kDepth = 20000;
    std::string text = ".model chain\n.inputs a b c\n.outputs y\n.names n" +
                       std::to_string(kDepth - 1) + " y\n0 1\n";
    for (int i = kDepth - 1; i >= 2; --i) {
        text += ".names n" + std::to_string(i - 1) + " n" + std::to_string(i) + "\n0 1\n";
    }
    text += ".names a b c n1\n11- 1\n1-1 1\n-11 1\n.end\n";
    const Network net = parse_blif(text);
    EXPECT_EQ(net.node_count(), 3u + kDepth);
    // kDepth - 1 inverters after the majority: y = !maj(a, b, c).
    for (int m = 0; m < 8; ++m) {
        const bool a = m & 1, b = (m >> 1) & 1, c = (m >> 2) & 1;
        EXPECT_EQ(simulate(net, {a, b, c})[0], !((a + b + c) >= 2)) << m;
    }
}

TEST(BlifRobustness, PrefixTruncationsNeverCrash) {
    // Fuzz-style: every prefix of a valid document either parses or raises
    // ParseError — nothing else may escape (UB/asserts would abort).
    const std::string text = kFullAdderBlif;
    for (std::size_t n = 0; n <= text.size(); ++n) {
        try {
            (void)parse_blif(text.substr(0, n));
        } catch (const ParseError&) {
        }
    }
}

TEST(BlifRobustness, RandomByteMutationsNeverCrash) {
    // Fuzz-style: seeded insert, delete and replace edits of every test
    // document (continuations, comments, off-set covers, constants,
    // out-of-order blocks, CRLF line ends) must parse or raise ParseError.
    const std::vector<std::string> documents = {
        kFullAdderBlif,
        ".model cont\n.inputs a \\\n  b\n.outputs y # trailing comment\n"
        ".names a b y\n11 1\n.end\n",
        ".model off\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
        ".model consts\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n",
        ".model ooo\n.inputs a b\n.outputs g\n.names h a g\n11 1\n"
        ".names a b h\n10 1\n01 1\n.end\n",
        ".model sweep\n.inputs a b\n.outputs y r\n.names p q y\n11 1\n"
        ".names a p q\n1- 1\n-1 1\n.names a b p\n11 1\n.names a b r\n01 0\n.end\n",
        ".model crlf\r\n.inputs a\tb \\\r\n c\r\n.outputs y z\r\n"
        ".names a b c y\r\n1-1 1\r\n-11 1\r\n.names y z\r\n0 1\r\n.end\r\n",
        ".model c\n.inputs a\n.outputs y\n.names z a y\n11 1\n.names y a z\n11 1\n.end\n",
    };
    const std::string inserts[] = {"0", "1", "-", " ", "\t", "\r", "\n", "\\", "\\\n",
                                   "#", ".", "a", "y", ".names", ".inputs", ".outputs",
                                   ".end", ".model", ".latch", "11 1\n", "0 0\n", "1\n"};
    std::mt19937_64 rng(4242);
    for (int trial = 0; trial < 4000; ++trial) {
        std::string text = documents[rng() % documents.size()];
        const int edits = 1 + static_cast<int>(rng() % 4);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng() % (text.size() + 1);
            switch (rng() % 3) {
                case 0: text.insert(at, inserts[rng() % std::size(inserts)]); break;
                case 1: text.erase(at, 1 + rng() % 6); break;
                default:
                    if (at < text.size()) text[at] = inserts[rng() % std::size(inserts)][0];
                    break;
            }
        }
        try {
            (void)parse_blif(text);
        } catch (const ParseError&) {
        }
    }
}

TEST(Blif, RandomNetworksRoundTrip) {
    std::mt19937_64 rng(601);
    for (int trial = 0; trial < 10; ++trial) {
        const Network net = random_gate_network("rt" + std::to_string(trial), rng);
        const Network again = parse_blif(write_blif(net));
        EXPECT_TRUE(bdd_equivalent(net, again).equivalent) << "trial " << trial;
    }
}

}  // namespace
}  // namespace bdsmaj::net
