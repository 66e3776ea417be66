#include "network/simulate.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace bdsmaj::net {

const char* equiv_engine_name(EquivEngine engine) {
    switch (engine) {
        case EquivEngine::kAuto: return "auto";
        case EquivEngine::kBdd: return "bdd";
        case EquivEngine::kSat: return "sat";
        case EquivEngine::kSim: return "sim";
        case EquivEngine::kExhaustive: return "exhaustive";
    }
    return "?";
}

EquivEngine parse_equiv_engine(const std::string& name) {
    if (name == "auto") return EquivEngine::kAuto;
    if (name == "bdd") return EquivEngine::kBdd;
    if (name == "sat") return EquivEngine::kSat;
    if (name == "sim") return EquivEngine::kSim;
    throw std::invalid_argument("unknown equivalence engine \"" + name +
                                "\" (expected auto|bdd|sat|sim)");
}

std::string describe_counterexample(const Network& a, int output_index,
                                    const std::vector<bool>& pattern,
                                    bool value_a, bool value_b) {
    std::ostringstream os;
    os << "output " << a.outputs()[static_cast<std::size_t>(output_index)].name
       << " (index " << output_index << ") differs: a=" << (value_a ? 1 : 0)
       << " b=" << (value_b ? 1 : 0) << " under";
    constexpr std::size_t kMaxListed = 48;
    for (std::size_t i = 0; i < pattern.size() && i < kMaxListed; ++i) {
        os << ' ' << a.node(a.inputs()[i]).name << '=' << (pattern[i] ? 1 : 0);
    }
    if (pattern.size() > kMaxListed) {
        os << " ... (" << pattern.size() - kMaxListed << " more)";
    }
    return os.str();
}

EquivalenceResult verified_counterexample(const Network& a, const Network& b,
                                          int output_index,
                                          std::vector<bool> pattern,
                                          const char* origin,
                                          EquivEngine engine) {
    // Sign the witness by single-pattern re-simulation of both networks:
    // whatever engine produced it, the verdict the caller sees is backed
    // by the reference simulator.
    const std::vector<bool> va = simulate(a, pattern);
    const std::vector<bool> vb = simulate(b, pattern);
    const std::size_t o = static_cast<std::size_t>(output_index);
    if (va[o] == vb[o]) {
        throw std::logic_error(std::string("equivalence checker bug: ") + origin +
                               " counterexample failed re-simulation");
    }
    EquivalenceResult r;
    r.equivalent = false;
    r.exact = true;
    r.engine = engine;
    r.failing_output = output_index;
    r.reason = describe_counterexample(a, output_index, pattern, va[o], vb[o]);
    r.counterexample = std::move(pattern);
    return r;
}

namespace {

EquivalenceResult shape_mismatch(std::string reason, EquivEngine engine) {
    EquivalenceResult r;
    r.equivalent = false;
    r.exact = true;  // structural: no input pattern needed
    r.engine = engine;
    r.reason = std::move(reason);
    return r;
}

}  // namespace

void simulate_words_into(const Network& network, const std::vector<NodeId>& order,
                         const std::vector<std::uint64_t>& pi_words,
                         std::vector<std::uint64_t>& value,
                         std::vector<std::uint64_t>& scratch, std::size_t words) {
    value.resize(network.node_count() * words);  // no clearing: see the header
    for (std::size_t i = 0; i < network.inputs().size(); ++i) {
        std::copy_n(pi_words.begin() + static_cast<std::ptrdiff_t>(i * words), words,
                    value.begin() + static_cast<std::ptrdiff_t>(network.inputs()[i] * words));
    }
    std::uint64_t* const base = value.data();
    for (const NodeId id : order) {
        const Node& n = network.node(id);
        std::uint64_t* const out = base + static_cast<std::size_t>(id) * words;
        const auto in = [&](std::size_t k) {
            return base + static_cast<std::size_t>(n.fanins[k]) * words;
        };
        // One loop per kind: the word loops are what the compiler
        // vectorizes on exhaustive blocks.
        const auto map1 = [&](auto op) {
            const std::uint64_t* x = in(0);
            for (std::size_t w = 0; w < words; ++w) out[w] = op(x[w]);
        };
        const auto map2 = [&](auto op) {
            const std::uint64_t* x = in(0);
            const std::uint64_t* y = in(1);
            for (std::size_t w = 0; w < words; ++w) out[w] = op(x[w], y[w]);
        };
        const auto map3 = [&](auto op) {
            const std::uint64_t* x = in(0);
            const std::uint64_t* y = in(1);
            const std::uint64_t* z = in(2);
            for (std::size_t w = 0; w < words; ++w) out[w] = op(x[w], y[w], z[w]);
        };
        using W = std::uint64_t;
        switch (n.kind) {
            case GateKind::kInput: break;
            case GateKind::kConst0: std::fill_n(out, words, W{0}); break;
            case GateKind::kConst1: std::fill_n(out, words, ~W{0}); break;
            case GateKind::kBuf: map1([](W x) { return x; }); break;
            case GateKind::kNot: map1([](W x) { return ~x; }); break;
            case GateKind::kAnd: map2([](W x, W y) { return x & y; }); break;
            case GateKind::kOr: map2([](W x, W y) { return x | y; }); break;
            case GateKind::kNand: map2([](W x, W y) { return ~(x & y); }); break;
            case GateKind::kNor: map2([](W x, W y) { return ~(x | y); }); break;
            case GateKind::kXor: map2([](W x, W y) { return x ^ y; }); break;
            case GateKind::kXnor: map2([](W x, W y) { return ~(x ^ y); }); break;
            case GateKind::kMaj:
                map3([](W x, W y, W z) { return (x & y) | (y & z) | (x & z); });
                break;
            case GateKind::kMux:
                map3([](W s, W t, W e) { return (s & t) | (~s & e); });
                break;
            case GateKind::kSop: {
                std::fill_n(out, words, W{0});
                scratch.resize(words);
                for (const Cube& cube : n.sop.cubes()) {
                    std::fill_n(scratch.begin(), words, ~W{0});
                    for (std::size_t k = 0; k < cube.lits.size(); ++k) {
                        if (cube.lits[k] == Lit::kDash) continue;
                        const W flip = cube.lits[k] == Lit::kNeg ? ~W{0} : 0;
                        const std::uint64_t* x = in(k);
                        for (std::size_t w = 0; w < words; ++w) scratch[w] &= x[w] ^ flip;
                    }
                    for (std::size_t w = 0; w < words; ++w) out[w] |= scratch[w];
                }
                break;
            }
        }
    }
}

std::vector<std::uint64_t> simulate_words(const Network& network,
                                          const std::vector<std::uint64_t>& pi_words) {
    if (pi_words.size() != network.inputs().size()) {
        throw std::invalid_argument("simulate_words: stimulus count != PI count");
    }
    const std::vector<NodeId> order = network.topo_order();
    std::vector<std::uint64_t> value, scratch;
    simulate_words_into(network, order, pi_words, value, scratch);
    std::vector<std::uint64_t> out;
    out.reserve(network.outputs().size());
    for (const OutputPort& po : network.outputs()) out.push_back(value[po.driver]);
    return out;
}

std::vector<bool> simulate(const Network& network, const std::vector<bool>& pi_values) {
    std::vector<std::uint64_t> words(pi_values.size());
    for (std::size_t i = 0; i < pi_values.size(); ++i) {
        words[i] = pi_values[i] ? ~std::uint64_t{0} : 0;
    }
    const std::vector<std::uint64_t> out_words = simulate_words(network, words);
    std::vector<bool> out(out_words.size());
    for (std::size_t i = 0; i < out_words.size(); ++i) out[i] = (out_words[i] & 1) != 0;
    return out;
}

EquivalenceResult random_equivalent(const Network& a, const Network& b, int rounds,
                                    std::uint64_t seed) {
    if (a.inputs().size() != b.inputs().size()) {
        return shape_mismatch("input counts differ", EquivEngine::kSim);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return shape_mismatch("output counts differ", EquivEngine::kSim);
    }
    // Rounds run 64 at a time, one word per round: round r of a batch is
    // word r of every node. The stimulus is drawn round by round, input
    // by input, and the scan goes round, output, bit, so the first
    // counterexample is the one a round-at-a-time loop would find.
    constexpr int kBatchRounds = 64;
    std::mt19937_64 rng(seed);
    const std::size_t n = a.inputs().size();
    const std::vector<NodeId> order_a = a.topo_order();
    const std::vector<NodeId> order_b = b.topo_order();
    std::vector<std::uint64_t> stimulus, value_a, value_b, scratch;
    for (int first = 0; first < rounds; first += kBatchRounds) {
        const auto words = static_cast<std::size_t>(std::min(kBatchRounds, rounds - first));
        stimulus.resize(n * words);
        for (std::size_t w = 0; w < words; ++w) {
            for (std::size_t i = 0; i < n; ++i) stimulus[i * words + w] = rng();
        }
        simulate_words_into(a, order_a, stimulus, value_a, scratch, words);
        simulate_words_into(b, order_b, stimulus, value_b, scratch, words);
        for (std::size_t w = 0; w < words; ++w) {
            for (std::size_t o = 0; o < a.outputs().size(); ++o) {
                const std::uint64_t diff = value_a[a.outputs()[o].driver * words + w] ^
                                           value_b[b.outputs()[o].driver * words + w];
                if (diff == 0) continue;
                const int bit = std::countr_zero(diff);
                std::vector<bool> pattern(n);
                for (std::size_t i = 0; i < n; ++i) {
                    pattern[i] = ((stimulus[i * words + w] >> bit) & 1) != 0;
                }
                return verified_counterexample(a, b, static_cast<int>(o),
                                               std::move(pattern), "simulation",
                                               EquivEngine::kSim);
            }
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.exact = false;  // sampled agreement only — never a proof
    r.engine = EquivEngine::kSim;
    return r;
}

EquivalenceResult exhaustive_equivalent(const Network& a, const Network& b) {
    if (a.inputs().size() != b.inputs().size()) {
        return shape_mismatch("input counts differ", EquivEngine::kExhaustive);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return shape_mismatch("output counts differ", EquivEngine::kExhaustive);
    }
    const std::size_t n = a.inputs().size();
    if (n > 40) {
        throw std::invalid_argument("exhaustive_equivalent: " + std::to_string(n) +
                                    " inputs is beyond exhaustive enumeration");
    }
    // Pattern p = 64 * word + bit: inputs 0-5 read the bit index (the
    // projection words), inputs 6.. read the word index. Below six inputs
    // the single word repeats the 2^n patterns, which is harmless.
    static constexpr std::uint64_t kProjection[6] = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};
    constexpr std::uint64_t kBlockWords = 64;
    const std::uint64_t total_words = n <= 6 ? 1 : std::uint64_t{1} << (n - 6);
    const std::size_t words = static_cast<std::size_t>(std::min(total_words, kBlockWords));

    const std::vector<NodeId> order_a = a.topo_order();
    const std::vector<NodeId> order_b = b.topo_order();
    std::vector<std::uint64_t> stimulus(n * words), value_a, value_b, scratch;
    for (std::uint64_t first = 0; first < total_words; first += words) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t w = 0; w < words; ++w) {
                stimulus[i * words + w] =
                    i < 6 ? kProjection[i]
                          : ((((first + w) >> (i - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0);
            }
        }
        simulate_words_into(a, order_a, stimulus, value_a, scratch, words);
        simulate_words_into(b, order_b, stimulus, value_b, scratch, words);
        for (std::size_t o = 0; o < a.outputs().size(); ++o) {
            const std::uint64_t* va = &value_a[a.outputs()[o].driver * words];
            const std::uint64_t* vb = &value_b[b.outputs()[o].driver * words];
            for (std::size_t w = 0; w < words; ++w) {
                const std::uint64_t diff = va[w] ^ vb[w];
                if (diff == 0) continue;
                const std::uint64_t p = (first + w) * 64 + static_cast<std::uint64_t>(
                                                              std::countr_zero(diff));
                std::vector<bool> pattern(n);
                for (std::size_t i = 0; i < n; ++i) pattern[i] = ((p >> i) & 1) != 0;
                return verified_counterexample(a, b, static_cast<int>(o),
                                               std::move(pattern), "exhaustive",
                                               EquivEngine::kExhaustive);
            }
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.exact = true;
    r.engine = EquivEngine::kExhaustive;
    return r;
}

std::vector<bdd::Bdd> network_to_bdds(const Network& network, bdd::Manager& mgr) {
    while (mgr.num_vars() < static_cast<int>(network.inputs().size())) {
        (void)mgr.new_var();
    }
    std::vector<bdd::Bdd> value(network.node_count());
    for (std::size_t i = 0; i < network.inputs().size(); ++i) {
        value[network.inputs()[i]] = mgr.var_bdd(static_cast<int>(i));
    }
    for (const NodeId id : network.topo_order()) {
        const Node& n = network.node(id);
        const auto in = [&](std::size_t k) -> const bdd::Bdd& {
            return value[n.fanins[k]];
        };
        switch (n.kind) {
            case GateKind::kInput: break;
            case GateKind::kConst0: value[id] = mgr.zero(); break;
            case GateKind::kConst1: value[id] = mgr.one(); break;
            case GateKind::kBuf: value[id] = in(0); break;
            case GateKind::kNot: value[id] = !in(0); break;
            case GateKind::kAnd: value[id] = mgr.apply_and(in(0), in(1)); break;
            case GateKind::kOr: value[id] = mgr.apply_or(in(0), in(1)); break;
            case GateKind::kNand: value[id] = !mgr.apply_and(in(0), in(1)); break;
            case GateKind::kNor: value[id] = !mgr.apply_or(in(0), in(1)); break;
            case GateKind::kXor: value[id] = mgr.apply_xor(in(0), in(1)); break;
            case GateKind::kXnor: value[id] = mgr.apply_xnor(in(0), in(1)); break;
            case GateKind::kMaj: value[id] = mgr.maj(in(0), in(1), in(2)); break;
            case GateKind::kMux: value[id] = mgr.ite(in(0), in(1), in(2)); break;
            case GateKind::kSop:
                value[id] = sop_to_bdd(mgr, n.sop, in);
                break;
        }
    }
    std::vector<bdd::Bdd> outs;
    outs.reserve(network.outputs().size());
    for (const OutputPort& po : network.outputs()) outs.push_back(value[po.driver]);
    return outs;
}

EquivalenceResult bdd_equivalent(const Network& a, const Network& b) {
    if (a.inputs().size() != b.inputs().size()) {
        return shape_mismatch("input counts differ", EquivEngine::kBdd);
    }
    if (a.outputs().size() != b.outputs().size()) {
        return shape_mismatch("output counts differ", EquivEngine::kBdd);
    }
    bdd::Manager mgr(static_cast<int>(a.inputs().size()));
    const std::vector<bdd::Bdd> fa = network_to_bdds(a, mgr);
    const std::vector<bdd::Bdd> fb = network_to_bdds(b, mgr);
    for (std::size_t o = 0; o < fa.size(); ++o) {
        if (!(fa[o] == fb[o])) {
            // Walk the difference function down to a satisfying minterm:
            // at each variable take any cofactor that stays satisfiable.
            bdd::Bdd diff = mgr.apply_xor(fa[o], fb[o]);
            std::vector<bool> pattern(a.inputs().size(), false);
            for (int v = 0; v < static_cast<int>(a.inputs().size()); ++v) {
                const bdd::Bdd lo = mgr.cofactor(diff, v, false);
                if (!(lo == mgr.zero())) {
                    pattern[static_cast<std::size_t>(v)] = false;
                    diff = lo;
                } else {
                    pattern[static_cast<std::size_t>(v)] = true;
                    diff = mgr.cofactor(diff, v, true);
                }
            }
            return verified_counterexample(a, b, static_cast<int>(o),
                                           std::move(pattern), "BDD",
                                           EquivEngine::kBdd);
        }
    }
    EquivalenceResult r;
    r.equivalent = true;
    r.exact = true;
    r.engine = EquivEngine::kBdd;
    return r;
}

}  // namespace bdsmaj::net
