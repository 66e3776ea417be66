#include "aig/aig.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bdsmaj::aig {

Lit Aig::add_input() {
    nodes_.push_back(Node{kLitInvalid, kLitInvalid});
    const auto id = static_cast<NodeId>(nodes_.size() - 1);
    inputs_.push_back(id);
    return make_lit(id, false);
}

namespace {

std::size_t strash_hash(Lit a, Lit b) {
    std::uint64_t h = ((static_cast<std::uint64_t>(a) << 32) | b) * 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

std::size_t Aig::strash_slot(Lit a, Lit b) const {
    const std::size_t mask = strash_.size() - 1;
    for (std::size_t i = strash_hash(a, b) & mask;; i = (i + 1) & mask) {
        const NodeId id = strash_[i];
        if (id == 0 || (nodes_[id].f0 == a && nodes_[id].f1 == b)) return i;
    }
}

void Aig::strash_grow() {
    std::vector<NodeId> old(std::max<std::size_t>(64, 2 * strash_.size()), 0);
    old.swap(strash_);
    for (const NodeId id : old) {
        if (id != 0) strash_[strash_slot(nodes_[id].f0, nodes_[id].f1)] = id;
    }
}

void Aig::strash_erase(NodeId n) {
    // Backward-shift deletion: close the gap by moving up every later
    // entry of the probe run whose home slot does not lie after the gap.
    const std::size_t mask = strash_.size() - 1;
    std::size_t gap = strash_slot(nodes_[n].f0, nodes_[n].f1);
    assert(strash_[gap] == n);
    for (std::size_t i = (gap + 1) & mask; strash_[i] != 0; i = (i + 1) & mask) {
        const NodeId id = strash_[i];
        const std::size_t home = strash_hash(nodes_[id].f0, nodes_[id].f1) & mask;
        if (((i - home) & mask) >= ((i - gap) & mask)) {
            strash_[gap] = id;
            gap = i;
        }
    }
    strash_[gap] = 0;
}

Lit Aig::land(Lit a, Lit b) {
    // Constant and duplicate folding.
    if (a == kLitFalse || b == kLitFalse) return kLitFalse;
    if (a == kLitTrue) return b;
    if (b == kLitTrue) return a;
    if (a == b) return a;
    if (a == lit_not(b)) return kLitFalse;
    if (a > b) std::swap(a, b);
    // Every node but the constant and the inputs is hashed.
    if (2 * (nodes_.size() - inputs_.size()) > strash_.size()) strash_grow();
    const std::size_t slot = strash_slot(a, b);
    if (strash_[slot] != 0) return make_lit(strash_[slot], false);
    nodes_.push_back(Node{a, b});
    const auto id = static_cast<NodeId>(nodes_.size() - 1);
    strash_[slot] = id;
    return make_lit(id, false);
}

Lit Aig::lxor(Lit a, Lit b) {
    // a ^ b = !( !(a !b) & !(!a b) ) — the canonical 3-AND motif that the
    // mapper's pattern detector recognizes.
    return lit_not(land(lit_not(land(a, lit_not(b))), lit_not(land(lit_not(a), b))));
}

Lit Aig::lmux(Lit s, Lit t, Lit e) {
    return lit_not(land(lit_not(land(s, t)), lit_not(land(lit_not(s), e))));
}

Lit Aig::lmaj(Lit a, Lit b, Lit c) {
    return lor(land(a, b), land(c, lor(a, b)));
}

std::vector<NodeId> Aig::reachable_ands() const {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<NodeId> stack;
    for (const Lit out : outputs_) {
        const NodeId n = lit_node(out);
        if (!seen[n]) {
            seen[n] = true;
            stack.push_back(n);
        }
    }
    while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        if (!is_and(n)) continue;
        for (const Lit f : {nodes_[n].f0, nodes_[n].f1}) {
            const NodeId c = lit_node(f);
            if (!seen[c]) {
                seen[c] = true;
                stack.push_back(c);
            }
        }
    }
    std::vector<NodeId> ands;
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        if (seen[n] && is_and(n)) ands.push_back(n);
    }
    return ands;  // ascending id = topological (fanins precede nodes)
}

std::size_t Aig::and_count() const { return reachable_ands().size(); }

int Aig::level() const {
    std::vector<int> depth(nodes_.size(), 0);
    for (const NodeId n : reachable_ands()) {
        depth[n] = 1 + std::max(depth[lit_node(nodes_[n].f0)],
                                depth[lit_node(nodes_[n].f1)]);
    }
    int worst = 0;
    for (const Lit out : outputs_) worst = std::max(worst, depth[lit_node(out)]);
    return worst;
}

std::vector<std::uint32_t> Aig::fanout_counts() const {
    std::vector<std::uint32_t> counts(nodes_.size(), 0);
    for (const NodeId n : reachable_ands()) {
        ++counts[lit_node(nodes_[n].f0)];
        ++counts[lit_node(nodes_[n].f1)];
    }
    for (const Lit out : outputs_) ++counts[lit_node(out)];
    return counts;
}

std::vector<std::uint64_t> Aig::simulate_words(
    const std::vector<std::uint64_t>& input_words) const {
    if (input_words.size() != inputs_.size()) {
        throw std::invalid_argument("Aig::simulate_words: stimulus count");
    }
    std::vector<std::uint64_t> value(nodes_.size(), 0);
    for (std::size_t i = 0; i < inputs_.size(); ++i) value[inputs_[i]] = input_words[i];
    const auto eval = [&](Lit l) {
        const std::uint64_t v = value[lit_node(l)];
        return lit_complemented(l) ? ~v : v;
    };
    for (const NodeId n : reachable_ands()) {
        value[n] = eval(nodes_[n].f0) & eval(nodes_[n].f1);
    }
    std::vector<std::uint64_t> out;
    out.reserve(outputs_.size());
    for (const Lit l : outputs_) out.push_back(eval(l));
    return out;
}

void Aig::truncate(std::size_t marked_size) {
    assert(marked_size >= 1 && marked_size <= nodes_.size());
    for (std::size_t n = nodes_.size(); n-- > marked_size;) {
        assert(is_and(static_cast<NodeId>(n)) && "only ANDs may be rolled back");
        strash_erase(static_cast<NodeId>(n));
    }
    nodes_.resize(marked_size);
}

tt::TruthTable Aig::to_truth_table(Lit l, int num_vars) const {
    std::vector<tt::TruthTable> value(nodes_.size());
    value[kConstNode] = tt::TruthTable::zeros(num_vars);
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        value[inputs_[i]] = static_cast<int>(i) < num_vars
                                ? tt::TruthTable::var(num_vars, static_cast<int>(i))
                                : tt::TruthTable::zeros(num_vars);
    }
    const auto eval = [&](Lit lit) {
        const tt::TruthTable& v = value[lit_node(lit)];
        return lit_complemented(lit) ? ~v : v;
    };
    // Evaluate the cone of l; ascending id order is topological.
    for (NodeId n = 0; n < nodes_.size(); ++n) {
        if (is_and(n)) value[n] = eval(nodes_[n].f0) & eval(nodes_[n].f1);
    }
    return eval(l);
}

}  // namespace bdsmaj::aig
