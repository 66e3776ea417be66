#pragma once
// And-Inverter Graph with structural hashing and complement edges: the
// optimization substrate of the "ABC" comparison flow (paper SV, resyn2 +
// ABC mapper). Node 0 is constant false; literals are (node << 1) |
// complement, so negation is free.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tt/truth_table.hpp"

namespace bdsmaj::aig {

using Lit = std::uint32_t;
using NodeId = std::uint32_t;

constexpr NodeId kConstNode = 0;
constexpr Lit kLitFalse = 0;
constexpr Lit kLitTrue = 1;
constexpr Lit kLitInvalid = 0xffffffffu;

[[nodiscard]] constexpr NodeId lit_node(Lit l) noexcept { return l >> 1; }
[[nodiscard]] constexpr bool lit_complemented(Lit l) noexcept { return (l & 1u) != 0; }
[[nodiscard]] constexpr Lit make_lit(NodeId n, bool complement) noexcept {
    return (n << 1) | static_cast<Lit>(complement);
}
[[nodiscard]] constexpr Lit lit_not(Lit l) noexcept { return l ^ 1u; }

class Aig {
public:
    Aig() {
        nodes_.push_back(Node{kLitInvalid, kLitInvalid});  // constant false
    }

    /// Create a primary input; returns its positive literal.
    Lit add_input();
    /// Structurally hashed AND with constant/duplicate folding.
    [[nodiscard]] Lit land(Lit a, Lit b);
    [[nodiscard]] Lit lor(Lit a, Lit b) { return lit_not(land(lit_not(a), lit_not(b))); }
    [[nodiscard]] Lit lxor(Lit a, Lit b);
    [[nodiscard]] Lit lmux(Lit s, Lit t, Lit e);
    [[nodiscard]] Lit lmaj(Lit a, Lit b, Lit c);
    void add_output(Lit l) { outputs_.push_back(l); }

    [[nodiscard]] std::size_t input_count() const noexcept { return inputs_.size(); }
    [[nodiscard]] const std::vector<NodeId>& inputs() const noexcept { return inputs_; }
    [[nodiscard]] const std::vector<Lit>& outputs() const noexcept { return outputs_; }
    [[nodiscard]] std::vector<Lit>& outputs() noexcept { return outputs_; }

    [[nodiscard]] bool is_and(NodeId n) const {
        return nodes_[n].f0 != kLitInvalid && n != kConstNode;
    }
    [[nodiscard]] bool is_input(NodeId n) const {
        return nodes_[n].f0 == kLitInvalid && n != kConstNode;
    }
    [[nodiscard]] Lit fanin0(NodeId n) const { return nodes_[n].f0; }
    [[nodiscard]] Lit fanin1(NodeId n) const { return nodes_[n].f1; }
    [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

    /// Number of AND nodes reachable from the outputs (the ABC size metric).
    [[nodiscard]] std::size_t and_count() const;
    /// Maximum AND-depth over outputs (the ABC level metric).
    [[nodiscard]] int level() const;
    /// AND nodes reachable from the outputs, topologically ordered.
    [[nodiscard]] std::vector<NodeId> reachable_ands() const;
    /// Fanout counts over reachable nodes (outputs count one each).
    [[nodiscard]] std::vector<std::uint32_t> fanout_counts() const;

    /// 64-way parallel simulation: word per input, word per output.
    [[nodiscard]] std::vector<std::uint64_t> simulate_words(
        const std::vector<std::uint64_t>& input_words) const;

    /// Truth table of a literal over the first `num_vars` inputs.
    [[nodiscard]] tt::TruthTable to_truth_table(Lit l, int num_vars) const;

    /// Rollback support for trial construction (the rewrite pass builds a
    /// candidate, measures its cost, and may undo it). Only AND nodes may
    /// be created between mark and truncate.
    [[nodiscard]] std::size_t mark() const noexcept { return nodes_.size(); }
    void truncate(std::size_t marked_size);

private:
    struct Node {
        Lit f0 = kLitInvalid;
        Lit f1 = kLitInvalid;
    };

    /// The slot of strash_ that holds the AND (a, b), a < b, or the empty
    /// slot where it would go.
    [[nodiscard]] std::size_t strash_slot(Lit a, Lit b) const;
    void strash_grow();
    void strash_erase(NodeId n);

    std::vector<Node> nodes_;
    std::vector<NodeId> inputs_;
    std::vector<Lit> outputs_;
    /// Structural hash of the AND nodes: linear probing over node ids
    /// (0 = empty; node 0 is the constant), power-of-two size, at most
    /// half full. One flat array, so trial builds and their rollback
    /// allocate nothing per node.
    std::vector<NodeId> strash_;
};

}  // namespace bdsmaj::aig
