#pragma once
// Single-output sum-of-products covers, the local node functions of
// BLIF-style logic networks (one `.names` block each).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tt/truth_table.hpp"

namespace bdsmaj::net {

/// Literal polarity inside a cube, in BLIF notation order.
enum class Lit : std::uint8_t {
    kNeg = 0,   ///< '0' : complemented literal
    kPos = 1,   ///< '1' : positive literal
    kDash = 2,  ///< '-' : variable absent from the cube
};

/// One product term over `arity` positions.
struct Cube {
    std::vector<Lit> lits;

    [[nodiscard]] std::size_t arity() const noexcept { return lits.size(); }
    [[nodiscard]] int literal_count() const;
    [[nodiscard]] std::string to_string() const;
    bool operator==(const Cube&) const = default;
};

/// A cover: OR of cubes over a fixed arity. An empty cover is constant 0;
/// a cover containing the all-dash cube is constant 1.
class Sop {
public:
    Sop() = default;
    explicit Sop(std::size_t arity) : arity_(arity) {}

    static Sop constant(bool value, std::size_t arity = 0);
    /// Single-cube cover from a BLIF pattern like "1-0".
    static Sop from_pattern(const std::string& pattern);
    /// The single positive (or negative) literal of variable `pos`.
    static Sop literal(std::size_t arity, std::size_t pos, bool positive);
    /// Exact cover synthesized from a truth table via Minato-Morreale ISOP.
    static Sop isop(const tt::TruthTable& on_set);

    void add_cube(Cube cube);
    void add_pattern(std::string_view pattern);

    [[nodiscard]] std::size_t arity() const noexcept { return arity_; }
    [[nodiscard]] const std::vector<Cube>& cubes() const noexcept { return cubes_; }
    [[nodiscard]] bool is_const0() const noexcept { return cubes_.empty(); }
    [[nodiscard]] bool is_const1() const;
    [[nodiscard]] int literal_count() const;

    /// Evaluate on one input combination (bit i of `input` = fanin i).
    [[nodiscard]] bool eval(std::uint64_t input) const;
    /// 64 parallel evaluations; `fanin_words[i]` carries fanin i.
    [[nodiscard]] std::uint64_t eval_words(const std::vector<std::uint64_t>& fanin_words) const;
    /// Truth table over `arity` variables (var i = fanin i).
    [[nodiscard]] tt::TruthTable to_truth_table() const;

    /// BLIF `.names` body lines (cube pattern + " 1").
    [[nodiscard]] std::string to_blif_body() const;

    bool operator==(const Sop&) const = default;

private:
    std::size_t arity_ = 0;
    std::vector<Cube> cubes_;
};

}  // namespace bdsmaj::net
