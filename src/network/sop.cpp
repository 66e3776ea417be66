#include "network/sop.hpp"

#include <cassert>
#include <stdexcept>

namespace bdsmaj::net {

int Cube::literal_count() const {
    int count = 0;
    for (const Lit l : lits) {
        if (l != Lit::kDash) ++count;
    }
    return count;
}

std::string Cube::to_string() const {
    std::string s;
    s.reserve(lits.size());
    for (const Lit l : lits) {
        s.push_back(l == Lit::kPos ? '1' : (l == Lit::kNeg ? '0' : '-'));
    }
    return s;
}

Sop Sop::constant(bool value, std::size_t arity) {
    Sop sop(arity);
    if (value) sop.add_cube(Cube{std::vector<Lit>(arity, Lit::kDash)});
    return sop;
}

Sop Sop::from_pattern(const std::string& pattern) {
    Sop sop(pattern.size());
    sop.add_pattern(pattern);
    return sop;
}

Sop Sop::literal(std::size_t arity, std::size_t pos, bool positive) {
    assert(pos < arity);
    Cube cube{std::vector<Lit>(arity, Lit::kDash)};
    cube.lits[pos] = positive ? Lit::kPos : Lit::kNeg;
    Sop sop(arity);
    sop.add_cube(std::move(cube));
    return sop;
}

void Sop::add_cube(Cube cube) {
    if (cube.lits.size() != arity_) {
        throw std::invalid_argument("Sop::add_cube: arity mismatch");
    }
    cubes_.push_back(std::move(cube));
}

void Sop::add_pattern(std::string_view pattern) {
    Cube cube;
    cube.lits.reserve(pattern.size());
    for (const char ch : pattern) {
        switch (ch) {
            case '0': cube.lits.push_back(Lit::kNeg); break;
            case '1': cube.lits.push_back(Lit::kPos); break;
            case '-': cube.lits.push_back(Lit::kDash); break;
            default: throw std::invalid_argument("Sop: bad cube character");
        }
    }
    add_cube(std::move(cube));
}

bool Sop::is_const1() const {
    for (const Cube& c : cubes_) {
        if (c.literal_count() == 0) return true;
    }
    return false;
}

int Sop::literal_count() const {
    int count = 0;
    for (const Cube& c : cubes_) count += c.literal_count();
    return count;
}

bool Sop::eval(std::uint64_t input) const {
    for (const Cube& c : cubes_) {
        bool match = true;
        for (std::size_t i = 0; i < c.lits.size() && match; ++i) {
            const bool bit = (input >> i) & 1;
            if (c.lits[i] == Lit::kPos && !bit) match = false;
            if (c.lits[i] == Lit::kNeg && bit) match = false;
        }
        if (match) return true;
    }
    return false;
}

std::uint64_t Sop::eval_words(const std::vector<std::uint64_t>& fanin_words) const {
    assert(fanin_words.size() == arity_);
    std::uint64_t out = 0;
    for (const Cube& c : cubes_) {
        std::uint64_t term = ~std::uint64_t{0};
        for (std::size_t i = 0; i < c.lits.size(); ++i) {
            if (c.lits[i] == Lit::kPos) term &= fanin_words[i];
            if (c.lits[i] == Lit::kNeg) term &= ~fanin_words[i];
        }
        out |= term;
    }
    return out;
}

tt::TruthTable Sop::to_truth_table() const {
    // Word-parallel: AND together projection tables per cube instead of
    // evaluating every cube on every minterm bit by bit.
    const int n = static_cast<int>(arity_);
    tt::TruthTable out = tt::TruthTable::zeros(n);
    for (const Cube& c : cubes_) {
        tt::TruthTable term = tt::TruthTable::ones(n);
        for (std::size_t i = 0; i < c.lits.size(); ++i) {
            if (c.lits[i] == Lit::kDash) continue;
            const tt::TruthTable v = tt::TruthTable::var(n, static_cast<int>(i));
            term = c.lits[i] == Lit::kPos ? (term & v) : (term & ~v);
        }
        out = out | term;
    }
    return out;
}

std::string Sop::to_blif_body() const {
    std::string out;
    for (const Cube& c : cubes_) {
        if (arity_ == 0) {
            out += "1\n";  // constant-1 node
        } else {
            out += c.to_string();
            out += " 1\n";
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Minato-Morreale irredundant SOP from a truth table, recursing on the
// lowest-index support variable. With on-set == don't-care-free off-set
// complement, this yields an exact, usually compact cover.
// ---------------------------------------------------------------------------

namespace {

using tt::TruthTable;

/// A cover under construction together with the truth table of the
/// function it computes. Threading the table through the recursion keeps
/// the "what is already covered" question word-parallel; the previous
/// formulation re-evaluated every cover cube on every minterm
/// (Sop::eval per bit) at every recursion level, which dominated the
/// whole AIG rewriting pipeline.
struct IsopPart {
    Sop sop;
    TruthTable covered;
};

IsopPart isop_rec(const TruthTable& on_lower, const TruthTable& on_upper, int var,
                  std::size_t arity) {
    const int n = on_lower.num_vars();
    // Invariant: on_lower <= care function <= on_upper (as sets).
    if (on_upper.is_const0()) return {Sop(arity), TruthTable::zeros(n)};
    if (on_lower.is_const1()) {
        return {Sop::constant(true, arity), TruthTable::ones(n)};
    }
    // Find the splitting variable: the highest variable either bound
    // depends on, at or below `var`.
    int split = -1;
    for (int v = var; v >= 0; --v) {
        if (on_lower.depends_on(v) || on_upper.depends_on(v)) {
            split = v;
            break;
        }
    }
    if (split < 0) {
        // Neither bound depends on anything: constant interval; on_upper is
        // not 0 so we may cover everything with the empty cube.
        return {Sop::constant(true, arity), TruthTable::ones(n)};
    }

    const TruthTable l0 = on_lower.cofactor(split, false);
    const TruthTable l1 = on_lower.cofactor(split, true);
    const TruthTable u0 = on_upper.cofactor(split, false);
    const TruthTable u1 = on_upper.cofactor(split, true);

    // Minterms that must be covered with the negative (resp. positive)
    // literal of `split`.
    IsopPart cover0 = isop_rec(l0 & ~u1, u0, split - 1, arity);
    IsopPart cover1 = isop_rec(l1 & ~u0, u1, split - 1, arity);

    // Remaining on-set must be covered without a `split` literal.
    const TruthTable rest_lower = (l0 & ~cover0.covered) | (l1 & ~cover1.covered);
    IsopPart cover_dash = isop_rec(rest_lower, u0 & u1, split - 1, arity);

    Sop out(arity);
    for (const Cube& c : cover0.sop.cubes()) {
        Cube cube = c;
        cube.lits[static_cast<std::size_t>(split)] = Lit::kNeg;
        out.add_cube(std::move(cube));
    }
    for (const Cube& c : cover1.sop.cubes()) {
        Cube cube = c;
        cube.lits[static_cast<std::size_t>(split)] = Lit::kPos;
        out.add_cube(std::move(cube));
    }
    for (const Cube& c : cover_dash.sop.cubes()) out.add_cube(c);
    const TruthTable vs = TruthTable::var(n, split);
    TruthTable covered =
        (~vs & cover0.covered) | (vs & cover1.covered) | cover_dash.covered;
    return {std::move(out), std::move(covered)};
}

}  // namespace

Sop Sop::isop(const tt::TruthTable& on_set) {
    const auto arity = static_cast<std::size_t>(on_set.num_vars());
    return isop_rec(on_set, on_set, on_set.num_vars() - 1, arity).sop;
}

}  // namespace bdsmaj::net
