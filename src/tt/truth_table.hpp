#pragma once
// Packed truth tables over up to 20 variables.
//
// A TruthTable stores 2^n function values in 64-bit words, with the value
// for input assignment m (variable i = bit i of m) at bit position m. For
// n < 6 only the low 2^n bits of the single word are meaningful; they are
// kept in a replicated-block normal form so that equal functions always
// compare bitwise-equal.
//
// This module is the oracle the rest of the repository is tested against:
// every BDD operation, decomposition theorem, and mapped netlist is checked
// for functional equality through this class.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace bdsmaj::tt {

class TruthTable {
public:
    /// Widest function a table holds (2^20 bits, 128 KiB).
    static constexpr int kMaxVars = 20;

    TruthTable() = default;

    /// Constant-zero function of `num_vars` variables.
    static TruthTable zeros(int num_vars);
    /// Constant-one function of `num_vars` variables.
    static TruthTable ones(int num_vars);
    /// Projection function x_i over `num_vars` variables.
    static TruthTable var(int num_vars, int var_index);
    /// Uniformly random function of `num_vars` variables.
    static TruthTable random(int num_vars, std::mt19937_64& rng);
    /// Build from an arbitrary predicate over input minterms.
    template <typename Fn>
    static TruthTable from_fn(int num_vars, Fn&& fn) {
        TruthTable t = zeros(num_vars);
        for (std::uint64_t m = 0; m < (std::uint64_t{1} << num_vars); ++m) {
            if (fn(m)) t.set_bit(m);
        }
        return t;
    }

    [[nodiscard]] int num_vars() const noexcept { return num_vars_; }
    [[nodiscard]] std::uint64_t num_bits() const noexcept {
        return std::uint64_t{1} << num_vars_;
    }
    [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
        return words_;
    }

    [[nodiscard]] bool get_bit(std::uint64_t minterm) const;
    void set_bit(std::uint64_t minterm);
    void clear_bit(std::uint64_t minterm);
    void write_bit(std::uint64_t minterm, bool value);

    [[nodiscard]] bool is_const0() const;
    [[nodiscard]] bool is_const1() const;
    /// Number of minterms on which the function is 1.
    [[nodiscard]] std::uint64_t count_ones() const;

    /// True iff the function value changes when `var_index` flips.
    [[nodiscard]] bool depends_on(int var_index) const;
    /// Indices of all variables the function depends on.
    [[nodiscard]] std::vector<int> support() const;

    /// Cofactor with variable fixed to the given polarity; arity unchanged.
    [[nodiscard]] TruthTable cofactor(int var_index, bool value) const;
    /// Swap the roles of two variables.
    [[nodiscard]] TruthTable swap_vars(int a, int b) const;

    [[nodiscard]] TruthTable operator~() const;
    [[nodiscard]] TruthTable operator&(const TruthTable& o) const;
    [[nodiscard]] TruthTable operator|(const TruthTable& o) const;
    [[nodiscard]] TruthTable operator^(const TruthTable& o) const;
    bool operator==(const TruthTable& o) const = default;

    /// Low 2^n bits as hex, most significant word first.
    [[nodiscard]] std::string to_hex() const;

private:
    explicit TruthTable(int num_vars);
    void normalize();

    int num_vars_ = 0;
    std::vector<std::uint64_t> words_;
};

/// if-then-else: f ? g : h, computed bitwise.
[[nodiscard]] TruthTable ite(const TruthTable& f, const TruthTable& g,
                             const TruthTable& h);
/// Three-input majority.
[[nodiscard]] TruthTable maj3(const TruthTable& a, const TruthTable& b,
                              const TruthTable& c);

}  // namespace bdsmaj::tt
