#include "tt/truth_table.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace bdsmaj::tt {
namespace {

constexpr std::uint64_t kVarMasks[6] = {
    0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
    0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
};

std::size_t word_count(int num_vars) {
    return num_vars <= 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
    if (num_vars < 0 || num_vars > kMaxVars) {
        throw std::invalid_argument("TruthTable: num_vars out of [0,20]");
    }
    words_.assign(word_count(num_vars), 0);
}

void TruthTable::normalize() {
    // For n < 6, replicate the low 2^n-bit block through the whole word so
    // equality is plain vector equality.
    if (num_vars_ >= 6) return;
    const int block = 1 << num_vars_;
    std::uint64_t w = words_[0];
    if (block < 64) {
        w &= (std::uint64_t{1} << block) - 1;
        for (int shift = block; shift < 64; shift <<= 1) w |= w << shift;
    }
    words_[0] = w;
}

TruthTable TruthTable::zeros(int num_vars) { return TruthTable(num_vars); }

TruthTable TruthTable::ones(int num_vars) {
    TruthTable t(num_vars);
    for (auto& w : t.words_) w = ~std::uint64_t{0};
    return t;
}

TruthTable TruthTable::var(int num_vars, int var_index) {
    if (var_index < 0 || var_index >= num_vars) {
        throw std::invalid_argument("TruthTable::var: index out of range");
    }
    TruthTable t(num_vars);
    if (var_index < 6) {
        for (auto& w : t.words_) w = kVarMasks[var_index];
    } else {
        const std::size_t stride = std::size_t{1} << (var_index - 6);
        for (std::size_t i = 0; i < t.words_.size(); ++i) {
            if ((i / stride) & 1) t.words_[i] = ~std::uint64_t{0};
        }
    }
    t.normalize();
    return t;
}

TruthTable TruthTable::random(int num_vars, std::mt19937_64& rng) {
    TruthTable t(num_vars);
    for (auto& w : t.words_) w = rng();
    t.normalize();
    return t;
}

bool TruthTable::get_bit(std::uint64_t minterm) const {
    return (words_[minterm >> 6] >> (minterm & 63)) & 1;
}

void TruthTable::set_bit(std::uint64_t minterm) {
    words_[minterm >> 6] |= std::uint64_t{1} << (minterm & 63);
    normalize();
}

void TruthTable::clear_bit(std::uint64_t minterm) {
    words_[minterm >> 6] &= ~(std::uint64_t{1} << (minterm & 63));
    normalize();
}

void TruthTable::write_bit(std::uint64_t minterm, bool value) {
    if (value) {
        set_bit(minterm);
    } else {
        clear_bit(minterm);
    }
}

bool TruthTable::is_const0() const {
    for (auto w : words_) {
        if (w != 0) return false;
    }
    return true;
}

bool TruthTable::is_const1() const {
    for (auto w : words_) {
        if (w != ~std::uint64_t{0}) return false;
    }
    return true;
}

std::uint64_t TruthTable::count_ones() const {
    if (num_vars_ < 6) {
        const std::uint64_t mask = (std::uint64_t{1} << num_bits()) - 1;
        return static_cast<std::uint64_t>(std::popcount(words_[0] & mask));
    }
    std::uint64_t total = 0;
    for (auto w : words_) total += static_cast<std::uint64_t>(std::popcount(w));
    return total;
}

bool TruthTable::depends_on(int var_index) const {
    return cofactor(var_index, false) != cofactor(var_index, true);
}

std::vector<int> TruthTable::support() const {
    std::vector<int> vars;
    for (int v = 0; v < num_vars_; ++v) {
        if (depends_on(v)) vars.push_back(v);
    }
    return vars;
}

TruthTable TruthTable::cofactor(int var_index, bool value) const {
    TruthTable t = *this;
    if (var_index < 6) {
        const std::uint64_t mask = kVarMasks[var_index];
        const int shift = 1 << var_index;
        for (auto& w : t.words_) {
            if (value) {
                w = (w & mask) | ((w & mask) >> shift);
            } else {
                w = (w & ~mask) | ((w & ~mask) << shift);
            }
        }
    } else {
        const std::size_t stride = std::size_t{1} << (var_index - 6);
        for (std::size_t i = 0; i < t.words_.size(); ++i) {
            const std::size_t base = (i / (2 * stride)) * 2 * stride;
            const std::size_t offset = i % stride;
            t.words_[i] = words_[base + offset + (value ? stride : 0)];
        }
    }
    t.normalize();
    return t;
}

TruthTable TruthTable::swap_vars(int a, int b) const {
    if (a == b) return *this;
    TruthTable t = zeros(num_vars_);
    const std::uint64_t bit_a = std::uint64_t{1} << a;
    const std::uint64_t bit_b = std::uint64_t{1} << b;
    for (std::uint64_t m = 0; m < num_bits(); ++m) {
        std::uint64_t src = m & ~(bit_a | bit_b);
        if (m & bit_a) src |= bit_b;
        if (m & bit_b) src |= bit_a;
        if (get_bit(src)) t.words_[m >> 6] |= std::uint64_t{1} << (m & 63);
    }
    t.normalize();
    return t;
}

TruthTable TruthTable::operator~() const {
    TruthTable t = *this;
    for (auto& w : t.words_) w = ~w;
    t.normalize();
    return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
    assert(num_vars_ == o.num_vars_);
    TruthTable t = *this;
    for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] &= o.words_[i];
    return t;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
    assert(num_vars_ == o.num_vars_);
    TruthTable t = *this;
    for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] |= o.words_[i];
    return t;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
    assert(num_vars_ == o.num_vars_);
    TruthTable t = *this;
    for (std::size_t i = 0; i < words_.size(); ++i) t.words_[i] ^= o.words_[i];
    return t;
}

std::string TruthTable::to_hex() const {
    static const char* digits = "0123456789abcdef";
    const std::uint64_t nibbles = num_bits() <= 4 ? 1 : num_bits() / 4;
    std::string s;
    s.reserve(nibbles);
    for (std::uint64_t i = 0; i < nibbles; ++i) {
        const std::uint64_t n = nibbles - 1 - i;
        const std::uint64_t word = words_[n / 16];
        s.push_back(digits[(word >> ((n % 16) * 4)) & 0xf]);
    }
    return s;
}

TruthTable ite(const TruthTable& f, const TruthTable& g, const TruthTable& h) {
    return (f & g) | (~f & h);
}

TruthTable maj3(const TruthTable& a, const TruthTable& b,
                const TruthTable& c) {
    return (a & b) | (b & c) | (a & c);
}

}  // namespace bdsmaj::tt
