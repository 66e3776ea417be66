#include "decomp/exact_decide.hpp"

#include <algorithm>
#include <bit>
#include <bitset>
#include <cassert>
#include <unordered_map>

namespace bdsmaj::decomp::detail {

namespace {

/// Exchange the two cofactors of variable v: t(x) -> t(x with v flipped).
std::uint64_t swap_var(std::uint64_t t, int v) {
    const int s = 1 << v;
    return ((t & kInputTt[v]) >> s) | ((t & ~kInputTt[v]) << s);
}

/// Value of a 3-slot table over operand functions; bit (x0 + 2 x1 + 4 x2).
std::uint64_t eval_table(std::uint8_t h, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) {
    std::uint64_t r = 0;
    for (int x = 0; x < 8; ++x) {
        if (((h >> x) & 1) == 0) continue;
        r |= ((x & 1) ? a : ~a) & ((x & 2) ? b : ~b) & ((x & 4) ? c : ~c);
    }
    return r;
}

/// The table that reads slot s complemented.
std::uint8_t flip_slot(std::uint8_t h, int s) {
    std::uint8_t r = 0;
    for (int x = 0; x < 8; ++x) {
        if ((h >> (x ^ (1 << s))) & 1) r = static_cast<std::uint8_t>(r | (1 << x));
    }
    return r;
}

/// A 2-slot table (bit x0 + 2 x1) as a 3-slot table ignoring slot 2.
std::uint8_t widen(std::uint8_t h4) {
    return static_cast<std::uint8_t>(h4 | (h4 << 4));
}

bool depends_on(std::uint8_t h, int s) { return flip_slot(h, s) != h; }

/// An output step with one unknown operand N: reading `table` over
/// (A, B, N) — two-slot forms read (A, N) — it equals N in the regions
/// `id`, ~N in `neg` and a constant elsewhere; region r = a + 2b.
struct Form {
    std::uint8_t table = 0;
    std::uint8_t id = 0;
    std::uint8_t neg = 0;
    std::uint8_t zero = 0;  ///< regions where the step is constant 0
    std::uint8_t one = 0;   ///< regions where the step is constant 1
    std::uint8_t flip = 0;  ///< slot whose flip maps the other regions onto id|neg
};

/// Every table one gate can realize (any polarity), split by arity, with
/// the fit lists that the searches index by region classes.
struct Alphabet {
    std::vector<Form> t2, t3;
    std::array<std::vector<std::uint8_t>, 16> t2_fit;   ///< has1 | has0 << 2
    std::array<std::vector<std::uint8_t>, 256> t3_fit;  ///< has1 | has0 << 4
    std::vector<std::uint8_t> t2_normal, t3_normal;     ///< bit 0 clear
    std::bitset<256> ext2;    ///< ones | zeros << 4: some t2 table fits
    std::bitset<65536> ext3;  ///< ones | zeros << 8: some t3 table fits
};

Form make_form(std::uint8_t table, int regions) {
    Form f;
    f.table = table;
    const int n_shift = regions == 2 ? 2 : 4;  // N's slot bit
    for (int r = 0; r < regions; ++r) {
        const int lo = (table >> r) & 1;
        const int hi = (table >> (r + n_shift)) & 1;
        const auto bit = static_cast<std::uint8_t>(1 << r);
        if (lo == hi) {
            (lo ? f.one : f.zero) |= bit;
        } else {
            (lo ? f.neg : f.id) |= bit;
        }
    }
    const int care = f.id | f.neg;
    // Three-slot forms read N in two of the four regions. A half-space of
    // A is completed by flipping A; a half-space of B or a diagonal by
    // flipping B. (Two-slot forms always flip A.)
    f.flip = (care == 0b0101 || care == 0b1010) ? 0 : 1;
    return f;
}

const Alphabet& alphabet() {
    static const Alphabet alpha = [] {
        Alphabet a;
        for (int h = 0; h < 256; ++h) {
            const auto t = static_cast<std::uint8_t>(h);
            const auto normal = static_cast<std::uint8_t>((h & 1) ? ~h : h);
            if (!normal_table_allowed(normal)) continue;
            if (depends_on(t, 0) && depends_on(t, 1) && depends_on(t, 2)) {
                a.t3.push_back(make_form(t, 4));
                if ((h & 1) == 0) a.t3_normal.push_back(t);
            } else if (depends_on(t, 0) && depends_on(t, 1) && !depends_on(t, 2)) {
                const auto h4 = static_cast<std::uint8_t>(h & 0xf);
                a.t2.push_back(make_form(h4, 2));
                if ((h & 1) == 0) a.t2_normal.push_back(h4);
            }
        }
        for (int key = 0; key < 16; ++key) {
            const int has1 = key & 3, has0 = key >> 2;
            for (std::size_t i = 0; i < a.t2.size(); ++i) {
                if ((a.t2[i].zero & has1) == 0 && (a.t2[i].one & has0) == 0) {
                    a.t2_fit[static_cast<std::size_t>(key)].push_back(
                        static_cast<std::uint8_t>(i));
                }
            }
        }
        for (int key = 0; key < 256; ++key) {
            const int has1 = key & 15, has0 = key >> 4;
            for (std::size_t i = 0; i < a.t3.size(); ++i) {
                if ((a.t3[i].zero & has1) == 0 && (a.t3[i].one & has0) == 0) {
                    a.t3_fit[static_cast<std::size_t>(key)].push_back(
                        static_cast<std::uint8_t>(i));
                }
            }
        }
        for (int key = 0; key < 256; ++key) {
            const int ones = key & 15, zeros = key >> 4;
            for (const Form& f : a.t2) {
                if ((f.table & ones) == ones && (f.table & zeros) == 0) {
                    a.ext2.set(static_cast<std::size_t>(key));
                    break;
                }
            }
        }
        for (int key = 0; key < 65536; ++key) {
            const int ones = key & 255, zeros = key >> 8;
            if (ones & zeros) continue;
            for (const Form& f : a.t3) {
                if ((f.table & ones) == ones && (f.table & zeros) == 0) {
                    a.ext3.set(static_cast<std::size_t>(key));
                    break;
                }
            }
        }
        return a;
    }();
    return alpha;
}

/// An incompletely specified function: where it must be 1 and 0.
struct Isf {
    std::uint64_t on = 0;
    std::uint64_t off = 0;
};

bool realizes(std::uint64_t t, const Isf& phi) {
    return (phi.on & ~t) == 0 && (phi.off & t) == 0;
}

unsigned classes2(std::uint64_t a, const Isf& phi) {
    const std::uint64_t r[2] = {~a, a};
    unsigned key = 0;
    for (int i = 0; i < 2; ++i) {
        if (r[i] & phi.on) key |= 1u << i;
        if (r[i] & phi.off) key |= 4u << i;
    }
    return key;
}

unsigned classes4(std::uint64_t a, std::uint64_t b, const Isf& phi) {
    const std::uint64_t r[4] = {~a & ~b, a & ~b, ~a & b, a & b};
    unsigned key = 0;
    for (int i = 0; i < 4; ++i) {
        if (r[i] & phi.on) key |= 1u << i;
        if (r[i] & phi.off) key |= 16u << i;
    }
    return key;
}

/// What the unknown operand of `f` must be: phi restricted to the regions
/// where the form reads it, complemented where it reads ~N.
Isf operand_isf(const Form& f, const std::uint64_t* region, int regions,
                const Isf& phi) {
    std::uint64_t id = 0, neg = 0;
    for (int r = 0; r < regions; ++r) {
        if ((f.id >> r) & 1) id |= region[r];
        if ((f.neg >> r) & 1) neg |= region[r];
    }
    return {(phi.on & id) | (phi.off & neg), (phi.off & id) | (phi.on & neg)};
}

/// A step in the search's pool. Inputs are nodes 0..n-1; a step's
/// operands are earlier nodes, op[2] = -1 for two-operand steps.
struct Node {
    std::uint64_t tt = 0;
    std::array<std::int16_t, 3> op{-1, -1, -1};
    std::uint8_t table = 0;
    std::uint8_t depth = 0;
    std::uint8_t supp = 0;
};

/// A one-step function of inputs (and possibly one pool node).
struct OneStep {
    std::uint64_t tt = 0;
    std::uint8_t table = 0;
    std::array<std::int16_t, 3> op{-1, -1, -1};
};

}  // namespace

struct ShortChainDecider::Impl {
    Impl(std::uint64_t g, int num_inputs)
        : n(num_inputs), mask(tt_mask(num_inputs)), target(g & mask) {
        for (int v = 0; v < n; ++v) {
            Node in;
            in.tt = kInputTt[v] & mask;
            in.supp = static_cast<std::uint8_t>(1u << v);
            nodes.push_back(in);
        }
    }

    int n;
    std::uint64_t mask;
    std::uint64_t target;
    std::vector<Node> nodes;
    /// decide() results by [steps][depth], keyed by the normal function.
    std::unordered_map<std::uint64_t, int> memo[kDecidedSteps + 1][kDecidedSteps + 1];
    std::unordered_map<unsigned, std::vector<OneStep>> one_steps_by_support;

    unsigned support(std::uint64_t t) const {
        unsigned s = 0;
        for (int v = 0; v < n; ++v) {
            if (swap_var(t, v) != t) s |= 1u << v;
        }
        return s;
    }

    unsigned essential(const Isf& phi) const {
        unsigned e = 0;
        for (int v = 0; v < n; ++v) {
            if (phi.on & swap_var(phi.off, v)) e |= 1u << v;
        }
        return e;
    }

    /// Inputs of `supp` whose effect on f (its difference `f_diff[w]`)
    /// nodes a and b do not explain: a function of a, b and inputs W
    /// leaves at most the inputs of W unexplained.
    int unexplained(const std::array<std::uint64_t, 6>& f_diff, unsigned supp,
                    std::uint64_t a, std::uint64_t b) const {
        int count = 0;
        for (int w = 0; w < n; ++w) {
            if (!((supp >> w) & 1)) continue;
            const std::uint64_t explained = (a ^ swap_var(a, w)) | (b ^ swap_var(b, w));
            if (f_diff[static_cast<std::size_t>(w)] & ~explained) ++count;
        }
        return count;
    }

    int make(std::uint8_t table, int a, int b, int c) {
        Node nd;
        nd.table = table;
        nd.op = {static_cast<std::int16_t>(a), static_cast<std::int16_t>(b),
                 static_cast<std::int16_t>(c)};
        const Node& na = nodes[static_cast<std::size_t>(a)];
        const Node& nb = nodes[static_cast<std::size_t>(b)];
        const std::uint64_t tc = c >= 0 ? nodes[static_cast<std::size_t>(c)].tt : 0;
        nd.tt = eval_table(table, na.tt, nb.tt, tc) & mask;
        int depth = std::max(na.depth, nb.depth);
        nd.supp = static_cast<std::uint8_t>(na.supp | nb.supp);
        if (c >= 0) {
            const Node& nc = nodes[static_cast<std::size_t>(c)];
            depth = std::max<int>(depth, nc.depth);
            nd.supp = static_cast<std::uint8_t>(nd.supp | nc.supp);
        }
        nd.depth = static_cast<std::uint8_t>(depth + 1);
        nodes.push_back(nd);
        return static_cast<int>(nodes.size()) - 1;
    }

    int make(const OneStep& s) { return make(s.table, s.op[0], s.op[1], s.op[2]); }

    /// Output step `form` over node a (and node b unless b < 0, a two-slot
    /// form) and node `operand`, which must realize `want` or ~want.
    int make_top(const Form& form, int a, int b, int operand, const Isf& want) {
        const bool neg = !realizes(nodes[static_cast<std::size_t>(operand)].tt, want);
        if (b < 0) return make(neg ? flip_slot(widen(form.table), 1) : widen(form.table), a, operand, -1);
        return make(neg ? flip_slot(form.table, 2) : form.table, a, b, operand);
    }

    /// An output step over node a (and node b unless b < 0) and one new
    /// operand: for every form that fits phi, in table order, `find(form,
    /// want, a, b)` looks for a node realizing the operand's required
    /// function; the first one found is placed.
    template <class Find>
    int top_over(int a, int b, const Isf& phi, Find&& find) {
        const Alphabet& alpha = alphabet();
        const std::uint64_t ta = nodes[static_cast<std::size_t>(a)].tt;
        if (b < 0) {
            const std::uint64_t region[2] = {~ta, ta};
            for (const std::uint8_t fi : alpha.t2_fit[classes2(ta, phi)]) {
                const Form& form = alpha.t2[fi];
                const Isf want = operand_isf(form, region, 2, phi);
                const int op = find(form, want, a, b);
                if (op >= 0) return make_top(form, a, b, op, want);
            }
            return -1;
        }
        const std::uint64_t tb = nodes[static_cast<std::size_t>(b)].tt;
        const std::uint64_t region[4] = {~ta & ~tb, ta & ~tb, ~ta & tb, ta & tb};
        for (const std::uint8_t fi : alpha.t3_fit[classes4(ta, tb, phi)]) {
            const Form& form = alpha.t3[fi];
            const Isf want = operand_isf(form, region, 4, phi);
            const int op = find(form, want, a, b);
            if (op >= 0) return make_top(form, a, b, op, want);
        }
        return -1;
    }

    /// top_over for every single base, then every pair of bases, whose
    /// depth leaves room for the output step.
    template <class Find>
    int top_over_bases(const std::vector<int>& bases, int max_depth, const Isf& phi,
                       Find&& find) {
        const auto fits = [&](int b) {
            return nodes[static_cast<std::size_t>(b)].depth < max_depth;
        };
        for (const int a : bases) {
            if (!fits(a)) continue;
            const int top = top_over(a, -1, phi, find);
            if (top >= 0) return top;
        }
        for (std::size_t i = 0; i < bases.size(); ++i) {
            if (!fits(bases[i])) continue;
            for (std::size_t j = i + 1; j < bases.size(); ++j) {
                if (!fits(bases[j])) continue;
                const int top = top_over(bases[i], bases[j], phi, find);
                if (top >= 0) return top;
            }
        }
        return -1;
    }

    /// The one-step functions over two, then three, distinct operands:
    /// inputs of `supp`, or pool node g and inputs when g >= 0. Normal
    /// tables only — the reader owns the operand's polarity.
    std::vector<OneStep> one_steps_over(int g, unsigned supp) const {
        const Alphabet& alpha = alphabet();
        const std::vector<int> in = input_bases(supp);
        std::vector<OneStep> out;
        const auto add = [&](int a, int b, int c) {
            const auto tt = [&](int x) { return x < 0 ? 0 : nodes[static_cast<std::size_t>(x)].tt; };
            for (const std::uint8_t h : c < 0 ? alpha.t2_normal : alpha.t3_normal) {
                const std::uint8_t table = c < 0 ? widen(h) : h;
                out.push_back({eval_table(table, tt(a), tt(b), tt(c)) & mask, table,
                               {static_cast<std::int16_t>(a), static_cast<std::int16_t>(b),
                                static_cast<std::int16_t>(c)}});
            }
        };
        const std::size_t m = in.size();
        if (g >= 0) {
            for (const int a : in) add(g, a, -1);
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = i + 1; j < m; ++j) add(g, in[i], in[j]);
            }
            return out;
        }
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = i + 1; j < m; ++j) add(in[i], in[j], -1);
        }
        for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = i + 1; j < m; ++j) {
                for (std::size_t l = j + 1; l < m; ++l) add(in[i], in[j], in[l]);
            }
        }
        return out;
    }

    /// The one-step functions over the inputs of `supp`, kept per support.
    const std::vector<OneStep>& one_steps(unsigned supp) {
        auto it = one_steps_by_support.find(supp);
        if (it == one_steps_by_support.end()) {
            it = one_steps_by_support.emplace(supp, one_steps_over(-1, supp)).first;
        }
        return it->second;
    }

    std::vector<int> input_bases(unsigned supp) const {
        std::vector<int> bases;
        for (int v = 0; v < n; ++v) {
            if ((supp >> v) & 1) bases.push_back(v);
        }
        return bases;
    }

    // -----------------------------------------------------------------
    // One step over a set of available nodes, for an incompletely
    // specified function: every pair, then every triple, whose supports
    // cover the function's essential variables.
    // -----------------------------------------------------------------
    int one_step(const Isf& phi, const std::vector<int>& bases, int max_depth) {
        if (max_depth < 1) return -1;
        const Alphabet& alpha = alphabet();
        const unsigned ess = essential(phi);
        const std::size_t m = bases.size();
        const auto node = [&](std::size_t i) -> const Node& {
            return nodes[static_cast<std::size_t>(bases[i])];
        };
        for (std::size_t i = 0; i < m; ++i) {
            if (node(i).depth >= max_depth) continue;
            for (std::size_t j = i + 1; j < m; ++j) {
                if (node(j).depth >= max_depth) continue;
                if (((node(i).supp | node(j).supp) & ess) != ess) continue;
                const std::uint64_t a = node(i).tt, b = node(j).tt;
                unsigned ones = 0, zeros = 0;
                for (int x = 0; x < 4; ++x) {
                    const std::uint64_t p = ((x & 1) ? a : ~a) & ((x & 2) ? b : ~b);
                    if (p & phi.on) ones |= 1u << x;
                    if (p & phi.off) zeros |= 1u << x;
                }
                if (ones & zeros) continue;
                if (!alpha.ext2.test(ones | (zeros << 4))) continue;
                for (const Form& f : alpha.t2) {
                    if ((f.table & ones) == ones && (f.table & zeros) == 0) {
                        return make(widen(f.table), bases[i], bases[j], -1);
                    }
                }
            }
        }
        for (std::size_t i = 0; i < m; ++i) {
            if (node(i).depth >= max_depth) continue;
            for (std::size_t j = i + 1; j < m; ++j) {
                if (node(j).depth >= max_depth) continue;
                for (std::size_t l = j + 1; l < m; ++l) {
                    if (node(l).depth >= max_depth) continue;
                    if (((node(i).supp | node(j).supp | node(l).supp) & ess) != ess) continue;
                    const std::uint64_t a = node(i).tt, b = node(j).tt, c = node(l).tt;
                    unsigned ones = 0, zeros = 0;
                    for (int x = 0; x < 8; ++x) {
                        const std::uint64_t p =
                            ((x & 1) ? a : ~a) & ((x & 2) ? b : ~b) & ((x & 4) ? c : ~c);
                        if (p & phi.on) ones |= 1u << x;
                        if (p & phi.off) zeros |= 1u << x;
                    }
                    if (ones & zeros) continue;
                    if (!alpha.ext3.test(ones | (zeros << 8))) continue;
                    for (const Form& f : alpha.t3) {
                        if ((f.table & ones) == ones && (f.table & zeros) == 0) {
                            return make(f.table, bases[i], bases[j], bases[l]);
                        }
                    }
                }
            }
        }
        return -1;
    }

    /// At most `steps` (1 or 2) new steps over `bases` realizing phi. Two
    /// steps: the output reads one new step and up to two available nodes.
    int chain_over(const Isf& phi, const std::vector<int>& bases, int steps,
                   int max_depth) {
        const int one = one_step(phi, bases, max_depth);
        if (one >= 0 || steps < 2 || max_depth < 2) return one;
        return top_over_bases(bases, max_depth, phi,
                              [&](const Form&, const Isf& want, int, int) {
                                  return one_step(want, bases, max_depth - 1);
                              });
    }

    // -----------------------------------------------------------------
    // Fully specified targets over the inputs.
    // -----------------------------------------------------------------

    /// A node computing f or ~f with at most `steps` steps and depth at
    /// most `max_depth`; -1 when none exists (or f is constant).
    int decide(std::uint64_t f, int steps, int max_depth) {
        f &= mask;
        if (f == 0 || f == mask) return -1;
        for (int v = 0; v < n; ++v) {
            const std::uint64_t lit = kInputTt[v] & mask;
            if (f == lit || f == (~lit & mask)) return v;
        }
        if (steps <= 0 || max_depth <= 0) return -1;
        const unsigned supp = support(f);
        const int width = std::popcount(supp);
        // r steps read at most 2r + 1 inputs; depth 1 reads at most 3.
        if (width > 2 * steps + 1 || (max_depth == 1 && width > 3)) return -1;
        std::unordered_map<std::uint64_t, int>& memo_here =
            memo[steps][std::min(max_depth, kDecidedSteps)];
        const std::uint64_t key = (f & 1) ? (~f & mask) : f;
        const auto it = memo_here.find(key);
        if (it != memo_here.end()) return it->second;
        const int found = solve(f, supp, steps, max_depth);
        memo_here.emplace(key, found);
        return found;
    }

    int solve(std::uint64_t f, unsigned supp, int steps, int max_depth) {
        const Isf full{f, ~f & mask};
        int found = one_step(full, input_bases(supp), max_depth);
        if (found >= 0 || steps == 1 || max_depth == 1) return found;
        found = through_one_step(f, supp, steps, max_depth);
        if (found < 0 && steps >= 3) found = beside_input_step(f, supp, steps, max_depth);
        if (found < 0 && steps >= 4 && max_depth >= 3) found = over_shared_step(f, supp, max_depth);
        if (found < 0 && steps >= 4) found = over_three_steps(f, supp, max_depth);
        return found;
    }

    /// (A) The output step reads one step N and up to two inputs a, b.
    /// Where the step reads N, N must equal f (or ~f); elsewhere it is
    /// free. Those regions are a half-space or a diagonal of (a, b), so
    /// substituting a constant or a literal for the flipped input turns
    /// any chain for N into a chain of the same length and depth for the
    /// fully specified g below, and back: the question recurses on g.
    int through_one_step(std::uint64_t f, unsigned supp, int steps, int max_depth) {
        const Isf full{f, ~f & mask};
        return top_over_bases(
            input_bases(supp), max_depth, full,
            [&](const Form& form, const Isf& want, int a, int b) {
                // Inputs are nodes 0..n-1, so a and b name the variables.
                const std::uint64_t care = want.on | want.off;
                const int flip = (b < 0 || form.flip == 0) ? a : b;
                const std::uint64_t g = (want.on | (swap_var(want.on, flip) & ~care)) & mask;
                const int op = decide(g, steps - 1, max_depth - 1);
                return op < n ? -1 : op;
            });
    }

    /// Output step over pool node `p`, optionally an input of `supp`, and
    /// one new operand realized by `find_operand(want)`.
    template <class FindOperand>
    int over_node(int p, const Isf& full, unsigned supp, FindOperand&& find_operand) {
        const auto find = [&](const Form&, const Isf& want, int, int) {
            return find_operand(want);
        };
        int top = top_over(p, -1, full, find);
        for (int x = 0; x < n && top < 0; ++x) {
            if ((supp >> x) & 1) top = top_over(p, x, full, find);
        }
        return top;
    }

    /// (B) The output step reads two steps, one of which (G) reads only
    /// inputs: G is enumerated; the other operand's cone is the remaining
    /// steps - 2 steps over the inputs and G.
    int beside_input_step(std::uint64_t f, unsigned supp, int steps, int max_depth) {
        const Isf full{f, ~f & mask};
        std::vector<int> bases = input_bases(supp);
        const std::vector<OneStep>& candidates = one_steps(supp);
        for (const OneStep& s : candidates) {
            const int g = make(s);
            bases.push_back(g);
            const int top = over_node(g, full, supp, [&](const Isf& want) {
                return chain_over(want, bases, steps - 2, max_depth - 1);
            });
            if (top >= 0) return top;
            bases.pop_back();
            nodes.resize(static_cast<std::size_t>(g));
        }
        return -1;
    }

    /// (C) Four steps; the output reads two steps P and N, neither reading
    /// only inputs. Then P reads the first step G, and N reads G or P.
    /// Output, P and N read at most five inputs, so with six in the
    /// support some input z is read by G alone: f is a function of G and
    /// the other inputs, which G's z-difference must cover.
    int over_shared_step(std::uint64_t f, unsigned supp, int max_depth) {
        const Isf full{f, ~f & mask};
        const bool private_input = std::popcount(supp) >= 6;
        std::array<std::uint64_t, 6> f_diff{};
        for (int v = 0; v < n; ++v) f_diff[static_cast<std::size_t>(v)] = f ^ swap_var(f, v);
        std::vector<int> bases = input_bases(supp);
        const std::vector<OneStep>& candidates = one_steps(supp);
        for (const OneStep& s : candidates) {
            if (private_input) {
                bool explains = false;
                for (int z = 0; z < n && !explains; ++z) {
                    const std::uint64_t g_diff = s.tt ^ swap_var(s.tt, z);
                    explains = g_diff != 0 && (f_diff[static_cast<std::size_t>(z)] & ~g_diff) == 0;
                }
                if (!explains) continue;
            }
            const int g = make(s);
            bases.push_back(g);
            for (const OneStep& ps : one_steps_over(g, supp)) {
                // f is a function of G, P and the at most three inputs
                // that N and the output read.
                if (unexplained(f_diff, supp, s.tt, ps.tt) > 3) continue;
                const int p = make(ps);
                bases.push_back(p);
                const int top = over_node(p, full, supp, [&](const Isf& want) {
                    return one_step(want, bases, max_depth - 1);
                });
                if (top >= 0) return top;
                bases.pop_back();
                nodes.resize(static_cast<std::size_t>(p));
            }
            bases.pop_back();
            nodes.resize(static_cast<std::size_t>(g));
        }
        return -1;
    }

    /// (D) Four steps; the output reads three steps: the first step G,
    /// a second S that reads only inputs or reads G, and N over both.
    int over_three_steps(std::uint64_t f, unsigned supp, int max_depth) {
        const Alphabet& alpha = alphabet();
        const Isf full{f, ~f & mask};
        std::vector<int> bases = input_bases(supp);
        const std::vector<OneStep>& candidates = one_steps(supp);
        std::array<std::uint64_t, 6> f_diff{};
        for (int v = 0; v < n; ++v) f_diff[static_cast<std::size_t>(v)] = f ^ swap_var(f, v);
        const auto with_partner = [&](int g, const OneStep& ss) {
            const std::uint64_t a = nodes[static_cast<std::size_t>(g)].tt, b = ss.tt;
            if (alpha.t3_fit[classes4(a, b, full)].empty()) return -1;
            // The output reads no input: f is a function of G, S and the
            // at most three inputs N reads.
            if (unexplained(f_diff, supp, a, b) > 3) return -1;
            const int s = make(ss);
            bases.push_back(s);
            const int top = top_over(g, s, full, [&](const Form&, const Isf& want, int, int) {
                return one_step(want, bases, max_depth - 1);
            });
            if (top >= 0) return top;
            bases.pop_back();
            nodes.resize(static_cast<std::size_t>(s));
            return -1;
        };
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const int g = make(candidates[i]);
            bases.push_back(g);
            for (std::size_t j = i + 1; j < candidates.size(); ++j) {
                const int top = with_partner(g, candidates[j]);
                if (top >= 0) return top;
            }
            if (max_depth >= 3) {
                for (const OneStep& ss : one_steps_over(g, supp)) {
                    const int top = with_partner(g, ss);
                    if (top >= 0) return top;
                }
            }
            bases.pop_back();
            nodes.resize(static_cast<std::size_t>(g));
        }
        return -1;
    }

    /// The chain under `root` as normal steps in creation order.
    std::vector<NormalStep> linearize(int root) const {
        std::vector<bool> live(nodes.size(), false);
        std::vector<int> stack{root};
        while (!stack.empty()) {
            const int id = stack.back();
            stack.pop_back();
            if (id < n || live[static_cast<std::size_t>(id)]) continue;
            live[static_cast<std::size_t>(id)] = true;
            for (const std::int16_t o : nodes[static_cast<std::size_t>(id)].op) {
                if (o >= 0) stack.push_back(o);
            }
        }
        std::vector<int> index(nodes.size(), -1);
        std::vector<bool> complemented(nodes.size(), false);
        for (int v = 0; v < n; ++v) index[static_cast<std::size_t>(v)] = v;
        std::vector<NormalStep> out;
        for (std::size_t id = static_cast<std::size_t>(n); id < nodes.size(); ++id) {
            if (!live[id]) continue;
            const Node& nd = nodes[id];
            std::uint8_t h = nd.table;
            std::array<int, 3> operand{-1, -1, -1};
            for (int s = 0; s < 3; ++s) {
                const int o = nd.op[static_cast<std::size_t>(s)];
                if (o < 0) continue;
                operand[static_cast<std::size_t>(s)] = index[static_cast<std::size_t>(o)];
                if (complemented[static_cast<std::size_t>(o)]) h = flip_slot(h, s);
            }
            if (operand[2] < 0) {
                // A two-operand step reads some third, distinct input
                // through a table that ignores it.
                int dummy = 0;
                while (dummy == operand[0] || dummy == operand[1]) ++dummy;
                operand[2] = dummy;
            }
            if (h & 1) {
                h = static_cast<std::uint8_t>(~h);
                complemented[id] = true;
            }
            // Sort the operands and permute the table to match.
            std::array<int, 3> order{0, 1, 2};
            std::sort(order.begin(), order.end(), [&](int x, int y) {
                return operand[static_cast<std::size_t>(x)] < operand[static_cast<std::size_t>(y)];
            });
            NormalStep step;
            for (int y = 0; y < 8; ++y) {
                int x = 0;
                for (int s = 0; s < 3; ++s) {
                    if ((y >> s) & 1) x |= 1 << order[static_cast<std::size_t>(s)];
                }
                if ((h >> x) & 1) step.table = static_cast<std::uint8_t>(step.table | (1 << y));
            }
            for (int s = 0; s < 3; ++s) {
                step.operand[static_cast<std::size_t>(s)] = static_cast<std::uint8_t>(
                    operand[static_cast<std::size_t>(order[static_cast<std::size_t>(s)])]);
            }
            index[id] = n + static_cast<int>(out.size());
            out.push_back(step);
        }
        return out;
    }
};

ShortChainDecider::ShortChainDecider(std::uint64_t g, int num_inputs)
    : impl_(std::make_unique<Impl>(g, num_inputs)) {
    assert(num_inputs >= 3 && num_inputs <= 6);
    assert((g & 1) == 0);
}

ShortChainDecider::~ShortChainDecider() = default;

std::optional<std::vector<NormalStep>> ShortChainDecider::find(int steps) {
    assert(steps >= 1 && steps <= kDecidedSteps);
    Impl& d = *impl_;
    int root = d.decide(d.target, steps, steps);
    if (root < d.n) return std::nullopt;
    // Minimum depth among the chains of this length: a chain of depth
    // below the one found is looked for from the depth floor up.
    const int floor = std::popcount(d.support(d.target)) <= 3 ? 1 : 2;
    for (int depth = floor; depth < d.nodes[static_cast<std::size_t>(root)].depth; ++depth) {
        const int shallower = d.decide(d.target, steps, depth);
        if (shallower >= d.n) {
            root = shallower;
            break;
        }
    }
    return d.linearize(root);
}

}  // namespace bdsmaj::decomp::detail
