#include "decomp/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "decomp/engine.hpp"
#include "decomp/exact_decide.hpp"
#include "decomp/maj_decomp.hpp"
#include "decomp/xor_decomp.hpp"

namespace bdsmaj::decomp {

namespace {

using bdd::Bdd;

// ---------------------------------------------------------------------------
// Fixed tuning of the strategies (the paper's own knobs, the majority
// sizing factors, live in MajDecompParams).
// ---------------------------------------------------------------------------

/// Simple-dominator candidates scored for balance (top-k shortlist).
constexpr std::size_t kMaxSimpleCandidates = 4;
/// Accept a generalized XOR split only if both parts are smaller than the
/// function by this factor.
constexpr double kXorAcceptanceFactor = 1.0;
/// Profitability gate for the exact strategy on cones of <= 4 support
/// variables: serve a chain only when its gate count is below |dag(f)| +
/// this margin (more negative = more conservative, preserving the ladder's
/// cross-cone sharing; see ExactSmallConeStrategy). -1 is the measured
/// sweet spot on the MCNC suite.
constexpr int kExactMinSaving = -1;
/// The same margin for 5-6 var cones, which are larger sharing-opaque
/// blocks and need a harsher bar: tuned on MCNC mapped gates, -4 ties the
/// 4-var-only backend while still serving wide cones; shallower margins
/// lose the ladder's cross-cone sharing.
constexpr int kExactMinSavingWide = -4;
/// Support cap for the symmetric-cone strategy (the `symmetry` preset):
/// cones with more support variables than this skip the symmetry census
/// entirely.
constexpr int kSymmetricMaxSupport = 12;
/// Profitability margin for symmetric cones: serve the ones-counting
/// network only when its gate count is below |dag(f)| + this margin. At 0
/// the gate is self-tuning — small symmetric cones (MAJ-3, voter-5) have
/// compact ladder yields and are rejected; wide ones are where the O(k)
/// counter beats the ~O(k^2) ladder.
constexpr int kSymmetricMinSaving = 0;

// ---------------------------------------------------------------------------
// Strategies. Each is stateless between steps; all per-step inputs arrive
// through the StepContext, so one instance is safe to reuse across an
// entire supernode recursion (and strategies hold no manager state).
// ---------------------------------------------------------------------------

/// Paper stage 1: majority decomposition on top of the dominator search,
/// accepted only when globally advantageous (k_global). Attempt/rejection
/// counters live here — they describe the search, not an accepted step.
class MajorityStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kMajority;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "majority";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const std::optional<MajDecomposition> md =
            maj_decompose(ctx.mgr, ctx.f, ctx.analysis, ctx.params.maj);
        if (!md) return std::nullopt;
        ++ctx.stats.maj_attempts;
        if (!maj_globally_advantageous(ctx.mgr, ctx.f, *md,
                                       ctx.params.maj.k_global)) {
            ++ctx.stats.maj_rejected;
            return std::nullopt;
        }
        Candidate cand;
        cand.source = StrategyKind::kMajority;
        cand.op = Candidate::Op::kMaj;
        cand.a = md->fa;
        cand.b = md->fb;
        cand.c = md->fc;
        return cand;
    }
};

/// Paper stage 2: simple dominators (1-, 0-, x-) -> disjoint AND/OR/XOR.
/// Shortlist by divisor balance (|Fv| close to |F|/2), then score the
/// shortlist exactly by max(|quotient|, |divisor|).
class SimpleDominatorStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kSimpleDominator;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "simple-dominator";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        if (!ctx.analysis.has_simple_dominator()) return std::nullopt;
        struct Entry {
            const NodeDomInfo* info;
            SimpleDecomposition::Op op;
            std::size_t divisor_size;
        };
        const std::vector<std::size_t>& sizes = ctx.analysis.node_sizes();
        const std::vector<NodeDomInfo>& infos = ctx.analysis.nodes();
        std::vector<Entry> shortlist;
        for (std::size_t i = 0; i < infos.size(); ++i) {
            const NodeDomInfo& info = infos[i];
            if (info.is_one_dominator) {
                shortlist.push_back({&info, SimpleDecomposition::Op::kAnd, sizes[i]});
            } else if (info.is_zero_dominator) {
                shortlist.push_back({&info, SimpleDecomposition::Op::kOr, sizes[i]});
            } else if (info.is_x_dominator) {
                shortlist.push_back({&info, SimpleDecomposition::Op::kXor, sizes[i]});
            }
        }
        const std::size_t f_size = ctx.f_size;
        const auto balance = [f_size](std::size_t part) {
            const auto half = static_cast<double>(f_size) / 2.0;
            return std::abs(static_cast<double>(part) - half);
        };
        std::stable_sort(shortlist.begin(), shortlist.end(),
                         [&](const Entry& a, const Entry& b) {
                             return balance(a.divisor_size) < balance(b.divisor_size);
                         });
        if (shortlist.size() > kMaxSimpleCandidates) shortlist.resize(kMaxSimpleCandidates);
        std::optional<SimpleDecomposition> best;
        std::size_t best_score = 0;
        for (const Entry& e : shortlist) {
            SimpleDecomposition d = ctx.analysis.decompose_at(*e.info, e.op);
            const std::size_t score =
                std::max(ctx.mgr.dag_size(d.quotient), ctx.mgr.dag_size(d.divisor));
            if (!best || score < best_score) {
                best_score = score;
                best = std::move(d);
            }
        }
        if (!best) return std::nullopt;
        Candidate cand;
        cand.source = StrategyKind::kSimpleDominator;
        switch (best->op) {
            case SimpleDecomposition::Op::kAnd: cand.op = Candidate::Op::kAnd; break;
            case SimpleDecomposition::Op::kOr: cand.op = Candidate::Op::kOr; break;
            case SimpleDecomposition::Op::kXor: cand.op = Candidate::Op::kXor; break;
        }
        cand.a = std::move(best->quotient);
        cand.b = std::move(best->divisor);
        return cand;
    }
};

/// Paper stage 3: generalized (non-disjoint) XOR split, accepted only when
/// both parts shrink below kXorAcceptanceFactor * |F|.
class GeneralizedXorStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kGeneralizedXor;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "generalized-xor";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const XorSplit split =
            xor_decompose(ctx.mgr, ctx.f, ctx.params.maj.xor_params);
        if (split.trivial) return std::nullopt;
        const auto limit =
            static_cast<double>(ctx.f_size) * kXorAcceptanceFactor;
        if (static_cast<double>(ctx.mgr.dag_size(split.m)) >= limit ||
            static_cast<double>(ctx.mgr.dag_size(split.k)) >= limit) {
            return std::nullopt;
        }
        Candidate cand;
        cand.source = StrategyKind::kGeneralizedXor;
        cand.op = Candidate::Op::kXor;
        cand.a = split.m;
        cand.b = split.k;
        return cand;
    }
};

/// Paper stage 4: Shannon cofactoring on the top variable. Always
/// proposes, so any pipeline ending here terminates.
class ShannonMuxStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kShannonMux;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "shannon-mux";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const bdd::Edge e = ctx.f.edge();
        Candidate cand;
        cand.source = StrategyKind::kShannonMux;
        cand.op = Candidate::Op::kMux;
        cand.mux_var = ctx.mgr.edge_top_var(e);
        cand.a = ctx.mgr.from_edge(ctx.mgr.edge_then(e));
        cand.b = ctx.mgr.from_edge(ctx.mgr.edge_else(e));
        return cand;
    }
};

/// Totally symmetric cones -> ones-counting MAJ network. A function
/// symmetric in every support variable is fixed by all transpositions of
/// adjacent support variables, and those generate the full symmetric
/// group, so k-1 cofactor-pair checks
///
///   f|v_i=0,v_{i+1}=1  ==  f|v_i=1,v_{i+1}=0
///
/// certify total symmetry exactly (canonical BDDs: equality of edges is
/// equality of functions). The value vector values[w] = f(any input of
/// ones-count w) then determines f completely, and the ones-counting
/// construction (decomp/symmetric.hpp) emits it in O(k) gates. Both the
/// census and the value extraction are polynomial in the BDD size — no
/// truth table is ever materialized, so wide supports stay cheap.
class SymmetricStrategy final : public DecompStrategy {
public:
    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kSymmetric;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "symmetric";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        const std::vector<int> support = ctx.mgr.support_vars(ctx.f);
        const auto k = static_cast<int>(support.size());
        if (k < 3 || k > kSymmetricMaxSupport) return std::nullopt;
        // Quick size filter: a totally symmetric function on k variables
        // has at most k(k+1)/2 + 1 reduced-BDD nodes (w+1 distinct
        // subfunctions at support level w). Anything bigger cannot pass
        // the census, so the k-1 cofactor checks are skipped outright.
        if (ctx.f_size > static_cast<std::size_t>(k * (k + 1) / 2 + 1)) {
            return std::nullopt;
        }
        ++ctx.stats.sym_cone_checks;
        for (int i = 0; i + 1 < k; ++i) {
            const Bdd f01 =
                ctx.mgr.cofactor(ctx.mgr.cofactor(ctx.f, support[static_cast<std::size_t>(i)], false),
                                 support[static_cast<std::size_t>(i) + 1], true);
            const Bdd f10 =
                ctx.mgr.cofactor(ctx.mgr.cofactor(ctx.f, support[static_cast<std::size_t>(i)], true),
                                 support[static_cast<std::size_t>(i) + 1], false);
            if (!(f01 == f10)) return std::nullopt;
        }
        ++ctx.stats.sym_cone_total;
        SymmetricValues values(static_cast<std::size_t>(k) + 1);
        std::vector<bool> assignment(static_cast<std::size_t>(ctx.mgr.num_vars()), false);
        for (int w = 0; w <= k; ++w) {
            // Symmetry makes the choice of which w support vars are true
            // irrelevant; use the first w.
            if (w > 0) assignment[static_cast<std::size_t>(support[static_cast<std::size_t>(w) - 1])] = true;
            values[static_cast<std::size_t>(w)] =
                ctx.mgr.eval(ctx.f, assignment) ? 1 : 0;
        }
        // Profitability: the ladder yields ~1 gate per BDD node, so demand
        // the counter network beat f_size by kSymmetricMinSaving. Small
        // symmetric cones (MAJ-3, voter-5) have compact ladders and are
        // naturally rejected; wide ones are where O(k) beats O(k^2).
        const int limit = static_cast<int>(ctx.f_size) + kSymmetricMinSaving;
        if (symmetric_network_cost(values) >= limit) return std::nullopt;
        Candidate cand;
        cand.source = StrategyKind::kSymmetric;
        cand.op = Candidate::Op::kSymmetric;
        cand.sym_vars = support;
        cand.sym_values = std::move(values);
        return cand;
    }
};

/// Exact cone strategy: a cone whose support fits in exact_max_support
/// (<= 6) variables is served the minimum-length {MAJ,AND,OR,XOR,MUX,NOT}
/// chain of its NPN class. Cones of up to four support variables are
/// padded to four inputs; each class is synthesized on demand by the chain
/// synthesizer (decomp/exact_sat.hpp) at one fixed effort
/// (kExactConflictBudget), with both successes and proofs of failure
/// memoized process-wide. Every decision is a pure function of the cone's
/// canonical class and its step cap, so racing workers and any jobs count
/// converge: a cache hit serves exactly the program a cold synthesis would
/// have produced, and a negative entry only covers caps where synthesis
/// would have failed identically. The DAG-size pre-filter keeps the
/// reject path O(1): a reduced BDD over 6 variables never exceeds a
/// handful of nodes.
class ExactSmallConeStrategy final : public DecompStrategy {
public:
    /// Largest reduced-BDD node count of any function on <= 6 variables:
    /// level widths 1+2+4+8+13+2 with complement edges, generously
    /// rounded up.
    static constexpr std::size_t kMaxConeNodes = 40;

    [[nodiscard]] StrategyKind kind() const noexcept override {
        return StrategyKind::kExactSmallCone;
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "exact-small-cone";
    }
    [[nodiscard]] std::optional<Candidate> propose(StepContext& ctx) override {
        if (ctx.f_size > kMaxConeNodes) return std::nullopt;
        const std::optional<WideConeMatch> match = match_cone_wide(
            ctx.mgr, ctx.f, 0, std::min(ctx.params.exact_max_support, 6));
        if (!match) return std::nullopt;
        const bool four_inputs = match->num_inputs == 4;
        // Profitability gate: an exact structure is a sharing-opaque block
        // (its gates only unify with structurally identical ones), while
        // the ladder's recursion memoizes shared sub-BDDs across the whole
        // supernode. Serving the cone is only a win when the program is
        // strictly smaller than the ladder's ~1-gate-per-BDD-node yield.
        // Wider cones need a harsher margin: at 5-6 variables the cone's
        // sub-BDDs are shared across far more sibling recursions, so the
        // ladder's marginal cost sits below f_size.
        const int gate_limit = static_cast<int>(ctx.f_size) +
                               (four_inputs ? kExactMinSaving : kExactMinSavingWide);
        // Fanin floor: r 3-input steps reach at most 2r+1 leaves, so a
        // cone on s variables needs >= ceil((s-1)/2) = s/2 gates. Skip the
        // synthesis entirely when even that floor cannot beat the limit.
        if (match->support_size / 2 >= gate_limit) return std::nullopt;
        // Incumbent bound: a chain of gate_limit or more gates is never
        // served, so the search stops below it. Chain length grows from the
        // fanin floor and every shorter length is proven chain-free first,
        // so the capped search finds exactly the chains that would be
        // served. Five and six inputs also stop at the lengths decided by
        // construction (zero conflicts): the CDCL search beyond them does
        // not pay. Every four-input class has a chain of at most five
        // steps, found inside the fixed budget.
        ExactSatParams sat_params;
        sat_params.conflict_budget = kExactConflictBudget;
        sat_params.max_steps = four_inputs
                                   ? gate_limit - 1
                                   : std::min(detail::kDecidedSteps, gate_limit - 1);

        ExactSynthesisCache& cache = ExactSynthesisCache::instance();
        const int n = match->num_inputs;
        std::shared_ptr<const WideStructure> structure =
            cache.lookup_wide(n, match->canonical);
        const bool cache_hit = structure != nullptr;
        bool synthesized = false;
        if (!cache_hit &&
            !cache.wide_failure_covers(n, match->canonical, sat_params.max_steps)) {
            const ExactSatResult res =
                exact_sat_synthesize(match->canonical, n, sat_params);
            synthesized = true;
            if (!four_inputs) {
                ++ctx.stats.exact_sat_synthesized;
                ctx.stats.exact_sat_conflicts += res.conflicts;
            }
            if (res.status == ExactSatStatus::kFound) {
                structure = cache.insert_wide(res.structure);
            } else if (res.status == ExactSatStatus::kUnsat) {
                cache.record_wide_failure(n, match->canonical, sat_params.max_steps);
            }
        }
        // A chain is found only after every shorter length is proven
        // chain-free, so a chain synthesized in this process is exactly
        // what this cone's capped cold synthesis finds iff it is below the
        // gate limit. Disk-prewarmed chains are held to the same limit.
        if (structure != nullptr && structure->gate_count() >= gate_limit) {
            structure.reset();
        }
        // Telemetry: four-input classes count as NPN-cache hits (no
        // synthesis needed) and misses; exact_sat_* describe 5-6 inputs.
        if (four_inputs) {
            ++(synthesized ? ctx.stats.npn_cache_misses : ctx.stats.npn_cache_hits);
        } else if (structure == nullptr) {
            ++ctx.stats.exact_sat_fallbacks;
        } else if (cache_hit) {
            ++ctx.stats.exact_sat_cache_hits;
        }
        if (structure == nullptr) return std::nullopt;
        Candidate cand;
        cand.source = StrategyKind::kExactSmallCone;
        cand.op = Candidate::Op::kExact;
        cand.match = *match;
        cand.structure = std::move(structure);
        return cand;
    }
};

// ---------------------------------------------------------------------------
// Cost models. Recursion yields are estimated from the BDD sizes of the
// operands (a decomposed part of n nodes lands near n gates); exact
// candidates are scored by their known program size.
// ---------------------------------------------------------------------------

double part_size(StepContext& ctx, const Bdd& part) {
    if (!part.valid() || part.is_constant()) return 0.0;
    const std::size_t n = ctx.mgr.dag_size(part);
    // A literal costs nothing: it is a leaf wire, not a gate.
    return n <= 1 ? 0.0 : static_cast<double>(n);
}

struct CandidateShape {
    double parts = 0.0;      ///< summed operand size estimate
    double max_part = 0.0;   ///< largest operand size estimate
    int root_gates = 0;      ///< gates the root operator itself emits
    int root_fanin = 0;      ///< fanin literals of the root operator
    bool exact = false;
    int exact_gates = 0;
};

CandidateShape shape_of(const Candidate& cand, StepContext& ctx) {
    CandidateShape s;
    if (cand.op == Candidate::Op::kExact) {
        s.exact = true;
        s.exact_gates = cand.structure != nullptr ? cand.structure->gate_count() : 0;
        return s;
    }
    if (cand.op == Candidate::Op::kSymmetric) {
        // Like exact candidates, the counter network's gate count is known
        // before anything is emitted.
        s.exact = true;
        s.exact_gates = symmetric_network_cost(cand.sym_values);
        return s;
    }
    for (const Bdd* part : {&cand.a, &cand.b, &cand.c}) {
        if (!part->valid()) continue;
        const double n = part_size(ctx, *part);
        s.parts += n;
        s.max_part = std::max(s.max_part, n);
    }
    switch (cand.op) {
        case Candidate::Op::kAnd:
        case Candidate::Op::kOr:
        case Candidate::Op::kXor:
            s.root_gates = 1;
            s.root_fanin = 2;
            break;
        case Candidate::Op::kMaj:
            s.root_gates = 1;
            s.root_fanin = 3;
            break;
        case Candidate::Op::kMux:
            // The builder expands MUX into OR(AND(s,t), AND(!s,e)).
            s.root_gates = 3;
            s.root_fanin = 4;
            break;
        case Candidate::Op::kExact:
        case Candidate::Op::kSymmetric:
            break;
    }
    return s;
}

class GateCountCost final : public CostModel {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "gate-count";
    }
    [[nodiscard]] double cost(const Candidate& cand, StepContext& ctx) const override {
        const CandidateShape s = shape_of(cand, ctx);
        if (s.exact) return static_cast<double>(s.exact_gates);
        return static_cast<double>(s.root_gates) + s.parts;
    }
};

class LiteralCountCost final : public CostModel {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "literal-count";
    }
    [[nodiscard]] double cost(const Candidate& cand, StepContext& ctx) const override {
        const CandidateShape s = shape_of(cand, ctx);
        // Two-input gates dominate the recursion tail: ~2 literals per
        // eventual gate, plus the root operator's own fanin.
        if (s.exact) return 2.0 * static_cast<double>(s.exact_gates);
        return static_cast<double>(s.root_fanin) + 2.0 * s.parts;
    }
};

class MajDepthCost final : public CostModel {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "maj-depth";
    }
    [[nodiscard]] double cost(const Candidate& cand, StepContext& ctx) const override {
        const CandidateShape s = shape_of(cand, ctx);
        // Depth proxy: one level for the root (two for an expanded MUX),
        // plus the deepest operand's recursion estimated at log2(size).
        if (s.exact) return static_cast<double>(s.exact_gates);
        const double root_depth = cand.op == Candidate::Op::kMux ? 2.0 : 1.0;
        return root_depth + std::log2(s.max_part + 1.0);
    }
};

}  // namespace

std::unique_ptr<DecompStrategy> make_strategy(StrategyKind kind) {
    switch (kind) {
        case StrategyKind::kSymmetric:
            return std::make_unique<SymmetricStrategy>();
        case StrategyKind::kExactSmallCone:
            return std::make_unique<ExactSmallConeStrategy>();
        case StrategyKind::kMajority: return std::make_unique<MajorityStrategy>();
        case StrategyKind::kSimpleDominator:
            return std::make_unique<SimpleDominatorStrategy>();
        case StrategyKind::kGeneralizedXor:
            return std::make_unique<GeneralizedXorStrategy>();
        case StrategyKind::kShannonMux:
            return std::make_unique<ShannonMuxStrategy>();
    }
    throw std::invalid_argument("unknown StrategyKind");
}

std::unique_ptr<CostModel> make_cost_model(CostModelKind kind) {
    switch (kind) {
        case CostModelKind::kGateCount: return std::make_unique<GateCountCost>();
        case CostModelKind::kLiteralCount:
            return std::make_unique<LiteralCountCost>();
        case CostModelKind::kMajDepth: return std::make_unique<MajDepthCost>();
    }
    throw std::invalid_argument("unknown CostModelKind");
}

std::string_view strategy_name(StrategyKind kind) {
    switch (kind) {
        case StrategyKind::kSymmetric: return "symmetric";
        case StrategyKind::kExactSmallCone: return "exact-small-cone";
        case StrategyKind::kMajority: return "majority";
        case StrategyKind::kSimpleDominator: return "simple-dominator";
        case StrategyKind::kGeneralizedXor: return "generalized-xor";
        case StrategyKind::kShannonMux: return "shannon-mux";
    }
    return "?";
}

const std::vector<PresetInfo>& preset_catalog() {
    static const std::vector<PresetInfo> catalog = {
        {"paper",
         "majority -> simple dominators -> generalized XOR -> Shannon; "
         "byte-identical to the pre-framework engine"},
        {"bds-pga",
         "the paper ladder without the majority stage (Table I baseline)"},
        {"exact-aggressive",
         "exact structures for small cones — a minimum-length chain per NPN "
         "class, cones of up to 4 support variables padded to 4 inputs, "
         "5-6 by chains of at most four steps — then the paper ladder"},
        {"best-cost",
         "all strategies propose every step; the gate-count cost model "
         "picks the cheapest candidate"},
        {"best-literals",
         "all strategies propose every step; the literal-count cost model "
         "picks the cheapest candidate"},
        {"maj-depth",
         "all strategies propose every step; the MAJ-depth cost model "
         "favors shallow majority-heavy structures"},
        {"symmetry",
         "totally symmetric cones served as ones-counting MAJ networks, "
         "then exact structures, then the paper ladder; symmetry-aware "
         "block sifting on"},
        {"shannon",
         "plain Shannon cofactor expansion only — the cheapest preset and "
         "the terminal stage of the degrade ladder; always terminates"},
    };
    return catalog;
}

bool is_known_preset(std::string_view name) {
    for (const PresetInfo& p : preset_catalog()) {
        if (p.name == name) return true;
    }
    return false;
}

StrategyPipelineConfig preset_pipeline(std::string_view name) {
    using K = StrategyKind;
    StrategyPipelineConfig config;
    if (name == "paper") {
        config.order = {K::kMajority, K::kSimpleDominator, K::kGeneralizedXor,
                        K::kShannonMux};
    } else if (name == "bds-pga") {
        config.order = {K::kSimpleDominator, K::kGeneralizedXor, K::kShannonMux};
    } else if (name == "exact-aggressive") {
        config.order = {K::kExactSmallCone, K::kMajority, K::kSimpleDominator,
                        K::kGeneralizedXor, K::kShannonMux};
    } else if (name == "best-cost") {
        config.order = {K::kExactSmallCone, K::kMajority, K::kSimpleDominator,
                        K::kGeneralizedXor, K::kShannonMux};
        config.selection = SelectionMode::kBestCost;
        config.cost_model = CostModelKind::kGateCount;
    } else if (name == "best-literals") {
        config.order = {K::kExactSmallCone, K::kMajority, K::kSimpleDominator,
                        K::kGeneralizedXor, K::kShannonMux};
        config.selection = SelectionMode::kBestCost;
        config.cost_model = CostModelKind::kLiteralCount;
    } else if (name == "maj-depth") {
        config.order = {K::kExactSmallCone, K::kMajority, K::kSimpleDominator,
                        K::kGeneralizedXor, K::kShannonMux};
        config.selection = SelectionMode::kBestCost;
        config.cost_model = CostModelKind::kMajDepth;
    } else if (name == "symmetry") {
        config.order = {K::kSymmetric, K::kExactSmallCone, K::kMajority,
                        K::kSimpleDominator, K::kGeneralizedXor, K::kShannonMux};
    } else if (name == "shannon") {
        config.order = {K::kShannonMux};
    } else {
        std::string known;
        for (const PresetInfo& p : preset_catalog()) {
            if (!known.empty()) known += ", ";
            known += p.name;
        }
        throw std::invalid_argument("unknown decomposition preset \"" +
                                    std::string(name) + "\" (known: " + known + ")");
    }
    if (std::find(config.order.begin(), config.order.end(), K::kShannonMux) ==
        config.order.end()) {
        config.order.push_back(K::kShannonMux);
    }
    return config;
}

bool preset_sift_symmetry_default(std::string_view name) {
    return name == "symmetry" || name == "exact-aggressive" ||
           name == "best-cost";
}

}  // namespace bdsmaj::decomp
