// bdsmaj command-line synthesis tool. The option reference is print_help()
// below (`bdsmaj_cli --help`), rendered into docs/cli.md by
// tools/gen_cli_docs.sh.

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "benchgen/suite.hpp"
#include "decomp/cone_cache.hpp"
#include "decomp/exact.hpp"
#include "decomp/strategy.hpp"
#include "flows/flows.hpp"
#include "flows/service.hpp"
#include "network/blif.hpp"
#include "network/cec.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace bdsmaj;

struct Options {
    /// Every synthesis knob, in the struct the flows and the service take;
    /// main() sets the CLI defaults (flow bdsmaj, sign-off on).
    flows::SynthesisJobParams job;
    std::vector<std::string> inputs;
    std::optional<std::string> out;
    std::optional<std::string> map_out;
    bool quick = false;
    bool quiet = false;
    bool batch = false;
    int pool = 0;
    int max_jobs = 0;
    std::optional<int> cone_cache_mb;  ///< unset = the library default (64 MiB)
    std::optional<std::string> exact_cache_path;
    /// --deadline-ms / --soft-budget-ms as given (<= 0 = off); arm() turns
    /// them into the job's absolute instants when the run starts.
    double deadline_ms = 0.0;
    double soft_budget_ms = 0.0;
};

/// `opt.job` with the relative deadline and soft budget measured from now.
flows::SynthesisJobParams arm(const Options& opt) {
    flows::SynthesisJobParams job = opt.job;
    const auto now = std::chrono::steady_clock::now();
    const auto after = [now](double ms) {
        return now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double, std::milli>(ms));
    };
    if (opt.deadline_ms > 0) job.deadline = after(opt.deadline_ms);
    if (opt.soft_budget_ms > 0) job.soft_budget = after(opt.soft_budget_ms);
    return job;
}

/// The full option reference, printed by --help (stdout, exit 0). This
/// text is the source of truth for docs/cli.md: tools/gen_cli_docs.sh
/// regenerates the doc from it and tools/ci.sh fails on drift.
void print_help(std::FILE* to) {
    std::fprintf(to,
        "bdsmaj_cli - BDS-MAJ command-line synthesis tool\n"
        "\n"
        "usage: bdsmaj_cli [options] <input.blif | @benchmark> [more inputs in batch mode]\n"
        "\n"
        "flow selection:\n"
        "  --flow bdsmaj|bdspga|abc|dc  synthesis flow (default bdsmaj); batch\n"
        "                               mode additionally accepts \"all\"\n"
        "  --preset NAME                decomposition strategy preset for the BDS\n"
        "                               flows (default paper; see --list-presets)\n"
        "  --list-presets               print the preset catalog and exit\n"
        "  --no-maj                     shorthand for --flow bdspga\n"
        "\n"
        "output:\n"
        "  --out FILE                   write the optimized network as BLIF\n"
        "  --map-out FILE               write the mapped netlist as BLIF\n"
        "  --quiet                      only print the summary line\n"
        "\n"
        "engine tuning:\n"
        "  --no-reorder                 skip per-supernode sifting\n"
        "  --sift-symmetry              force symmetry-aware sifting on: detect\n"
        "                               symmetric variable groups and move them as\n"
        "                               blocks (default: the preset decides - on\n"
        "                               for symmetry/exact-aggressive/best-cost,\n"
        "                               off for the pinned paper baselines)\n"
        "  --no-sift-symmetry           force symmetry-aware sifting off\n"
        "  --sift-max-growth F          abort a sift direction past F x best size\n"
        "  --sift-converge              repeat sift passes until <1%% gain\n"
        "  --sift-max-vars N            sift at most N variables per pass\n"
        "  --k-local F / --k-global F   majority selection sizing factors\n"
        "  --iterations N               balancing iteration limit\n"
        "\n"
        "exact synthesis (the exact-* presets):\n"
        "  --exact-max-support N        widest cone served exactly, 0-6: cones of\n"
        "                               <= 4 support variables are served as\n"
        "                               4-input classes, 5-6 by chains of at most\n"
        "                               four steps; each gets a minimum-length\n"
        "                               chain (default 6)\n"
        "  --exact-cache FILE           warm-start the exact-synthesis cache from\n"
        "                               FILE at startup (tolerant: a missing or\n"
        "                               corrupt file loads nothing) and save the\n"
        "                               materialized classes back on exit\n"
        "\n"
        "parallelism and caching:\n"
        "  --jobs N                     per-run worker budget (0 = all cores);\n"
        "                               output is identical at any setting\n"
        "  --cone-cache-mb N            memory budget of the process-wide cone\n"
        "                               result cache (default 64); repeated cones\n"
        "                               replay cached tapes - results are identical\n"
        "  --no-cone-cache              disable cone memoization entirely\n"
        "\n"
        "verification:\n"
        "  --no-verify                  skip the equivalence sign-off (default on)\n"
        "  --oracle auto|bdd|sat|sim    equivalence engine for the sign-off\n"
        "                               (default auto: exhaustive simulation up\n"
        "                               to 20 inputs, SAT above; sim alone is\n"
        "                               sampled, not an exact sign-off)\n"
        "\n"
        "deadlines (every flow) and graceful degradation (BDS flows):\n"
        "  --deadline-ms MS             hard deadline, measured from the start of\n"
        "                               the run (batch: from submission, so queue\n"
        "                               wait counts). A single run stops at the\n"
        "                               next checkpoint and exits with status 4;\n"
        "                               a batch job is shed at dispatch or stopped\n"
        "                               in flight and reports \"deadline exceeded\"\n"
        "                               (a shed job is not a batch failure)\n"
        "  --soft-budget-ms MS          soft budget: once it expires, remaining\n"
        "                               supernodes are decomposed with cheaper\n"
        "                               settings down the degrade ladder instead\n"
        "                               of failing - the run completes and the\n"
        "                               result stays equivalent (the summary\n"
        "                               counts the degraded supernodes)\n"
        "  --degrade-ladder A,B         comma-separated preset ladder to fall\n"
        "                               down when degrading (default\n"
        "                               paper,shannon; a terminal plain-shannon\n"
        "                               stage is appended if missing)\n"
        "\n"
        "batch service mode (multiple inputs through the shared process pool):\n"
        "  --batch                      treat every positional arg as an input and\n"
        "                               submit each as one async service job (also\n"
        "                               implied by giving more than one input);\n"
        "                               every option above applies to each job\n"
        "                               except --out/--map-out, and results print\n"
        "                               in submission order\n"
        "  --pool N                     shared-pool thread count (otherwise the\n"
        "                               BDSMAJ_JOBS env var / all cores)\n"
        "  --max-jobs N                 jobs admitted concurrently (default: pool\n"
        "                               size); --jobs is each job's budget\n"
        "\n"
        "inputs:\n"
        "  @name                        built-in generator from the paper's suite,\n"
        "                               e.g. @C6288 or \"@Div 18 bit\"; --quick uses\n"
        "                               reduced widths; batch mode mixes @names and\n"
        "                               BLIF files freely\n");
}

int usage() {
    print_help(stderr);
    return 2;
}

/// A command-line usage error: the message, then exit status 2.
[[noreturn]] void usage_error(const std::string& message) {
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

/// `text` as a whole T (no trailing garbage, finite, in [`min`, `max`]);
/// anything else is a usage error naming `flag`.
template <typename T>
T parse_number(const std::string& flag, const char* text, T min,
               T max = std::numeric_limits<T>::max()) {
    T value{};
    const char* end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc{} || ptr != end || !std::isfinite(double(value)) || value < min ||
        value > max) {
        usage_error("invalid value \"" + std::string(text) + "\" for " + flag);
    }
    return value;
}

int list_presets() {
    std::printf("decomposition strategy presets (--preset NAME):\n");
    for (const decomp::PresetInfo& p : decomp::preset_catalog()) {
        std::printf("  %-18s %s\n", p.name.c_str(), p.description.c_str());
    }
    return 0;
}

net::Network load_input(const std::string& name, bool quick) {
    if (!name.empty() && name[0] == '@') {
        return benchgen::benchmark_by_name(name.substr(1), quick);
    }
    return net::read_blif_file(name);
}

/// The summary of one flow result: `opt_time` is the flow's optimization
/// time (SynthesisResult::optimize_seconds), `job_time` the wall time of
/// the whole job (every requested flow and its sign-off).
void print_result(const net::Network& input, const flows::SynthesisResult& result,
                  double job_seconds, bool verify, bool equivalent, bool quiet) {
    if (!quiet) {
        const net::NetworkStats s = result.optimized_stats;
        std::printf("flow %s on %s\n", result.flow_name.c_str(),
                    input.model_name().c_str());
        std::printf("  decomposed: AND=%d OR=%d XOR=%d XNOR=%d MAJ=%d total=%d\n",
                    s.and_nodes, s.or_nodes, s.xor_nodes, s.xnor_nodes, s.maj_nodes,
                    s.total());
        // Per-strategy engine step counts (BDS flows only; ABC/DC have no
        // engine activity).
        const decomp::EngineStats& e = result.engine_stats;
        if (e.total_steps() + e.literal_leaves > 0) {
            std::printf("  engine steps: sym=%d exact=%d maj=%d simple=%d gen-xor=%d "
                        "shannon=%d (total %d, literals %d)\n",
                        e.steps_for(decomp::StrategyKind::kSymmetric),
                        e.steps_for(decomp::StrategyKind::kExactSmallCone),
                        e.steps_for(decomp::StrategyKind::kMajority),
                        e.steps_for(decomp::StrategyKind::kSimpleDominator),
                        e.steps_for(decomp::StrategyKind::kGeneralizedXor),
                        e.steps_for(decomp::StrategyKind::kShannonMux),
                        e.total_steps(), e.literal_leaves);
            if (e.npn_cache_hits + e.npn_cache_misses > 0) {
                std::printf("  npn cache: hits=%lld misses=%lld\n", e.npn_cache_hits,
                            e.npn_cache_misses);
            }
            if (e.exact_wide_steps + e.exact_sat_synthesized +
                    e.exact_sat_fallbacks + e.exact_sat_cache_hits > 0) {
                std::printf("  exact sat: wide-cones=%d synthesized=%lld "
                            "cache-hits=%lld fallbacks=%lld conflicts=%lld\n",
                            e.exact_wide_steps, e.exact_sat_synthesized,
                            e.exact_sat_cache_hits, e.exact_sat_fallbacks,
                            e.exact_sat_conflicts);
            }
            // Reordering effort across the supernode managers.
            if (e.sift_swaps + e.sift_fast_swaps + e.sift_lb_aborts > 0) {
                std::printf("  reorder: swaps=%lld fast-swaps=%lld lb-aborts=%lld "
                            "peak-bdd-nodes=%lld\n",
                            e.sift_swaps, e.sift_fast_swaps, e.sift_lb_aborts,
                            e.peak_bdd_nodes);
            }
            if (e.sift_sym_groups + e.sift_block_swaps + e.symmetric_steps +
                    e.sym_cone_total > 0) {
                std::printf("  symmetry: sift-groups=%lld block-swaps=%lld "
                            "cones-found=%lld cones-served=%d\n",
                            e.sift_sym_groups, e.sift_block_swaps,
                            e.sym_cone_total, e.symmetric_steps);
            }
            if (e.cone_cache_hits + e.cone_cache_misses > 0) {
                std::printf("  cone cache: hits=%lld misses=%lld evictions=%lld "
                            "bytes=%lld\n",
                            e.cone_cache_hits, e.cone_cache_misses,
                            e.cone_cache_evictions, e.cone_cache_bytes);
            }
            // Graceful-degradation accounting: cones cheapened by an
            // expired soft budget or retried after a resource-guard trip.
            if (e.degraded_supernodes + e.resource_exhausted_cones > 0) {
                std::printf("  resilience: degraded-supernodes=%lld "
                            "guard-trips=%lld\n",
                            e.degraded_supernodes, e.resource_exhausted_cones);
            }
        }
    }
    std::printf("%s: area=%.2fum2 gates=%d delay=%.3fns opt_time=%.3fs job_time=%.3fs%s\n",
                input.model_name().c_str(), result.mapped.area_um2,
                result.mapped.gate_count, result.mapped.delay_ns, result.optimize_seconds,
                job_seconds, verify ? (equivalent ? " [verified]" : " [MISMATCH]") : "");
}

/// Process-wide memoization summary (cone tape cache + exact class cache),
/// shared by the single and batch paths.
void print_cache_summary() {
    const decomp::ConeCacheStats cone = decomp::ConeCache::instance().stats();
    const decomp::ExactCacheStats exact = decomp::ExactSynthesisCache::instance().stats();
    std::printf("caches: cone hits=%lld misses=%lld evictions=%lld entries=%lld "
                "bytes=%lld | exact hits=%llu misses=%llu classes=%d\n",
                cone.hits, cone.misses, cone.evictions, cone.entries, cone.bytes,
                static_cast<unsigned long long>(exact.hits),
                static_cast<unsigned long long>(exact.misses), exact.classes_cached);
}

/// --exact-cache startup warm-load; tolerant of a missing/corrupt file.
void load_exact_cache(const Options& opt) {
    if (!opt.exact_cache_path) return;
    const int n = decomp::ExactSynthesisCache::instance().load_from_file(*opt.exact_cache_path);
    if (!opt.quiet && n > 0) {
        std::printf("exact cache: loaded %d classes from %s\n", n,
                    opt.exact_cache_path->c_str());
    }
}

/// --exact-cache exit save (atomic rename; best-effort).
void save_exact_cache(const Options& opt) {
    if (!opt.exact_cache_path) return;
    const int n = decomp::ExactSynthesisCache::instance().save_to_file(*opt.exact_cache_path);
    if (n < 0) {
        std::fprintf(stderr, "warning: could not save exact cache to %s\n",
                     opt.exact_cache_path->c_str());
    } else if (!opt.quiet) {
        std::printf("exact cache: saved %d classes to %s\n", n,
                    opt.exact_cache_path->c_str());
    }
}

/// Batch service mode: every input becomes one async job on the shared
/// scheduler; results print in submission order regardless of completion
/// order, so the output is stable.
int run_batch(const Options& opt) {
    if (opt.out || opt.map_out) {
        std::fprintf(stderr, "--out/--map-out are per-input; not available in "
                             "batch mode\n");
        return 2;
    }
    if (opt.pool > 0) runtime::configure_global_pool(opt.pool);

    std::vector<net::Network> inputs;
    inputs.reserve(opt.inputs.size());
    for (const std::string& name : opt.inputs) {
        try {
            inputs.push_back(load_input(name, opt.quick));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error reading %s: %s\n", name.c_str(), e.what());
            return 1;
        }
    }

    flows::ServiceParams sp;
    sp.max_concurrent_jobs = opt.max_jobs;
    flows::SynthesisService service(sp);
    // Verification runs inside the job (service-side): a failed sign-off
    // fails that job's future instead of handing out a wrong network.
    const flows::SynthesisJobParams jp = arm(opt);

    std::vector<flows::SynthesisService::Submission> submissions;
    submissions.reserve(inputs.size());
    for (const net::Network& input : inputs) {
        submissions.push_back(service.submit(input, jp));  // keep the original
    }

    bool all_ok = true;
    for (std::size_t i = 0; i < submissions.size(); ++i) {
        try {
            const flows::FlowResult r = submissions[i].result.get();
            if (r.status == flows::JobStatus::kDeadlineExceeded) {
                // Deliberate shedding, not a failure: the batch's exit
                // status is unaffected (the summary line counts them).
                std::printf("%s: deadline exceeded%s\n",
                            inputs[i].model_name().c_str(),
                            r.start_order == flows::FlowResult::kNoStartOrder
                                ? " (shed before start)"
                                : " (stopped in flight)");
                continue;
            }
            if (r.status == flows::JobStatus::kCancelled) {
                std::printf("%s: cancelled\n", inputs[i].model_name().c_str());
                continue;
            }
            // One entry for a named flow, four for --flow all. The job
            // already signed off each result; surface its verdict.
            for (const flows::SynthesisResult& sr : r.results.at(0)) {
                const bool equivalent =
                    !opt.job.verify ||
                    (sr.equivalence.has_value() && sr.equivalence->equivalent);
                all_ok = all_ok && equivalent;
                print_result(inputs[i], sr, r.seconds, opt.job.verify, equivalent,
                             opt.quiet);
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "job %s failed: %s\n", opt.inputs[i].c_str(),
                         e.what());
            all_ok = false;
        }
    }
    const flows::ServiceStats st = service.stats();
    std::printf("service: %d completed, %d failed, %ld networks, "
                "%ld mapped gates, pool=%d threads\n",
                st.completed, st.failed, st.networks_synthesized, st.mapped_gates,
                runtime::global_pool_threads());
    if (st.deadline_exceeded + st.degraded_supernodes > 0) {
        std::printf("resilience: %d deadline-exceeded, %lld degraded "
                    "supernodes\n",
                    st.deadline_exceeded, st.degraded_supernodes);
    }
    print_cache_summary();
    return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    flows::SynthesisJobParams& job = opt.job;
    job.flow = "bdsmaj";
    job.verify = true;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // The option's value; a missing one is a usage error.
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage_error(arg + " needs a value");
            return argv[++i];
        };
        const auto number = [&]<typename T>(T min, T max = std::numeric_limits<T>::max()) {
            return parse_number<T>(arg, value(), min, max);
        };
        if (arg == "--help" || arg == "-h") {
            print_help(stdout);
            return 0;
        } else if (arg == "--flow") {
            job.flow = value();
        } else if (arg == "--preset") {
            job.preset = value();
        } else if (arg == "--list-presets") {
            return list_presets();
        } else if (arg == "--out") {
            opt.out = value();
        } else if (arg == "--map-out") {
            opt.map_out = value();
        } else if (arg == "--no-maj") {
            job.flow = "bdspga";
        } else if (arg == "--no-reorder") {
            job.reorder = false;
        } else if (arg == "--sift-symmetry") {
            job.sift_symmetry = true;
        } else if (arg == "--no-sift-symmetry") {
            job.sift_symmetry = false;
        } else if (arg == "--sift-max-growth") {
            job.manager.sift_max_growth = number(0.0);
        } else if (arg == "--sift-converge") {
            job.manager.sift_converge = true;
        } else if (arg == "--sift-max-vars") {
            job.manager.sift_max_vars = number(0);
        } else if (arg == "--k-local") {
            job.engine.maj.k_local = number(0.0);
        } else if (arg == "--k-global") {
            job.engine.maj.k_global = number(0.0);
        } else if (arg == "--iterations") {
            job.engine.maj.max_iterations = number(0);
        } else if (arg == "--jobs") {
            job.jobs = number(std::numeric_limits<int>::lowest());
        } else if (arg == "--pool") {
            opt.pool = number(0);
        } else if (arg == "--max-jobs") {
            opt.max_jobs = number(0);
        } else if (arg == "--cone-cache-mb") {
            opt.cone_cache_mb = number(0);
        } else if (arg == "--no-cone-cache") {
            job.cone_cache = false;
        } else if (arg == "--exact-cache") {
            opt.exact_cache_path = value();
        } else if (arg == "--exact-max-support") {
            job.engine.exact_max_support = number(0, 6);
        } else if (arg == "--deadline-ms") {
            opt.deadline_ms = number(std::numeric_limits<double>::lowest());
        } else if (arg == "--soft-budget-ms") {
            opt.soft_budget_ms = number(std::numeric_limits<double>::lowest());
        } else if (arg == "--degrade-ladder") {
            job.degrade_ladder.clear();
            std::string rung;
            for (const char* p = value();; ++p) {
                if (*p == ',' || *p == '\0') {
                    if (!rung.empty()) job.degrade_ladder.push_back(rung);
                    rung.clear();
                    if (*p == '\0') break;
                } else {
                    rung.push_back(*p);
                }
            }
        } else if (arg == "--batch") {
            opt.batch = true;
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--no-verify") {
            job.verify = false;
        } else if (arg == "--oracle") {
            try {
                job.oracle = net::parse_equiv_engine(value());
            } catch (const std::exception& e) {
                std::fprintf(stderr, "%s\n", e.what());
                return usage();
            }
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage();
        } else {
            opt.inputs.push_back(arg);
        }
    }
    if (opt.inputs.empty()) return usage();
    const bool batch = opt.batch || opt.inputs.size() > 1;
    const bool comparator = job.flow == "abc" || job.flow == "dc";
    if (job.flow != "bdsmaj" && job.flow != "bdspga" && !comparator &&
        !(batch && job.flow == "all")) {
        std::fprintf(stderr, "unknown flow %s\n", job.flow.c_str());
        return usage();
    }
    if (!decomp::is_known_preset(job.preset)) {
        std::fprintf(stderr, "unknown preset \"%s\"; --list-presets shows the "
                             "catalog\n", job.preset.c_str());
        return 2;
    }
    if (job.preset != "paper" && comparator) {
        std::fprintf(stderr, "--preset only applies to the BDS flows "
                             "(bdsmaj/bdspga/all)\n");
        return 2;
    }
    for (const std::string& rung : job.degrade_ladder) {
        if (!decomp::is_known_preset(rung)) {
            std::fprintf(stderr, "unknown preset \"%s\" in --degrade-ladder; "
                                 "--list-presets shows the catalog\n",
                         rung.c_str());
            return 2;
        }
    }
    // ABC and DC honour a deadline at their checkpoints, but they have no
    // supernodes to degrade.
    if ((opt.soft_budget_ms > 0 || !job.degrade_ladder.empty()) && comparator) {
        std::fprintf(stderr, "--soft-budget-ms/--degrade-ladder only apply to the "
                             "BDS flows (bdsmaj/bdspga/all)\n");
        return 2;
    }
    if (opt.cone_cache_mb) {
        decomp::ConeCache::instance().set_budget_bytes(
            static_cast<std::size_t>(*opt.cone_cache_mb) << 20);
    }
    load_exact_cache(opt);
    if (batch) {
        const int rc = run_batch(opt);
        save_exact_cache(opt);
        return rc;
    }

    if (opt.pool > 0) runtime::configure_global_pool(opt.pool);
    net::Network input;
    try {
        input = load_input(opt.inputs[0], opt.quick);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error reading input: %s\n", e.what());
        return 1;
    }

    // The flow runs unverified so a mismatch still prints its summary
    // line; the sign-off below is the one every flow runs.
    const auto job_start = std::chrono::steady_clock::now();
    flows::SynthesisJobParams run = arm(opt);
    run.verify = false;
    flows::SynthesisResult result;
    bool equivalent = true;
    try {
        result = flows::run_flow(input, run.flow, run).front();
        if (job.verify) {
            try {
                flows::verify_synthesis_result(input, result, run);
            } catch (const std::runtime_error&) {
                // A mismatch leaves its verdict behind; anything else (a
                // deadline between the links, an exhausted output miter)
                // is not a verdict and propagates.
                if (!result.equivalence || result.equivalence->equivalent) throw;
                std::fprintf(stderr, "VERIFICATION FAILED (engine %s): %s\n",
                             net::equiv_engine_name(result.equivalence->engine),
                             result.equivalence->reason.c_str());
                equivalent = false;
            }
            if (equivalent && !result.equivalence->exact) {
                // Only the sim engine leaves a sampled verdict; make the
                // weaker guarantee impossible to miss.
                std::fprintf(stderr, "note: --oracle sim agreement is sampled, "
                                     "not an exact sign-off\n");
            }
        }
    } catch (const decomp::DeadlineExceeded&) {
        std::fprintf(stderr, "%s: deadline exceeded (--deadline-ms %g); "
                             "no result produced\n",
                     input.model_name().c_str(), opt.deadline_ms);
        return 4;
    }
    const double job_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - job_start).count();
    print_result(input, result, job_seconds, job.verify, equivalent, opt.quiet);
    if (!opt.quiet) print_cache_summary();

    if (opt.out) net::write_blif_file(result.optimized, *opt.out);
    if (opt.map_out) net::write_blif_file(result.mapped.netlist, *opt.map_out);
    save_exact_cache(opt);
    return equivalent ? 0 : 1;
}
