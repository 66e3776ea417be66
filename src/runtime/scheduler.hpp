#pragma once
// Process-wide scheduler: one shared work-stealing pool for the whole
// process, plus the data-parallel primitives the synthesis layers build on.
//
// Before this layer existed, every decompose_network / run_suite call spun
// up (and tore down) a private ThreadPool — exactly wrong for a serving
// context where many synthesis jobs arrive concurrently. Now all
// parallelism in the process funnels through global_pool():
//
//   * global_pool() is created lazily on first use, sized from (in
//     priority order) configure_global_pool(), the BDSMAJ_JOBS environment
//     variable, then std::thread::hardware_concurrency(). It is
//     intentionally never destroyed: its workers live for the process, so
//     there is no static-destruction-order hazard with late submitters,
//     and the pointer stays reachable (no leak report).
//
//   * parallel_for(n, jobs, body) fans a loop out over the shared pool
//     with a *caller-participating runner model*: the calling thread is
//     runner slot 0 and pulls indices from a shared counter; up to
//     jobs - 1 helper runners are submitted to the pool and do the same.
//     Because the caller always drains the counter itself if the pool is
//     busy, a parallel_for issued from inside a pool task (re-entrant
//     submit) can never deadlock, no matter how saturated the pool is —
//     the per-call `jobs` budget is an upper bound on concurrency, never a
//     requirement. Helpers that the pool has not started by the time the
//     loop finishes are revoked, so a call never waits on queue backlog it
//     does not need.
//
//   * HelperSet is the revocable-helper building block parallel_for uses,
//     exposed for pipelines that need a custom loop (the flow layer's
//     pipelined tape replay drives it directly).
//
// Determinism is unaffected by any of this: callers that need reproducible
// output keep tasks independent and merge results in a fixed order, as
// before.

#include <cstddef>
#include <functional>
#include <memory>

#include "runtime/thread_pool.hpp"

namespace bdsmaj::runtime {

/// Pool size global_pool() will use unless configure_global_pool() asked
/// for something else: the BDSMAJ_JOBS environment variable if it parses
/// to a positive integer, otherwise all hardware threads (at least 1).
[[nodiscard]] int default_global_pool_threads() noexcept;

/// The process-wide shared pool. Created on first use; never destroyed.
[[nodiscard]] ThreadPool& global_pool();

/// Request a specific thread count for the global pool. Takes effect only
/// if the pool has not been created yet; returns false (and changes
/// nothing) once it exists. `threads` <= 0 restores the default sizing.
bool configure_global_pool(int threads);

/// Thread count of the global pool (forces creation).
[[nodiscard]] int global_pool_threads();

/// A set of revocable helper tasks on the global pool. Each helper the
/// pool actually starts calls `body(slot)` exactly once with a distinct
/// slot in [1, count]; by convention the constructing thread acts as slot
/// 0 and does the same work inline. join() revokes every helper that has
/// not started yet (it will never run) and blocks until the started ones
/// return. `body` must not throw and must stay valid until join() returns;
/// the destructor joins if the caller did not. A count of 0 never touches
/// (or creates) the global pool.
class HelperSet {
public:
    HelperSet(int count, const std::function<void(int)>& body);
    ~HelperSet();
    HelperSet(const HelperSet&) = delete;
    HelperSet& operator=(const HelperSet&) = delete;

    void join();

private:
    struct State;
    std::shared_ptr<State> state_;
};

/// Number of runner slots parallel_for will use for (n, jobs): the per-
/// call budget min(jobs, n) additionally capped at one more than the
/// global pool's thread count (the caller is a runner too). Callers
/// sizing per-worker scratch must use this, not re-derive the clamp.
/// Returns 1 for the inline path.
[[nodiscard]] int parallel_for_worker_count(std::size_t n, int jobs);

/// Run `body(i, worker)` for every i in [0, n) across parallel_for_
/// worker_count(n, jobs) runner slots on the shared pool; `worker` is a
/// stable slot index below that count, for per-worker scratch. jobs <= 1
/// (after any effective_jobs resolution the caller did) or n <= 1 runs
/// inline on the calling thread with worker 0. In the parallel path an
/// exception thrown by `body` is captured and rethrown on the calling
/// thread after every index has been attempted (first one wins); it never
/// unwinds through a pool worker. Safe to call from inside a pool task:
/// the caller participates, so progress does not depend on free workers.
void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t, int)>& body);

}  // namespace bdsmaj::runtime
