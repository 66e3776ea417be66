#include "runtime/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <vector>

namespace bdsmaj::runtime {

namespace {

std::mutex g_pool_mutex;
ThreadPool* g_pool = nullptr;  // created once, intentionally never deleted
int g_pool_request = 0;        // configure_global_pool ask; 0 = default

}  // namespace

int default_global_pool_threads() noexcept {
    if (const char* env = std::getenv("BDSMAJ_JOBS")) {
        const int v = std::atoi(env);
        if (v > 0) return v;
    }
    return effective_jobs(0);
}

ThreadPool& global_pool() {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool == nullptr) {
        const int threads =
            g_pool_request > 0 ? g_pool_request : default_global_pool_threads();
        // Never destroyed: the workers live for the process, which removes
        // every static-destruction-order question for late submitters. The
        // pointer stays reachable, so leak checkers are quiet.
        g_pool = new ThreadPool(threads);
    }
    return *g_pool;
}

bool configure_global_pool(int threads) {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_pool != nullptr) return false;
    g_pool_request = std::max(threads, 0);
    return true;
}

int global_pool_threads() { return global_pool().size(); }

// ---------------------------------------------------------------------------
// HelperSet
// ---------------------------------------------------------------------------

// The state outlives the HelperSet via shared_ptr: a helper task the pool
// schedules *after* join() revoked it still locks the mutex and reads its
// slot, so the state must stay valid until the last task ran (or was
// discarded with the pool). Everything the caller owns — in particular the
// body — is only touched by helpers that claimed kStarted, and join()
// cannot return while any helper is in that state.
struct HelperSet::State {
    std::mutex mutex;
    std::condition_variable done_cv;
    enum : std::uint8_t { kQueued = 0, kStarted, kDone, kRevoked };
    std::vector<std::uint8_t> slot;
    const std::function<void(int)>* body = nullptr;
};

HelperSet::HelperSet(int count, const std::function<void(int)>& body)
    : state_(std::make_shared<State>()) {
    state_->slot.assign(static_cast<std::size_t>(std::max(count, 0)), State::kQueued);
    state_->body = &body;
    // No helpers, no pool: a one-worker pipeline stays thread-free.
    if (state_->slot.empty()) return;
    ThreadPool& pool = global_pool();
    for (std::size_t s = 0; s < state_->slot.size(); ++s) {
        pool.submit([st = state_, s] {
            {
                std::lock_guard<std::mutex> lock(st->mutex);
                if (st->slot[s] == State::kRevoked) return;
                st->slot[s] = State::kStarted;
            }
            (*st->body)(static_cast<int>(s) + 1);
            std::lock_guard<std::mutex> lock(st->mutex);
            st->slot[s] = State::kDone;
            st->done_cv.notify_all();
        });
    }
}

void HelperSet::join() {
    std::unique_lock<std::mutex> lock(state_->mutex);
    for (std::uint8_t& s : state_->slot) {
        if (s == State::kQueued) s = State::kRevoked;
    }
    state_->done_cv.wait(lock, [this] {
        for (const std::uint8_t s : state_->slot) {
            if (s == State::kStarted) return false;
        }
        return true;
    });
}

HelperSet::~HelperSet() { join(); }

// ---------------------------------------------------------------------------
// parallel_for
// ---------------------------------------------------------------------------

int parallel_for_worker_count(std::size_t n, int jobs) {
    if (jobs <= 1 || n <= 1) return 1;
    const std::size_t budget =
        std::min<std::size_t>(static_cast<std::size_t>(jobs), n);
    // More runners than pool threads + the caller can never execute
    // concurrently; capping keeps per-worker scratch allocations honest.
    const std::size_t cap = static_cast<std::size_t>(global_pool().size()) + 1;
    return static_cast<int>(std::min(budget, cap));
}

void parallel_for(std::size_t n, int jobs,
                  const std::function<void(std::size_t, int)>& body) {
    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) body(i, 0);
        return;
    }
    const int workers = parallel_for_worker_count(n, jobs);
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    // A body exception must not unwind through a pool thread (that would
    // std::terminate); capture the first one and rethrow to the caller
    // after the loop completes.
    const std::function<void(int)> runner = [&](int slot) {
        for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n) break;
            try {
                body(i, slot);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) first_error = std::current_exception();
            }
        }
    };
    HelperSet helpers(workers - 1, runner);
    runner(0);
    helpers.join();
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace bdsmaj::runtime
