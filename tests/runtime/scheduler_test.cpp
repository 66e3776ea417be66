// Process-wide scheduler: the shared global pool, environment sizing,
// HelperSet revocation, and the caller-participating parallel_for —
// including re-entrant use from inside pool tasks, which is the property
// the whole service layer leans on.

#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

namespace bdsmaj::runtime {
namespace {

TEST(Scheduler, DefaultThreadsHonorsEnvironment) {
    // default_global_pool_threads() re-reads the environment on every
    // call, so this is testable without touching the singleton.
    const char* saved = std::getenv("BDSMAJ_JOBS");
    const std::string saved_value = saved ? saved : "";
    ::setenv("BDSMAJ_JOBS", "3", 1);
    EXPECT_EQ(default_global_pool_threads(), 3);
    ::setenv("BDSMAJ_JOBS", "0", 1);  // non-positive falls back to hardware
    EXPECT_GE(default_global_pool_threads(), 1);
    ::setenv("BDSMAJ_JOBS", "garbage", 1);
    EXPECT_GE(default_global_pool_threads(), 1);
    if (saved) {
        ::setenv("BDSMAJ_JOBS", saved_value.c_str(), 1);
    } else {
        ::unsetenv("BDSMAJ_JOBS");
    }
}

TEST(Scheduler, GlobalPoolIsASingleton) {
    ThreadPool& a = global_pool();
    ThreadPool& b = global_pool();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.size(), 1);
    EXPECT_EQ(global_pool_threads(), a.size());
    // Once the pool exists, configuration requests must be rejected
    // rather than silently resizing live workers.
    EXPECT_FALSE(configure_global_pool(64));
    EXPECT_EQ(global_pool().size(), a.size());
}

TEST(Scheduler, GlobalPoolRunsSubmittedTasks) {
    std::atomic<int> ran{0};
    for (int i = 0; i < 100; ++i) {
        global_pool().submit([&ran] { ran.fetch_add(1); });
    }
    global_pool().wait_idle();
    EXPECT_EQ(ran.load(), 100);
}

TEST(HelperSet, StartedHelpersRunAndJoinWaits) {
    std::atomic<int> calls{0};
    std::vector<std::atomic<int>> per_slot(5);
    const std::function<void(int)> body = [&](int slot) {
        ASSERT_GE(slot, 1);
        ASSERT_LE(slot, 4);
        per_slot[static_cast<std::size_t>(slot)].fetch_add(1);
        calls.fetch_add(1);
    };
    {
        HelperSet helpers(4, body);
        helpers.join();
    }
    // Every slot ran at most once (revoked helpers never run at all).
    for (int s = 1; s <= 4; ++s) {
        EXPECT_LE(per_slot[static_cast<std::size_t>(s)].load(), 1);
    }
    EXPECT_LE(calls.load(), 4);
}

TEST(HelperSet, JoinIsIdempotentAndDestructorJoins) {
    std::atomic<int> calls{0};
    const std::function<void(int)> body = [&](int) { calls.fetch_add(1); };
    HelperSet helpers(2, body);
    helpers.join();
    helpers.join();  // second join must return immediately
    SUCCEED();
}

TEST(HelperSet, ZeroHelpersNeverCreateThePool) {
    // configure_global_pool succeeds only while the pool does not exist
    // yet (and asking for the default sizing changes nothing).
    if (!configure_global_pool(0)) GTEST_SKIP() << "the pool already exists";
    int calls = 0;
    const std::function<void(int)> body = [&calls](int) { ++calls; };
    HelperSet helpers(0, body);
    helpers.join();
    EXPECT_EQ(calls, 0);
    EXPECT_TRUE(configure_global_pool(0)) << "HelperSet(0) created the pool";
}

TEST(ParallelFor, CoversAllIndicesExactlyOnceOnSharedPool) {
    constexpr std::size_t kN = 777;
    std::vector<std::atomic<int>> hits(kN);
    const int workers = parallel_for_worker_count(kN, 4);
    parallel_for(kN, 4, [&](std::size_t i, int worker) {
        EXPECT_GE(worker, 0);
        EXPECT_LT(worker, workers);
        hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelFor, ReentrantFromInsidePoolTasks) {
    // A parallel_for issued from inside a pool task must complete even
    // when every pool worker is itself busy in such a task: the caller
    // participates, so no free worker is required. This would deadlock a
    // wait-for-workers design.
    const int lanes = global_pool().size() + 2;
    std::atomic<long> total{0};
    parallel_for(static_cast<std::size_t>(lanes), lanes, [&](std::size_t, int) {
        parallel_for(64, 4, [&](std::size_t, int) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), static_cast<long>(lanes) * 64);
}

TEST(ParallelFor, DeeplyNestedStillCompletes) {
    std::atomic<long> total{0};
    parallel_for(4, 4, [&](std::size_t, int) {
        parallel_for(4, 4, [&](std::size_t, int) {
            parallel_for(4, 4, [&](std::size_t, int) { total.fetch_add(1); });
        });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ManyConcurrentCallsFromForeignThreads) {
    // Several non-pool threads hammer the shared pool at once — the
    // serving pattern. Every call must see only its own indices.
    constexpr int kThreads = 6;
    constexpr std::size_t kN = 300;
    std::vector<std::thread> threads;
    std::atomic<long> grand{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&grand] {
            std::vector<std::atomic<int>> hits(kN);
            parallel_for(kN, 3, [&](std::size_t i, int) { hits[i].fetch_add(1); });
            long sum = 0;
            for (std::size_t i = 0; i < kN; ++i) sum += hits[i].load();
            grand.fetch_add(sum);
        });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(grand.load(), static_cast<long>(kThreads) * static_cast<long>(kN));
}

}  // namespace
}  // namespace bdsmaj::runtime
