/**
 * @file
 * Tests of the grid vocabulary in sim/experiment.hh: technique
 * application and the runParallel worker pool.
 */

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace rat::sim {
namespace {

TEST(TechniqueConfig, AppliesTechniqueAndThreadCount)
{
    SimConfig base;
    base.warmupCycles = 500;
    base.measureCycles = 2000;
    const SimConfig cfg = techniqueConfig(base, ratSpec(), 4);
    EXPECT_EQ(cfg.core.policy, core::PolicyKind::Rat);
    EXPECT_EQ(cfg.core.numThreads, 4u);
    // Base windows survive the technique override.
    EXPECT_EQ(cfg.warmupCycles, 500u);
    EXPECT_EQ(cfg.measureCycles, 2000u);

    const SimConfig icfg = techniqueConfig(base, icountSpec(), 2);
    EXPECT_EQ(icfg.core.policy, core::PolicyKind::Icount);
    EXPECT_EQ(icfg.core.numThreads, 2u);
}

TEST(RunParallel, RunsEveryJobExactlyOnce)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i)
        jobs.push_back([&count] { ++count; });
    runParallel(jobs, 4);
    EXPECT_EQ(count.load(), 64);
}

TEST(RunParallel, ExecutesEveryJobOnce)
{
    std::vector<int> hits(37, 0);
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 37; ++i)
        jobs.emplace_back([&hits, i] { ++hits[i]; });
    runParallel(jobs, 8);
    for (int i = 0; i < 37; ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(RunParallel, ActuallyUsesMultipleWorkers)
{
    std::mutex mu;
    std::set<std::thread::id> seen;
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 32; ++i) {
        jobs.push_back([&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(std::this_thread::get_id());
        });
    }
    runParallel(jobs, 4);
    EXPECT_GE(seen.size(), 2u);
}

TEST(RunParallel, SingleWorkerAndEmptyJobListAreSafe)
{
    std::atomic<int> count{0};
    std::vector<std::function<void()>> jobs{[&count] { ++count; }};
    runParallel(jobs, 1);
    EXPECT_EQ(count.load(), 1);
    jobs.clear();
    runParallel(jobs, 4); // must not hang or crash
}

TEST(RunParallel, ThrowingJobRethrowsInsteadOfTerminating)
{
    // Before the fix, the exception escaped the std::thread body and
    // called std::terminate — the whole test process would abort here.
    std::vector<std::function<void()>> jobs;
    jobs.push_back([] { throw std::runtime_error("cell exploded"); });
    for (int i = 0; i < 8; ++i)
        jobs.push_back([] {});
    EXPECT_THROW(runParallel(jobs, 4), std::runtime_error);

    // The exception message survives the hop across threads.
    try {
        std::vector<std::function<void()>> one{
            [] { throw std::runtime_error("cell exploded"); }};
        runParallel(one, 2);
        FAIL() << "runParallel swallowed the job's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "cell exploded");
    }
}

TEST(RunParallel, FirstOfSeveralExceptionsWinsAndWorkersJoin)
{
    // Every job throws; exactly one exception must surface, all
    // threads must be joined (ASan/TSan would flag a leaked thread),
    // and the pool must stop handing out work after the failure.
    std::atomic<int> started{0};
    std::vector<std::function<void()>> jobs;
    for (int i = 0; i < 64; ++i) {
        jobs.push_back([&started] {
            ++started;
            throw std::logic_error("boom");
        });
    }
    EXPECT_THROW(runParallel(jobs, 4), std::logic_error);
    // Failure short-circuits: nowhere near all 64 jobs should start
    // (at most one in-flight job per worker when the flag flipped).
    EXPECT_LE(started.load(), 8);

    // The process is still perfectly usable afterwards.
    std::atomic<int> count{0};
    std::vector<std::function<void()>> ok{[&count] { ++count; }};
    runParallel(ok, 2);
    EXPECT_EQ(count.load(), 1);
}

} // namespace
} // namespace rat::sim
