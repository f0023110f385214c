/**
 * @file
 * Chaos suite: farm runs under deterministic fault injection
 * (RATSIM_FAULT) must produce byte-identical reports, and the farm's
 * retry/quarantine bookkeeping must match *exactly* what the fault
 * schedule predicts.
 *
 * The predictor mirrors the worker's draw order per (cell, attempt):
 *   garbage@subseq0 (progress frame) -> kill -> hang -> slow ->
 *   simulate -> torn-store -> garbage@subseq1 (reply frame)
 * A draw is lethal (the coordinator observes a death and requeues the
 * cell) when the progress or reply frame is garbled or the worker is
 * killed or hung; a hang surfaces as a watchdog timeout only when
 * nothing noisier killed the worker first. tests/common/test_fault.cc
 * pins the injector-side half of this contract
 * (InjectorSubsequenceMatchesWouldFire).
 */

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.hh"
#include "report/serialize.hh"
#include "sim/campaign.hh"
#include "sim/farm.hh"

#ifndef RATSIM_CLI_PATH
#error "RATSIM_CLI_PATH must point at the ratsim binary"
#endif

namespace rat::sim {
namespace {

namespace fs = std::filesystem;

/**
 * Scoped cache dir, unique per process: ctest runs these tests both
 * one per process and inside the `chaos_suite` aggregate, possibly at
 * the same time, and the two must not share (or delete) one cache.
 */
struct TempCacheDir {
    fs::path path;

    explicit TempCacheDir(const char *name)
        : path(fs::path(testing::TempDir()) /
               (std::string(name) + "." + std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }
    ~TempCacheDir() { fs::remove_all(path); }
};

/** Scoped RATSIM_FAULT: armed for the runs inside the scope, cleanly
 * unset after — later runs in this same test process must not inherit
 * a schedule (FaultInjector::armFromEnv re-reads on every farm run). */
struct FaultEnv {
    explicit FaultEnv(const char *spec)
    {
        setenv("RATSIM_FAULT", spec, 1);
    }
    ~FaultEnv() { unsetenv("RATSIM_FAULT"); }
};

/** 12-cell grid (2 techniques x 6 seeds), small enough that a cell
 * simulates in well under any watchdog timeout used here. */
CampaignSpec
chaosSpec(const std::string &cache_dir)
{
    CampaignSpec spec;
    spec.base.prewarmInsts = 5000;
    spec.base.warmupCycles = 200;
    spec.base.measureCycles = 1000;
    spec.techniques = {icountSpec(), ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.seedAxis = {1, 2, 3, 4, 5, 6};
    spec.cacheDir = cache_dir;
    return spec;
}

FarmOptions
chaosOptions(unsigned workers, unsigned job_timeout_sec,
             unsigned max_retries)
{
    FarmOptions opt;
    opt.workers = workers;
    opt.workerBinary = RATSIM_CLI_PATH;
    opt.jobTimeoutSec = job_timeout_sec;
    opt.maxRetries = max_retries;
    return opt;
}

std::string
reportJson(const CampaignOutcome &outcome, const CampaignSpec &spec)
{
    return campaignJson(outcome, spec).dump();
}

/** Reference report: the same spec, uncached, in-process — the bytes
 * every chaos run must reproduce. Callers run this outside any
 * FaultEnv scope. */
std::string
referenceJson(const CampaignSpec &spec)
{
    CampaignSpec uncached = spec;
    uncached.cacheDir.clear();
    return reportJson(runCampaign(uncached), uncached);
}

struct ChaosPrediction {
    std::uint64_t deaths = 0;
    std::uint64_t timeouts = 0;
    std::vector<std::size_t> quarantined; ///< lead cell indices
};

/** Replay the fault schedule against every (cell, attempt) the farm
 * will issue and predict its exact death/timeout/quarantine ledger.
 * Valid for a fresh cache with no duplicate cells, where job indices
 * are 0..cells-1 and the attempt number increments once per death. */
ChaosPrediction
predictOutcome(const FaultSchedule &sched, std::size_t cells,
               unsigned max_retries)
{
    ChaosPrediction p;
    for (std::size_t lead = 0; lead < cells; ++lead) {
        for (unsigned attempt = 0;; ++attempt) {
            const bool g0 = sched.wouldFire(FaultKind::GarbageFrame,
                                            lead, attempt, 0);
            const bool kill =
                sched.wouldFire(FaultKind::Kill, lead, attempt, 0);
            const bool hang =
                sched.wouldFire(FaultKind::Hang, lead, attempt, 0);
            const bool g1 = sched.wouldFire(FaultKind::GarbageFrame,
                                            lead, attempt, 1);
            if (!(g0 || kill || hang || g1))
                break; // this attempt survives: the cell lands
            ++p.deaths;
            // A hang is only *seen* as a timeout when the worker was
            // not already dead (kill) or detectably corrupt (garbage
            // progress frame) before wedging.
            p.timeouts += hang && !kill && !g0;
            if (attempt == max_retries) {
                p.quarantined.push_back(lead);
                break;
            }
        }
    }
    return p;
}

TEST(ChaosFarm, KillScheduleMatchesPredictedAccountingExactly)
{
    TempCacheDir cache("chaos_kill");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    const char *fault = "seed=3:kill@p0.3";
    const auto sched = FaultSchedule::parse(fault);
    ASSERT_TRUE(sched);
    const ChaosPrediction pred = predictOutcome(*sched, 12, 10);
    ASSERT_GT(pred.deaths, 0u) << "dead seed: pick another";
    ASSERT_TRUE(pred.quarantined.empty());

    FaultEnv env(fault);
    const FarmOutcome farm =
        runFarm(spec, chaosOptions(3, /*timeout=*/0, /*retries=*/10));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.workerDeaths, pred.deaths);
    EXPECT_EQ(farm.jobsRequeued, pred.deaths);
    EXPECT_EQ(farm.workersTimedOut, 0u);
    EXPECT_TRUE(farm.quarantinedCells.empty());
    EXPECT_LE(farm.workersRespawned, pred.deaths);
    EXPECT_EQ(farm.campaign.simulated, 12u);
    EXPECT_EQ(reportJson(farm.campaign, spec), reference);
}

TEST(ChaosFarm, HangsAreClearedByTheWatchdogAndCountedExactly)
{
    TempCacheDir cache("chaos_hang");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    const char *fault = "seed=5:hang@p0.2";
    const auto sched = FaultSchedule::parse(fault);
    ASSERT_TRUE(sched);
    const ChaosPrediction pred = predictOutcome(*sched, 12, 8);
    ASSERT_GT(pred.timeouts, 0u) << "dead seed: pick another";
    ASSERT_LT(pred.timeouts, 8u) << "too slow: pick another seed";
    ASSERT_TRUE(pred.quarantined.empty());

    FaultEnv env(fault);
    const FarmOutcome farm =
        runFarm(spec, chaosOptions(2, /*timeout=*/2, /*retries=*/8));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.workersTimedOut, pred.timeouts);
    EXPECT_EQ(farm.workerDeaths, pred.deaths);
    EXPECT_EQ(farm.campaign.simulated, 12u);
    EXPECT_EQ(reportJson(farm.campaign, spec), reference);
}

TEST(ChaosFarm, PoisonedCellIsQuarantinedWithoutStallingTheCampaign)
{
    TempCacheDir cache("chaos_poison");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    // Cell 5 kills its worker on *every* attempt: with --max-retries 2
    // it must die exactly 3 times, then be quarantined — and the other
    // 11 cells must still land in this same run.
    std::string quarantined_key;
    {
        FaultEnv env("seed=1:kill@x5");
        const FarmOutcome farm = runFarm(
            spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
        EXPECT_FALSE(farm.completed);
        EXPECT_NE(farm.error.find("quarantined"), std::string::npos)
            << farm.error;
        ASSERT_EQ(farm.quarantinedCells.size(), 1u);
        EXPECT_EQ(farm.quarantinedCells[0], farm.campaign.cells[5].key);
        EXPECT_EQ(farm.workerDeaths, 3u);
        EXPECT_EQ(farm.jobsRequeued, 2u); // 3rd death quarantines
        EXPECT_EQ(farm.campaign.simulated, 11u);
        quarantined_key = farm.quarantinedCells[0];
    }

    // With the fault gone (operator fixed the poison), a plain re-run
    // resumes from the 11 cached cells and completes the grid.
    const FarmOutcome resumed =
        runFarm(spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
    ASSERT_TRUE(resumed.completed) << resumed.error;
    EXPECT_TRUE(resumed.quarantinedCells.empty());
    EXPECT_EQ(resumed.campaign.cacheHits, 11u);
    EXPECT_EQ(resumed.campaign.simulated, 1u);
    EXPECT_EQ(resumed.campaign.cells[5].key, quarantined_key);
    EXPECT_EQ(reportJson(resumed.campaign, spec), reference);
}

TEST(ChaosFarm, TornStoresQuarantineOnResumeThenHeal)
{
    TempCacheDir cache("chaos_torn");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    // Run 1: some stores are torn mid-write. The *wire* results are
    // intact, so the run completes byte-identical — the damage is
    // latent in the cache.
    const auto sched = FaultSchedule::parse("seed=9:torn-store@p0.4");
    ASSERT_TRUE(sched);
    std::uint64_t torn = 0;
    for (std::size_t lead = 0; lead < 12; ++lead)
        torn += sched->wouldFire(FaultKind::TornStore, lead, 0, 0);
    ASSERT_GT(torn, 0u) << "dead seed: pick another";
    {
        FaultEnv env("seed=9:torn-store@p0.4");
        const FarmOutcome farm = runFarm(
            spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
        ASSERT_TRUE(farm.completed) << farm.error;
        EXPECT_EQ(farm.campaign.simulated, 12u);
        EXPECT_EQ(reportJson(farm.campaign, spec), reference);
    }

    // Run 2 (fault-free): every torn cell fails its checksum, is
    // quarantined to <cell>.bad, and re-simulates exactly once.
    const FarmOutcome healed =
        runFarm(spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
    ASSERT_TRUE(healed.completed) << healed.error;
    EXPECT_EQ(healed.campaign.cacheQuarantined, torn);
    EXPECT_EQ(healed.campaign.cacheHits, 12u - torn);
    EXPECT_EQ(healed.campaign.simulated, torn);
    EXPECT_EQ(reportJson(healed.campaign, spec), reference);
    std::uint64_t bad_files = 0;
    for (const auto &e : fs::directory_iterator(cache.path))
        bad_files += e.path().extension() == ".bad";
    EXPECT_EQ(bad_files, torn);

    // Run 3: the cache is fully healed — warm, no quarantines, no
    // workers spawned.
    const FarmOutcome warm =
        runFarm(spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
    ASSERT_TRUE(warm.completed) << warm.error;
    EXPECT_EQ(warm.campaign.cacheQuarantined, 0u);
    EXPECT_EQ(warm.campaign.cacheHits, 12u);
    EXPECT_EQ(warm.campaign.simulated, 0u);
    EXPECT_EQ(warm.workersSpawned, 0u);
    EXPECT_EQ(reportJson(warm.campaign, spec), reference);
}

TEST(ChaosFarm, TotalSpawnFailureFallsBackInProcess)
{
    TempCacheDir cache("chaos_spawn");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    FaultEnv env("seed=1:spawn@p1");
    const FarmOutcome farm =
        runFarm(spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_TRUE(farm.inProcessFallback);
    EXPECT_EQ(farm.workersSpawned, 0u);
    EXPECT_EQ(farm.campaign.simulated, 12u);
    EXPECT_EQ(reportJson(farm.campaign, spec), reference);
}

TEST(ChaosFarm, OneDeadSlotDegradesCapacityNotTheCampaign)
{
    TempCacheDir cache("chaos_slot");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    // The spawn context is (slot, respawn count), so x0 makes slot 0
    // unspawnable forever; slot 1 must carry the whole grid alone.
    FaultEnv env("seed=1:spawn@x0");
    const FarmOutcome farm =
        runFarm(spec, chaosOptions(2, /*timeout=*/0, /*retries=*/2));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.workersSpawned, 1u);
    EXPECT_FALSE(farm.inProcessFallback);
    EXPECT_EQ(farm.campaign.simulated, 12u);
    EXPECT_EQ(reportJson(farm.campaign, spec), reference);
}

TEST(ChaosFarm, CombinedScheduleStaysByteIdenticalWithExactLedger)
{
    TempCacheDir cache("chaos_combined");
    const CampaignSpec spec = chaosSpec(cache.path.string());
    const std::string reference = referenceJson(spec);

    // Every fault class at once — the schedule from the issue, on a
    // 12-cell grid. Byte-identity plus an exact death/timeout ledger
    // is the whole point of deterministic chaos.
    const char *fault = "seed=3:kill@p0.15,hang@p0.2,"
                        "garbage-frame@p0.1,torn-store@p0.2,slow@p0.3";
    const auto sched = FaultSchedule::parse(fault);
    ASSERT_TRUE(sched);
    const ChaosPrediction pred = predictOutcome(*sched, 12, 5);
    ASSERT_GT(pred.deaths, 0u) << "dead seed: pick another";
    ASSERT_LT(pred.timeouts, 8u) << "too slow: pick another seed";
    ASSERT_TRUE(pred.quarantined.empty());

    FaultEnv env(fault);
    const FarmOutcome farm =
        runFarm(spec, chaosOptions(3, /*timeout=*/2, /*retries=*/5));
    ASSERT_TRUE(farm.completed) << farm.error;
    EXPECT_EQ(farm.workerDeaths, pred.deaths);
    EXPECT_EQ(farm.workersTimedOut, pred.timeouts);
    EXPECT_EQ(farm.jobsRequeued, pred.deaths);
    EXPECT_TRUE(farm.quarantinedCells.empty());
    EXPECT_EQ(farm.campaign.simulated, 12u);
    EXPECT_EQ(reportJson(farm.campaign, spec), reference);
}

} // namespace
} // namespace rat::sim
