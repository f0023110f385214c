/**
 * @file
 * ratbench: the repository's end-to-end benchmark.
 *
 * Three workloads load different layers of the simulator (see
 * README.md in this directory): a farmed, prewarm-bound MEM2 policy
 * sweep, an in-process, measured-window-bound MIX4 run, and a sampled
 * MIX2 sweep. main.cc runs every timed repetition, set-up
 * probe and traced run in a forked child process, so each one starts
 * from a fresh process — no memoized phase plan or checkpoint carries
 * over — and its CPU time and peak RSS come from wait4().
 */

#ifndef RATBENCH_BENCH_HH
#define RATBENCH_BENCH_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "report/json.hh"
#include "sim/campaign.hh"

namespace ratbench {

using rat::report::Json;

/** Worker processes (farm) or threads (in-process) of every grid. */
constexpr unsigned kWorkers = 2;

/** One benchmark workload: a campaign grid and how it is driven. */
struct Workload {
    /** The grid; cacheDir is filled in per run. */
    rat::sim::CampaignSpec spec;
    /** Run through runFarm (worker processes) instead of runCampaign. */
    bool farm = false;
    /** The timed run writes a fresh result cache (else runs uncached). */
    bool coldCache = false;
};

/** Default workload seed of @p name. */
std::uint64_t defaultSeed(const std::string &name);

/**
 * Build workload @p name at @p seed. @p smoke shrinks every window to
 * a few thousand cycles (the self-test mode). nullopt for an unknown
 * name.
 */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed, bool smoke);

/** The outcome of running a workload's grid once. */
struct GridRun {
    /** Campaign outcome; merged rows for a sampled grid. */
    rat::sim::CampaignOutcome outcome;
    /** campaignJson of the outcome — the exact output the user gets. */
    std::string json;
    /** Grid cells attempted (per-sample cells for a sampled grid). */
    std::uint64_t cells = 0;
    /** Cells that errored, were quarantined or failed a cache store. */
    std::uint64_t failed = 0;
    /** Farm jobs a worker stole from another worker's shard. */
    std::uint64_t jobsStolen = 0;
};

/** Run @p w's grid once with result cache @p cacheDir ("" = none). */
GridRun runGrid(const Workload &w, const std::string &cacheDir);

/** How many warm re-runs a repetition makes: at least min, then until
 * seconds have passed, at most max. */
struct WarmRuns {
    unsigned min = 1;
    unsigned max = 1;
    double seconds = 0.0;
};

/**
 * One timed repetition: a cold grid run (into a fresh cache under
 * @p dir when the workload caches), then warm re-runs served from a
 * populated cache, each checked byte-identical to the cold output.
 * Returns wall_s, warm_s (every warm re-run's seconds), digest, cells,
 * failed and jobs_stolen.
 */
Json timedRep(const Workload &w, const std::string &dir,
              const WarmRuns &warmRuns);

/**
 * One set-up measurement: spec expansion plus ResultCache open and
 * probe (planCampaign) and construction of the first cell's Simulator
 * — everything before the first simulated cycle. Returns setup_s.
 */
Json setupOnce(const Workload &w, const std::string &dir);

/**
 * Correctness gate: the nine tests/data/golden_mix2 cells under
 * @p repoRoot must reproduce byte-identically. Returns cells, failed
 * and the mismatching policy names.
 */
Json goldenGate(const std::string &repoRoot);

/**
 * The traced run (traced.cc): runs @p w's grid once in-process with
 * spans around every call into a layer, plus short probes, and returns
 * the per-layer metrics. @p untracedWall and @p jobsStolen come from
 * an untraced repetition of the same invocation. Spans are written to
 * @p spanFile.
 */
Json tracedRun(const Workload &w, const std::string &dir,
               const std::string &spanFile, double untracedWall,
               std::uint64_t jobsStolen, bool smoke);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Monotonic wall clock, seconds. */
double nowSeconds();

/** FNV-1a digest as 16 hex digits. */
std::string digestHex(const std::string &text);

/** Remove @p dir recursively and create it empty. */
void freshDir(const std::string &dir);

} // namespace ratbench

#endif // RATBENCH_BENCH_HH
