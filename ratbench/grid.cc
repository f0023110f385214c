/**
 * @file
 * Workload definitions, timed repetitions, set-up probes and the
 * golden correctness gate.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "bench.hh"
#include "policy/factory.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/experiment.hh"
#include "sim/farm.hh"
#include "sim/simulator.hh"

namespace ratbench {

using namespace rat;

namespace {

std::vector<sim::TechniqueSpec>
techniques(const std::vector<core::PolicyKind> &kinds)
{
    std::vector<sim::TechniqueSpec> out;
    for (const core::PolicyKind kind : kinds)
        out.push_back({policy::policyKindName(kind), kind, {}});
    return out;
}

const std::vector<core::PolicyKind> kAllPolicies = {
    core::PolicyKind::RoundRobin, core::PolicyKind::Icount,
    core::PolicyKind::Stall,      core::PolicyKind::Flush,
    core::PolicyKind::Dcra,       core::PolicyKind::HillClimbing,
    core::PolicyKind::Rat,        core::PolicyKind::RatDcra,
    core::PolicyKind::MlpAware,
};

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
digestHex(const std::string &text)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(report::fnv1a64(text)));
    return buf;
}

void
freshDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
}

std::uint64_t
defaultSeed(const std::string &name)
{
    return name == "sampled-mix2" ? 6 : 1;
}

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, bool smoke)
{
    Workload w;
    sim::CampaignSpec &spec = w.spec;
    spec.base.seed = seed;
    spec.parallelism = kWorkers;
    if (name == "sweep-mem2") {
        // Bench defaults (bench/bench_util.hh): functional prewarm
        // dominates every cell.
        spec.base.prewarmInsts = smoke ? 20000 : 1000000;
        spec.base.warmupCycles = smoke ? 500 : 15000;
        spec.base.measureCycles = smoke ? 2000 : 60000;
        spec.techniques = techniques(kAllPolicies);
        spec.groups = {sim::WorkloadGroup::MEM2};
        w.farm = true;
        w.coldCache = true;
    } else if (name == "window-mix4") {
        // A long measured window behind a small prewarm: the timed
        // pipeline dominates every cell.
        spec.base.prewarmInsts = smoke ? 10000 : 100000;
        spec.base.warmupCycles = smoke ? 500 : 5000;
        spec.base.measureCycles = smoke ? 4000 : 400000;
        spec.techniques = techniques({core::PolicyKind::Icount,
                                      core::PolicyKind::Dcra,
                                      core::PolicyKind::Rat});
        spec.groups = {sim::WorkloadGroup::MIX4};
    } else if (name == "sampled-mix2") {
        // The pinned --sampled operating point (bench/perf_sampled.cc).
        sim::SimConfig &b = spec.base;
        b.prewarmInsts = smoke ? 10000 : 100000;
        b.warmupCycles = smoke ? 500 : 5000;
        b.measureCycles = smoke ? 8000 : 500000;
        b.sampled = true;
        b.samplePhases = smoke ? 2 : 4;
        b.phaseWindow = smoke ? 1024 : 8192;
        b.phaseSpanWindows = smoke ? 8 : 48;
        b.sampleWarmupCycles = smoke ? 200 : 2000;
        b.sampleMeasureCycles = smoke ? 1000 : 23250;
        spec.techniques = techniques(kAllPolicies);
        spec.groups = {sim::WorkloadGroup::MIX2};
        w.coldCache = true;
    } else {
        return std::nullopt;
    }
    return w;
}

GridRun
runGrid(const Workload &w, const std::string &cacheDir)
{
    sim::CampaignSpec spec = w.spec;
    spec.cacheDir = cacheDir;
    GridRun run;
    if (w.farm) {
        sim::FarmOptions opts;
        opts.workers = kWorkers;
        sim::FarmOutcome fo = sim::runFarm(spec, opts);
        run.outcome = std::move(fo.campaign);
        run.jobsStolen = fo.jobsStolen;
        run.failed += fo.failedCells + fo.quarantinedCells.size();
        if (!fo.completed)
            run.failed = run.outcome.cells.size();
    } else {
        run.outcome = sim::runCampaign(spec);
    }
    run.cells = run.outcome.cells.size();
    run.failed += run.outcome.failedStores + run.outcome.cacheQuarantined;
    if (spec.base.sampled)
        run.outcome = sim::mergeSampledOutcome(run.outcome);
    run.json = sim::campaignJson(run.outcome, spec).dump();
    run.failed = std::min(run.failed, run.cells);
    return run;
}

Json
timedRep(const Workload &w, const std::string &dir, const WarmRuns &warmRuns)
{
    const std::string cacheDir = dir + "/cache";
    freshDir(dir);

    const double t0 = nowSeconds();
    const GridRun cold = runGrid(w, w.coldCache ? cacheDir : "");
    const double wall = nowSeconds() - t0;

    std::uint64_t failed = cold.failed;
    if (!w.coldCache) {
        // An uncached workload's warm re-run reads the cells its cold
        // run produced, stored (untimed) into a fresh cache.
        std::filesystem::create_directories(cacheDir);
        const report::ResultCache cache(cacheDir);
        for (const sim::CampaignCell &cell : cold.outcome.cells) {
            if (!cache.store(cell.key, cell.result))
                ++failed;
        }
    }

    // Back-to-back warm re-runs, rotated in blocks of 8 over every
    // allowed CPU: a virtual CPU whose host core is busy with other work
    // runs the warm path up to ~1.6x slower for seconds at a time, and
    // the caller keeps the fastest re-run.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    ::sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    Json warm = Json::array();
    const double warmStart = nowSeconds();
    for (unsigned i = 0; i < warmRuns.max; ++i) {
        if (i >= warmRuns.min && nowSeconds() - warmStart > warmRuns.seconds)
            break;
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[(i / 8) % cpus.size()], &one);
            ::sched_setaffinity(0, sizeof(one), &one);
        }
        const double t1 = nowSeconds();
        const GridRun again = runGrid(w, cacheDir);
        warm.push(nowSeconds() - t1);
        // The warm report must be byte-identical to the cold one, and
        // served entirely from the cache.
        if (again.json != cold.json || again.outcome.simulated != 0)
            failed += again.cells;
        failed += again.failed;
    }
    ::sched_setaffinity(0, sizeof(allowed), &allowed);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    Json out = Json::object();
    out["wall_s"] = wall;
    out["warm_s"] = std::move(warm);
    out["digest"] = digestHex(cold.json);
    out["cells"] = cold.cells;
    out["failed"] = std::min(failed, cold.cells);
    out["jobs_stolen"] = cold.jobsStolen;
    return out;
}

Json
setupOnce(const Workload &w, const std::string &dir)
{
    const std::string cacheDir = w.coldCache ? dir + "/cache" : "";
    freshDir(dir);

    const double t0 = nowSeconds();
    sim::CampaignSpec spec = w.spec;
    spec.cacheDir = cacheDir;
    const report::ResultCache cache(spec.cacheDir);
    const sim::CampaignPlan plan = sim::planCampaign(spec, cache);
    const sim::CampaignCell &first =
        plan.outcome.cells.at(plan.leads.at(0));
    const sim::Simulator simulator(first.config, first.programs);
    const double setup = nowSeconds() - t0;

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    Json out = Json::object();
    out["setup_s"] = setup;
    return out;
}

Json
goldenGate(const std::string &repoRoot)
{
    // Same windows and workload as tests/sim/test_determinism.cc.
    std::vector<std::string> got(kAllPolicies.size());
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < kAllPolicies.size(); ++i) {
        jobs.emplace_back([&got, i] {
            sim::SimConfig cfg;
            cfg.prewarmInsts = 100000;
            cfg.warmupCycles = 5000;
            cfg.measureCycles = 10000;
            cfg.core.policy = kAllPolicies[i];
            sim::Simulator simulator(cfg, {"art", "gzip"});
            got[i] = report::toJson(simulator.run()).dump(2) + "\n";
        });
    }
    sim::runParallel(jobs, kWorkers);

    Json mismatches = Json::array();
    for (std::size_t i = 0; i < kAllPolicies.size(); ++i) {
        std::string name = policy::policyKindName(kAllPolicies[i]);
        std::replace(name.begin(), name.end(), '+', '_');
        std::ifstream in(repoRoot + "/tests/data/golden_mix2/" + name +
                             ".json",
                         std::ios::binary);
        std::ostringstream golden;
        golden << in.rdbuf();
        if (!in || golden.str() != got[i])
            mismatches.push(name);
    }
    Json out = Json::object();
    out["cells"] = kAllPolicies.size();
    out["failed"] = mismatches.size();
    out["mismatches"] = std::move(mismatches);
    return out;
}

} // namespace ratbench
