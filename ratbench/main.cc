/**
 * @file
 * ratbench: one invocation measures one workload.
 *
 *   ratbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--smoke] [--repo DIR] [--out DIR] [--commit ID]
 *            [--source-digest HEX]
 *
 * With --trace 0 it repeats the workload for about --seconds (at least
 * two repetitions) and reports the end-to-end metrics as medians over
 * the repetitions; with --trace 1 it runs the workload once untraced
 * and once traced and reports the per-layer metrics. Either way the
 * last line of stdout is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Operations are grid cells. The correctness gate runs once per
 * invocation, untimed: the golden_mix2 cells must reproduce byte for
 * byte, every warm re-run must equal its cold run, and every
 * repetition's output digest must be equal. Any failure exits 1.
 *
 * The binary is also the farm's worker (`--farm-worker`), because
 * runFarm re-executes its own executable.
 */

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/farm.hh"

namespace {

using namespace ratbench;

struct MetricDef {
    const char *name;
    const char *unit;
};

/** End-to-end metrics (--trace 0), all lower-is-better. */
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},   {"setup_s", "s"},      {"cpu_s", "s"},
    {"warm_s", "s"},   {"peak_rss_mb", "MB"},
};

/** Per-layer metrics (--trace 1), named by src/ module. */
const std::vector<MetricDef> kPerLayer = {
    {"core.prewarm_s", "s"},
    {"core.prewarm_ns_per_inst", "ns"},
    {"core.prewarm_frac", "frac"},
    {"trace.synth_ns_per_uop", "ns"},
    {"branch.predict_update_ns", "ns"},
    {"mem.access_ns", "ns"},
    {"sim.ctor_ms", "ms"},
    {"sim.warmup_s", "s"},
    {"sim.measure_s", "s"},
    {"sim.measure_frac", "frac"},
    {"sim.measure_ns_per_cycle", "ns"},
    {"sim.measure_ns_per_inst", "ns"},
    {"sim.skip_frac", "frac"},
    {"policy.RR.measure_ns_per_cycle", "ns"},
    {"policy.ICOUNT.measure_ns_per_cycle", "ns"},
    {"policy.STALL.measure_ns_per_cycle", "ns"},
    {"policy.FLUSH.measure_ns_per_cycle", "ns"},
    {"policy.DCRA.measure_ns_per_cycle", "ns"},
    {"policy.HillClimbing.measure_ns_per_cycle", "ns"},
    {"policy.RaT.measure_ns_per_cycle", "ns"},
    {"policy.RaT_DCRA.measure_ns_per_cycle", "ns"},
    {"policy.MLP.measure_ns_per_cycle", "ns"},
    {"runahead.episodes", "count"},
    {"runahead.useless_frac", "frac"},
    {"runahead.ra_exec_per_kinst", "1/kinst"},
    {"mem.l2_mpki", "1/kinst"},
    {"model.rat_vs_icount_pct", "%"},
    {"sampled.plan_ms", "ms"},
    {"sampled.first_sample_ms", "ms"},
    {"sampled.sample_ms", "ms"},
    {"sampled.merge_us", "us"},
    {"sampled.detailed_cycles", "cycles"},
    {"sampled.hmean_err_pct_max", "%"},
    {"sampled.thrpt_err_pct_max", "%"},
    {"sampled.thread_ipc_err_pct_max", "%"},
    {"sampled.bound_miss_frac", "frac"},
    {"sampled.wallclock_speedup", "x"},
    {"checkpoint.restore_ms", "ms"},
    {"checkpoint.blob_kb", "KiB"},
    {"obs.tracer_overhead_frac", "frac"},
    {"report.serialize_us", "us"},
    {"report.parse_us", "us"},
    {"report.cache_store_us", "us"},
    {"report.cache_load_us", "us"},
    {"report.cell_bytes", "B"},
    {"wire.frame_us", "us"},
    {"farm.idle_frac", "frac"},
    {"farm.jobs_stolen", "count"},
    {"bench.cell_s", "s"},
    {"bench.trace_overhead_frac", "frac"},
};

/** Set-up probes (each a fresh process) before every repetition. */
constexpr unsigned kSetupPerRep = 2;
/** Warm re-runs per timed repetition: about half a second's worth; the
 * fastest counts. */
constexpr WarmRuns kWarmRuns{10, 200, 0.5};

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string repo = ".";
    std::string out = ".bench_build/ratbench-out";
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ratbench: %s\nusage: ratbench --workload "
                 "sweep-mem2|window-mix4|sampled-mix2 [--seed N] "
                 "[--seconds S] [--trace 0|1] [--smoke] [--repo DIR] "
                 "[--out DIR] [--commit ID] [--source-digest HEX]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseNumber(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!*text || *end)
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = next();
        } else if (arg == "--seed") {
            o.seed = parseNumber(next(), "--seed");
            o.seedGiven = true;
        } else if (arg == "--seconds") {
            o.seconds = double(parseNumber(next(), "--seconds"));
        } else if (arg == "--trace") {
            o.trace = parseNumber(next(), "--trace") != 0;
        } else if (arg == "--smoke") {
            o.smoke = true;
        } else if (arg == "--repo") {
            o.repo = next();
        } else if (arg == "--out") {
            o.out = next();
        } else if (arg == "--commit") {
            o.commit = next();
        } else if (arg == "--source-digest") {
            o.sourceDigest = next();
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!o.seedGiven)
        o.seed = defaultSeed(o.workload);
    return o;
}

/** What a forked child returned, plus its wait4() accounting. */
struct ChildResult {
    std::optional<Json> out; ///< nullopt if the child died or threw
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
};

/**
 * Run @p body in a forked child and collect its JSON result. CPU time
 * and peak RSS cover the child and every process it waited for (farm
 * workers included). The parent stays single-threaded, so forking is
 * safe.
 */
ChildResult
inChild(const std::function<Json()> &body)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return {};
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0)
        return {};
    if (pid == 0) {
        ::close(fds[0]);
        std::string text;
        try {
            text = body().dump();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ratbench: child failed: %s\n", e.what());
            ::_exit(1);
        }
        const char *p = text.data();
        std::size_t left = text.size();
        while (left > 0) {
            const ssize_t n = ::write(fds[1], p, left);
            if (n <= 0)
                ::_exit(1);
            p += n;
            left -= std::size_t(n);
        }
        ::close(fds[1]);
        std::fflush(nullptr);
        ::_exit(0);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fds[0], buf, sizeof(buf))) > 0)
        text.append(buf, std::size_t(n));
    ::close(fds[0]);
    int status = 0;
    struct rusage ru {};
    ::wait4(pid, &status, 0, &ru);

    ChildResult r;
    r.cpuSeconds = double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                   1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    r.peakRssMb = double(ru.ru_maxrss) / 1024.0;
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        r.out = Json::parse(text);
    return r;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

Json
hostRecord(const Options &o)
{
    Json h = Json::object();
    h["nproc"] = std::uint64_t(::sysconf(_SC_NPROCESSORS_ONLN));
    h["cpu"] = cpuModel();
    h["compiler"] = RATBENCH_COMPILER;
    h["build_type"] = RATBENCH_BUILD_TYPE;
    h["lto"] = RATBENCH_LTO != 0;
    h["commit"] = o.commit;
    h["source_digest"] = o.sourceDigest;
    h["workers"] = kWorkers;
    return h;
}

/** Number field of a child's JSON result (0 when absent). */
double
num(const Json &j, const char *key)
{
    const Json *v = j.find(key);
    return v && v->isNumber() ? v->asDouble() : 0.0;
}

std::string
str(const Json &j, const char *key)
{
    const Json *v = j.find(key);
    return v && v->isString() ? v->asString() : "";
}

int
farmWorker(int argc, char **argv)
{
    std::string cache;
    unsigned id = 0;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        if (arg == "--cache")
            cache = argv[i + 1];
        else if (arg == "--worker-id")
            id = unsigned(std::strtoul(argv[i + 1], nullptr, 10));
    }
    return rat::sim::farmWorkerMain(cache, id, 0);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--farm-worker") == 0)
        return farmWorker(argc, argv);

    const Options o = parseOptions(argc, argv);
    const std::optional<Workload> w =
        makeWorkload(o.workload, o.seed, o.smoke);
    if (!w)
        usage(("unknown workload " + o.workload).c_str());
    const std::string work =
        o.out + "/work-" + std::to_string(::getpid());
    std::filesystem::create_directories(work);

    std::printf("host %s\n", hostRecord(o).dump().c_str());
    std::printf("workload %s seed %llu trace %d%s\n", o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.trace ? 1 : 0,
                o.smoke ? " smoke" : "");

    std::uint64_t attempted = 0, failed = 0;
    const auto account = [&](const ChildResult &r, std::uint64_t expected) {
        const std::uint64_t cells =
            r.out ? std::uint64_t(num(*r.out, "cells")) : expected;
        attempted += std::max<std::uint64_t>(cells, 1);
        failed += r.out ? std::uint64_t(num(*r.out, "failed"))
                        : std::max<std::uint64_t>(cells, 1);
    };

    // Correctness gate, untimed.
    const ChildResult gate = inChild([&] { return goldenGate(o.repo); });
    account(gate, 9);
    if (!gate.out || num(*gate.out, "failed") > 0)
        std::printf("gate golden_mix2 FAILED %s\n",
                    gate.out ? gate.out->at("mismatches").dump().c_str()
                             : "(child died)");
    else
        std::printf("gate golden_mix2 ok (9 cells byte-identical)\n");

    Json metrics = Json::object();
    std::vector<std::string> digests;
    if (!o.trace) {
        // Set-up probes and warm re-runs take milliseconds, so one
        // moment of host contention can cover a burst of them. Set-up
        // probes are spread over the run (before every repetition and
        // after the last); each repetition's warm time is the fastest of
        // its back-to-back re-runs (min-of-N), and the run reports the
        // median over repetitions.
        std::vector<double> setup, wall, warm, cpu, rss;
        const auto setupProbes = [&] {
            for (unsigned i = 0; i < kSetupPerRep; ++i) {
                const ChildResult r = inChild(
                    [&] { return setupOnce(*w, work + "/setup"); });
                if (r.out)
                    setup.push_back(num(*r.out, "setup_s"));
                else
                    ++failed;
            }
        };
        const double start = nowSeconds();
        while (true) {
            setupProbes();
            const ChildResult r = inChild(
                [&] { return timedRep(*w, work + "/rep", kWarmRuns); });
            account(r, 1);
            std::vector<double> repWarm;
            if (r.out) {
                for (const Json &v : r.out->at("warm_s").elements())
                    repWarm.push_back(v.asDouble());
            }
            if (!repWarm.empty()) {
                wall.push_back(num(*r.out, "wall_s"));
                warm.push_back(
                    *std::min_element(repWarm.begin(), repWarm.end()));
                digests.push_back(str(*r.out, "digest"));
                std::printf("rep %zu wall_s %.4f warm_s %.5f (min of %zu, "
                            "median %.5f) cpu_s %.3f peak_rss_mb %.1f "
                            "digest %s\n",
                            wall.size(), wall.back(), warm.back(),
                            repWarm.size(), median(repWarm), r.cpuSeconds,
                            r.peakRssMb, digests.back().c_str());
            }
            cpu.push_back(r.cpuSeconds);
            rss.push_back(r.peakRssMb);
            const double elapsed = nowSeconds() - start;
            const double perRep = elapsed / double(cpu.size());
            if (cpu.size() >= 2 && elapsed + perRep > o.seconds)
                break;
        }
        setupProbes();
        metrics["wall_s"] = median(wall);
        metrics["setup_s"] = median(setup);
        metrics["cpu_s"] = median(cpu);
        metrics["warm_s"] = median(warm);
        metrics["peak_rss_mb"] = median(rss);
    } else {
        const ChildResult rep =
            inChild([&] { return timedRep(*w, work + "/rep", WarmRuns{}); });
        account(rep, 1);
        const double wall = rep.out ? num(*rep.out, "wall_s") : 0.0;
        const auto stolen =
            std::uint64_t(rep.out ? num(*rep.out, "jobs_stolen") : 0.0);
        if (rep.out)
            digests.push_back(str(*rep.out, "digest"));
        std::filesystem::create_directories(o.out);
        const std::string spanFile = o.out + "/spans-" + o.workload +
                                     "-seed" + std::to_string(o.seed) +
                                     ".json";
        const ChildResult traced = inChild([&] {
            return tracedRun(*w, work + "/traced", spanFile, wall, stolen,
                             o.smoke);
        });
        account(traced, 1);
        if (traced.out) {
            digests.push_back(str(*traced.out, "digest"));
            for (const auto &[name, value] :
                 traced.out->at("self_s").members())
                std::printf("self %-28s %10.4f s\n", name.c_str(),
                            value.asDouble());
            std::printf("spans written to %s\n", spanFile.c_str());
            metrics = traced.out->at("metrics");
        }
    }

    // Every repetition (and the traced run) must produce the same
    // exact output.
    bool same = !digests.empty();
    for (const std::string &d : digests)
        same = same && !d.empty() && d == digests.front();
    std::printf("digest %s fnv1a %s over %zu runs: %s\n", o.workload.c_str(),
                digests.empty() ? "none" : digests.front().c_str(),
                digests.size(), same ? "identical" : "MISMATCH");
    if (!same)
        failed = std::max<std::uint64_t>(failed, 1);

    Json out = Json::object();
    Json named = Json::object();
    for (const MetricDef &def : o.trace ? kPerLayer : kEndToEnd) {
        const Json *v = metrics.find(def.name);
        if (!v || !v->isNumber()) {
            std::printf("metric %s missing\n", def.name);
            failed = std::max<std::uint64_t>(failed, 1);
            continue;
        }
        Json m = Json::object();
        m["value"] = v->asDouble();
        m["unit"] = def.unit;
        named[def.name] = std::move(m);
    }
    failed = std::min(failed, attempted);
    out["correct"] = failed == 0;
    out["attempted"] = attempted;
    out["failed"] = failed;
    out["metrics"] = std::move(named);

    std::error_code ec;
    std::filesystem::remove_all(work, ec);
    std::printf("%s\n", out.dump().c_str());
    return failed == 0 ? 0 : 1;
}
