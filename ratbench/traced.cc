/**
 * @file
 * The traced run: one pass over a workload's grid with a span around
 * every call the benchmark makes into a simulator layer, plus short
 * probes of the layers the grid itself does not reach, reduced to the
 * per-layer metrics of BENCHMARK.json.
 *
 * Spans are recorded from the benchmark's own code only (the simulator
 * has no internal spans): each carries a name, start, end and the span
 * that caused it, is kept in memory, and is written out as Chrome
 * trace-event JSON when the run ends. A layer's self time is its span's
 * duration minus the time its child spans cover.
 *
 * Farm cells run inside worker processes the benchmark cannot see into,
 * so a farmed grid is traced by running the same cells in-process on
 * the same number of threads.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "bench.hh"
#include "branch/perceptron.hh"
#include "common/rng.hh"
#include "mem/hierarchy.hh"
#include "policy/factory.hh"
#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "report/wire.hh"
#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace ratbench {

using namespace rat;

namespace {

// --------------------------------------------------------------------
// Span recording

struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::string name;
    std::string arg; ///< policy or workload the span worked on
    unsigned tid = 0;
    double start = 0.0;
    double end = 0.0;
};

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next.fetch_add(1);
    return index;
}

class SpanLog
{
  public:
    std::uint64_t reserve() { return next_.fetch_add(1); }

    void
    record(std::uint64_t id, std::uint64_t parent, std::string name,
           std::string arg, double start, double end)
    {
        Span s{id, parent, std::move(name), std::move(arg), threadIndex(),
               start, end};
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(std::move(s));
    }

    /** Sum of durations of every span called @p name. */
    double
    total(const std::string &name) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            sum += s.name == name ? s.end - s.start : 0.0;
        return sum;
    }

    /** Sum of durations of the @p name spans whose parent is @p parent. */
    double
    totalUnder(const std::string &name, std::uint64_t parent) const
    {
        double sum = 0.0;
        for (const Span &s : spans_)
            sum += s.name == name && s.parent == parent ? s.end - s.start
                                                        : 0.0;
        return sum;
    }

    /** Durations of every span called @p name. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.name == name)
                out.push_back(s.end - s.start);
        }
        return out;
    }

    /**
     * Self time per span name: duration minus the part of it that its
     * direct children cover (children on parallel threads overlap, so
     * their union counts, not their sum).
     */
    std::map<std::string, double>
    selfTimes() const
    {
        std::map<std::uint64_t, std::vector<std::pair<double, double>>> kids;
        for (const Span &s : spans_)
            kids[s.parent].emplace_back(s.start, s.end);
        std::map<std::string, double> self;
        for (const Span &s : spans_) {
            auto &iv = kids[s.id];
            std::sort(iv.begin(), iv.end());
            double covered = 0.0, from = s.start;
            for (const auto &[a, b] : iv) {
                const double lo = std::max(a, from), hi = std::min(b, s.end);
                if (hi > lo) {
                    covered += hi - lo;
                    from = hi;
                }
            }
            self[s.name] += s.end - s.start - covered;
        }
        return self;
    }

    /** Chrome trace-event JSON (load in Perfetto / chrome://tracing). */
    void
    write(const std::string &path) const
    {
        double origin = spans_.empty() ? 0.0 : spans_.front().start;
        for (const Span &s : spans_)
            origin = std::min(origin, s.start);
        Json events = Json::array();
        for (const Span &s : spans_) {
            Json e = Json::object();
            e["name"] = s.name;
            e["ph"] = "X";
            e["pid"] = 1;
            e["tid"] = s.tid;
            e["ts"] = (s.start - origin) * 1e6;
            e["dur"] = (s.end - s.start) * 1e6;
            Json args = Json::object();
            args["id"] = s.id;
            args["parent"] = s.parent;
            if (!s.arg.empty())
                args["on"] = s.arg;
            e["args"] = std::move(args);
            events.push(std::move(e));
        }
        Json doc = Json::object();
        doc["traceEvents"] = std::move(events);
        std::ofstream(path, std::ios::binary) << doc.dump() << "\n";
    }

  private:
    std::atomic<std::uint64_t> next_{1};
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span: opens on construction, records on destruction. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const char *name, std::uint64_t parent,
           std::string arg = "")
        : log_(log), name_(name), arg_(std::move(arg)), parent_(parent),
          id_(log.reserve()), start_(nowSeconds())
    {}
    ~Scoped() { log_.record(id_, parent_, name_, arg_, start_, nowSeconds()); }

    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::uint64_t id() const { return id_; }
    double start() const { return start_; }

  private:
    SpanLog &log_;
    const char *name_;
    std::string arg_;
    std::uint64_t parent_;
    std::uint64_t id_;
    double start_;
};

std::string
joined(const std::vector<std::string> &programs)
{
    std::string out;
    for (const std::string &p : programs)
        out += (out.empty() ? "" : ",") + p;
    return out;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

// --------------------------------------------------------------------
// Traced layers

/** The report / cache / wire layer, applied to every cached cell. */
class ReportLayer
{
  public:
    explicit ReportLayer(const std::string &cacheDir) : cache_(cacheDir)
    {
        std::filesystem::create_directories(cacheDir);
    }

    /** Serialize, parse, store, load and frame @p result; false if
     * any round trip changed it. */
    bool
    run(SpanLog &log, std::uint64_t parent, const std::string &key,
        const sim::SimResult &result)
    {
        std::string text;
        {
            Scoped s(log, "report.serialize", parent);
            text = report::toJson(result).dump();
        }
        sim::SimResult parsed;
        bool ok = true;
        {
            Scoped s(log, "report.parse", parent);
            const auto json = report::Json::parse(text);
            ok = json && report::fromJson(*json, parsed);
        }
        ok = ok && report::toJson(parsed).dump() == text;
        {
            Scoped s(log, "report.cache_store", parent);
            ok = cache_.store(key, result) && ok;
        }
        std::optional<sim::SimResult> loaded;
        {
            Scoped s(log, "report.cache_load", parent);
            loaded = cache_.load(key);
        }
        ok = ok && loaded && report::toJson(*loaded).dump() == text;

        int fds[2];
        if (::pipe(fds) != 0)
            return false;
        ::fcntl(fds[1], F_SETPIPE_SZ, 1 << 20);
        if (text.size() + 4 < 1u << 16) {
            Scoped s(log, "wire.frame", parent);
            ok = report::writeFrame(fds[1], text) && ok;
            report::FrameReader reader(fds[0]);
            const auto frame = reader.next();
            ok = ok && frame && *frame == text;
        } else {
            ok = false;
        }
        ::close(fds[0]);
        ::close(fds[1]);
        std::lock_guard<std::mutex> lock(mu_);
        bytes_ += static_cast<double>(text.size());
        ++cells_;
        return ok;
    }

    double meanBytes() const { return cells_ ? bytes_ / cells_ : 0.0; }

  private:
    report::ResultCache cache_;
    std::mutex mu_;
    double bytes_ = 0.0;
    double cells_ = 0.0;
};

/** One exact simulation run through Simulator with phase timing. */
struct ExactRecord {
    std::string policy;
    std::string workload;
    sim::SimConfig config;
    sim::PhaseTiming timing;
    sim::SimResult result;
    /** Counted in the sim/core/runahead/mem sums (false = probe). */
    bool inGrid = true;
};

ExactRecord
tracedExactCell(SpanLog &log, std::uint64_t parent,
                const sim::SimConfig &cfg,
                const std::vector<std::string> &programs,
                const std::string &policy, ReportLayer *io,
                const std::string &key, std::atomic<std::uint64_t> &failed)
{
    ExactRecord rec;
    rec.policy = policy;
    rec.workload = joined(programs);
    rec.config = cfg;
    Scoped cell(log, "cell", parent, policy + " " + rec.workload);
    std::unique_ptr<sim::Simulator> simulator;
    {
        Scoped s(log, "sim.ctor", cell.id());
        simulator = std::make_unique<sim::Simulator>(cfg, programs);
    }
    {
        Scoped s(log, "sim.run", cell.id());
        rec.result = simulator->run(&rec.timing);
        // The three phases run back to back from the start of run().
        const sim::PhaseTiming &t = rec.timing;
        double at = s.start();
        const std::pair<const char *, double> phases[] = {
            {"core.prewarm", t.prewarmSeconds},
            {"sim.warmup", t.warmupSeconds},
            {"sim.measure", t.measureSeconds}};
        for (const auto &[name, seconds] : phases) {
            log.record(log.reserve(), s.id(), name, "", at, at + seconds);
            at += seconds;
        }
    }
    simulator.reset();
    if (io && !io->run(log, cell.id(), key, rec.result))
        failed.fetch_add(1);
    return rec;
}

/** Sampled pipeline of one sampled campaign, traced step by step. */
struct SampledTrace {
    sim::CampaignOutcome merged;
    std::string json;
    double wall = 0.0;
    std::uint64_t sampleCells = 0;
    std::uint64_t detailedCycles = 0;
    std::size_t mergedRows = 0;
    double blobBytes = 0.0;
    unsigned blobs = 0;
};

std::vector<std::vector<std::string>>
specPrograms(const sim::CampaignSpec &spec)
{
    std::vector<std::vector<std::string>> out;
    for (const sim::WorkloadGroup g : spec.groups) {
        for (const sim::Workload &wl : sim::workloadsOf(g))
            out.push_back(wl.programs);
    }
    for (const sim::Workload &wl : spec.workloads)
        out.push_back(wl.programs);
    return out;
}

SampledTrace
traceSampled(SpanLog &log, const sim::CampaignSpec &spec, ReportLayer *io,
             std::atomic<std::uint64_t> &failed)
{
    SampledTrace st;
    const std::uint64_t root = log.reserve();
    const double t0 = nowSeconds();

    // Phase plans, one per workload (the policies share it). Planning
    // here first makes the expansion below a memo hit.
    for (const std::vector<std::string> &programs : specPrograms(spec)) {
        sim::SimConfig cfg = spec.base;
        cfg.core.numThreads = static_cast<unsigned>(programs.size());
        cfg.core.policy = spec.techniques.front().policy;
        Scoped s(log, "sampled.plan", root, joined(programs));
        sim::samplePlanFor(cfg, programs);
    }

    std::vector<sim::CampaignCell> cells = sim::expandCampaign(spec);
    const std::string ckptDir = sim::checkpointDirFor(spec.cacheDir);
    // The first sample of each workload pays the checkpoint walk.
    std::vector<std::size_t> first, rest;
    std::set<std::string> walked;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const sim::CampaignCell &c = cells[i];
        st.detailedCycles +=
            c.config.sampleWarmupCycles + c.config.sampleMeasureCycles;
        (walked.insert(c.workload).second ? first : rest).push_back(i);
    }
    st.sampleCells = cells.size();
    const auto runSamples = [&](const std::vector<std::size_t> &indices,
                                const char *name) {
        std::vector<std::function<void()>> jobs;
        for (const std::size_t i : indices) {
            jobs.emplace_back([&, i, name] {
                sim::CampaignCell &c = cells[i];
                Scoped s(log, name, root, c.technique + " " + c.workload);
                c.result = sim::simulateCell(c.config, c.programs, ckptDir);
                if (io && !io->run(log, s.id(), c.key, c.result))
                    failed.fetch_add(1);
            });
        }
        sim::runParallel(jobs, kWorkers);
    };
    runSamples(first, "sampled.first_sample");
    runSamples(rest, "sampled.sample");

    sim::CampaignOutcome outcome;
    outcome.cells = cells;
    {
        Scoped s(log, "sampled.merge", root);
        st.merged = sim::mergeSampledOutcome(outcome);
    }
    st.mergedRows = st.merged.cells.size();
    st.json = sim::campaignJson(st.merged, spec).dump();
    st.wall = nowSeconds() - t0;
    log.record(root, 0, "grid.sampled", "", t0, t0 + st.wall);

    // Restore every persisted checkpoint into a fresh simulator.
    std::set<std::string> restored;
    for (const sim::CampaignCell &c : cells) {
        if (!restored.insert(c.workload).second)
            continue;
        const trace::PhaseProfile &plan =
            sim::samplePlanFor(c.config, c.programs);
        for (const trace::PhaseSample &sample : plan.samples) {
            const InstSeq position =
                c.config.prewarmInsts +
                InstSeq{sample.windowIndex} * c.config.phaseWindow;
            char name[32];
            std::snprintf(name, sizeof(name), "%016llx.ratck2",
                          static_cast<unsigned long long>(
                              sim::CheckpointCodec::fileKey(
                                  c.config, c.programs, position)));
            std::ifstream in(ckptDir + "/" + name, std::ios::binary);
            const std::string blob((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
            sim::Simulator target(c.config, c.programs);
            bool ok = false;
            {
                Scoped s(log, "checkpoint.restore", 0, c.workload);
                ok = sim::CheckpointCodec::restore(target, blob);
            }
            if (!ok)
                failed.fetch_add(1);
            st.blobBytes += static_cast<double>(blob.size());
            ++st.blobs;
        }
    }
    return st;
}

/** Exact reference runs of every merged row of @p st, as cells under
 * span @p root. */
std::vector<ExactRecord>
traceReference(SpanLog &log, std::uint64_t root, const SampledTrace &st,
               double &wall, std::atomic<std::uint64_t> &failed)
{
    std::vector<ExactRecord> recs(st.merged.cells.size());
    const double t0 = nowSeconds();
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        jobs.emplace_back([&, i] {
            const sim::CampaignCell &row = st.merged.cells[i];
            sim::SimConfig cfg = row.config;
            cfg.sampled = false;
            cfg.sampleIndex = -1;
            recs[i] = tracedExactCell(log, root, cfg, row.programs,
                                      row.technique, nullptr, "", failed);
        });
    }
    sim::runParallel(jobs, kWorkers);
    wall = nowSeconds() - t0;
    log.record(root, 0, "grid.reference", "", t0, t0 + wall);
    return recs;
}

/** Worst sampled-vs-exact errors over the merged rows. */
struct SampledErrors {
    double hmeanPct = 0.0;
    double thrptPct = 0.0;
    double threadIpcPct = 0.0;
    double boundMissFrac = 0.0;
};

SampledErrors
sampledErrors(const SampledTrace &st, const std::vector<ExactRecord> &ref)
{
    SampledErrors e;
    unsigned misses = 0;
    const auto rel = [](double est, double exact) {
        return exact > 0.0 ? std::abs(est - exact) / exact : 0.0;
    };
    for (std::size_t i = 0; i < ref.size(); ++i) {
        const sim::SimResult &s = st.merged.cells[i].result;
        const sim::SimResult &x = ref[i].result;
        const double hmean = rel(sim::hmeanIpc(s), sim::hmeanIpc(x));
        e.hmeanPct = std::max(e.hmeanPct, 100.0 * hmean);
        e.thrptPct = std::max(
            e.thrptPct, 100.0 * rel(sim::throughput(s), sim::throughput(x)));
        for (std::size_t t = 0;
             t < s.threads.size() && t < x.threads.size(); ++t) {
            e.threadIpcPct =
                std::max(e.threadIpcPct,
                         100.0 * rel(s.threads[t].ipc, x.threads[t].ipc));
        }
        misses += hmean > s.sampled.hmeanError ? 1 : 0;
    }
    e.boundMissFrac = ref.empty() ? 0.0 : double(misses) / ref.size();
    return e;
}

/** Functional-walk layers on a workload's own programs. */
struct FunctionalProbe {
    double synthNsPerUop = 0.0;
    double predictNs = 0.0;
    double accessNs = 0.0;
};

FunctionalProbe
probeFunctional(SpanLog &log, const std::vector<std::string> &programs,
                std::uint64_t seed, InstSeq n)
{
    FunctionalProbe out;
    std::vector<std::vector<trace::MicroOp>> ops(programs.size());
    {
        Scoped s(log, "probe.trace", 0, joined(programs));
        for (std::size_t t = 0; t < programs.size(); ++t) {
            const trace::TraceGenerator gen(trace::spec2000(programs[t]),
                                            hashCombine(seed, t + 1),
                                            (Addr{t} + 1) << 40);
            ops[t].reserve(n);
            for (InstSeq i = 0; i < n; ++i)
                ops[t].push_back(gen.at(i));
        }
    }
    out.synthNsPerUop =
        1e9 * log.total("probe.trace") / double(n * programs.size());

    double branches = 0.0;
    {
        Scoped s(log, "probe.branch", 0, joined(programs));
        branch::PerceptronPredictor predictor;
        for (std::size_t t = 0; t < programs.size(); ++t) {
            const auto tid = static_cast<ThreadId>(t);
            for (const trace::MicroOp &op : ops[t]) {
                if (op.op != trace::OpClass::Branch)
                    continue;
                const auto p = predictor.predict(tid, op.pc);
                predictor.update(tid, op.pc, op.taken, p);
                ++branches;
            }
        }
    }
    out.predictNs = branches ? 1e9 * log.total("probe.branch") / branches
                             : 0.0;

    // The cache work of the functional walk (SmtCore::prewarm): every
    // uop installs its line in L1I and L2, every memory op its data
    // line in L1D and L2.
    double accesses = 0.0;
    {
        Scoped s(log, "probe.mem", 0, joined(programs));
        mem::MemoryHierarchy hierarchy{mem::MemConfig{}};
        mem::Cache &l1i = hierarchy.l1i();
        mem::Cache &l1d = hierarchy.l1d();
        mem::Cache &l2 = hierarchy.l2();
        Addr evicted = 0;
        for (InstSeq i = 0; i < n; ++i) {
            const Cycle now = i;
            for (std::size_t t = 0; t < programs.size(); ++t) {
                const trace::MicroOp &op = ops[t][i];
                l1i.install(l1i.lineAlign(op.pc), now, now, evicted);
                l2.install(l2.lineAlign(op.pc), now, now, evicted);
                accesses += 2;
                if (trace::isMemOp(op.op)) {
                    l1d.install(l1d.lineAlign(op.effAddr), now, now,
                                evicted);
                    l2.install(l2.lineAlign(op.effAddr), now, now, evicted);
                    accesses += 2;
                }
            }
        }
    }
    out.accessNs = accesses ? 1e9 * log.total("probe.mem") / accesses : 0.0;
    return out;
}

/**
 * Cycle-tracer overhead: one window-mix4 RaT cell with
 * SimConfig::traceOut set against the same cell without it (measured
 * window only). The two results must be identical.
 */
double
probeTracer(SpanLog &log, std::uint64_t seed, bool smoke,
            const std::string &dir, std::atomic<std::uint64_t> &failed)
{
    sim::SimConfig cfg = makeWorkload("window-mix4", seed, smoke)->spec.base;
    cfg.core.policy = core::PolicyKind::Rat;
    const std::vector<std::string> programs =
        sim::workloadsOf(sim::WorkloadGroup::MIX4).front().programs;
    // Two alternating pairs; the faster run of each side counts.
    const std::string traceOut = dir + "/tracer-probe.json";
    double off = 0.0, on = 0.0;
    std::string plain;
    for (int round = 0; round < 4; ++round) {
        const bool traced = round % 2 == 1;
        cfg.traceOut = traced ? traceOut : "";
        sim::PhaseTiming timing;
        Scoped s(log, traced ? "probe.tracer_on" : "probe.tracer_off", 0,
                 joined(programs));
        sim::Simulator simulator(cfg, programs);
        const std::string result =
            report::toJson(simulator.run(&timing)).dump();
        if (round == 0)
            plain = result;
        else if (result != plain)
            failed.fetch_add(1);
        double &best = traced ? on : off;
        best = round < 2 ? timing.measureSeconds
                         : std::min(best, timing.measureSeconds);
    }
    std::error_code ec;
    std::filesystem::remove(traceOut, ec);
    return off > 0.0 ? on / off - 1.0 : 0.0;
}

std::string
metricPolicyName(const std::string &label)
{
    std::string out = label;
    std::replace(out.begin(), out.end(), '+', '_');
    return out;
}

} // namespace

Json
tracedRun(const Workload &w, const std::string &dir,
          const std::string &spanFile, double untracedWall,
          std::uint64_t jobsStolen, bool smoke)
{
    freshDir(dir);
    SpanLog log;
    std::atomic<std::uint64_t> failed{0};
    ReportLayer io(dir + "/report-cache");
    const std::uint64_t seed = w.spec.base.seed;
    const std::vector<std::string> firstPrograms =
        specPrograms(w.spec).front();

    // ---- the workload's own grid ------------------------------------
    // Exact grids trace their cells; the sampled grid traces its sample
    // pipeline plus the exact reference of every merged row, and those
    // reference cells stand in for its exact-layer numbers.
    const std::uint64_t cellRoot = log.reserve();
    std::vector<ExactRecord> recs;
    std::string digest;
    double gridWall = 0.0, busy = 0.0, speedup = 0.0;
    SampledTrace sampled;
    SampledErrors errors;
    sim::SimConfig exactBase = w.spec.base;
    if (!w.spec.base.sampled) {
        std::vector<sim::CampaignCell> cells = sim::expandCampaign(w.spec);
        recs.resize(cells.size());
        const double t0 = nowSeconds();
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            jobs.emplace_back([&, i] {
                sim::CampaignCell &c = cells[i];
                recs[i] = tracedExactCell(log, cellRoot, c.config,
                                          c.programs, c.technique, &io, c.key,
                                          failed);
                c.result = recs[i].result;
            });
        }
        sim::runParallel(jobs, kWorkers);
        sim::CampaignOutcome outcome;
        outcome.cells = std::move(cells);
        digest = digestHex(sim::campaignJson(outcome, w.spec).dump());
        gridWall = nowSeconds() - t0;
        log.record(cellRoot, 0, "grid", "", t0, t0 + gridWall);
        busy = log.totalUnder("cell", cellRoot);
    } else {
        sim::CampaignSpec spec = w.spec;
        spec.cacheDir = dir + "/grid-cache";
        sampled = traceSampled(log, spec, &io, failed);
        digest = digestHex(sampled.json);
        gridWall = sampled.wall;
        busy = log.total("sampled.first_sample") +
               log.total("sampled.sample");
        double refWall = 0.0;
        recs = traceReference(log, cellRoot, sampled, refWall, failed);
        errors = sampledErrors(sampled, recs);
        speedup = untracedWall > 0.0 ? refWall / untracedWall : 0.0;
        exactBase.sampled = false;
    }
    const double cellS = log.totalUnder("cell", cellRoot);

    // ---- policies the grid does not run, on its first workload ------
    {
        std::set<core::PolicyKind> present;
        for (const sim::TechniqueSpec &t : w.spec.techniques)
            present.insert(t.policy);
        std::vector<core::PolicyKind> missing;
        for (const std::string &name : policy::policyKindNames()) {
            const core::PolicyKind kind = *policy::parsePolicyKind(name);
            if (!present.count(kind))
                missing.push_back(kind);
        }
        std::vector<ExactRecord> extra(missing.size());
        const std::uint64_t root = log.reserve();
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < missing.size(); ++i) {
            jobs.emplace_back([&, i] {
                sim::SimConfig cfg = exactBase;
                cfg.core.policy = missing[i];
                extra[i] = tracedExactCell(
                    log, root, cfg, firstPrograms,
                    policy::policyKindName(missing[i]), nullptr, "", failed);
                extra[i].inGrid = false;
            });
        }
        sim::runParallel(jobs, kWorkers);
        recs.insert(recs.end(), extra.begin(), extra.end());
    }

    // ---- sampled-layer probe for the exact workloads -----------------
    // The pinned sampled point on the grid's first workload under RaT.
    if (!w.spec.base.sampled) {
        sim::CampaignSpec spec =
            makeWorkload("sampled-mix2", seed, smoke)->spec;
        spec.groups.clear();
        spec.workloads = {sim::Workload::fromPrograms(firstPrograms)};
        spec.techniques = {{"RaT", core::PolicyKind::Rat, {}}};
        spec.cacheDir = dir + "/probe-cache";
        sampled = traceSampled(log, spec, nullptr, failed);
        double refWall = 0.0;
        const std::vector<ExactRecord> ref =
            traceReference(log, log.reserve(), sampled, refWall, failed);
        errors = sampledErrors(sampled, ref);
        speedup = sampled.wall > 0.0 ? refWall / sampled.wall : 0.0;
    }

    const FunctionalProbe fp =
        probeFunctional(log, firstPrograms, seed, smoke ? 5000 : 100000);
    const double tracerOverhead = probeTracer(log, seed, smoke, dir, failed);

    // ---- reduce to metrics -------------------------------------------
    double prewarmS = 0.0, prewarmInsts = 0.0, warmupS = 0.0,
           measureS = 0.0, measureCycles = 0.0, skipped = 0.0,
           committed = 0.0, l2Misses = 0.0, episodes = 0.0, useless = 0.0,
           raExec = 0.0, raCommitted = 0.0;
    std::map<std::string, std::pair<double, double>> perPolicy;
    std::map<std::string, std::map<std::string, double>> eq1;
    for (const ExactRecord &r : recs) {
        auto &pp = perPolicy[r.policy];
        pp.first += r.timing.measureSeconds;
        pp.second += double(r.config.measureCycles);
        if (!r.inGrid)
            continue;
        prewarmS += r.timing.prewarmSeconds;
        prewarmInsts +=
            double(r.config.prewarmInsts) * double(r.result.threads.size());
        warmupS += r.timing.warmupSeconds;
        measureS += r.timing.measureSeconds;
        measureCycles += double(r.config.measureCycles);
        skipped += double(r.timing.measureSkippedCycles);
        committed += double(r.result.committedTotal());
        for (const sim::ThreadResult &t : r.result.threads)
            l2Misses += double(t.mem.l2DemandMisses);
        if (r.config.core.policy == core::PolicyKind::Rat ||
            r.config.core.policy == core::PolicyKind::RatDcra) {
            episodes += double(r.result.engine.episodes);
            useless += double(r.result.engine.uselessEpisodes);
            raExec += double(r.result.engine.executedInRunahead);
            raCommitted += double(r.result.committedTotal());
        }
        eq1[r.workload][r.policy] = sim::throughput(r.result);
    }
    std::vector<double> ratGain;
    for (const auto &[workload, byPolicy] : eq1) {
        const auto rat = byPolicy.find("RaT");
        const auto icount = byPolicy.find("ICOUNT");
        if (rat != byPolicy.end() && icount != byPolicy.end() &&
            icount->second > 0.0)
            ratGain.push_back(100.0 * (rat->second / icount->second - 1.0));
    }

    const auto ms = [&](const char *name) {
        return 1e3 * mean(log.durations(name));
    };
    const auto us = [&](const char *name) {
        return 1e6 * mean(log.durations(name));
    };

    Json m = Json::object();
    m["core.prewarm_s"] = prewarmS;
    m["core.prewarm_ns_per_inst"] =
        prewarmInsts > 0 ? 1e9 * prewarmS / prewarmInsts : 0.0;
    m["core.prewarm_frac"] = cellS > 0 ? prewarmS / cellS : 0.0;
    m["trace.synth_ns_per_uop"] = fp.synthNsPerUop;
    m["branch.predict_update_ns"] = fp.predictNs;
    m["mem.access_ns"] = fp.accessNs;
    m["sim.ctor_ms"] = ms("sim.ctor");
    m["sim.warmup_s"] = warmupS;
    m["sim.measure_s"] = measureS;
    m["sim.measure_frac"] = cellS > 0 ? measureS / cellS : 0.0;
    m["sim.measure_ns_per_cycle"] =
        measureCycles > 0 ? 1e9 * measureS / measureCycles : 0.0;
    m["sim.measure_ns_per_inst"] =
        committed > 0 ? 1e9 * measureS / committed : 0.0;
    m["sim.skip_frac"] = measureCycles > 0 ? skipped / measureCycles : 0.0;
    for (const std::string &name : policy::policyKindNames()) {
        const auto &pp = perPolicy[name];
        m["policy." + metricPolicyName(name) + ".measure_ns_per_cycle"] =
            pp.second > 0 ? 1e9 * pp.first / pp.second : 0.0;
    }
    m["runahead.episodes"] = episodes;
    m["runahead.useless_frac"] = episodes > 0 ? useless / episodes : 0.0;
    m["runahead.ra_exec_per_kinst"] =
        raCommitted > 0 ? 1e3 * raExec / raCommitted : 0.0;
    m["mem.l2_mpki"] = committed > 0 ? 1e3 * l2Misses / committed : 0.0;
    m["model.rat_vs_icount_pct"] = mean(ratGain);
    m["sampled.plan_ms"] = ms("sampled.plan");
    m["sampled.first_sample_ms"] = ms("sampled.first_sample");
    m["sampled.sample_ms"] = ms("sampled.sample");
    m["sampled.merge_us"] =
        sampled.mergedRows
            ? 1e6 * log.total("sampled.merge") / double(sampled.mergedRows)
            : 0.0;
    m["sampled.detailed_cycles"] = sampled.detailedCycles;
    m["sampled.hmean_err_pct_max"] = errors.hmeanPct;
    m["sampled.thrpt_err_pct_max"] = errors.thrptPct;
    m["sampled.thread_ipc_err_pct_max"] = errors.threadIpcPct;
    m["sampled.bound_miss_frac"] = errors.boundMissFrac;
    m["sampled.wallclock_speedup"] = speedup;
    m["checkpoint.restore_ms"] = ms("checkpoint.restore");
    m["checkpoint.blob_kb"] =
        sampled.blobs ? sampled.blobBytes / sampled.blobs / 1024.0 : 0.0;
    m["obs.tracer_overhead_frac"] = tracerOverhead;
    m["report.serialize_us"] = us("report.serialize");
    m["report.parse_us"] = us("report.parse");
    m["report.cache_store_us"] = us("report.cache_store");
    m["report.cache_load_us"] = us("report.cache_load");
    m["report.cell_bytes"] = io.meanBytes();
    m["wire.frame_us"] = us("wire.frame");
    const double farmWall = w.farm ? untracedWall : gridWall;
    m["farm.idle_frac"] =
        farmWall > 0 ? 1.0 - (w.farm ? cellS : busy) / (kWorkers * farmWall)
                     : 0.0;
    m["farm.jobs_stolen"] = jobsStolen;
    m["bench.cell_s"] = cellS;
    m["bench.trace_overhead_frac"] =
        untracedWall > 0 ? gridWall / untracedWall - 1.0 : 0.0;

    Json self = Json::object();
    for (const auto &[name, seconds] : log.selfTimes())
        self[name] = seconds;
    log.write(spanFile);

    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    Json out = Json::object();
    out["metrics"] = std::move(m);
    out["self_s"] = std::move(self);
    out["digest"] = digest;
    out["cells"] = recs.size() + sampled.sampleCells;
    out["failed"] = failed.load();
    return out;
}

} // namespace ratbench
