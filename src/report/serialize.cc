#include "report/serialize.hh"

#include <limits>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "policy/factory.hh"
#include "runahead/variant.hh"
#include "sim/metrics.hh"
#include "sim/workloads.hh"

namespace rat::report {

namespace {

// Checked value extraction, overloaded on the target type: each reader
// returns false when the value has the wrong type, is out of the
// target's range or names no known value, leaving @p out untouched.

bool
read(const Json &v, std::uint64_t &out)
{
    if (!v.isU64())
        return false;
    out = v.asU64();
    return true;
}

bool
read(const Json &v, unsigned &out)
{
    std::uint64_t wide = 0;
    if (!read(v, wide) || wide > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(wide);
    return true;
}

bool
read(const Json &v, int &out)
{
    if (!v.isI64())
        return false;
    const std::int64_t wide = v.asI64();
    if (wide < std::numeric_limits<int>::min() ||
        wide > std::numeric_limits<int>::max())
        return false;
    out = static_cast<int>(wide);
    return true;
}

bool
read(const Json &v, double &out)
{
    if (!v.isNumber())
        return false;
    out = v.asDouble();
    return true;
}

bool
read(const Json &v, bool &out)
{
    if (!v.isBool())
        return false;
    out = v.asBool();
    return true;
}

bool
read(const Json &v, std::string &out)
{
    if (!v.isString())
        return false;
    out = v.asString();
    return true;
}

bool
read(const Json &v, sim::SimResult &out)
{
    return v.isObject() && fromJson(v, out);
}

Json
fieldJson(const sim::SimResult &result)
{
    return toJson(result);
}

/** An enum serialized by name: its name and parse functions. */
template <typename E>
struct Names {};

template <>
struct Names<runahead::RaVariant> {
    static constexpr auto name = runahead::raVariantName;
    static constexpr auto parse = runahead::parseRaVariant;
};

template <>
struct Names<core::PolicyKind> {
    static constexpr auto name = policy::policyKindName;
    static constexpr auto parse = policy::parsePolicyKind;
};

template <>
struct Names<sim::WorkloadGroup> {
    static constexpr auto name = sim::groupName;
    static constexpr auto parse = sim::parseGroup;
};

// --- Field lists ---
//
// Each serialized record lists its fields once, in JSON key order, as
// Fields<R>::list: the counter table beside a statistics struct
// (common/counters.hh), or a tuple of Field entries for the others.
// recordJson writes a record and readRecord reads one back; a field
// whose type has a list of its own nests as an object.

template <typename R, typename T>
struct Field {
    const char *name;
    T R::*member;
};
template <typename R, typename T>
Field(const char *, T R::*) -> Field<R, T>;

template <typename R>
struct Fields {};

template <>
struct Fields<core::RatConfig> {
    using R = core::RatConfig;
    static constexpr auto list = std::make_tuple(
        Field{"variant", &R::variant},
        Field{"cappedMaxCycles", &R::cappedMaxCycles},
        Field{"uselessFilterThreshold", &R::uselessFilterThreshold},
        Field{"uselessFilterReprobe", &R::uselessFilterReprobe},
        Field{"dropFpInRunahead", &R::dropFpInRunahead},
        Field{"useRunaheadCache", &R::useRunaheadCache},
        Field{"runaheadCacheLines", &R::runaheadCacheLines},
        Field{"disablePrefetch", &R::disablePrefetch},
        Field{"noFetchInRunahead", &R::noFetchInRunahead});
};

template <>
struct Fields<branch::PerceptronConfig> {
    using R = branch::PerceptronConfig;
    static constexpr auto list =
        std::make_tuple(Field{"tableEntries", &R::tableEntries},
                        Field{"historyBits", &R::historyBits},
                        Field{"weightLimit", &R::weightLimit});
};

// cycleSkipping, checkLevel and checkInterval are host-side knobs that
// cannot change a result, so they are not serialized (core/config.hh).
template <>
struct Fields<core::CoreConfig> {
    using R = core::CoreConfig;
    static constexpr auto list = std::make_tuple(
        Field{"numThreads", &R::numThreads},
        Field{"fetchWidth", &R::fetchWidth},
        Field{"fetchThreads", &R::fetchThreads},
        Field{"renameWidth", &R::renameWidth},
        Field{"issueWidth", &R::issueWidth},
        Field{"commitWidth", &R::commitWidth},
        Field{"frontendDelay", &R::frontendDelay},
        Field{"robEntries", &R::robEntries},
        Field{"intIqEntries", &R::intIqEntries},
        Field{"fpIqEntries", &R::fpIqEntries},
        Field{"lsIqEntries", &R::lsIqEntries},
        Field{"lsqEntries", &R::lsqEntries},
        Field{"intRegs", &R::intRegs},
        Field{"fpRegs", &R::fpRegs},
        Field{"intUnits", &R::intUnits},
        Field{"fpUnits", &R::fpUnits},
        Field{"memUnits", &R::memUnits},
        Field{"fetchQueueEntries", &R::fetchQueueEntries},
        Field{"btbMissPenalty", &R::btbMissPenalty},
        Field{"mispredictRedirect", &R::mispredictRedirect},
        Field{"ifetchPrefetchLines", &R::ifetchPrefetchLines},
        Field{"policy", &R::policy},
        Field{"rat", &R::rat},
        Field{"predictor", &R::predictor});
};

template <>
struct Fields<mem::CacheConfig> {
    using R = mem::CacheConfig;
    static constexpr auto list = std::make_tuple(
        Field{"name", &R::name}, Field{"sizeBytes", &R::sizeBytes},
        Field{"ways", &R::ways}, Field{"lineBytes", &R::lineBytes},
        Field{"latency", &R::latency}, Field{"mshrs", &R::mshrs});
};

template <>
struct Fields<mem::MemConfig> {
    using R = mem::MemConfig;
    static constexpr auto list = std::make_tuple(
        Field{"l1i", &R::l1i}, Field{"l1d", &R::l1d},
        Field{"l2", &R::l2}, Field{"memLatency", &R::memLatency});
};

// The gated members (sampleWindow, digestWindow, the sampled block)
// follow by hand in toJson/fromJson(SimConfig).
template <>
struct Fields<sim::SimConfig> {
    using R = sim::SimConfig;
    static constexpr auto list = std::make_tuple(
        Field{"core", &R::core}, Field{"mem", &R::mem},
        Field{"prewarmInsts", &R::prewarmInsts},
        Field{"warmupCycles", &R::warmupCycles},
        Field{"measureCycles", &R::measureCycles},
        Field{"seed", &R::seed});
};

template <>
struct Fields<core::ThreadStats> {
    static constexpr const auto &list = core::kThreadStatsFields;
};

template <>
struct Fields<mem::ThreadMemStats> {
    static constexpr const auto &list = mem::kThreadMemStatsFields;
};

template <>
struct Fields<runahead::EngineStats> {
    static constexpr const auto &list = runahead::kEngineStatsFields;
};

template <>
struct Fields<sim::ThreadResult> {
    using R = sim::ThreadResult;
    static constexpr auto list = std::make_tuple(
        Field{"program", &R::program}, Field{"ipc", &R::ipc},
        Field{"l2Mpki", &R::l2Mpki}, Field{"core", &R::core},
        Field{"mem", &R::mem});
};

template <>
struct Fields<sim::GroupMetrics> {
    using R = sim::GroupMetrics;
    static constexpr auto list = std::make_tuple(
        Field{"technique", &R::technique}, Field{"group", &R::group},
        Field{"meanThroughput", &R::meanThroughput},
        Field{"meanFairness", &R::meanFairness},
        Field{"meanEd2", &R::meanEd2}, Field{"results", &R::results});
};

/** Call @p fn on each entry of a field list. */
template <typename... F, typename Fn>
void
forEachField(const std::tuple<F...> &list, Fn &&fn)
{
    std::apply([&](const auto &...f) { (fn(f), ...); }, list);
}

template <typename R, std::size_t N, typename Fn>
void
forEachField(const Counter<R> (&list)[N], Fn &&fn)
{
    for (const Counter<R> &c : list)
        fn(c);
}

template <typename R>
bool readRecord(const Json &json, R &record);
template <typename R>
Json recordJson(const R &record);

/** An enum by name (unknown names fail), or a nested record. */
template <typename T>
bool
read(const Json &v, T &out)
{
    if constexpr (std::is_enum_v<T>) {
        const auto parsed =
            v.isString() ? Names<T>::parse(v.asString()) : std::nullopt;
        if (parsed)
            out = *parsed;
        return parsed.has_value();
    } else {
        return v.isObject() && readRecord(v, out);
    }
}

/** An array of values, each read in full. */
template <typename T>
bool
read(const Json &v, std::vector<T> &out)
{
    if (!v.isArray())
        return false;
    out.clear();
    for (const Json &e : v.elements()) {
        T value;
        if (!read(e, value))
            return false;
        out.push_back(std::move(value));
    }
    return true;
}

/** Member @p key of @p obj; false when it is absent or unreadable. */
template <typename T>
bool
get(const Json &obj, const char *key, T &out)
{
    const Json *v = obj.find(key);
    return v && read(*v, out);
}

template <typename R>
bool
readRecord(const Json &json, R &record)
{
    bool ok = true;
    forEachField(Fields<R>::list, [&](const auto &f) {
        ok = ok && get(json, f.name, record.*f.member);
    });
    return ok;
}

template <typename T>
Json
fieldJson(const T &v)
{
    if constexpr (std::is_enum_v<T>)
        return Json(Names<T>::name(v));
    else if constexpr (std::is_constructible_v<Json, const T &>)
        return Json(v);
    else
        return recordJson(v);
}

template <typename T>
Json
fieldJson(const std::vector<T> &values)
{
    Json array = Json::array();
    for (const T &v : values)
        array.push(fieldJson(v));
    return array;
}

template <typename R>
Json
recordJson(const R &record)
{
    Json j = Json::object();
    forEachField(Fields<R>::list, [&](const auto &f) {
        j[f.name] = fieldJson(record.*f.member);
    });
    return j;
}

} // namespace

Json
toJson(const sim::SimConfig &config)
{
    Json j = recordJson(config);
    // Telemetry sampling changes SimResult content, so it is part of
    // the cache key — but only when enabled, keeping every existing
    // default-config key (and golden file) byte-identical.
    if (config.sampleWindow)
        j["sampleWindow"] = Json(std::uint64_t{config.sampleWindow});
    // Same deal for state digests: part of the key only when enabled.
    if (config.digestWindow)
        j["digestWindow"] = Json(std::uint64_t{config.digestWindow});
    // Sampled simulation changes what a result *means* (estimate vs
    // exact), so all its parameters are key material — but, like the
    // windows above, only when enabled. sampleIndex makes every
    // per-sample campaign cell a distinct cache entry.
    if (config.sampled) {
        Json s = Json::object();
        s["phases"] = Json(std::uint64_t{config.samplePhases});
        s["phaseWindow"] = Json(config.phaseWindow);
        s["spanWindows"] = Json(std::uint64_t{config.phaseSpanWindows});
        s["warmupCycles"] = Json(config.sampleWarmupCycles);
        s["measureCycles"] = Json(config.sampleMeasureCycles);
        if (config.sampleIndex >= 0)
            s["sampleIndex"] =
                Json(std::int64_t{config.sampleIndex});
        j["sampled"] = std::move(s);
    }
    return j;
}

bool
fromJson(const Json &json, sim::SimConfig &config)
{
    // sampleWindow/digestWindow are optional (absent = off) — see
    // toJson above.
    config.sampleWindow = 0;
    get(json, "sampleWindow", config.sampleWindow);
    config.digestWindow = 0;
    get(json, "digestWindow", config.digestWindow);
    // Sampled block optional (absent = exact mode) — see toJson above.
    config.sampled = false;
    config.sampleIndex = -1;
    if (const Json *s = json.find("sampled")) {
        if (!s->isObject() ||
            !get(*s, "phases", config.samplePhases) ||
            !get(*s, "phaseWindow", config.phaseWindow) ||
            !get(*s, "spanWindows", config.phaseSpanWindows) ||
            !get(*s, "warmupCycles", config.sampleWarmupCycles) ||
            !get(*s, "measureCycles", config.sampleMeasureCycles))
            return false;
        get(*s, "sampleIndex", config.sampleIndex);
        config.sampled = true;
    }
    return readRecord(json, config);
}

Json
toJson(const obs::Log2Histogram &hist)
{
    Json j = Json::object();
    j["total"] = Json(hist.total_);
    j["sum"] = Json(hist.sum_);
    // Trailing zero buckets are elided; the reader zero-fills.
    unsigned used = obs::Log2Histogram::kBuckets;
    while (used > 0 && hist.buckets_[used - 1] == 0)
        --used;
    Json buckets = Json::array();
    for (unsigned i = 0; i < used; ++i)
        buckets.push(Json(hist.buckets_[i]));
    j["buckets"] = std::move(buckets);
    return j;
}

bool
fromJson(const Json &json, obs::Log2Histogram &hist)
{
    hist = obs::Log2Histogram{};
    if (!get(json, "total", hist.total_) ||
        !get(json, "sum", hist.sum_))
        return false;
    const Json *buckets = json.find("buckets");
    if (!buckets || !buckets->isArray())
        return false;
    const auto &elems = buckets->elements();
    if (elems.size() > obs::Log2Histogram::kBuckets)
        return false;
    for (std::size_t i = 0; i < elems.size(); ++i) {
        if (!elems[i].isU64())
            return false;
        hist.buckets_[i] = elems[i].asU64();
    }
    return true;
}

Json
toJson(const obs::TelemetryResult &telemetry)
{
    Json j = Json::object();
    j["window"] = Json(std::uint64_t{telemetry.window});
    // Each sample is a fixed-shape 7-tuple
    // [cycle, committed, executed, raExecuted, rob, iq, lsq]; the array
    // form keeps long time-series compact in sweep caches.
    Json samples = Json::array();
    for (const obs::WindowSample &s : telemetry.samples) {
        Json row = Json::array();
        row.push(Json(std::uint64_t{s.cycle}))
            .push(Json(s.committed))
            .push(Json(s.executed))
            .push(Json(s.raExecuted))
            .push(Json(s.rob))
            .push(Json(s.iq))
            .push(Json(s.lsq));
        samples.push(std::move(row));
    }
    j["samples"] = std::move(samples);
    j["episodeCycles"] = toJson(telemetry.episodeCycles);
    j["missLatency"] = toJson(telemetry.missLatency);
    j["issueToRetire"] = toJson(telemetry.issueToRetire);
    return j;
}

bool
fromJson(const Json &json, obs::TelemetryResult &telemetry)
{
    telemetry = obs::TelemetryResult{};
    telemetry.enabled = true;
    std::uint64_t window = 0;
    if (!get(json, "window", window))
        return false;
    telemetry.window = window;
    const Json *samples = json.find("samples");
    if (!samples || !samples->isArray())
        return false;
    for (const Json &row : samples->elements()) {
        if (!row.isArray() || row.elements().size() != 7)
            return false;
        const auto &e = row.elements();
        for (const Json &v : e) {
            if (!v.isU64())
                return false;
        }
        obs::WindowSample s;
        s.cycle = e[0].asU64();
        s.committed = e[1].asU64();
        s.executed = e[2].asU64();
        s.raExecuted = e[3].asU64();
        s.rob = e[4].asU64();
        s.iq = e[5].asU64();
        s.lsq = e[6].asU64();
        telemetry.samples.push_back(s);
    }
    const Json *episode = json.find("episodeCycles");
    const Json *miss = json.find("missLatency");
    const Json *i2r = json.find("issueToRetire");
    return episode && fromJson(*episode, telemetry.episodeCycles) &&
           miss && fromJson(*miss, telemetry.missLatency) && i2r &&
           fromJson(*i2r, telemetry.issueToRetire);
}

Json
engineStatsJson(const runahead::EngineStats &stats)
{
    return recordJson(stats);
}

Json
toJson(const sim::SimResult &result)
{
    Json j = Json::object();
    j["cycles"] = Json(result.cycles);
    j["threads"] = fieldJson(result.threads);
    // Emitted only for telemetry-enabled runs: default-config results
    // (goldens, existing cache cells) serialize exactly as before.
    if (result.telemetry.enabled)
        j["telemetry"] = toJson(result.telemetry);
    // Digest streams likewise appear only for digest-enabled runs.
    // Each sample is a [cycle, digest] pair.
    if (result.digest.enabled()) {
        Json digest = Json::object();
        digest["window"] = Json(std::uint64_t{result.digest.window});
        Json samples = Json::array();
        for (const obs::DigestSample &s : result.digest.samples) {
            Json row = Json::array();
            row.push(Json(std::uint64_t{s.cycle})).push(Json(s.digest));
            samples.push(std::move(row));
        }
        digest["samples"] = std::move(samples);
        j["digest"] = std::move(digest);
    }
    // Sampling metadata appears only on sampled results — exact-mode
    // serializations (goldens, existing cache cells) are unchanged.
    // Needed for the cache round-trip of per-sample cells: the merge
    // step reads each cell's weight back out of its cached result.
    if (result.sampled.enabled) {
        Json s = Json::object();
        s["merged"] = Json(result.sampled.merged);
        if (result.sampled.merged) {
            s["phases"] = Json(std::uint64_t{result.sampled.phases});
            s["totalWindows"] = Json(result.sampled.totalWindows);
            s["ipcError"] = Json(result.sampled.ipcError);
            s["hmeanError"] = Json(result.sampled.hmeanError);
        } else {
            s["sampleIndex"] =
                Json(std::int64_t{result.sampled.sampleIndex});
            s["windowIndex"] =
                Json(std::uint64_t{result.sampled.windowIndex});
            s["weight"] = Json(result.sampled.weight);
        }
        j["sampled"] = std::move(s);
    }
    return j;
}

bool
fromJson(const Json &json, sim::SimResult &result)
{
    if (!get(json, "cycles", result.cycles) ||
        !get(json, "threads", result.threads))
        return false;
    result.telemetry = obs::TelemetryResult{};
    const Json *telemetry = json.find("telemetry");
    if (telemetry &&
        (!telemetry->isObject() ||
         !fromJson(*telemetry, result.telemetry)))
        return false;
    result.digest = obs::DigestTrack{};
    if (const Json *digest = json.find("digest")) {
        if (!digest->isObject() ||
            !get(*digest, "window", result.digest.window) ||
            result.digest.window == 0)
            return false;
        const Json *samples = digest->find("samples");
        if (!samples || !samples->isArray())
            return false;
        for (const Json &row : samples->elements()) {
            if (!row.isArray() || row.elements().size() != 2 ||
                !row.elements()[0].isU64() || !row.elements()[1].isU64())
                return false;
            obs::DigestSample s;
            s.cycle = row.elements()[0].asU64();
            s.digest = row.elements()[1].asU64();
            result.digest.samples.push_back(s);
        }
    }
    result.sampled = sim::SampledMeta{};
    if (const Json *s = json.find("sampled")) {
        if (!get(*s, "merged", result.sampled.merged))
            return false;
        if (result.sampled.merged) {
            if (!get(*s, "phases", result.sampled.phases) ||
                !get(*s, "totalWindows", result.sampled.totalWindows) ||
                !get(*s, "ipcError", result.sampled.ipcError) ||
                !get(*s, "hmeanError", result.sampled.hmeanError))
                return false;
        } else {
            if (!get(*s, "sampleIndex", result.sampled.sampleIndex) ||
                !get(*s, "windowIndex", result.sampled.windowIndex) ||
                !get(*s, "weight", result.sampled.weight))
                return false;
        }
        result.sampled.enabled = true;
    }
    return true;
}

Json
toJson(const sim::GroupMetrics &metrics)
{
    return recordJson(metrics);
}

bool
fromJson(const Json &json, sim::GroupMetrics &metrics)
{
    return readRecord(json, metrics);
}

Json
resultMetricsJson(const sim::SimResult &result)
{
    Json j = Json::object();
    j["throughputEq1"] = Json(result.throughputEq1());
    j["totalIpc"] = Json(result.totalIpc());
    j["committedTotal"] = Json(result.committedTotal());
    j["executedTotal"] = Json(result.executedTotal());
    j["ed2"] = Json(sim::ed2(result));
    return j;
}

CsvTable
threadResultsCsv(const sim::SimResult &result)
{
    CsvTable csv;
    csv.setHeader({"thread", "program", "ipc", "committedInsts",
                   "l2Mpki", "branches", "branchMispredicts",
                   "runaheadEntries", "runaheadCycles",
                   "pseudoRetired"});
    for (std::size_t i = 0; i < result.threads.size(); ++i) {
        const sim::ThreadResult &t = result.threads[i];
        CsvTable::Row row;
        row.add(std::uint64_t{i})
            .add(t.program)
            .add(t.ipc)
            .add(t.core.committedInsts)
            .add(t.l2Mpki)
            .add(t.core.branches)
            .add(t.core.branchMispredicts)
            .add(t.core.runaheadEntries)
            .add(t.core.runaheadCycles)
            .add(t.core.pseudoRetired);
        csv.addRow(row.take());
    }
    return csv;
}

CsvTable
groupMetricsCsv(const sim::GroupMetrics &metrics)
{
    CsvTable csv;
    csv.setHeader({"group", "technique", "workload", "throughput",
                   "totalIpc", "cycles"});
    const auto &workloads = sim::workloadsOf(metrics.group);
    for (std::size_t i = 0; i < metrics.results.size(); ++i) {
        const sim::SimResult &r = metrics.results[i];
        CsvTable::Row row;
        row.add(sim::groupName(metrics.group))
            .add(metrics.technique)
            .add(i < workloads.size() ? workloads[i].name
                                      : std::to_string(i))
            .add(sim::throughput(r))
            .add(r.totalIpc())
            .add(r.cycles);
        csv.addRow(row.take());
    }
    CsvTable::Row mean;
    mean.add(sim::groupName(metrics.group))
        .add(metrics.technique)
        .add("MEAN")
        .add(metrics.meanThroughput)
        .add("")
        .add("");
    csv.addRow(mean.take());
    return csv;
}

} // namespace rat::report
