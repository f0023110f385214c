/**
 * @file
 * JSON/CSV serializers for the simulator's configuration and result
 * types. `toJson` emits every field that affects or describes a run;
 * the matching `fromJson` reads it back exactly (numeric fields
 * round-trip bit-for-bit, see report/json.hh), returning false on
 * missing, ill-typed or out-of-range members and on unknown policy or
 * variant names, instead of guessing.
 *
 * Each record's fields are named once, in one field list that one
 * writer and one reader walk: in serialize.cc for the config records,
 * and the counter table beside each statistics struct
 * (common/counters.hh). SimConfig's gated members are written by hand,
 * because whether they appear is the cache-key decision below.
 *
 * The on-disk result cache (report/result_cache.hh) builds its content
 * hash from the canonical compact dump of `toJson(SimConfig)`, so the
 * serialization *is* the cache-key definition: adding a semantically
 * relevant config field here automatically invalidates stale cells.
 */

#ifndef RAT_REPORT_SERIALIZE_HH
#define RAT_REPORT_SERIALIZE_HH

#include "report/csv.hh"
#include "report/json.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"

namespace rat::report {

// --- Configuration ---
Json toJson(const sim::SimConfig &config);
bool fromJson(const Json &json, sim::SimConfig &config);

// --- Results ---
Json toJson(const obs::Log2Histogram &hist);
Json toJson(const obs::TelemetryResult &telemetry);
Json toJson(const sim::SimResult &result);
Json toJson(const sim::GroupMetrics &metrics);

bool fromJson(const Json &json, obs::Log2Histogram &hist);
bool fromJson(const Json &json, obs::TelemetryResult &telemetry);
bool fromJson(const Json &json, sim::SimResult &result);
bool fromJson(const Json &json, sim::GroupMetrics &metrics);

/**
 * Runahead-engine statistics (`SimResult::engine`) as a JSON block.
 * One-way: `SimResult` does not serialize these (goldens and cache
 * cells stay unchanged), but always-fresh paths — `ratsim report`
 * structured output — surface them through this helper.
 */
Json engineStatsJson(const runahead::EngineStats &stats);

/** Derived headline metrics (Eq. 1/Eq. 2-less summary) of one run. */
Json resultMetricsJson(const sim::SimResult &result);

/** Per-thread result rows of one run as a CSV table. */
CsvTable threadResultsCsv(const sim::SimResult &result);

/** Per-workload rows + group means of one GroupMetrics as CSV. */
CsvTable groupMetricsCsv(const sim::GroupMetrics &metrics);

} // namespace rat::report

#endif // RAT_REPORT_SERIALIZE_HH
