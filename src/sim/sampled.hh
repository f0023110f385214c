/**
 * @file
 * Sampled simulation driver: phase plans, checkpoint reuse, per-sample
 * execution and weighted whole-run extrapolation.
 *
 * `--sampled` replaces one long measured window with a handful of short
 * detailed samples, one per program phase. The pipeline is:
 *
 *   1. `samplePlanFor` profiles the post-prewarm span of the workload
 *      with the BBV phase profiler (trace/phase.hh) and memoizes the
 *      result per workload identity — the plan is a pure function of
 *      (programs, seed, prewarm position, phase parameters), so the 9
 *      techniques of a policy sweep share one profiling pass.
 *   2. For every representative window, the post-prewarm architectural
 *      state is materialized once by an incremental functional walk and
 *      captured with the "ratck2" codec (sim/checkpoint.hh). Blobs are
 *      kept in a process-wide registry and, when a checkpoint directory
 *      is given (derived from the result-cache directory), persisted so
 *      farm workers and later invocations skip the walk entirely.
 *   3. Each sample restores its checkpoint (falling back to a fresh
 *      walk — bit-identical by construction — if the blob is missing or
 *      refused), runs `sampleWarmupCycles` of detailed warmup, then
 *      measures `sampleMeasureCycles`.
 *   4. Extrapolation: every counter is converted to a per-cycle rate,
 *      averaged across samples weighted by cluster population, and
 *      scaled back to the configured full measured window. The weighted
 *      relative dispersion of the per-sample IPC metrics is reported as
 *      the error estimate.
 *
 * Determinism: every step is a pure function of the configuration, so
 * sampled results are cacheable under the same key discipline as exact
 * ones (the sampled fields are part of the serialized SimConfig).
 */

#ifndef RAT_SIM_SAMPLED_HH
#define RAT_SIM_SAMPLED_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "trace/phase.hh"

namespace rat::sim {

/**
 * The (memoized) phase plan a sampled configuration runs. Valid until
 * process exit; the reference is to an immutable registry entry.
 */
const trace::PhaseProfile &
samplePlanFor(const SimConfig &cfg, const std::vector<std::string> &programs);

/**
 * Checkpoint directory derived from a result-cache directory
 * (`<cacheDir>/ckpt`; "" when caching is off — sampled checkpoints
 * then live only in process memory, and exact cells share through a
 * private directory instead, see PrewarmShare).
 */
std::string checkpointDirFor(const std::string &cacheDir);

/** Path of checkpoint @p key in @p ckptDir: `<key hex>.ratck2`. */
std::string checkpointPath(const std::string &ckptDir, std::uint64_t key);

/**
 * The one checkpoint-file writer (sampled registry and exact cells):
 * @p body streams the checkpoint into a temp named by
 * report::tmpPathFor, which is renamed over checkpointPath(@p ckptDir,
 * @p key) only once fully written and closed. Readers therefore only
 * ever open complete files, and concurrent writers of one key each
 * publish whole, identical bytes. Returns true once published; on any
 * failure the temp is removed.
 */
bool writeCheckpointFile(const std::string &ckptDir, std::uint64_t key,
                         const std::function<bool(std::FILE *)> &body);

/**
 * Run one simulation cell. Exact mode with a @p ckptDir shares the
 * functional prewarm across cells: it restores the workload's
 * post-prewarm checkpoint, or walks the prewarm itself and persists
 * one (results are bit-identical either way); without a directory it
 * is a plain Simulator::run. Within one process a prewarm identity is
 * walked once per directory: a concurrent cell of the same identity
 * waits for the walker's file and restores it. Sampled mode runs one
 * sample (cfg.sampleIndex >= 0) or all samples merged into a whole-run
 * extrapolation (-1).
 *
 * @p walked, when given, is set to whether this exact cell replayed its
 * functional prewarm (prewarmInsts > 0 and no checkpoint restored) —
 * the one place prewarm walks are counted.
 */
SimResult simulateCell(const SimConfig &cfg,
                       const std::vector<std::string> &programs,
                       const std::string &ckptDir = "",
                       bool *walked = nullptr);

/**
 * Merge per-sample results (each carrying its sample index and weight
 * in `result.sampled`) into one extrapolated whole-run result for
 * @p cfg by trajectory reconstruction: the profiled windows are
 * traversed in order, each charged an estimated cycle cost of
 * numThreads * phaseWindow / (its phase's measured aggregate IPC),
 * until the configured warmup + measured window is consumed. Each
 * phase's rates are then scaled by the cycles the trajectory spent in
 * it — so the effective span automatically matches what the full run
 * would actually execute, per policy. Used by simulateCell and by
 * campaign/farm, which schedule the samples of one workload as
 * independent cells and merge afterwards.
 */
SimResult mergeSampledResults(const SimConfig &cfg,
                              const std::vector<std::string> &programs,
                              const std::vector<SimResult> &samples);

} // namespace rat::sim

#endif // RAT_SIM_SAMPLED_HH
