/**
 * @file
 * Vocabulary of the paper's technique x workload-group grids: the
 * evaluated techniques, a technique's effective configuration, the
 * per-group aggregate a figure plots, and the worker-pool helper that
 * runs independent simulations in parallel. Grids themselves run as
 * campaigns (sim/campaign.hh).
 */

#ifndef RAT_SIM_EXPERIMENT_HH
#define RAT_SIM_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "core/config.hh"
#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "sim/workloads.hh"

namespace rat::sim {

/** One evaluated technique: a label plus the core-policy setting. */
struct TechniqueSpec {
    std::string label;
    core::PolicyKind policy = core::PolicyKind::Icount;
    core::RatConfig rat{};
};

/** The standard technique lineups used by the paper's figures. */
TechniqueSpec icountSpec();
TechniqueSpec stallSpec();
TechniqueSpec flushSpec();
TechniqueSpec dcraSpec();
TechniqueSpec hillClimbingSpec();
TechniqueSpec ratSpec();

/**
 * The configuration @p tech runs a @p num_threads workload with:
 * @p base with the technique's policy and RaT settings applied. The one
 * place a technique becomes a config (campaign cells, single runs).
 */
inline SimConfig
techniqueConfig(SimConfig base, const TechniqueSpec &tech,
                unsigned num_threads)
{
    base.core.numThreads = num_threads;
    base.core.policy = tech.policy;
    base.core.rat = tech.rat;
    return base;
}

/** Aggregated metrics of a technique over one workload group. */
struct GroupMetrics {
    std::string technique;
    WorkloadGroup group{};
    double meanThroughput = 0.0;
    double meanFairness = 0.0;
    double meanEd2 = 0.0;
    std::vector<SimResult> results; ///< one per workload in the group
};

/**
 * Run @p jobs callables on up to @p workers threads (library-level
 * helper; each job must be independent).
 */
void runParallel(const std::vector<std::function<void()>> &jobs,
                 unsigned workers);

} // namespace rat::sim

#endif // RAT_SIM_EXPERIMENT_HH
