/**
 * @file
 * Event-driven scheduler work bounds (DESIGN.md, "Event-driven
 * wakeup").
 *
 * The waiter lists, store-dependent chains and incremental ready queue
 * must do work proportional to actual dependence edges, never to the
 * issue-queue size. The SchedCounters pin that: event-mode wakeups
 * touch at most kMaxSrcs register edges and one store edge per renamed
 * instruction. That the scheduler is bit-identical to the seed's
 * broadcast scans it replaced is pinned by the golden_mix2 captures
 * (tests/sim/test_determinism.cc).
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dyninst.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

TEST(SchedEquivalence, WakeupVisitsBoundedByActualDependents)
{
    SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 10000;
    cfg.core.policy = core::PolicyKind::Rat;
    Simulator sim(cfg, {"art", "mcf"});
    const SimResult res = sim.run();
    const auto &counters = sim.smtCore().schedCounters();

    // Every instruction entering an issue queue registers at most
    // kMaxSrcs waiter nodes and one store dependence, and each node is
    // visited at most once by a wakeup. Fetched instructions bound the
    // dispatched count from above (measured window only; the counters
    // reset together with the stats).
    std::uint64_t fetched = 0;
    for (const ThreadResult &t : res.threads)
        fetched += t.core.fetchedInsts;
    ASSERT_GT(fetched, 0u);
    ASSERT_GT(counters.regWakeVisits, 0u); // the bounds are not vacuous
    EXPECT_LE(counters.regWakeVisits, fetched * core::DynInst::kMaxSrcs);
    EXPECT_LE(counters.storeWakeVisits, fetched);
}

} // namespace
} // namespace rat::sim
