/** @file Tests for the Simulator wrapper. */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

namespace rat::sim {
namespace {

SimConfig
quickConfig()
{
    SimConfig cfg;
    cfg.warmupCycles = 3000;
    cfg.measureCycles = 12000;
    return cfg;
}

TEST(Simulator, RunsAndReportsPerThread)
{
    SimConfig cfg = quickConfig();
    Simulator sim(cfg, {"gzip", "art"});
    const SimResult r = sim.run();
    EXPECT_EQ(r.cycles, cfg.measureCycles);
    ASSERT_EQ(r.threads.size(), 2u);
    EXPECT_EQ(r.threads[0].program, "gzip");
    EXPECT_GT(r.threads[0].ipc, 0.0);
    EXPECT_GT(r.threads[1].ipc, 0.0);
    EXPECT_GT(r.totalIpc(), r.throughputEq1()); // n=2: total = 2 * eq1
}

TEST(Simulator, MemProgramHasHigherMpki)
{
    SimConfig cfg = quickConfig();
    Simulator ilp(cfg, {"gzip"});
    Simulator mem_bound(cfg, {"art"});
    const auto r_ilp = ilp.run();
    const auto r_mem = mem_bound.run();
    EXPECT_LT(r_ilp.threads[0].l2Mpki, r_mem.threads[0].l2Mpki);
}

TEST(Simulator, SeedChangesResultsSlightly)
{
    SimConfig a = quickConfig();
    SimConfig b = quickConfig();
    b.seed = 999;
    Simulator sa(a, {"gzip"});
    Simulator sb(b, {"gzip"});
    const auto ra = sa.run();
    const auto rb = sb.run();
    // Different trace instances, same statistics: close but not equal.
    EXPECT_NE(ra.threads[0].core.committedInsts,
              rb.threads[0].core.committedInsts);
    EXPECT_NEAR(ra.threads[0].ipc, rb.threads[0].ipc,
                0.5 * ra.threads[0].ipc);
}

TEST(Simulator, DeterministicForSameConfig)
{
    SimConfig cfg = quickConfig();
    Simulator a(cfg, {"mcf", "gzip"});
    Simulator b(cfg, {"mcf", "gzip"});
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_EQ(ra.threads[0].core.committedInsts,
              rb.threads[0].core.committedInsts);
    EXPECT_EQ(ra.threads[1].core.committedInsts,
              rb.threads[1].core.committedInsts);
}

} // namespace
} // namespace rat::sim
