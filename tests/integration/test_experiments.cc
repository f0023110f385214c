/** @file Integration tests asserting the paper's qualitative results. */

#include <gtest/gtest.h>

#include "sim/campaign.hh"

namespace rat::sim {
namespace {

/** @p lineup on one workload at medium windows, as one campaign. */
CampaignSpec
lineupOn(const std::vector<std::string> &programs,
         std::vector<TechniqueSpec> lineup)
{
    CampaignSpec spec;
    spec.base.warmupCycles = 5000;
    spec.base.measureCycles = 30000;
    spec.techniques = std::move(lineup);
    spec.workloads = {Workload::fromPrograms(programs)};
    return spec;
}

/** Eq. 1 throughput of every cell, in grid order. */
std::vector<double>
throughputs(const CampaignSpec &spec)
{
    std::vector<double> out;
    for (const CampaignCell &cell : runCampaign(spec).cells)
        out.push_back(throughput(cell.result));
    return out;
}

TEST(PaperShape, RatBeatsStaticPoliciesOnMemWorkload)
{
    const auto thr = throughputs(lineupOn(
        {"art", "mcf"}, {icountSpec(), stallSpec(), flushSpec(), ratSpec()}));
    const double icount = thr[0], stall = thr[1], flush = thr[2],
                 rat = thr[3];

    // Fig. 1 ordering on MEM workloads: RaT ahead of FLUSH/STALL/ICOUNT.
    EXPECT_GT(rat, flush);
    EXPECT_GT(rat, stall);
    EXPECT_GT(rat, icount);
}

TEST(PaperShape, RatBeatsDynamicPoliciesOnMemWorkload)
{
    const auto thr = throughputs(lineupOn(
        {"swim", "mcf"}, {dcraSpec(), hillClimbingSpec(), ratSpec()}));
    const double dcra = thr[0], hc = thr[1], rat = thr[2];

    // Fig. 2 ordering on MEM workloads.
    EXPECT_GT(rat, dcra);
    EXPECT_GT(rat, hc);
}

TEST(PaperShape, RatFairnessBeatsIcountOnMem)
{
    const CampaignSpec spec =
        lineupOn({"art", "mcf"}, {icountSpec(), ratSpec()});
    const BaselineIpcMap base = runBaselines(spec, {"art", "mcf"});
    const auto cells = runCampaign(spec).cells;
    const double f_icount = fairness(cells[0].result, base);
    const double f_rat = fairness(cells[1].result, base);
    EXPECT_GT(f_rat, f_icount);
}

TEST(PaperShape, IlpWorkloadsLargelyUnaffectedByRat)
{
    const auto thr = throughputs(
        lineupOn({"gzip", "bzip2"}, {icountSpec(), ratSpec()}));
    const double icount = thr[0], rat = thr[1];
    // Within ~15% on ILP pairs (paper: moderate effect on ILP).
    EXPECT_GT(rat, 0.85 * icount);
}

TEST(PaperShape, RatRegisterPressureDropsInRunahead)
{
    const auto cells =
        runCampaign(lineupOn({"art", "swim"}, {ratSpec()})).cells;
    for (const ThreadResult &t : cells[0].result.threads) {
        if (t.core.runaheadCycles > 3000) {
            EXPECT_LT(t.core.avgRegsRunahead(),
                      t.core.avgRegsNormal())
                << t.program;
        }
    }
}

TEST(PaperShape, SmallRegisterFileHurtsFlushMoreThanRat)
{
    CampaignSpec spec =
        lineupOn({"art", "mcf"}, {flushSpec(), ratSpec()});
    spec.regsAxis = {64, 320};
    const auto thr = throughputs(spec);
    const double flush_small = thr[0], flush_big = thr[1],
                 rat_small = thr[2], rat_big = thr[3];

    const double flush_slowdown = 1.0 - flush_small / flush_big;
    const double rat_slowdown = 1.0 - rat_small / rat_big;
    // Fig. 6: RaT is less sensitive to register-file size.
    EXPECT_LT(rat_slowdown, flush_slowdown + 0.05);
    // RaT with 64 regs should stay competitive with FLUSH at 320 on MEM.
    EXPECT_GT(rat_small, 0.8 * flush_big);
}

TEST(PaperShape, PrefetchAblationLosesMostOfTheGain)
{
    TechniqueSpec no_pf = ratSpec();
    no_pf.label = "RaT-noPF";
    no_pf.rat.disablePrefetch = true;

    const auto thr =
        throughputs(lineupOn({"swim", "art"}, {ratSpec(), no_pf}));
    const double rat = thr[0], nopf = thr[1];
    EXPECT_GT(rat, nopf); // Fig. 4: prefetching dominates the benefit
}

} // namespace
} // namespace rat::sim
