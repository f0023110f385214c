/**
 * @file
 * Campaign engine tests: grid expansion, on-disk result-cache
 * memoization (a warm re-run simulates nothing and returns
 * bit-identical results), parallel-vs-serial equivalence, key-collision
 * safety, per-group aggregation and the single-thread baselines.
 */

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "report/result_cache.hh"
#include "report/serialize.hh"
#include "sim/campaign.hh"

namespace rat::sim {
namespace {

/** Tiny windows: the grid runs in well under a second per cell. */
SimConfig
tinyConfig()
{
    SimConfig cfg;
    cfg.prewarmInsts = 5000;
    cfg.warmupCycles = 200;
    cfg.measureCycles = 1000;
    return cfg;
}

CampaignSpec
smallSpec(const std::string &cache_dir)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {icountSpec(), ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.seedAxis = {1, 2};
    spec.cacheDir = cache_dir;
    return spec;
}

/** Scoped temp dir under the gtest temp root. */
struct TempCacheDir {
    std::filesystem::path path;

    explicit TempCacheDir(const char *name)
        : path(std::filesystem::path(testing::TempDir()) / name)
    {
        std::filesystem::remove_all(path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path); }
};

std::string
cellsJson(const CampaignOutcome &outcome, const CampaignSpec &spec)
{
    return campaignJson(outcome, spec).dump();
}

TEST(Campaign, ExpandsFullCrossProductInDeterministicOrder)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {icountSpec(), ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"swim", "mcf"})};
    spec.regsAxis = {128, 320};
    spec.seedAxis = {1, 2, 3};

    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 2u * 2u * 2u * 3u);

    // Outermost loop is the technique, innermost the seed.
    EXPECT_EQ(cells[0].technique, "ICOUNT");
    EXPECT_EQ(cells[0].workload, "art,mcf");
    EXPECT_EQ(cells[0].regs, 128u);
    EXPECT_EQ(cells[0].seed, 1u);
    EXPECT_EQ(cells[1].seed, 2u);
    EXPECT_EQ(cells[3].regs, 320u);
    EXPECT_EQ(cells.back().technique, "RaT");
    EXPECT_EQ(cells.back().workload, "swim,mcf");
    EXPECT_EQ(cells.back().seed, 3u);

    // The effective config reflects every coordinate.
    EXPECT_EQ(cells[0].config.core.intRegs, 128u);
    EXPECT_EQ(cells[0].config.core.fpRegs, 128u);
    EXPECT_EQ(cells[0].config.core.numThreads, 2u);
    EXPECT_EQ(cells[0].config.seed, 1u);
    EXPECT_EQ(cells.back().config.core.policy, core::PolicyKind::Rat);

    // Every cell has a distinct cache key.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j)
            EXPECT_NE(cells[i].key, cells[j].key) << i << "," << j;
    }
}

TEST(Campaign, RaVariantAxisExpandsWithDistinctKeys)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.raVariantAxis = {runahead::RaVariant::Classic,
                          runahead::RaVariant::Capped,
                          runahead::RaVariant::UselessFilter};

    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].raVariant, "classic");
    EXPECT_EQ(cells[1].raVariant, "capped");
    EXPECT_EQ(cells[2].raVariant, "useless-filter");
    EXPECT_EQ(cells[1].config.core.rat.variant,
              runahead::RaVariant::Capped);

    // The variant is part of the serialized config, so every variant
    // cell gets its own result-cache key.
    EXPECT_NE(cells[0].key, cells[1].key);
    EXPECT_NE(cells[0].key, cells[2].key);
    EXPECT_NE(cells[1].key, cells[2].key);
}

TEST(Campaign, RaVariantAxisCollapsesForNonRunaheadTechniques)
{
    // The engine is inert for ICOUNT, so the axis must not multiply
    // its cells (they would be bit-identical simulations under
    // distinct cache keys).
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {icountSpec(), ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.raVariantAxis = {runahead::RaVariant::Classic,
                          runahead::RaVariant::Capped,
                          runahead::RaVariant::UselessFilter};

    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 1u + 3u);
    EXPECT_EQ(cells[0].technique, "ICOUNT");
    EXPECT_EQ(cells[0].raVariant, "classic");
    for (std::size_t i = 1; i < cells.size(); ++i)
        EXPECT_EQ(cells[i].technique, "RaT");
}

TEST(Campaign, RaVariantCellsRoundTripThroughCacheBitIdentical)
{
    TempCacheDir dir("ravariant-cache");
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.raVariantAxis = {runahead::RaVariant::Classic,
                          runahead::RaVariant::Capped,
                          runahead::RaVariant::UselessFilter};
    spec.cacheDir = dir.path.string();

    const CampaignOutcome cold = runCampaign(spec);
    EXPECT_EQ(cold.simulated, 3u);
    const CampaignOutcome warm = runCampaign(spec);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(cellsJson(warm, spec), cellsJson(cold, spec));

    // The variant knob must actually reach the simulator: capped runs
    // differ from classic on this memory-bound pair.
    EXPECT_NE(report::toJson(cold.cells[0].result).dump(),
              report::toJson(cold.cells[1].result).dump());
}

TEST(Campaign, EmptyAxesCollapseToBaseValues)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {ratSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    const auto cells = expandCampaign(spec);
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].regs, spec.base.core.intRegs);
    EXPECT_EQ(cells[0].rob, spec.base.core.robEntries);
    EXPECT_EQ(cells[0].measureCycles, spec.base.measureCycles);
    EXPECT_EQ(cells[0].seed, spec.base.seed);
}

TEST(Campaign, WarmCacheRunSimulatesNothingAndIsBitIdentical)
{
    TempCacheDir cache("ratsim_campaign_cache");
    const CampaignSpec spec = smallSpec(cache.path.string());

    const CampaignOutcome cold = runCampaign(spec);
    ASSERT_EQ(cold.cells.size(), 4u);
    EXPECT_EQ(cold.simulated, 4u);
    EXPECT_EQ(cold.cacheHits, 0u);
    for (const CampaignCell &cell : cold.cells) {
        EXPECT_FALSE(cell.fromCache);
        EXPECT_GT(cell.result.cycles, 0u);
    }

    const CampaignOutcome warm = runCampaign(spec);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cacheHits, 4u);
    for (const CampaignCell &cell : warm.cells)
        EXPECT_TRUE(cell.fromCache);

    // The whole structured report is byte-identical.
    EXPECT_EQ(cellsJson(cold, spec), cellsJson(warm, spec));
}

TEST(Campaign, SerialRunMatchesParallelColdRunBitForBit)
{
    TempCacheDir cache("ratsim_campaign_serial");
    CampaignSpec parallel = smallSpec(cache.path.string());
    parallel.parallelism = 4;

    CampaignSpec serial = smallSpec(""); // uncached, one worker
    serial.parallelism = 1;

    const CampaignOutcome a = runCampaign(parallel);
    const CampaignOutcome b = runCampaign(serial);
    EXPECT_EQ(b.simulated, b.cells.size());
    EXPECT_EQ(cellsJson(a, parallel), cellsJson(b, serial));
}

TEST(Campaign, ExtendedSweepOnlySimulatesNewCells)
{
    TempCacheDir cache("ratsim_campaign_extend");
    CampaignSpec spec = smallSpec(cache.path.string());
    const CampaignOutcome cold = runCampaign(spec);
    EXPECT_EQ(cold.simulated, 4u);

    // Extending the seed axis re-uses the four cached cells.
    spec.seedAxis = {1, 2, 3};
    const CampaignOutcome extended = runCampaign(spec);
    ASSERT_EQ(extended.cells.size(), 6u);
    EXPECT_EQ(extended.cacheHits, 4u);
    EXPECT_EQ(extended.simulated, 2u);
}

TEST(Campaign, DuplicateCellsSimulateOnce)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {icountSpec()};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"}),
                      Workload::fromPrograms({"art", "mcf"})};
    const CampaignOutcome outcome = runCampaign(spec);
    ASSERT_EQ(outcome.cells.size(), 2u);
    EXPECT_EQ(outcome.simulated, 1u);
    EXPECT_EQ(report::toJson(outcome.cells[0].result).dump(),
              report::toJson(outcome.cells[1].result).dump());
}

TEST(Campaign, GroupMetricsMeansMatchMeansOfTheCells)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {ratSpec()};
    spec.groups = {WorkloadGroup::MEM2};
    const CampaignOutcome outcome = runCampaign(spec);
    const BaselineIpcMap base = runBaselines(spec, allPrograms());

    const std::vector<GroupMetrics> groups =
        groupMetricsOf(outcome, &base);
    ASSERT_EQ(groups.size(), 1u);
    const GroupMetrics &gm = groups[0];
    EXPECT_EQ(gm.technique, "RaT");
    EXPECT_EQ(gm.group, WorkloadGroup::MEM2);
    ASSERT_EQ(gm.results.size(), workloadsOf(WorkloadGroup::MEM2).size());
    ASSERT_EQ(outcome.cells.size(), gm.results.size());

    double thr = 0.0, fair = 0.0, e = 0.0;
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
        const SimResult &r = outcome.cells[i].result;
        EXPECT_EQ(report::toJson(gm.results[i]).dump(),
                  report::toJson(r).dump())
            << i;
        thr += throughput(r);
        fair += fairness(r, base);
        e += ed2(r);
    }
    const double n = static_cast<double>(outcome.cells.size());
    EXPECT_DOUBLE_EQ(gm.meanThroughput, thr / n);
    EXPECT_DOUBLE_EQ(gm.meanFairness, fair / n);
    EXPECT_DOUBLE_EQ(gm.meanEd2, e / n);
    EXPECT_GT(gm.meanFairness, 0.0);

    // Without baselines the fairness mean stays empty.
    const GroupMetrics bare = groupMetricsOf(outcome).front();
    EXPECT_EQ(bare.meanFairness, 0.0);
    EXPECT_EQ(bare.meanThroughput, gm.meanThroughput);
}

TEST(Campaign, GroupMetricsSplitsAxisPointsInGridOrder)
{
    CampaignSpec spec;
    spec.base = tinyConfig();
    spec.techniques = {flushSpec(), ratSpec()};
    spec.groups = {WorkloadGroup::MEM2, WorkloadGroup::ILP2};
    spec.workloads = {Workload::fromPrograms({"art", "mcf"})};
    spec.measureAxis = {1000, 1500};
    const CampaignOutcome outcome = runCampaign(spec);
    const std::vector<GroupMetrics> groups = groupMetricsOf(outcome);

    // technique x group x measure point; the explicit workload joins no
    // group. Every group cell lands in its slot, in workload order.
    ASSERT_EQ(groups.size(), 2u * 2u * 2u);
    std::vector<std::size_t> filled(groups.size(), 0);
    for (const CampaignCell &cell : outcome.cells) {
        if (cell.group.empty())
            continue;
        const std::size_t t = cell.technique == "FLUSH" ? 0 : 1;
        const std::size_t g = cell.group == "MEM2" ? 0 : 1;
        const std::size_t m = cell.measureCycles == 1000 ? 0 : 1;
        const std::size_t slot = (t * 2 + g) * 2 + m;
        const GroupMetrics &gm = groups[slot];
        EXPECT_EQ(gm.technique, cell.technique);
        EXPECT_EQ(groupName(gm.group), cell.group);
        ASSERT_LT(filled[slot], gm.results.size());
        const SimResult &r = gm.results[filled[slot]++];
        EXPECT_EQ(r.cycles, cell.measureCycles);
        EXPECT_EQ(report::toJson(r).dump(),
                  report::toJson(cell.result).dump());
    }
    for (std::size_t i = 0; i < groups.size(); ++i)
        EXPECT_EQ(filled[i], workloadsOf(groups[i].group).size()) << i;
}

TEST(Campaign, WarmBaselineCampaignSimulatesNothingAndReturnsTheColdMap)
{
    TempCacheDir cache("ratsim_campaign_baselines");
    CampaignSpec spec = smallSpec(cache.path.string());
    const std::vector<std::string> programs{"art", "mcf", "art"};

    CampaignOutcome cold;
    const BaselineIpcMap cold_map = runBaselines(spec, programs, &cold);
    // One single-thread ICOUNT cell per distinct program.
    ASSERT_EQ(cold.cells.size(), 2u);
    EXPECT_EQ(cold.simulated, 2u);
    for (const CampaignCell &cell : cold.cells) {
        EXPECT_EQ(cell.technique, "ICOUNT");
        EXPECT_EQ(cell.config.core.numThreads, 1u);
    }
    ASSERT_EQ(cold_map.size(), 2u);
    EXPECT_GT(cold_map.at("art"), 0.0);
    EXPECT_GT(cold_map.at("mcf"), 0.0);

    CampaignOutcome warm;
    const BaselineIpcMap warm_map = runBaselines(spec, programs, &warm);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cacheHits, 2u);
    EXPECT_EQ(warm_map, cold_map);
}

TEST(ResultCache, CollisionAndCorruptionDegradeToMiss)
{
    TempCacheDir dir("ratsim_result_cache");
    const report::ResultCache cache(dir.path.string());

    SimConfig cfg = tinyConfig();
    const std::vector<std::string> programs = {"art", "mcf"};
    const std::string key = report::ResultCache::keyFor(cfg, programs);

    // Absent cell.
    EXPECT_FALSE(cache.load(key));

    // Store and reload exactly.
    SimResult r;
    r.cycles = 123;
    ThreadResult t;
    t.program = "art";
    t.ipc = 0.5;
    r.threads.push_back(t);
    cache.store(key, r);
    const auto hit = cache.load(key);
    ASSERT_TRUE(hit);
    EXPECT_EQ(hit->cycles, 123u);
    EXPECT_EQ(hit->threads.at(0).program, "art");

    // A different key hashing to the same file must not be served the
    // stored result: simulate by asking with a modified config.
    cfg.seed = 777;
    const std::string other = report::ResultCache::keyFor(cfg, programs);
    std::filesystem::copy_file(
        dir.path / report::ResultCache::fileNameFor(key),
        dir.path / report::ResultCache::fileNameFor(other));
    EXPECT_FALSE(cache.load(other)); // stored key string mismatches

    // Corrupt cell: unparseable JSON is a miss, not a crash.
    std::ofstream(dir.path / report::ResultCache::fileNameFor(key))
        << "{ not json";
    EXPECT_FALSE(cache.load(key));
}

TEST(ResultCache, DisabledCacheNeverStoresOrLoads)
{
    const report::ResultCache cache("");
    EXPECT_FALSE(cache.enabled());
    SimResult r;
    cache.store("key", r);
    EXPECT_FALSE(cache.load("key"));
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Workloads, FromProgramsJoinsCanonicalName)
{
    const Workload w = Workload::fromPrograms({"art", "mcf", "swim"});
    EXPECT_EQ(w.name, "art,mcf,swim");
    ASSERT_EQ(w.programs.size(), 3u);
    EXPECT_EQ(w.programs[2], "swim");
    EXPECT_EQ(Workload::fromPrograms({}).name, "");
}

TEST(Workloads, ParseGroupRoundTripsAllGroups)
{
    for (const WorkloadGroup g : allGroups()) {
        const auto parsed = parseGroup(groupName(g));
        ASSERT_TRUE(parsed);
        EXPECT_EQ(*parsed, g);
    }
    EXPECT_FALSE(parseGroup("MEM8"));
    EXPECT_FALSE(parseGroup(""));
}

} // namespace
} // namespace rat::sim
