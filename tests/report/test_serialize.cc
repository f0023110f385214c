/**
 * @file
 * Round-trip tests of the config/result serializers: every field
 * survives toJson -> dump -> parse -> fromJson exactly, and malformed
 * documents are rejected instead of half-read.
 */

#include <gtest/gtest.h>

#include "report/serialize.hh"
#include "sim/workloads.hh"

namespace rat::report {
namespace {

/** A config with every field moved off its default value. */
sim::SimConfig
nonDefaultConfig()
{
    sim::SimConfig cfg;
    cfg.core.numThreads = 4;
    cfg.core.fetchWidth = 4;
    cfg.core.fetchThreads = 1;
    cfg.core.renameWidth = 6;
    cfg.core.issueWidth = 7;
    cfg.core.commitWidth = 5;
    cfg.core.frontendDelay = 9;
    cfg.core.robEntries = 256;
    cfg.core.intIqEntries = 48;
    cfg.core.fpIqEntries = 32;
    cfg.core.lsIqEntries = 24;
    cfg.core.lsqEntries = 40;
    cfg.core.intRegs = 128;
    cfg.core.fpRegs = 96;
    cfg.core.intUnits = 2;
    cfg.core.fpUnits = 1;
    cfg.core.memUnits = 3;
    cfg.core.fetchQueueEntries = 16;
    cfg.core.btbMissPenalty = 3;
    cfg.core.mispredictRedirect = 4;
    cfg.core.ifetchPrefetchLines = 2;
    cfg.core.policy = core::PolicyKind::RatDcra;
    cfg.core.rat.variant = runahead::RaVariant::UselessFilter;
    cfg.core.rat.cappedMaxCycles = 96;
    cfg.core.rat.uselessFilterThreshold = 3;
    cfg.core.rat.uselessFilterReprobe = 17;
    cfg.core.rat.dropFpInRunahead = false;
    cfg.core.rat.useRunaheadCache = true;
    cfg.core.rat.runaheadCacheLines = 128;
    cfg.core.rat.disablePrefetch = true;
    cfg.core.rat.noFetchInRunahead = true;
    cfg.core.predictor.tableEntries = 1024;
    cfg.core.predictor.historyBits = 12;
    cfg.core.predictor.weightLimit = 63;
    cfg.mem.l1i.name = "I1";
    cfg.mem.l1i.sizeBytes = 32 * 1024;
    cfg.mem.l1d.ways = 8;
    cfg.mem.l2.latency = 15;
    cfg.mem.l2.mshrs = 64;
    cfg.mem.memLatency = 250;
    cfg.prewarmInsts = 12345;
    cfg.warmupCycles = 777;
    cfg.measureCycles = 4242;
    cfg.seed = 99;
    return cfg;
}

/**
 * A config with every serialized field off its default: the capped
 * variant, the run-ahead cache on, 128 registers, every cache's
 * geometry, a negative weightLimit, both windows and the sampled block
 * with a sample index.
 */
sim::SimConfig
everyFieldConfig()
{
    sim::SimConfig cfg;
    cfg.core.numThreads = 4;
    cfg.core.fetchWidth = 4;
    cfg.core.fetchThreads = 1;
    cfg.core.renameWidth = 6;
    cfg.core.issueWidth = 7;
    cfg.core.commitWidth = 5;
    cfg.core.frontendDelay = 9;
    cfg.core.robEntries = 256;
    cfg.core.intIqEntries = 48;
    cfg.core.fpIqEntries = 32;
    cfg.core.lsIqEntries = 24;
    cfg.core.lsqEntries = 40;
    cfg.core.intRegs = 128;
    cfg.core.fpRegs = 128;
    cfg.core.intUnits = 2;
    cfg.core.fpUnits = 1;
    cfg.core.memUnits = 3;
    cfg.core.fetchQueueEntries = 16;
    cfg.core.btbMissPenalty = 3;
    cfg.core.mispredictRedirect = 4;
    cfg.core.ifetchPrefetchLines = 2;
    cfg.core.policy = core::PolicyKind::RatDcra;
    cfg.core.rat.variant = runahead::RaVariant::Capped;
    cfg.core.rat.cappedMaxCycles = 64;
    cfg.core.rat.uselessFilterThreshold = 2;
    cfg.core.rat.uselessFilterReprobe = 5;
    cfg.core.rat.dropFpInRunahead = false;
    cfg.core.rat.useRunaheadCache = true;
    cfg.core.rat.runaheadCacheLines = 32;
    cfg.core.rat.disablePrefetch = true;
    cfg.core.rat.noFetchInRunahead = true;
    cfg.core.predictor.tableEntries = 1024;
    cfg.core.predictor.historyBits = 12;
    cfg.core.predictor.weightLimit = -63;
    cfg.mem.l1i = {"I1", 32 * 1024, 2, 32, 2, 4};
    cfg.mem.l1d = {"D1", 16 * 1024, 8, 32, 4, 16};
    cfg.mem.l2 = {"U2", 512 * 1024, 16, 128, 12, 64};
    cfg.mem.memLatency = 250;
    cfg.prewarmInsts = 12345;
    cfg.warmupCycles = 777;
    cfg.measureCycles = 4242;
    cfg.seed = 99;
    cfg.sampleWindow = 500;
    cfg.digestWindow = 128;
    cfg.sampled = true;
    cfg.samplePhases = 3;
    cfg.phaseWindow = 4096;
    cfg.phaseSpanWindows = 32;
    cfg.sampleWarmupCycles = 600;
    cfg.sampleMeasureCycles = 3000;
    cfg.sampleIndex = 2;
    return cfg;
}

/** A fabricated two-thread result with distinctive counters. */
sim::SimResult
sampleResult()
{
    sim::SimResult r;
    r.cycles = 20000;
    sim::ThreadResult t0;
    t0.program = "art";
    t0.ipc = 0.7023;
    t0.l2Mpki = 15.885022692889562;
    t0.core.committedInsts = 14046;
    t0.core.executedInsts = 20011;
    t0.core.fetchedInsts = 30123;
    t0.core.pseudoRetired = 800;
    t0.core.invalidInsts = 55;
    t0.core.runaheadEntries = 39;
    t0.core.uselessRunaheadEpisodes = 3;
    t0.core.runaheadCycles = 15216;
    t0.core.normalCycles = 4784;
    t0.core.branches = 3000;
    t0.core.branchMispredicts = 120;
    t0.core.squashedInsts = 42;
    t0.core.normalRegCycles = 123456;
    t0.core.runaheadRegCycles = 654321;
    t0.mem.loads = 4000;
    t0.mem.stores = 1500;
    t0.mem.l1dMisses = 900;
    t0.mem.l2DemandMisses = 223;
    t0.mem.ifetchL1Misses = 17;
    t0.mem.ifetchL2Misses = 5;
    t0.mem.ifetchPrefetches = 340;
    t0.mem.raMemPrefetches = 88;
    t0.mem.raL2Prefetches = 21;
    r.threads.push_back(t0);
    sim::ThreadResult t1;
    t1.program = "mcf";
    t1.ipc = 0.05445;
    t1.l2Mpki = 47.2;
    t1.core.committedInsts = 1089;
    t1.mem.loads = 777;
    r.threads.push_back(t1);
    return r;
}

TEST(Serialize, SimConfigRoundTripsExactly)
{
    const sim::SimConfig cfg = nonDefaultConfig();
    const std::string text = toJson(cfg).dump(2);

    const auto parsed = Json::parse(text);
    ASSERT_TRUE(parsed);
    sim::SimConfig back; // defaults, all overwritten by fromJson
    ASSERT_TRUE(fromJson(*parsed, back));

    // Field-exact equality via the canonical serialization.
    EXPECT_EQ(toJson(back).dump(), toJson(cfg).dump());
    EXPECT_EQ(back.core.policy, core::PolicyKind::RatDcra);
    EXPECT_EQ(back.core.predictor.weightLimit, 63);
    EXPECT_EQ(back.mem.l1i.name, "I1");
    EXPECT_EQ(back.seed, 99u);
}

TEST(Serialize, DefaultConfigRoundTripsExactly)
{
    const sim::SimConfig cfg;
    const auto parsed = Json::parse(toJson(cfg).dump());
    ASSERT_TRUE(parsed);
    sim::SimConfig back;
    back.seed = 1234; // ensure fromJson actually writes it
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(toJson(back).dump(), toJson(cfg).dump());
}

TEST(Serialize, SimResultRoundTripsExactly)
{
    const sim::SimResult r = sampleResult();
    const auto parsed = Json::parse(toJson(r).dump(2));
    ASSERT_TRUE(parsed);
    sim::SimResult back;
    ASSERT_TRUE(fromJson(*parsed, back));

    EXPECT_EQ(toJson(back).dump(), toJson(r).dump());
    ASSERT_EQ(back.threads.size(), 2u);
    EXPECT_EQ(back.threads[0].core.runaheadCycles, 15216u);
    EXPECT_EQ(back.threads[0].mem.raMemPrefetches, 88u);
    // Doubles round-trip bit-for-bit, not approximately.
    EXPECT_EQ(back.threads[0].l2Mpki, 15.885022692889562);
    EXPECT_EQ(back.threads[1].ipc, 0.05445);
}

TEST(Serialize, GroupMetricsRoundTripsExactly)
{
    sim::GroupMetrics gm;
    gm.technique = "RaT";
    gm.group = sim::WorkloadGroup::MEM4;
    gm.meanThroughput = 0.3625;
    gm.meanFairness = 0.41;
    gm.meanEd2 = 4.19e5;
    gm.results.push_back(sampleResult());

    const auto parsed = Json::parse(toJson(gm).dump(2));
    ASSERT_TRUE(parsed);
    sim::GroupMetrics back;
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(back.group, sim::WorkloadGroup::MEM4);
    EXPECT_EQ(back.technique, "RaT");
    EXPECT_EQ(toJson(back).dump(), toJson(gm).dump());
}

TEST(GoldenConfig, EveryFieldNonDefaultBytes)
{
    // The compact dump is the result cache's key material, so these
    // bytes are every non-default cell's cache key: a writer change
    // that renames, reorders or retypes a field must show here.
    const std::string golden =
        R"({"core":{"numThreads":4,"fetchWidth":4,"fetchThreads":1,)"
        R"("renameWidth":6,"issueWidth":7,"commitWidth":5,)"
        R"("frontendDelay":9,"robEntries":256,"intIqEntries":48,)"
        R"("fpIqEntries":32,"lsIqEntries":24,"lsqEntries":40,)"
        R"("intRegs":128,"fpRegs":128,"intUnits":2,"fpUnits":1,)"
        R"("memUnits":3,"fetchQueueEntries":16,"btbMissPenalty":3,)"
        R"("mispredictRedirect":4,"ifetchPrefetchLines":2,)"
        R"("policy":"RaT+DCRA","rat":{"variant":"capped",)"
        R"("cappedMaxCycles":64,"uselessFilterThreshold":2,)"
        R"("uselessFilterReprobe":5,"dropFpInRunahead":false,)"
        R"("useRunaheadCache":true,"runaheadCacheLines":32,)"
        R"("disablePrefetch":true,"noFetchInRunahead":true},)"
        R"("predictor":{"tableEntries":1024,"historyBits":12,)"
        R"("weightLimit":-63}},"mem":{"l1i":{"name":"I1",)"
        R"("sizeBytes":32768,"ways":2,"lineBytes":32,"latency":2,)"
        R"("mshrs":4},"l1d":{"name":"D1","sizeBytes":16384,"ways":8,)"
        R"("lineBytes":32,"latency":4,"mshrs":16},"l2":{"name":"U2",)"
        R"("sizeBytes":524288,"ways":16,"lineBytes":128,"latency":12,)"
        R"("mshrs":64},"memLatency":250},"prewarmInsts":12345,)"
        R"("warmupCycles":777,"measureCycles":4242,"seed":99,)"
        R"("sampleWindow":500,"digestWindow":128,"sampled":{"phases":3,)"
        R"("phaseWindow":4096,"spanWindows":32,"warmupCycles":600,)"
        R"("measureCycles":3000,"sampleIndex":2}})";
    const sim::SimConfig cfg = everyFieldConfig();
    EXPECT_EQ(toJson(cfg).dump(), golden);

    const auto parsed = Json::parse(golden);
    ASSERT_TRUE(parsed);
    sim::SimConfig back;
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(toJson(back).dump(), golden);
    EXPECT_EQ(back.sampleIndex, 2);
    EXPECT_EQ(back.core.predictor.weightLimit, -63);
    EXPECT_EQ(back.mem.l2.name, "U2");
}

TEST(Serialize, NegativeWeightLimitRoundTrips)
{
    // weightLimit is the one signed config field; the reader must
    // accept the negative values the writer can produce.
    sim::SimConfig cfg;
    cfg.core.predictor.weightLimit = -63;
    const auto parsed = Json::parse(toJson(cfg).dump());
    ASSERT_TRUE(parsed);
    sim::SimConfig back;
    ASSERT_TRUE(fromJson(*parsed, back));
    EXPECT_EQ(back.core.predictor.weightLimit, -63);
}

TEST(Serialize, FromJsonRejectsMissingAndIllTypedFields)
{
    Json cfg = toJson(sim::SimConfig{});
    sim::SimConfig out;
    ASSERT_TRUE(fromJson(cfg, out));

    Json no_seed = cfg;
    // Rebuild without the seed member (operator[] would re-add it).
    Json pruned = Json::object();
    for (const auto &[key, value] : no_seed.members()) {
        if (key != "seed")
            pruned[key] = value;
    }
    EXPECT_FALSE(fromJson(pruned, out));

    Json bad_type = cfg;
    bad_type["seed"] = Json("one");
    EXPECT_FALSE(fromJson(bad_type, out));

    Json bad_policy = cfg;
    bad_policy["core"]["policy"] = Json("NOT_A_POLICY");
    EXPECT_FALSE(fromJson(bad_policy, out));

    Json bad_variant = cfg;
    bad_variant["core"]["rat"]["variant"] = Json("NOT_A_VARIANT");
    EXPECT_FALSE(fromJson(bad_variant, out));

    // unsigned and int members reject values their type cannot hold.
    Json wide_unsigned = cfg;
    wide_unsigned["mem"]["l2"]["ways"] = Json(std::uint64_t{1} << 32);
    EXPECT_FALSE(fromJson(wide_unsigned, out));

    Json negative_unsigned = cfg;
    negative_unsigned["core"]["numThreads"] = Json(-1);
    EXPECT_FALSE(fromJson(negative_unsigned, out));

    Json wide_int = cfg;
    wide_int["core"]["predictor"]["weightLimit"] =
        Json(std::int64_t{1} << 40);
    EXPECT_FALSE(fromJson(wide_int, out));

    Json bad_block = cfg;
    bad_block["mem"]["l1d"] = Json(7);
    EXPECT_FALSE(fromJson(bad_block, out));
}

TEST(Serialize, ResultMetricsAndCsvShapes)
{
    const sim::SimResult r = sampleResult();
    const Json metrics = resultMetricsJson(r);
    EXPECT_EQ(metrics.at("committedTotal").asU64(),
              r.committedTotal());
    EXPECT_EQ(metrics.at("throughputEq1").asDouble(),
              r.throughputEq1());

    const std::string csv = threadResultsCsv(r).dump();
    EXPECT_NE(csv.find("thread,program,ipc"), std::string::npos);
    EXPECT_NE(csv.find("art"), std::string::npos);
    EXPECT_NE(csv.find("mcf"), std::string::npos);
}

} // namespace
} // namespace rat::report
