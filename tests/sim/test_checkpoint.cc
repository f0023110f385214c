/**
 * @file
 * Round-trip tests for the "ratck2" architectural checkpoint codec
 * (sim/checkpoint.hh): restore-then-run must be digest-identical to
 * run-through at every --digest-window boundary, across cycle skipping
 * and the runahead variants;
 * corrupted blobs must be refused, in memory and from a file alike; the
 * file key must share checkpoints across the knobs the functional walk
 * ignores and split them on the knobs it depends on. The sharing tests
 * run exact campaigns through a cache directory: one checkpoint file
 * per workload, results byte-identical to unshared runs.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.hh"
#include "policy/factory.hh"
#include "report/serialize.hh"
#include "runahead/variant.hh"
#include "sim/campaign.hh"
#include "sim/checkpoint.hh"
#include "sim/sampled.hh"
#include "sim/simulator.hh"

namespace rat::sim {
namespace {

namespace fs = std::filesystem;

const std::vector<std::string> kMix = {"art", "mcf"};

struct FileCloser {
    void operator()(std::FILE *f) const { std::fclose(f); }
};
/** An owned stdio stream, closed on scope exit. */
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/** An anonymous temp file holding @p bytes, rewound for reading. */
FilePtr
fileHolding(const std::string &bytes)
{
    FilePtr f(std::tmpfile());
    EXPECT_TRUE(f);
    if (f) {
        std::fwrite(bytes.data(), 1, bytes.size(), f.get());
        std::rewind(f.get());
    }
    return f;
}

/** Everything in @p f, read from the start. */
std::string
contentsOf(std::FILE *f)
{
    std::rewind(f);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    return out;
}

/**
 * Scoped temp dir under the gtest temp root, unique per process: ctest
 * may run a test alone and inside the `sampled_suite` aggregate at the
 * same time.
 */
struct TempDir {
    fs::path path;

    explicit TempDir(const char *name)
        : path(fs::path(testing::TempDir()) /
               (std::string(name) + "." + std::to_string(::getpid())))
    {
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
};

/** Short windows with digests at every 500-cycle boundary. */
SimConfig
ckptConfig()
{
    SimConfig cfg;
    cfg.core.numThreads = 2;
    cfg.core.policy = core::PolicyKind::Rat;
    cfg.prewarmInsts = 20000;
    cfg.warmupCycles = 1000;
    cfg.measureCycles = 4000;
    cfg.digestWindow = 500;
    return cfg;
}

/** Encode the functional state of @p cfg at its prewarm position. */
std::string
encodeAt(const SimConfig &cfg)
{
    Simulator walker(cfg, kMix);
    walker.smtCore().prewarm(cfg.prewarmInsts);
    const std::string blob = CheckpointCodec::encode(walker);
    EXPECT_FALSE(blob.empty());
    return blob;
}

/** run() on a restore of @p blob (prewarm replaced by the restore). */
SimResult
restoreAndRun(const SimConfig &cfg, const std::string &blob)
{
    SimConfig restored = cfg;
    restored.prewarmInsts = 0;
    Simulator sim(restored, kMix);
    std::string error;
    const bool ok = CheckpointCodec::restore(sim, blob, &error);
    EXPECT_TRUE(ok) << error;
    return sim.run();
}

void
expectIdentical(const SimResult &through, const SimResult &restored)
{
    // Digest-identical at every window boundary...
    ASSERT_TRUE(through.digest.enabled());
    ASSERT_EQ(through.digest.samples.size(),
              restored.digest.samples.size());
    EXPECT_TRUE(through.digest == restored.digest);
    // ...and bit-identical in the full serialized result.
    EXPECT_EQ(report::toJson(through).dump(),
              report::toJson(restored).dump());
    EXPECT_EQ(through.engine.episodes, restored.engine.episodes);
    EXPECT_EQ(through.engine.executedInRunahead,
              restored.engine.executedInRunahead);
}

TEST(Checkpoint, RestoreMatchesRunThroughAcrossHostKnobGrid)
{
    // One blob serves the whole grid: cycle skipping and the runahead
    // variant are both invisible to the functional walk (and excluded
    // from the file key).
    const std::string blob = encodeAt(ckptConfig());

    for (const bool skip : {true, false}) {
        for (const runahead::RaVariant variant :
             {runahead::RaVariant::Classic, runahead::RaVariant::Capped,
              runahead::RaVariant::UselessFilter}) {
            SimConfig cfg = ckptConfig();
            cfg.core.cycleSkipping = skip;
            cfg.core.rat.variant = variant;

            Simulator through(cfg, kMix);
            const SimResult a = through.run();
            const SimResult b = restoreAndRun(cfg, blob);
            SCOPED_TRACE(testing::Message()
                         << "skip=" << skip << " variant="
                         << runahead::raVariantName(variant));
            expectIdentical(a, b);
        }
    }
}

TEST(Checkpoint, RestoreMatchesAcrossPolicies)
{
    const std::string blob = encodeAt(ckptConfig());
    for (const core::PolicyKind policy :
         {core::PolicyKind::Icount, core::PolicyKind::Flush,
          core::PolicyKind::RatDcra}) {
        SimConfig cfg = ckptConfig();
        cfg.core.policy = policy;
        Simulator through(cfg, kMix);
        const SimResult a = through.run();
        const SimResult b = restoreAndRun(cfg, blob);
        expectIdentical(a, b);
    }
}

TEST(Checkpoint, RefusesCorruptBlobs)
{
    const SimConfig cfg = ckptConfig();
    const std::string good = encodeAt(cfg);
    SimConfig restored = cfg;
    restored.prewarmInsts = 0;

    // The file leg: the streamed encode writes exactly the bytes
    // encode() returns, and the streamed restore accepts them.
    {
        Simulator walker(cfg, kMix);
        walker.smtCore().prewarm(cfg.prewarmInsts);
        const FilePtr out(std::tmpfile());
        ASSERT_TRUE(out);
        ASSERT_TRUE(CheckpointCodec::encode(walker, out.get()));
        EXPECT_EQ(contentsOf(out.get()), good);
        std::rewind(out.get());
        Simulator target(restored, kMix);
        std::string error;
        EXPECT_TRUE(CheckpointCodec::restore(target, out.get(), &error))
            << error;
    }

    // Every corruption is refused from memory and from a file alike,
    // with the same diagnosis.
    const auto refused = [&](const std::string &blob) {
        Simulator inMemory(restored, kMix);
        std::string error;
        const bool memoryOk =
            CheckpointCodec::restore(inMemory, blob, &error);
        EXPECT_FALSE(error.empty() || memoryOk);

        Simulator streamed(restored, kMix);
        const FilePtr file = fileHolding(blob);
        if (!file)
            return false;
        std::string fileError;
        const bool fileOk =
            CheckpointCodec::restore(streamed, file.get(), &fileError);
        EXPECT_FALSE(fileError.empty() || fileOk);
        EXPECT_EQ(error, fileError);
        return !memoryOk && !fileOk;
    };

    // Bad magic.
    std::string bad = good;
    bad[0] ^= 0x40;
    EXPECT_TRUE(refused(bad));

    // The previous layout's magic: a file of that era misses by file
    // key, and is refused here should it be read anyway.
    bad = good;
    bad.replace(0, 6, "ratck2");
    EXPECT_TRUE(refused(bad));

    // Flipped embedded digest (trailing u64): the restore-time
    // recomputation cannot match it.
    bad = good;
    bad[bad.size() - 4] ^= 0x01;
    EXPECT_TRUE(refused(bad));

    // Truncation.
    EXPECT_TRUE(refused(good.substr(0, good.size() - 9)));
    EXPECT_TRUE(refused(std::string{}));

    // Trailing bytes.
    EXPECT_TRUE(refused(good + '\0'));
}

TEST(Checkpoint, RestoredSimulatorReencodesToTheSameBytes)
{
    // Every carried field survives a restore bit for bit — including
    // the cache lines, predictor weights and BTB LRU stamps the digest
    // never hashes — from memory and from a file alike.
    const SimConfig cfg = ckptConfig();
    const std::string good = encodeAt(cfg);
    SimConfig restored = cfg;
    restored.prewarmInsts = 0;

    {
        Simulator target(restored, kMix);
        std::string error;
        ASSERT_TRUE(CheckpointCodec::restore(target, good, &error))
            << error;
        EXPECT_TRUE(CheckpointCodec::encode(target) == good);
    }
    {
        const FilePtr in = fileHolding(good);
        ASSERT_TRUE(in);
        Simulator target(restored, kMix);
        std::string error;
        ASSERT_TRUE(CheckpointCodec::restore(target, in.get(), &error))
            << error;
        const FilePtr out(std::tmpfile());
        ASSERT_TRUE(out);
        ASSERT_TRUE(CheckpointCodec::encode(target, out.get()));
        EXPECT_TRUE(contentsOf(out.get()) == good);
    }
}

TEST(Checkpoint, ConcurrentWritersOfOneKeyNeverPublishATornFile)
{
    // Two writers of one key — two farm workers walking the same
    // workload. B opens its temp after A has written everything but
    // before A publishes, then reads the published file mid-write. A
    // temp name shared by the writers would let B's open truncate A's
    // bytes, and A would rename the torn file into place.
    const TempDir dir("ckpt_concurrent");
    const SimConfig cfg = ckptConfig();
    const std::string blob = encodeAt(cfg);
    const std::uint64_t key =
        CheckpointCodec::fileKey(cfg, kMix, cfg.prewarmInsts);
    const std::string path = checkpointPath(dir.str(), key);
    SimConfig restored = cfg;
    restored.prewarmInsts = 0;

    const auto writeAll = [&blob](std::FILE *out) {
        return std::fwrite(blob.data(), 1, blob.size(), out) ==
               blob.size();
    };
    const auto waitFor = [](const auto &ready) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!ready() && std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        return ready();
    };

    std::atomic<bool> aWritten{false}, bOpened{false};
    bool aOk = false, bOk = false, midWriteRestored = false;
    std::string midWriteError;
    std::thread a([&] {
        aOk = writeCheckpointFile(dir.str(), key, [&](std::FILE *out) {
            const bool ok = writeAll(out) && std::fflush(out) == 0;
            aWritten = true;
            return waitFor([&] { return bOpened.load(); }) && ok;
        });
    });
    ASSERT_TRUE(waitFor([&] { return aWritten.load(); }));
    std::thread b([&] {
        bOk = writeCheckpointFile(dir.str(), key, [&](std::FILE *out) {
            bOpened = true;
            if (waitFor([&] { return fs::exists(path); })) {
                Simulator reader(restored, kMix);
                const FilePtr in(std::fopen(path.c_str(), "rb"));
                midWriteRestored =
                    in && CheckpointCodec::restore(reader, in.get(),
                                                   &midWriteError);
            }
            return writeAll(out);
        });
    });
    a.join();
    b.join();
    EXPECT_TRUE(aOk);
    EXPECT_TRUE(bOk);
    EXPECT_TRUE(midWriteRestored) << midWriteError;

    // Both published whole files; one restorable file and no temp
    // remain.
    Simulator target(restored, kMix);
    const FilePtr in(std::fopen(path.c_str(), "rb"));
    ASSERT_TRUE(in);
    EXPECT_TRUE(CheckpointCodec::restore(target, in.get()));
    std::vector<std::string> names;
    for (const auto &e : fs::directory_iterator(dir.path))
        names.push_back(e.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{fs::path(path)
                                                  .filename()
                                                  .string()});
}

TEST(Checkpoint, EncodeLegalAtFastForwardPoints)
{
    // Encode is defined exactly at functional fast-forward points: a
    // freshly constructed simulator (position 0) and any prewarmed
    // position qualify, and the two positions produce distinct blobs.
    SimConfig cfg = ckptConfig();
    cfg.prewarmInsts = 0;
    Simulator fresh(cfg, kMix);
    const std::string at0 = CheckpointCodec::encode(fresh);
    EXPECT_FALSE(at0.empty());
    EXPECT_NE(at0, encodeAt(ckptConfig()));
}

TEST(Checkpoint, FileKeySharesAcrossTimingKnobs)
{
    const SimConfig base = ckptConfig();
    const std::uint64_t key =
        CheckpointCodec::fileKey(base, kMix, 20000);

    // Policy, runahead variant and ROB size don't touch the walk.
    SimConfig cfg = base;
    cfg.core.policy = core::PolicyKind::Flush;
    EXPECT_EQ(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
    cfg = base;
    cfg.core.rat.variant = runahead::RaVariant::Capped;
    EXPECT_EQ(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
    cfg = base;
    cfg.core.robEntries = 256;
    EXPECT_EQ(key, CheckpointCodec::fileKey(cfg, kMix, 20000));

    // Position, seed, workload and register-file sizes all do.
    EXPECT_NE(key, CheckpointCodec::fileKey(base, kMix, 24096));
    cfg = base;
    cfg.seed = 2;
    EXPECT_NE(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
    EXPECT_NE(key, CheckpointCodec::fileKey(base, {"art", "gzip"},
                                            20000));
    cfg = base;
    cfg.core.intRegs = 256;
    EXPECT_NE(key, CheckpointCodec::fileKey(cfg, kMix, 20000));
}

TEST(Checkpoint, IncrementalWalkEncodesIdentically)
{
    // The registry walker prewarm()s incrementally between sample
    // positions; the blob it captures must equal a one-shot walk's.
    const SimConfig cfg = ckptConfig();
    Simulator oneShot(cfg, kMix);
    oneShot.smtCore().prewarm(20000);
    Simulator stepped(cfg, kMix);
    stepped.smtCore().prewarm(8000);
    stepped.smtCore().prewarm(7000);
    stepped.smtCore().prewarm(5000);
    EXPECT_EQ(CheckpointCodec::encode(oneShot),
              CheckpointCodec::encode(stepped));
}

/** Functional-walk config of the sharing campaigns (any policy). */
SimConfig
sharingBase()
{
    SimConfig cfg;
    cfg.core.numThreads = 2;
    cfg.prewarmInsts = 20000;
    cfg.warmupCycles = 500;
    cfg.measureCycles = 2000;
    return cfg;
}

/** All nine policies x art,mcf, serial; "" = no cache (unshared). */
CampaignSpec
sharingSpec(const std::string &cacheDir)
{
    CampaignSpec spec;
    spec.base = sharingBase();
    for (const core::PolicyKind kind :
         {core::PolicyKind::RoundRobin, core::PolicyKind::Icount,
          core::PolicyKind::Stall, core::PolicyKind::Flush,
          core::PolicyKind::Dcra, core::PolicyKind::HillClimbing,
          core::PolicyKind::Rat, core::PolicyKind::RatDcra,
          core::PolicyKind::MlpAware})
        spec.techniques.push_back({policy::policyKindName(kind), kind, {}});
    spec.workloads = {Workload::fromPrograms(kMix)};
    spec.parallelism = 1;
    spec.cacheDir = cacheDir;
    return spec;
}

std::string
reportOf(const CampaignSpec &spec)
{
    return campaignJson(runCampaign(spec), spec).dump();
}

/** Checkpoint file names in @p cacheDir's ckpt/, split by kind. */
struct CkptListing {
    std::vector<std::string> ckpts, tmps;
};

CkptListing
listCkptDir(const std::string &cacheDir)
{
    CkptListing out;
    for (const auto &e : fs::directory_iterator(checkpointDirFor(cacheDir))) {
        const std::string ext = e.path().extension().string();
        (ext == ".tmp" ? out.tmps : out.ckpts)
            .push_back(e.path().filename().string());
        EXPECT_TRUE(ext == ".tmp" || ext == ".ratck2") << e.path();
    }
    return out;
}

TEST(CheckpointSharing, CachedCampaignWalksOncePerWorkload)
{
    const std::string unshared = reportOf(sharingSpec(""));
    const TempDir dir("ckpt_share_once");
    const CampaignSpec spec = sharingSpec(dir.str());
    const CampaignOutcome outcome = runCampaign(spec);
    EXPECT_EQ(outcome.simulated, 9u);
    EXPECT_EQ(campaignJson(outcome, spec).dump(), unshared);

    const CkptListing files = listCkptDir(dir.str());
    EXPECT_EQ(files.ckpts.size(), 1u);
    EXPECT_TRUE(files.tmps.empty());
}

/** Scoped TMPDIR: where PrewarmShare creates its private directory. */
struct ScopedTmpdir {
    explicit ScopedTmpdir(const TempDir &dir)
    {
        fs::create_directories(dir.path);
        if (const char *old = std::getenv("TMPDIR"))
            old_ = old;
        setenv("TMPDIR", dir.str().c_str(), 1);
    }
    ~ScopedTmpdir()
    {
        if (old_)
            setenv("TMPDIR", old_->c_str(), 1);
        else
            unsetenv("TMPDIR");
    }

  private:
    std::optional<std::string> old_;
};

/** Three workloads x three policies on four threads, no cache. */
CampaignSpec
threeWorkloadSpec()
{
    CampaignSpec spec;
    spec.base = sharingBase();
    for (const core::PolicyKind kind :
         {core::PolicyKind::Icount, core::PolicyKind::Dcra,
          core::PolicyKind::Rat})
        spec.techniques.push_back({policy::policyKindName(kind), kind, {}});
    spec.workloads = {Workload::fromPrograms(kMix),
                      Workload::fromPrograms({"swim", "twolf"}),
                      Workload::fromPrograms({"gzip", "mcf"})};
    spec.parallelism = 4;
    return spec;
}

/** The report of @p outcome with every cell re-run alone, unshared. */
std::string
unsharedReportOf(CampaignOutcome outcome, const CampaignSpec &spec)
{
    for (CampaignCell &cell : outcome.cells) {
        Simulator sim(cell.config, cell.programs);
        cell.result = sim.run();
    }
    return campaignJson(outcome, spec).dump();
}

TEST(CheckpointSharing, ParallelRunWithoutACacheWalksOncePerWorkload)
{
    const TempDir tmp("ckpt_private_parallel");
    const ScopedTmpdir scoped(tmp);
    const CampaignSpec spec = threeWorkloadSpec();
    const CampaignOutcome outcome = runCampaign(spec);
    EXPECT_EQ(outcome.simulated, 9u);
    EXPECT_EQ(outcome.prewarmWalks, 3u);
    EXPECT_EQ(campaignJson(outcome, spec).dump(),
              unsharedReportOf(outcome, spec));
    // The private checkpoint directory went with the run.
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(CheckpointSharing, ConcurrentCellsOfOnePrewarmWalkOnce)
{
    // Four threads start four cells of one workload at once: the
    // walk-once guard holds three of them until the first has
    // published its checkpoint, then they restore it.
    CampaignSpec spec = sharingSpec("");
    spec.parallelism = 4;
    const CampaignOutcome outcome = runCampaign(spec);
    EXPECT_EQ(outcome.simulated, 9u);
    EXPECT_EQ(outcome.prewarmWalks, 1u);
    EXPECT_EQ(campaignJson(outcome, spec).dump(),
              unsharedReportOf(outcome, spec));
}

TEST(CheckpointSharing, LoneCellOfAPrewarmGroupWritesNoCheckpoint)
{
    const TempDir tmp("ckpt_private_lone");
    const ScopedTmpdir scoped(tmp);
    {
        PrewarmShare share("");
        // A lone cell has no one to share with: no directory, no file.
        EXPECT_EQ(share.dirFor(1), "");
        EXPECT_TRUE(fs::is_empty(tmp.path));
        // The first group of two creates the run's one private dir.
        const std::string dir = share.dirFor(2);
        ASSERT_FALSE(dir.empty());
        EXPECT_TRUE(fs::is_directory(dir));
        EXPECT_EQ(fs::path(dir).parent_path(), tmp.path);
        EXPECT_EQ(share.dirFor(9), dir);
    }
    EXPECT_TRUE(fs::is_empty(tmp.path));

    // A result cache keeps every checkpoint, lone cells' too.
    PrewarmShare cached(tmp.str());
    EXPECT_EQ(cached.dirFor(1), checkpointDirFor(tmp.str()));

    // One technique: every prewarm group is a lone cell that walks.
    CampaignSpec spec = threeWorkloadSpec();
    spec.techniques.resize(1);
    const CampaignOutcome outcome = runCampaign(spec);
    EXPECT_EQ(outcome.prewarmWalks, 3u);
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(CheckpointSharing, FatalCellLeavesNoPrivateDirectory)
{
    // A cell of an unknown program ends the process with fatal() after
    // its group has created the run's private directory; exit() never
    // unwinds to the PrewarmShare, so the exit-time sweep removes it.
    const TempDir tmp("ckpt_private_fatal");
    const ScopedTmpdir scoped(tmp);
    CampaignSpec spec = threeWorkloadSpec();
    spec.workloads = {Workload::fromPrograms({"art", "nosuchprogram"})};
    spec.parallelism = 1;
    EXPECT_EXIT(runCampaign(spec), testing::ExitedWithCode(1),
                "nosuchprogram");
    EXPECT_TRUE(fs::is_empty(tmp.path));
}

TEST(CheckpointSharing, RegisterFileAxisSplitsTheCheckpoint)
{
    CampaignSpec unshared = sharingSpec("");
    unshared.regsAxis = {128, 320};
    const TempDir dir("ckpt_share_regs");
    CampaignSpec shared = sharingSpec(dir.str());
    shared.regsAxis = {128, 320};
    EXPECT_EQ(reportOf(shared), reportOf(unshared));

    const CkptListing files = listCkptDir(dir.str());
    EXPECT_EQ(files.ckpts.size(), 2u);
    EXPECT_TRUE(files.tmps.empty());
}

TEST(CheckpointSharing, CorruptCheckpointFallsBackAndIsReplaced)
{
    const std::string unshared = reportOf(sharingSpec(""));
    const TempDir dir("ckpt_share_corrupt");
    const SimConfig base = sharingBase();
    const std::string good = encodeAt(base);
    const std::string ckptDir = checkpointDirFor(dir.str());
    const std::uint64_t key =
        CheckpointCodec::fileKey(base, kMix, base.prewarmInsts);

    // A structurally whole file whose embedded digest is flipped: only
    // the restore-time digest check can refuse it.
    std::string bad = good;
    bad[bad.size() - 4] ^= 0x01;
    ASSERT_TRUE(writeCheckpointFile(ckptDir, key, [&bad](std::FILE *out) {
        return std::fwrite(bad.data(), 1, bad.size(), out) == bad.size();
    }));

    EXPECT_EQ(reportOf(sharingSpec(dir.str())), unshared);

    // The first cell's fallback walk replaced the file with a good one.
    const FilePtr in(std::fopen(checkpointPath(ckptDir, key).c_str(), "rb"));
    ASSERT_TRUE(in);
    EXPECT_EQ(contentsOf(in.get()), good);
    std::rewind(in.get());
    SimConfig restored = base;
    restored.prewarmInsts = 0;
    Simulator target(restored, kMix);
    EXPECT_TRUE(CheckpointCodec::restore(target, in.get()));
    EXPECT_EQ(listCkptDir(dir.str()).ckpts.size(), 1u);
    EXPECT_TRUE(listCkptDir(dir.str()).tmps.empty());
}

TEST(CheckpointSharing, RefusedSampledCheckpointIsRebuiltAndReplaced)
{
    // The sampled registry is process-wide and keyed by fileKey, so
    // this test owns a seed no other test uses: its first lookup must
    // read the corrupt files below, not a blob another test cached.
    SimConfig cfg = sharingBase();
    cfg.seed = 41;
    cfg.sampled = true;
    cfg.samplePhases = 2;
    cfg.phaseWindow = 2048;
    cfg.phaseSpanWindows = 8;
    cfg.sampleWarmupCycles = 500;
    cfg.sampleMeasureCycles = 2000;
    const TempDir dir("ckpt_sampled_refused");
    const std::string ckptDir = checkpointDirFor(dir.str());

    // Every sample's file is structurally whole with a flipped
    // embedded digest: only the restore-time digest check refuses it.
    const trace::PhaseProfile &plan = samplePlanFor(cfg, kMix);
    ASSERT_FALSE(plan.samples.empty());
    std::vector<InstSeq> positions;
    std::vector<std::pair<std::string, std::string>> files; // path, good
    for (const trace::PhaseSample &sample : plan.samples) {
        SimConfig at = cfg;
        at.sampled = false;
        at.prewarmInsts =
            cfg.prewarmInsts + InstSeq{sample.windowIndex} * cfg.phaseWindow;
        positions.push_back(at.prewarmInsts);
        const std::string good = encodeAt(at);
        std::string bad = good;
        bad[bad.size() - 4] ^= 0x01;
        const std::uint64_t key =
            CheckpointCodec::fileKey(cfg, kMix, at.prewarmInsts);
        ASSERT_TRUE(writeCheckpointFile(ckptDir, key, [&bad](std::FILE *o) {
            return std::fwrite(bad.data(), 1, bad.size(), o) == bad.size();
        }));
        files.emplace_back(checkpointPath(ckptDir, key), good);
    }

    // Each sample's result is byte-identical to an exact run from its
    // position (the sample metadata aside).
    for (std::size_t i = 0; i < plan.samples.size(); ++i) {
        SimConfig cell = cfg;
        cell.sampleIndex = static_cast<int>(i);
        const SimResult sampled = simulateCell(cell, kMix, ckptDir);

        SimConfig exact = sharingBase();
        exact.seed = cfg.seed;
        exact.prewarmInsts = positions[i];
        exact.warmupCycles = cfg.sampleWarmupCycles;
        exact.measureCycles = cfg.sampleMeasureCycles;
        Simulator sim(exact, kMix);
        SimResult expected = sim.run();
        expected.sampled = sampled.sampled;
        EXPECT_EQ(report::toJson(sampled).dump(),
                  report::toJson(expected).dump());
    }

    // Each refused file was rebuilt and replaced by one that restores.
    SimConfig restored = cfg;
    restored.sampled = false;
    restored.prewarmInsts = 0;
    for (const auto &[path, good] : files) {
        const FilePtr in(std::fopen(path.c_str(), "rb"));
        ASSERT_TRUE(in) << path;
        EXPECT_TRUE(contentsOf(in.get()) == good) << path;
        std::rewind(in.get());
        Simulator target(restored, kMix);
        std::string error;
        EXPECT_TRUE(CheckpointCodec::restore(target, in.get(), &error))
            << path << ": " << error;
    }
    EXPECT_TRUE(listCkptDir(dir.str()).tmps.empty());
}

} // namespace
} // namespace rat::sim
