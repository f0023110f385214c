/**
 * @file
 * Whole-result determinism pins for every scheduling policy.
 *
 * Each row runs a fixed workload and technique twice, and the *full*
 * serialized SimResult JSON must be byte-identical between the runs
 * and byte-identical to its golden file under tests/data/golden_mix2/.
 * The nine policy rows run the same MIX2 workload (art,gzip — one
 * memory-bound and one ILP-bound thread, so runahead, flush and
 * resource-control paths all trigger). Two stress rows follow:
 *
 *  - FLUSH on four memory-bound threads (art,mcf,swim,twolf): constant
 *    flush-and-rewind squashes, the waiter-list unlink stress;
 *  - RaT with the runahead cache on art,mcf: INV folds cascade through
 *    registers, store-dependent chains and pseudo-retired stores.
 *
 * These goldens are the seed broadcast scheduler's semantics as data:
 * the nine policy rows were captured from it before the event-driven
 * refactor (DESIGN.md "Event-driven wakeup"), and the two stress rows
 * were captured where the event-driven scheduler was still proven
 * byte-identical to it. Matching them proves the one remaining
 * scheduler wakes, folds and forwards exactly as the seed did.
 *
 * Re-capture (only for an *intentional* semantic change; explain it in
 * the same commit):
 *   RATSIM_CAPTURE_GOLDEN_DIR=tests/data/golden_mix2 \
 *     ./build/tests/ratsim_tests --gtest_filter='Determinism.*'
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "policy/factory.hh"
#include "report/serialize.hh"
#include "sim/experiment.hh"
#include "sim/sampled.hh"

namespace rat::sim {
namespace {

/** One golden row: workload, technique and golden file stem. */
struct GoldenRow {
    std::string file;
    std::vector<std::string> programs;
    core::PolicyKind policy;
    bool runaheadCache = false;
};

/** A MIX2 (art,gzip) row for one policy; '+' is not a file char. */
GoldenRow
mix2Row(core::PolicyKind kind)
{
    std::string file = policy::policyKindName(kind);
    for (char &c : file) {
        if (c == '+')
            c = '_';
    }
    return {file, {"art", "gzip"}, kind};
}

/** All nine techniques in PolicyKind order, then the stress rows. */
const std::vector<GoldenRow> kRows = {
    mix2Row(core::PolicyKind::RoundRobin),
    mix2Row(core::PolicyKind::Icount),
    mix2Row(core::PolicyKind::Stall),
    mix2Row(core::PolicyKind::Flush),
    mix2Row(core::PolicyKind::Dcra),
    mix2Row(core::PolicyKind::HillClimbing),
    mix2Row(core::PolicyKind::Rat),
    mix2Row(core::PolicyKind::RatDcra),
    mix2Row(core::PolicyKind::MlpAware),
    {"FLUSH_art_mcf_swim_twolf",
     {"art", "mcf", "swim", "twolf"},
     core::PolicyKind::Flush},
    {"RaT_racache_art_mcf", {"art", "mcf"}, core::PolicyKind::Rat, true},
};

/** Short windows keep every row x 2 runs affordable in CI. */
SimConfig
determinismConfig()
{
    SimConfig cfg;
    cfg.prewarmInsts = 100000;
    cfg.warmupCycles = 5000;
    cfg.measureCycles = 10000;
    return cfg;
}

std::string
runRowJson(const GoldenRow &row)
{
    TechniqueSpec tech;
    tech.label = policy::policyKindName(row.policy);
    tech.policy = row.policy;
    tech.rat.useRunaheadCache = row.runaheadCache;
    const SimResult r = simulateCell(
        techniqueConfig(determinismConfig(), tech,
                        static_cast<unsigned>(row.programs.size())),
        row.programs);
    return report::toJson(r).dump(2) + "\n";
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(Determinism, EveryPolicyMix2ByteIdenticalToGolden)
{
    const char *capture = std::getenv("RATSIM_CAPTURE_GOLDEN_DIR");
    for (const GoldenRow &row : kRows) {
        SCOPED_TRACE(row.file);
        const std::string first = runRowJson(row);

        if (capture) {
            const std::string path =
                std::string(capture) + "/" + row.file + ".json";
            std::ofstream out(path, std::ios::binary);
            ASSERT_TRUE(out.is_open()) << "cannot write " << path;
            out << first;
            continue;
        }

        // Run-to-run determinism: a fresh simulator must reproduce the
        // full result byte-for-byte.
        const std::string second = runRowJson(row);
        EXPECT_EQ(first, second);

        const std::string path =
            RATSIM_TEST_DATA_DIR "/golden_mix2/" + row.file + ".json";
        const std::string golden = slurp(path);
        ASSERT_FALSE(golden.empty()) << "missing golden " << path;
        EXPECT_EQ(first, golden) << "drift against " << path;
    }
}

} // namespace
} // namespace rat::sim
