/**
 * @file
 * End-to-end trace/telemetry smoke tests through the real `ratsim`
 * binary: with `--trace-out` enabled the simulation result must stay
 * byte-identical to an untraced run (observation only), and the
 * emitted file must be valid Chrome trace-event JSON carrying fetch,
 * memory and runahead-episode spans for a RaT workload.
 */

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "report/json.hh"

#ifndef RATSIM_CLI_PATH
#error "RATSIM_CLI_PATH must point at the ratsim binary"
#endif

namespace {

struct CliResult {
    int exitCode = -1;
    std::string output; ///< stdout + stderr, interleaved
};

CliResult
runCli(const std::string &args)
{
    const std::string cmd =
        "\"" RATSIM_CLI_PATH "\" " + args + " 2>&1";
    CliResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        r.output.append(buf, n);
    const int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A per-test temp path under the ctest working directory. */
std::string
tempPath(const std::string &name)
{
    return "trace-smoke-" + name;
}

TEST(TraceSmoke, TracingLeavesResultByteIdentical)
{
    // Compare the written JSON files, not the merged process output:
    // the traced run additionally logs "wrote trace ..." on stderr.
    const std::string plain = tempPath("plain.json");
    const std::string traced = tempPath("traced.json");
    const std::string trace = tempPath("run.trace.json");
    const std::string base =
        "report --workload art,mcf --policy RaT --measure 20000 "
        "--warmup 5000 --prewarm 100000 --json ";
    const CliResult off = runCli(base + plain);
    ASSERT_EQ(off.exitCode, 0) << off.output;
    const CliResult on =
        runCli(base + traced + " --trace-out " + trace);
    ASSERT_EQ(on.exitCode, 0) << on.output;

    const std::string plain_text = slurp(plain);
    ASSERT_FALSE(plain_text.empty());
    EXPECT_EQ(plain_text, slurp(traced))
        << "tracing perturbed the simulation result";
}

TEST(TraceSmoke, TraceFileIsChromeJsonWithExpectedSpans)
{
    const std::string trace = tempPath("spans.trace.json");
    const CliResult r = runCli(
        "report --workload art,mcf --policy RaT --measure 20000 "
        "--warmup 5000 --prewarm 100000 --json - --trace-out " + trace);
    ASSERT_EQ(r.exitCode, 0) << r.output;

    const auto doc = rat::report::Json::parse(slurp(trace));
    ASSERT_TRUE(doc.has_value()) << "trace is not valid JSON";
    const rat::report::Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->elements().size(), 0u);

    unsigned fetch = 0, miss = 0, episodes = 0;
    for (const rat::report::Json &e : events->elements()) {
        const rat::report::Json *name = e.find("name");
        if (!name || !name->isString())
            continue;
        if (name->asString() == "fetch")
            ++fetch;
        else if (name->asString() == "miss")
            ++miss;
        else if (name->asString() == "runahead episode")
            ++episodes;
    }
    EXPECT_GT(fetch, 0u);
    EXPECT_GT(miss, 0u);
    EXPECT_GE(episodes, 1u)
        << "a MIX2 RaT run must record at least one runahead episode";
}

TEST(TraceSmoke, CategoryFilterKeepsOnlyRequestedTracks)
{
    const std::string trace = tempPath("filtered.trace.json");
    const CliResult r = runCli(
        "report --workload art,mcf --policy RaT --measure 20000 "
        "--warmup 5000 --prewarm 100000 --json - "
        "--trace-categories runahead --trace-out " + trace);
    ASSERT_EQ(r.exitCode, 0) << r.output;

    const auto doc = rat::report::Json::parse(slurp(trace));
    ASSERT_TRUE(doc.has_value());
    const rat::report::Json *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    unsigned episodes = 0;
    for (const rat::report::Json &e : events->elements()) {
        const rat::report::Json *name = e.find("name");
        if (!name || !name->isString())
            continue;
        EXPECT_NE(name->asString(), "fetch") << "category filter leaked";
        EXPECT_NE(name->asString(), "issue") << "category filter leaked";
        EXPECT_NE(name->asString(), "miss") << "category filter leaked";
        if (name->asString() == "runahead episode")
            ++episodes;
    }
    EXPECT_GE(episodes, 1u);
}

TEST(TraceSmoke, FairnessBaselinesLeaveTheWorkloadTraceIntact)
{
    // The single-thread baseline runs behind --fairness must not write
    // the trace: it stays the 2-thread workload's, one track per thread.
    const std::string trace = tempPath("fairness.trace.json");
    const CliResult r = runCli(
        "run --workload art,gzip --policy RaT --measure 3000 "
        "--warmup 500 --prewarm 20000 --fairness --trace-out " + trace);
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("fairness (Eq.2):"), std::string::npos)
        << r.output;
    const std::string text = slurp(trace);
    EXPECT_NE(text.find("\"hw thread 0\""), std::string::npos);
    EXPECT_NE(text.find("\"hw thread 1\""), std::string::npos);
}

TEST(TraceSmoke, GroupRunRejectsTraceOut)
{
    // A trace covers one simulation; a group runs one per workload.
    for (const char *cmd : {"run", "report"}) {
        const CliResult r = runCli(
            std::string(cmd) +
            " --group MEM2 --measure 2000 --trace-out group.trace.json");
        EXPECT_EQ(r.exitCode, 1) << cmd << ": " << r.output;
        EXPECT_NE(r.output.find("--trace-out traces one simulation"),
                  std::string::npos)
            << r.output;
    }
}

TEST(TraceSmoke, UnknownCategoryFailsWithDiagnostic)
{
    const CliResult r = runCli(
        "report --workload art,mcf --trace-categories bogus "
        "--trace-out x.json");
    EXPECT_NE(r.exitCode, 0);
    EXPECT_NE(r.output.find("unknown category"), std::string::npos)
        << r.output;
}

TEST(TraceSmoke, FarmProgressLineAndPrefixedWorkerLogs)
{
    // A tiny farm with --progress: the live line lands on stderr
    // (merged here), the run completes, and worker log lines carry
    // their [w<N>] prefix when verbosity allows them through.
    const CliResult r = runCli(
        "farm --policies ICOUNT --workloads art,mcf --measure 2000 "
        "--warmup 500 --prewarm 20000 --workers 2 --progress");
    ASSERT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("cells"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("ETA"), std::string::npos) << r.output;
}

TEST(TraceSmoke, SampleWindowEmitsTelemetryTimeSeries)
{
    const std::string path = tempPath("telemetry.json");
    const CliResult r = runCli(
        "report --workload art,mcf --policy RaT --measure 20000 "
        "--warmup 5000 --prewarm 100000 --sample-window 2000 --json " +
        path);
    ASSERT_EQ(r.exitCode, 0) << r.output;

    const auto doc = rat::report::Json::parse(slurp(path));
    ASSERT_TRUE(doc.has_value());
    const rat::report::Json *result = doc->find("result");
    ASSERT_NE(result, nullptr);
    const rat::report::Json *telemetry = result->find("telemetry");
    ASSERT_NE(telemetry, nullptr) << "telemetry block missing";
    const rat::report::Json *samples = telemetry->find("samples");
    ASSERT_NE(samples, nullptr);
    ASSERT_TRUE(samples->isArray());
    // 20000 measured cycles at a 2000-cycle window = 10 samples
    // (quiescence skips must not lose boundary samples).
    EXPECT_EQ(samples->elements().size(), 10u);
    // Engine stats ride along on report runs.
    const rat::report::Json *engine = doc->find("engine");
    ASSERT_NE(engine, nullptr);
    EXPECT_NE(engine->find("episodes"), nullptr);
}

} // namespace
