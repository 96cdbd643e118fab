/**
 * @file
 * Bench-layer tests: the bench counters must be exactly what the plain
 * runner reports for the same configuration (the bench-vs-run
 * cross-check that anchors the CI gate), the JSON document must
 * round-trip losslessly, and the drift comparator must catch every kind
 * of mismatch it is relied on to catch.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/bench.hh"
#include "harness/runner.hh"

namespace gvc
{
namespace
{

BenchOptions
smallOptions()
{
    BenchOptions opts;
    opts.scale = 0.05;
    opts.trials = 1;
    opts.warmup = 0;
    opts.progress = false;
    return opts;
}

TEST(Bench, MatrixShape)
{
    const auto matrix = benchMatrix();
    // 3 modes x 3 workloads x 3 designs, plus 2 tenant cells, the
    // sweep config, 3 cold cells for the reach-generalized designs,
    // and 3 dead-entry-aware TLB policy cells.
    EXPECT_EQ(matrix.size(), 36u);
    unsigned sweeps = 0, tenants = 0, policies = 0;
    for (const auto &cfg : matrix) {
        EXPECT_FALSE(cfg.name().empty());
        if (cfg.mode == "sweep")
            ++sweeps;
        if (cfg.mode == "tenants")
            ++tenants;
        if (cfg.mode.rfind("policy-", 0) == 0)
            ++policies;
    }
    EXPECT_EQ(sweeps, 1u);
    EXPECT_EQ(tenants, 2u);
    EXPECT_EQ(policies, 3u);
}

TEST(Bench, ColdCountersMatchPlainRunner)
{
    const BenchOptions opts = smallOptions();
    BenchConfig cfg{"cold", "bfs", designName(MmuDesign::kVcOpt)};

    RunConfig rc;
    rc.design = MmuDesign::kVcOpt;
    rc.workload.scale = opts.scale;
    rc.workload.seed = opts.seed;
    const BenchCounters direct =
        BenchCounters(runWorkload("bfs", rc));

    EXPECT_EQ(runBenchConfigOnce(cfg, opts), direct);
}

TEST(Bench, ReplayCountersMatchLiveRun)
{
    // The replay mode must reproduce the live run bit-exactly — this is
    // the replay-identity property expressed through the bench layer.
    const BenchOptions opts = smallOptions();
    BenchConfig cfg{"replay", "hotspot",
                    designName(MmuDesign::kBaseline512)};

    RunConfig rc;
    rc.design = MmuDesign::kBaseline512;
    rc.workload.scale = opts.scale;
    rc.workload.seed = opts.seed;
    const BenchCounters live =
        BenchCounters(runWorkload("hotspot", rc));

    EXPECT_EQ(runBenchConfigOnce(cfg, opts), live);
}

TEST(Bench, WarmCountersMatchScenarioRunner)
{
    const BenchOptions opts = smallOptions();
    BenchConfig cfg{"warm", "bfs", designName(MmuDesign::kL1Vc32)};

    RunConfig rc;
    rc.design = MmuDesign::kL1Vc32;
    rc.workload.scale = opts.scale;
    rc.workload.seed = opts.seed;
    ScenarioSpec spec;
    spec.rounds = opts.scenario_rounds;
    spec.boundary = BoundaryPolicy::keepAll();
    const BenchCounters direct =
        BenchCounters(runScenario("bfs", rc, spec));

    EXPECT_EQ(runBenchConfigOnce(cfg, opts), direct);
}

TEST(Bench, ConfigRunsAreDeterministic)
{
    const BenchOptions opts = smallOptions();
    BenchConfig cfg{"cold", "hotspot", designName(MmuDesign::kVcOpt)};
    EXPECT_EQ(runBenchConfigOnce(cfg, opts),
              runBenchConfigOnce(cfg, opts));
}

TEST(Bench, ReportJsonRoundTrips)
{
    BenchReport report;
    report.opts = smallOptions();
    BenchMeasurement m;
    m.cfg = BenchConfig{"cold", "bfs", "VC With OPT"};
    m.counters.exec_ticks = 123456789012345ull;
    m.counters.instructions = 42;
    m.wall_ms = {1.25, 2.5, 0.75};
    m.median_wall_ms = 1.25;
    m.warp_inst_per_sec = 33600.0;
    m.sim_cycles_per_sec = 1e9;
    m.peak_rss_kb = 98765;
    report.configs.push_back(m);

    const Json doc = benchReportToJson(report);
    std::string err;
    const Json reparsed = Json::parse(doc.dump(2), &err);
    ASSERT_FALSE(reparsed.isNull()) << err;

    BenchReport back;
    ASSERT_TRUE(benchReportFromJson(reparsed, back, &err)) << err;
    ASSERT_EQ(back.configs.size(), 1u);
    EXPECT_EQ(back.configs[0].counters, report.configs[0].counters);
    EXPECT_EQ(back.configs[0].cfg.name(), m.cfg.name());
    EXPECT_EQ(back.configs[0].wall_ms, m.wall_ms);
    EXPECT_EQ(back.configs[0].peak_rss_kb, m.peak_rss_kb);
    EXPECT_EQ(back.opts.scale, report.opts.scale);
    EXPECT_EQ(back.opts.seed, report.opts.seed);

    std::string diff;
    EXPECT_TRUE(benchCountersMatch(report, back, diff)) << diff;
}

TEST(Bench, CountersMatchFlagsEveryDriftKind)
{
    BenchReport a;
    a.opts = smallOptions();
    BenchMeasurement m;
    m.cfg = BenchConfig{"cold", "bfs", "VC With OPT"};
    m.counters.exec_ticks = 100;
    a.configs.push_back(m);

    // Identical reports match.
    std::string diff;
    EXPECT_TRUE(benchCountersMatch(a, a, diff)) << diff;

    // A drifted counter is reported by name.
    BenchReport b = a;
    b.configs[0].counters.exec_ticks = 101;
    EXPECT_FALSE(benchCountersMatch(a, b, diff));
    EXPECT_NE(diff.find("exec_ticks"), std::string::npos);

    // Wall-time changes do NOT fail the match (trajectory, not gate).
    BenchReport c = a;
    c.configs[0].median_wall_ms = 9999.0;
    c.configs[0].wall_ms = {9999.0};
    EXPECT_TRUE(benchCountersMatch(a, c, diff)) << diff;

    // A missing config fails.
    BenchReport d = a;
    d.configs.clear();
    EXPECT_FALSE(benchCountersMatch(a, d, diff));

    // An extra config fails.
    BenchReport e = a;
    BenchMeasurement extra;
    extra.cfg = BenchConfig{"cold", "bfs", "Baseline 512"};
    e.configs.push_back(extra);
    EXPECT_FALSE(benchCountersMatch(a, e, diff));

    // A different scale fails (counters are only comparable per scale).
    BenchReport f = a;
    f.opts.scale = 0.5;
    EXPECT_FALSE(benchCountersMatch(a, f, diff));
}

TEST(Bench, RejectsMalformedJson)
{
    BenchReport out;
    std::string err;
    EXPECT_FALSE(benchReportFromJson(Json::parse("[1,2,3]"), out, &err));
    EXPECT_FALSE(err.empty());

    // Unknown schema version is rejected, not silently accepted.
    BenchReport report;
    report.opts = smallOptions();
    Json doc = benchReportToJson(report);
    doc.set("bench_schema_version", 999);
    EXPECT_FALSE(benchReportFromJson(doc, out, &err));
}

TEST(Bench, PeakRssIsInKilobytesOnEveryHost)
{
    // ru_maxrss is KB on Linux/BSD but *bytes* on macOS; peakRssKb()
    // normalizes.  A C++ test process with gtest loaded occupies at
    // least ~1 MB and (sanity) under 8 GB — a unit mix-up on either
    // side lands orders of magnitude outside this band (a 10 MB
    // process would read as 10 GB if bytes leaked through, or 10 KB
    // if a spurious divide were added on Linux).
    const std::uint64_t kb = peakRssKb();
    EXPECT_GE(kb, 1024u);
    EXPECT_LE(kb, 8u * 1024u * 1024u);
}

} // namespace
} // namespace gvc
