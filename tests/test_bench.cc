/**
 * @file
 * Bench-layer tests: the bench counters must be exactly what the plain
 * runner reports for the same configuration (the bench-vs-run
 * cross-check that anchors the CI gate), the JSON document must
 * round-trip losslessly, and the drift comparator must catch every kind
 * of mismatch it is relied on to catch.  The checked-in v1 baseline
 * (with its timing fields) must still load and re-emit as v2.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "harness/bench.hh"
#include "harness/runner.hh"
#include "sim/bytes.hh"

namespace gvc
{
namespace
{

BenchOptions
smallOptions()
{
    BenchOptions opts;
    opts.workload.scale = 0.05;
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
    rc.workload = opts.workload;
    const BenchCounters direct =
        BenchCounters(runWorkload("bfs", rc));

    EXPECT_EQ(runBenchConfig(cfg, opts), direct);
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
    rc.workload = opts.workload;
    const BenchCounters live =
        BenchCounters(runWorkload("hotspot", rc));

    EXPECT_EQ(runBenchConfig(cfg, opts), live);
}

TEST(Bench, WarmCountersMatchScenarioRunner)
{
    const BenchOptions opts = smallOptions();
    BenchConfig cfg{"warm", "bfs", designName(MmuDesign::kL1Vc32)};

    RunConfig rc;
    rc.design = MmuDesign::kL1Vc32;
    rc.workload = opts.workload;
    ScenarioSpec spec;
    spec.rounds = opts.scenario_rounds;
    spec.boundary = BoundaryPolicy::keepAll();
    const BenchCounters direct =
        BenchCounters(runScenario("bfs", rc, spec));

    EXPECT_EQ(runBenchConfig(cfg, opts), direct);
}

TEST(Bench, ConfigRunsAreDeterministic)
{
    // One cell of every mode, run twice: the gate compares one run per
    // cell against the baseline, so each mode must be repeatable.
    const BenchOptions opts = smallOptions();
    std::set<std::string> modes;
    for (const BenchConfig &cfg : benchMatrix()) {
        if (!modes.insert(cfg.mode).second)
            continue;
        EXPECT_EQ(runBenchConfig(cfg, opts), runBenchConfig(cfg, opts))
            << cfg.name();
    }
    EXPECT_EQ(modes.size(), 8u);
}

TEST(Bench, ReportJsonRoundTrips)
{
    BenchReport report;
    report.opts = smallOptions();
    BenchMeasurement m;
    m.cfg = BenchConfig{"cold", "bfs", "VC With OPT"};
    m.counters.exec_ticks = 123456789012345ull;
    m.counters.instructions = 42;
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
    EXPECT_EQ(back.opts.workload.scale, report.opts.workload.scale);
    EXPECT_EQ(back.opts.workload.seed, report.opts.workload.seed);

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
    f.opts.workload.scale = 0.5;
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

    // A missing counter is rejected by its dotted path.
    BenchMeasurement m;
    m.cfg = BenchConfig{"cold", "bfs", "VC With OPT"};
    report.configs.push_back(m);
    std::string text = benchReportToJson(report).dump();
    const std::string field = "\"exec_ticks\":0,";
    ASSERT_NE(text.find(field), std::string::npos);
    text.erase(text.find(field), field.size());
    EXPECT_FALSE(benchReportFromJson(Json::parse(text), out, &err));
    EXPECT_EQ(err, "bench.configs[0].counters: missing field 'exec_ticks'");
}

TEST(Bench, LoadsCheckedInV1Baseline)
{
    // BENCH_PR10.json is a v1 report with per-trial timing fields.  It
    // must load (the CI gate reads it), and re-emitting it as v2 must
    // keep every counter and drop every timing field.
    std::string text, err;
    ASSERT_TRUE(readFileBytes(std::string(GVC_TEST_DATA_DIR) +
                                  "/../BENCH_PR10.json",
                              text, &err))
        << err;
    BenchReport v1;
    ASSERT_TRUE(benchReportFromJson(Json::parse(text), v1, &err)) << err;
    ASSERT_EQ(v1.configs.size(), 36u);
    EXPECT_EQ(v1.opts.workload.scale, 1.0);

    const std::string v2_text = benchReportToJson(v1).dump(2);
    for (const char *timing :
         {"wall_ms", "warp_inst_per_sec", "sim_cycles_per_sec",
          "peak_rss_kb", "trials", "warmup"})
        EXPECT_EQ(v2_text.find(timing), std::string::npos) << timing;
    BenchReport v2;
    ASSERT_TRUE(benchReportFromJson(Json::parse(v2_text), v2, &err))
        << err;
    ASSERT_EQ(v2.configs.size(), v1.configs.size());
    for (std::size_t i = 0; i < v1.configs.size(); ++i) {
        EXPECT_EQ(v2.configs[i].cfg.name(), v1.configs[i].cfg.name());
        EXPECT_EQ(v2.configs[i].counters, v1.configs[i].counters);
    }
    std::string diff;
    EXPECT_TRUE(benchCountersMatch(v1, v2, diff)) << diff;
    // The baseline's configurations are exactly today's matrix.
    const std::vector<BenchConfig> matrix = benchMatrix();
    for (std::size_t i = 0; i < v1.configs.size(); ++i)
        EXPECT_EQ(v1.configs[i].cfg.name(), matrix[i].name());
}

} // namespace
} // namespace gvc
