/**
 * @file
 * Cost-model loading and LPT shard planning (harness/plan.hh): the
 * deterministic greedy packing itself, the three accepted measurement
 * sources (gvc_bench report, `.gvcj` journal, sweep results JSON),
 * the cell -> workload -> overall -> 1.0 fallback chain, and the
 * named rejection of unrecognized files.
 */

#include <algorithm>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "harness/bench.hh"
#include "harness/journal.hh"
#include "harness/plan.hh"
#include "harness/results_io.hh"

using namespace gvc;

namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good());
    os << content;
    ASSERT_TRUE(os.good());
}

/** Minimal fabricated record (only the fields the planner reads). */
ResultRecord
makeRecord(const std::string &workload, MmuDesign design,
           std::uint64_t exec_ticks)
{
    ResultRecord rec;
    rec.cfg.design = design;
    rec.cfg.workload.scale = 0.25;
    rec.result.workload = workload;
    rec.result.design = design;
    rec.result.exec_ticks = exec_ticks;
    return rec;
}

} // namespace

// ---------------------------------------------------------------------
// planShards: deterministic LPT packing
// ---------------------------------------------------------------------

TEST(PlanShards, UniformCostsDegenerateToRoundRobin)
{
    // Equal costs, stable sort, lowest-loaded-then-lowest-index ties:
    // the LPT plan collapses to the classic modulo stripe.
    const std::vector<double> costs(7, 1.0);
    const std::vector<unsigned> got = planShards(costs, 3);
    const std::vector<unsigned> want = {0, 1, 2, 0, 1, 2, 0};
    EXPECT_EQ(got, want);
}

TEST(PlanShards, LptPacksLongestFirst)
{
    // Classic LPT walk-through: sorted 7,5,3,2,2 -> shard loads end up
    // {9, 10} with each cell on the least-loaded shard at its turn.
    const std::vector<double> costs = {7, 5, 3, 2, 2};
    std::vector<double> loads;
    const std::vector<unsigned> got = planShards(costs, 2, &loads);
    const std::vector<unsigned> want = {0, 1, 1, 0, 1};
    EXPECT_EQ(got, want);
    ASSERT_EQ(loads.size(), 2u);
    EXPECT_DOUBLE_EQ(loads[0], 9.0);
    EXPECT_DOUBLE_EQ(loads[1], 10.0);
}

TEST(PlanShards, DeterministicAndComplete)
{
    std::vector<double> costs;
    for (std::size_t i = 0; i < 44; ++i)
        costs.push_back(double((i * 7919) % 101) + 0.5);

    const std::vector<unsigned> a = planShards(costs, 5);
    const std::vector<unsigned> b = planShards(costs, 5);
    EXPECT_EQ(a, b); // same inputs, same plan — always

    // Every cell lands on exactly one valid shard and no shard's load
    // exceeds the ideal split by more than the largest single cell
    // (the textbook LPT bound is tighter; this catches gross skew).
    ASSERT_EQ(a.size(), costs.size());
    double total = 0.0, biggest = 0.0;
    for (const double c : costs) {
        total += c;
        biggest = std::max(biggest, c);
    }
    std::vector<double> loads(5, 0.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_LT(a[i], 5u);
        loads[a[i]] += costs[i];
    }
    for (const double l : loads)
        EXPECT_LE(l, total / 5.0 + biggest);
}

TEST(PlanShards, SingleShardTakesEverything)
{
    const std::vector<double> costs = {3, 1, 2};
    const std::vector<unsigned> got = planShards(costs, 1);
    EXPECT_EQ(got, (std::vector<unsigned>{0, 0, 0}));
}

// ---------------------------------------------------------------------
// CostModel: sources and fallbacks
// ---------------------------------------------------------------------

TEST(CostModel, UniformModelCostsOneEverywhere)
{
    const CostModel model = CostModel::uniform();
    EXPECT_TRUE(model.isUniform());
    EXPECT_EQ(model.digest(), 0u);
    EXPECT_DOUBLE_EQ(model.costFor("anything", "at all"), 1.0);
}

TEST(CostModel, LoadsBenchReports)
{
    BenchReport report;
    BenchMeasurement m;
    m.cfg = {"cold", "bfs", "IDEAL MMU"};
    m.counters.exec_ticks = 125;
    report.configs.push_back(m);
    m.cfg = {"cold", "bfs", "VC With OPT"};
    m.counters.exec_ticks = 500;
    report.configs.push_back(m);

    const std::string path = tempPath("cost_bench.json");
    writeFile(path, benchReportToJson(report).dump(2) + "\n");

    CostModel model;
    std::string err;
    ASSERT_TRUE(model.load(path, &err)) << err;
    EXPECT_FALSE(model.isUniform());
    EXPECT_NE(model.digest(), 0u);
    EXPECT_EQ(model.source(), path);
    EXPECT_EQ(model.measuredCells(), 2u);
    EXPECT_DOUBLE_EQ(model.costFor("bfs", "IDEAL MMU"), 125.0);
    EXPECT_DOUBLE_EQ(model.costFor("bfs", "VC With OPT"), 500.0);
}

TEST(CostModel, LoadsSweepResultsJson)
{
    ExportMeta meta;
    meta.workloads = {"alpha", "beta"};
    meta.designs = {"ideal", "vc_opt"};
    meta.scale = 0.25;
    const std::vector<ResultRecord> records = {
        makeRecord("alpha", MmuDesign::kIdeal, 100),
        makeRecord("alpha", MmuDesign::kVcOpt, 300),
        makeRecord("beta", MmuDesign::kIdeal, 500),
        makeRecord("beta", MmuDesign::kVcOpt, 700),
    };
    const std::string path = tempPath("cost_results.json");
    writeFile(path, resultsToJson(meta, records).dump(2) + "\n");

    CostModel model;
    std::string err;
    ASSERT_TRUE(model.load(path, &err)) << err;
    EXPECT_EQ(model.measuredCells(), 4u);
    EXPECT_DOUBLE_EQ(model.costFor("alpha", designName(MmuDesign::kIdeal)),
                     100.0);
    EXPECT_DOUBLE_EQ(model.costFor("beta", designName(MmuDesign::kVcOpt)),
                     700.0);
}

TEST(CostModel, LoadsCheckpointJournals)
{
    ExportMeta meta;
    meta.workloads = {"alpha"};
    meta.designs = {"ideal", "vc_opt"};
    meta.scale = 0.25;
    const std::string path = tempPath("cost_journal.gvcj");
    {
        JournalWriter writer;
        std::string err;
        ASSERT_TRUE(writer.create(path, meta, &err)) << err;
        ASSERT_TRUE(writer.append(
            "k0", makeRecord("alpha", MmuDesign::kIdeal, 40), &err))
            << err;
        ASSERT_TRUE(writer.append(
            "k1", makeRecord("alpha", MmuDesign::kVcOpt, 90), &err))
            << err;
    }

    CostModel model;
    std::string err;
    ASSERT_TRUE(model.load(path, &err)) << err;
    EXPECT_EQ(model.measuredCells(), 2u);
    EXPECT_DOUBLE_EQ(model.costFor("alpha", designName(MmuDesign::kIdeal)),
                     40.0);
    EXPECT_DOUBLE_EQ(model.costFor("alpha", designName(MmuDesign::kVcOpt)),
                     90.0);
}

TEST(CostModel, FallbackChainCellWorkloadOverall)
{
    // Measurements: bfs x ideal = 10, bfs x vc = 30, pagerank x vc = 80.
    BenchReport report;
    for (const auto &[wl, d, ticks] :
         {std::tuple<const char *, const char *, std::uint64_t>{
              "bfs", "IDEAL MMU", 10},
          {"bfs", "VC With OPT", 30},
          {"pagerank", "VC With OPT", 80}}) {
        BenchMeasurement m;
        m.cfg = {"cold", wl, d};
        m.counters.exec_ticks = ticks;
        report.configs.push_back(m);
    }
    const std::string path = tempPath("cost_fallback.json");
    writeFile(path, benchReportToJson(report).dump(2) + "\n");

    CostModel model;
    std::string err;
    ASSERT_TRUE(model.load(path, &err)) << err;

    // Exact cell.
    EXPECT_DOUBLE_EQ(model.costFor("bfs", "IDEAL MMU"), 10.0);
    // Unmeasured design of a measured workload -> workload mean.
    EXPECT_DOUBLE_EQ(model.costFor("bfs", "Baseline 512"), 20.0);
    EXPECT_DOUBLE_EQ(model.costFor("pagerank", "IDEAL MMU"), 80.0);
    // Unmeasured workload -> overall mean.
    EXPECT_DOUBLE_EQ(model.costFor("hotspot", "IDEAL MMU"), 40.0);
}

TEST(CostModel, RepeatedSamplesAverage)
{
    // Two bench modes measure the same (workload, design): the model
    // must average them, independent of file order.
    BenchReport report;
    for (const std::uint64_t ticks : {10u, 30u}) {
        BenchMeasurement m;
        m.cfg = {ticks < 20 ? "cold" : "replay", "bfs", "IDEAL MMU"};
        m.counters.exec_ticks = ticks;
        report.configs.push_back(m);
    }
    const std::string path = tempPath("cost_avg.json");
    writeFile(path, benchReportToJson(report).dump(2) + "\n");

    CostModel model;
    std::string err;
    ASSERT_TRUE(model.load(path, &err)) << err;
    EXPECT_EQ(model.measuredCells(), 1u);
    EXPECT_DOUBLE_EQ(model.costFor("bfs", "IDEAL MMU"), 20.0);
}

TEST(CostModel, DistinctFilesGetDistinctDigests)
{
    const std::string p1 = tempPath("cost_digest_1.json");
    const std::string p2 = tempPath("cost_digest_2.json");
    ExportMeta meta;
    meta.workloads = {"alpha"};
    meta.designs = {"ideal"};
    writeFile(p1, resultsToJson(
                      meta, {makeRecord("alpha", MmuDesign::kIdeal, 1)})
                          .dump(2) +
                      "\n");
    writeFile(p2, resultsToJson(
                      meta, {makeRecord("alpha", MmuDesign::kIdeal, 2)})
                          .dump(2) +
                      "\n");

    CostModel m1, m2;
    std::string err;
    ASSERT_TRUE(m1.load(p1, &err)) << err;
    ASSERT_TRUE(m2.load(p2, &err)) << err;
    EXPECT_NE(m1.digest(), m2.digest());
}

TEST(CostModel, RejectsUnrecognizedFiles)
{
    CostModel model;
    std::string err;

    EXPECT_FALSE(model.load(tempPath("no_such_cost_model"), &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;

    const std::string garbage = tempPath("cost_garbage.txt");
    writeFile(garbage, "not json at all\n");
    EXPECT_FALSE(model.load(garbage, &err));
    EXPECT_NE(err.find("neither"), std::string::npos) << err;

    const std::string wrong = tempPath("cost_wrong.json");
    writeFile(wrong, "{\"hello\": 1}\n");
    EXPECT_FALSE(model.load(wrong, &err));
    EXPECT_NE(err.find("not a recognized"), std::string::npos) << err;
}
