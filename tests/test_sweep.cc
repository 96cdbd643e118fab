/**
 * @file
 * Tests for the parallel sweep subsystem: thread-pool semantics
 * (ordering, exception propagation), multi-thread vs. serial
 * determinism of full simulation grids, config memoization, and the
 * JSON/CSV structured-results layer (round trips, schema shape).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"

namespace gvc
{
namespace
{

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, ReturnsValuesThroughFutures)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[std::size_t(i)].get(), i * i);
}

TEST(ThreadPool, SingleWorkerRunsJobsInSubmissionOrder)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(pool.submit([i, &order] { order.push_back(i); }));
    for (auto &f : futures)
        f.get();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(ThreadPool, ExceptionPropagatesToFutureNotWorker)
{
    ThreadPool pool(2);
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    auto good = pool.submit([] { return 7; });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that ran the throwing job is still alive.
    EXPECT_EQ(good.get(), 7);
    EXPECT_EQ(pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, ZeroThreadsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, AllSubmittedJobsRunBeforeDestruction)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 200; ++i)
            pool.submit([&count] { ++count; });
        // No explicit wait: the destructor drains the queue.
    }
    EXPECT_EQ(count.load(), 200);
}

// ---------------------------------------------------------------------
// Config keys / memoization
// ---------------------------------------------------------------------

RunConfig
tiny(MmuDesign design, double scale = 0.05)
{
    RunConfig cfg;
    cfg.design = design;
    cfg.workload.scale = scale;
    return cfg;
}

TEST(SweepKey, DistinguishesSimulationRelevantChanges)
{
    const RunConfig a = tiny(MmuDesign::kVcOpt);
    EXPECT_EQ(runConfigKey("bfs", a), runConfigKey("bfs", a));
    EXPECT_NE(runConfigKey("bfs", a), runConfigKey("pagerank", a));
    EXPECT_NE(runConfigKey("bfs", a),
              runConfigKey("bfs", tiny(MmuDesign::kBaseline512)));

    RunConfig seeded = a;
    seeded.workload.seed = 1234;
    EXPECT_NE(runConfigKey("bfs", a), runConfigKey("bfs", seeded));

    RunConfig bw = a;
    bw.soc.iommu.accesses_per_cycle = 2.0;
    EXPECT_NE(runConfigKey("bfs", a), runConfigKey("bfs", bw));
}

TEST(SweepKey, IgnoresFieldsOverriddenByConfigFor)
{
    // Without raw_soc, configFor() forces the design's TLB sizing, so
    // a base-config value that it overwrites must not split the memo.
    RunConfig a = tiny(MmuDesign::kBaseline512);
    RunConfig b = a;
    b.soc.iommu.tlb_entries = 9999; // overwritten by configFor()
    EXPECT_EQ(runConfigKey("bfs", a), runConfigKey("bfs", b));

    b.raw_soc = true; // now it is the effective config
    EXPECT_NE(runConfigKey("bfs", a), runConfigKey("bfs", b));
}

TEST(Sweep, MemoizesDuplicateCells)
{
    Sweep sweep(2);
    sweep.setProgress(false);
    const std::size_t first =
        sweep.add("hotspot", tiny(MmuDesign::kIdeal));
    const std::size_t dup =
        sweep.add("hotspot", tiny(MmuDesign::kIdeal));
    const std::size_t other =
        sweep.add("hotspot", tiny(MmuDesign::kBaseline512));
    sweep.run();

    EXPECT_EQ(sweep.uniqueRuns(), 2u);
    EXPECT_EQ(sweep.result(first).exec_ticks,
              sweep.result(dup).exec_ticks);
    EXPECT_NE(sweep.result(first).exec_ticks,
              sweep.result(other).exec_ticks);
}

TEST(Sweep, MemoCachePersistsAcrossIncrementalRuns)
{
    Sweep sweep(1);
    sweep.setProgress(false);
    sweep.add("hotspot", tiny(MmuDesign::kIdeal));
    sweep.run();
    EXPECT_EQ(sweep.uniqueRuns(), 1u);

    // Re-adding the same cell later must not re-simulate.
    const std::size_t again =
        sweep.add("hotspot", tiny(MmuDesign::kIdeal));
    sweep.add("backprop", tiny(MmuDesign::kIdeal));
    sweep.run();
    EXPECT_EQ(sweep.uniqueRuns(), 2u);
    EXPECT_EQ(sweep.result(again).workload, "hotspot");
}

TEST(Sweep, MatchesDirectRunWorkload)
{
    const RunConfig cfg = tiny(MmuDesign::kVcOpt);
    const RunResult direct = runWorkload("bfs", cfg);

    Sweep sweep(2);
    sweep.setProgress(false);
    const std::size_t idx = sweep.add("bfs", cfg);
    sweep.run();

    EXPECT_EQ(runResultToJson(sweep.result(idx)).dump(),
              runResultToJson(direct).dump());
}

// ---------------------------------------------------------------------
// Determinism: serial vs 4 threads, every RunResult field identical
// ---------------------------------------------------------------------

TEST(Sweep, FourThreadGridBitIdenticalToSerial)
{
    const std::vector<std::string> workloads = {"bfs", "hotspot",
                                                "backprop"};
    const std::vector<MmuDesign> designs = {MmuDesign::kIdeal,
                                            MmuDesign::kBaseline512,
                                            MmuDesign::kVcOpt};
    RunConfig base;
    base.workload.scale = 0.05;

    Sweep serial(1);
    serial.setProgress(false);
    serial.addGrid(workloads, designs, base);
    serial.run();

    Sweep threaded(4);
    threaded.setProgress(false);
    threaded.addGrid(workloads, designs, base);
    threaded.run();

    ASSERT_EQ(serial.size(), threaded.size());
    ASSERT_EQ(serial.size(), workloads.size() * designs.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const RunResult &a = serial.result(i);
        const RunResult &b = threaded.result(i);
        // The JSON projection covers every RunResult field (including
        // the breakdown) with lossless integers and round-trippable
        // doubles, so string equality is field-for-field bit equality.
        EXPECT_EQ(runResultToJson(a).dump(), runResultToJson(b).dump())
            << "cell " << i << " (" << a.workload << " x "
            << designName(a.design) << ")";
    }
}

// ---------------------------------------------------------------------
// Json value + parser
// ---------------------------------------------------------------------

TEST(Json, DumpParseRoundTripPreservesStructure)
{
    Json doc = Json::object();
    doc.set("name", "sweep \"quoted\"\n");
    doc.set("count", std::uint64_t(123));
    doc.set("ratio", 0.1);
    doc.set("flag", true);
    doc.set("nothing", Json());
    Json arr = Json::array();
    arr.push(std::uint64_t(1));
    arr.push("two");
    arr.push(false);
    doc.set("arr", std::move(arr));

    for (const int indent : {0, 2}) {
        std::string err;
        const Json back = Json::parse(doc.dump(indent), &err);
        EXPECT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.find("name")->asString(), "sweep \"quoted\"\n");
        EXPECT_EQ(back.find("count")->asU64(), 123u);
        EXPECT_DOUBLE_EQ(back.find("ratio")->asNumber(), 0.1);
        EXPECT_TRUE(back.find("flag")->asBool());
        EXPECT_TRUE(back.find("nothing")->isNull());
        ASSERT_EQ(back.find("arr")->size(), 3u);
        EXPECT_EQ(back.find("arr")->at(1).asString(), "two");
        // Re-dump is byte-identical: stable for diffing results files.
        EXPECT_EQ(back.dump(indent), doc.dump(indent));
    }
}

TEST(Json, U64PreservedBeyondDoublePrecision)
{
    const std::uint64_t big = 0xffffffffffffffffull; // not a double
    Json j = Json::object();
    j.set("ticks", big);
    std::string err;
    const Json back = Json::parse(j.dump(), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.find("ticks")->asU64(), big);
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,", "{\"a\":}", "tru", "\"unterminated",
          "{\"a\":1} trailing", "[1 2]", ""}) {
        std::string err;
        const Json j = Json::parse(bad, &err);
        EXPECT_TRUE(j.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// ---------------------------------------------------------------------
// Results export: schema shape and round trips
// ---------------------------------------------------------------------

std::vector<ResultRecord>
sampleRecords()
{
    Sweep sweep(2);
    sweep.setProgress(false);
    sweep.addGrid({"hotspot", "backprop"},
                  {MmuDesign::kIdeal, MmuDesign::kVcOpt},
                  tiny(MmuDesign::kIdeal, 0.05));
    sweep.run();
    return sweep.records();
}

TEST(ResultsIo, JsonDocumentHasVersionedSchema)
{
    const std::vector<ResultRecord> records = sampleRecords();
    ExportMeta meta;
    meta.workloads = {"hotspot", "backprop"};
    meta.designs = {"ideal", "vc_opt"};
    meta.scale = 0.05;
    meta.seed = 0x5eed;
    meta.jobs = 2;

    std::string err;
    const Json doc =
        Json::parse(resultsToJson(meta, records).dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    EXPECT_EQ(doc.find("schema_version")->asU64(),
              std::uint64_t(kResultsSchemaVersion));
    EXPECT_EQ(doc.find("generator")->asString(), "gvc_sweep");
    const Json *grid = doc.find("grid");
    ASSERT_NE(grid, nullptr);
    EXPECT_EQ(grid->find("workloads")->size(), 2u);
    EXPECT_EQ(grid->find("designs")->size(), 2u);
    EXPECT_EQ(grid->find("jobs")->asU64(), 2u);

    const Json *results = doc.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const Json &r = results->at(i);
        EXPECT_EQ(r.find("workload")->asString(),
                  records[i].result.workload);
        EXPECT_EQ(r.find("exec_ticks")->asU64(),
                  records[i].result.exec_ticks);
        // The effective SocConfig rides along with every result.
        const Json *soc = r.find("soc");
        ASSERT_NE(soc, nullptr);
        EXPECT_NE(soc->find("iommu"), nullptr);
        EXPECT_NE(soc->find("fbt"), nullptr);
        ASSERT_NE(r.find("workload_params"), nullptr);
        EXPECT_DOUBLE_EQ(
            r.find("workload_params")->find("scale")->asNumber(), 0.05);
    }
}

TEST(ResultsIo, CsvShapeMatchesHeader)
{
    const std::vector<ResultRecord> records = sampleRecords();
    const std::string csv = resultsToCsv(records);

    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const std::size_t nl = csv.find('\n', pos);
        lines.push_back(csv.substr(pos, nl - pos));
        pos = nl + 1;
    }
    ASSERT_EQ(lines.size(), records.size() + 1);

    const auto columns = [](const std::string &line) {
        return std::count(line.begin(), line.end(), ',') + 1;
    };
    // The full header, column set and order, as CSV consumers see it.
    EXPECT_EQ(lines[0],
              "workload,design,exec_ticks,instructions,mem_instructions,"
              "tlb_accesses,tlb_misses,iommu_accesses,page_walks,"
              "l1_accesses,l2_accesses,dram_accesses,dram_bytes,"
              "fbt_lookups,synonym_replays,rw_faults,fbt_purges,"
              "fbt_valid_pages,tlb_reach_hits,tlb_reach_fills,tlb_merges,"
              "tlb_fill_bypasses,iommu_reach_hits,iommu_reach_fills,"
              "iommu_coalesced_fills,large_page_walks,victima_stashes,"
              "victima_probes,victima_hits,tlb_dead_first_evictions,"
              "tlb_pred_true_pos,tlb_pred_false_pos,iommu_fill_bypasses,"
              "iommu_dead_first_evictions,iommu_pred_true_pos,"
              "iommu_pred_false_pos,lines_per_mem_inst,tlb_miss_ratio,"
              "iommu_apc_mean,iommu_apc_stdev,iommu_apc_max,"
              "iommu_frac_windows_over_1,iommu_serialization_mean,"
              "fbt_second_level_hit_ratio,l1_hit_ratio,l2_hit_ratio,"
              "tlb_breakdown.miss_l1_hit,tlb_breakdown.miss_l2_hit,"
              "tlb_breakdown.miss_l2_miss");
    EXPECT_EQ(columns(lines[0]), 49);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_EQ(columns(lines[i]), columns(lines[0])) << lines[i];
        EXPECT_EQ(lines[i].rfind(records[i - 1].result.workload + ",", 0),
                  0u);
    }
}

TEST(ResultsIo, CsvRowValuesMatchResult)
{
    const std::vector<ResultRecord> records = sampleRecords();
    const std::string row = resultsCsvRow(records[0].result);
    EXPECT_NE(
        row.find("," + std::to_string(records[0].result.exec_ticks) +
                 ","),
        std::string::npos);
}

// ---------------------------------------------------------------------
// defaultJobs
// ---------------------------------------------------------------------

TEST(Sweep, DefaultJobsHonoursEnvironment)
{
    setenv("GVC_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    unsetenv("GVC_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(Sweep, DefaultJobsIgnoresMalformedEnvironment)
{
    unsetenv("GVC_JOBS");
    const unsigned fallback = defaultJobs();
    // strtol would happily return 99999 from "99999abc"; the checked
    // parse must reject the trailing garbage and fall back.
    for (const char *bad : {"99999abc", "abc", "-2", "0", ""}) {
        setenv("GVC_JOBS", bad, 1);
        EXPECT_EQ(defaultJobs(), fallback) << "GVC_JOBS='" << bad
                                           << "'";
    }
    unsetenv("GVC_JOBS");
}

} // namespace
} // namespace gvc
