/**
 * @file
 * Results import (resultsFromJson), shard merging (mergeResults), and
 * the shared CLI in harness/cli.hh: checked value parsing, the parse
 * loop's usage errors and help, shard-spec parsing, the output writer,
 * and "design preset, then ordered SoC overrides" (which fixes the
 * gvc_sweep design-collapse bug).
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "legacy_schema.hh"

using namespace gvc;
using gvc::test::legacyDoc;

namespace
{

/**
 * Fabricate one distinctive (config, result) cell.  Serialization is
 * field-driven, so synthetic values exercise the round trip without
 * running a simulation; @p salt makes every field value unique per
 * cell, including u64 values beyond 2^53 to check lexeme exactness.
 */
ResultRecord
makeRecord(const std::string &workload, MmuDesign design,
           std::uint64_t salt)
{
    ResultRecord rec;
    rec.cfg.design = design;
    rec.cfg.workload.scale = 0.25;
    rec.cfg.workload.seed = 0x5eed;
    rec.result.workload = workload;
    rec.result.design = design;
    rec.result.exec_ticks = 0xdeadbeef00000000ull + salt;
    rec.result.instructions = 7919 * salt + 13;
    rec.result.mem_instructions = 997 * salt + 5;
    rec.result.tlb_accesses = 401 * salt;
    rec.result.tlb_misses = 31 * salt;
    rec.result.iommu_accesses = 211 * salt + 1;
    rec.result.page_walks = 17 * salt;
    rec.result.l1_accesses = 1009 * salt + 2;
    rec.result.l2_accesses = 503 * salt + 3;
    rec.result.dram_accesses = 251 * salt + 4;
    rec.result.dram_bytes = 16064 * salt + 256;
    rec.result.lines_per_mem_inst = 1.25 + 0.001 * double(salt);
    rec.result.tlb_miss_ratio = 0.0625 * double(salt % 3);
    rec.result.iommu_apc_mean = 0.5 + 0.01 * double(salt);
    rec.result.l1_hit_ratio = 0.75;
    rec.result.l2_hit_ratio = 0.5;
    rec.result.tlb_breakdown.miss_l1_hit = 3 * salt;
    rec.result.tlb_breakdown.miss_l2_hit = 2 * salt;
    rec.result.tlb_breakdown.miss_l2_miss = salt;
    return rec;
}

/** The canonical 2x2 test grid: (alpha, beta) x (ideal, vc_opt). */
ExportMeta
testMeta()
{
    ExportMeta meta;
    meta.workloads = {"alpha", "beta"};
    meta.designs = {"ideal", "vc_opt"};
    meta.scale = 0.25;
    meta.seed = 0x5eed;
    meta.jobs = 3;
    return meta;
}

/** Records for the full test grid in canonical cell order. */
std::vector<ResultRecord>
testRecords()
{
    return {
        makeRecord("alpha", MmuDesign::kIdeal, 1),
        makeRecord("alpha", MmuDesign::kVcOpt, 2),
        makeRecord("beta", MmuDesign::kIdeal, 3),
        makeRecord("beta", MmuDesign::kVcOpt, 4),
    };
}

/** Export the stripe of testRecords() with cell % count == index. */
Json
shardDoc(unsigned index, unsigned count)
{
    ExportMeta meta = testMeta();
    meta.shard_index = index;
    meta.shard_count = count;
    const std::vector<ResultRecord> all = testRecords();
    std::vector<ResultRecord> mine;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (i % count == index)
            mine.push_back(all[i]);
    return resultsToJson(meta, mine);
}

Json
reparse(const Json &doc)
{
    std::string err;
    Json out = Json::parse(doc.dump(2), &err);
    EXPECT_EQ(err, "");
    return out;
}

/** Synthetic per-kernel deltas, unique per (salt, kernel index). */
KernelStats
makeKernelStats(std::uint64_t salt, std::uint64_t k)
{
    KernelStats s;
    std::uint64_t i = 0;
    forEachKernelStat([&](const char *, std::uint64_t &v) {
        v = 1000000 * salt + 100 * k + (i++);
    }, s);
    return s;
}

/** makeRecord() plus a per-kernel stats array (schema version 2). */
ResultRecord
makeScenarioRecord(const std::string &workload, MmuDesign design,
                   std::uint64_t salt)
{
    ResultRecord rec = makeRecord(workload, design, salt);
    rec.result.kernels = {makeKernelStats(salt, 0),
                          makeKernelStats(salt, 1),
                          makeKernelStats(salt, 2)};
    return rec;
}

/** Scenario records for the full test grid in canonical cell order. */
std::vector<ResultRecord>
scenarioRecords()
{
    return {
        makeScenarioRecord("alpha", MmuDesign::kIdeal, 1),
        makeScenarioRecord("alpha", MmuDesign::kVcOpt, 2),
        makeScenarioRecord("beta", MmuDesign::kIdeal, 3),
        makeScenarioRecord("beta", MmuDesign::kVcOpt, 4),
    };
}

/** shardDoc() over scenarioRecords(): a schema-version-2 shard. */
Json
scenarioShardDoc(unsigned index, unsigned count)
{
    ExportMeta meta = testMeta();
    meta.shard_index = index;
    meta.shard_count = count;
    const std::vector<ResultRecord> all = scenarioRecords();
    std::vector<ResultRecord> mine;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (i % count == index)
            mine.push_back(all[i]);
    return resultsToJson(meta, mine);
}

} // namespace

// ---------------------------------------------------------------------
// resultsFromJson: round trip
// ---------------------------------------------------------------------

TEST(ResultsImport, RoundTripIsByteIdentical)
{
    const Json doc = resultsToJson(testMeta(), testRecords());
    const std::string dumped = doc.dump(2);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(doc), meta, records, &err))
        << err;

    // Re-exporting the imported records must reproduce every byte,
    // which covers every field of every record at once.
    EXPECT_EQ(resultsToJson(meta, records).dump(2), dumped);
}

TEST(ResultsImport, RoundTripRestoresEveryField)
{
    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(resultsToJson(
                                    testMeta(), testRecords())),
                                meta, records, &err))
        << err;

    EXPECT_EQ(meta.generator, "gvc_sweep");
    EXPECT_EQ(meta.workloads,
              (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(meta.designs,
              (std::vector<std::string>{"ideal", "vc_opt"}));
    EXPECT_DOUBLE_EQ(meta.scale, 0.25);
    EXPECT_EQ(meta.seed, 0x5eedu);
    EXPECT_EQ(meta.jobs, 3u);
    EXPECT_EQ(meta.shard_index, 0u);
    EXPECT_EQ(meta.shard_count, 1u);

    ASSERT_EQ(records.size(), 4u);
    const ResultRecord want = makeRecord("beta", MmuDesign::kIdeal, 3);
    const ResultRecord &got = records[2];
    EXPECT_EQ(got.result.workload, "beta");
    EXPECT_EQ(got.result.design, MmuDesign::kIdeal);
    EXPECT_EQ(got.cfg.design, MmuDesign::kIdeal);
    EXPECT_EQ(got.result.exec_ticks, want.result.exec_ticks);
    EXPECT_EQ(got.result.instructions, want.result.instructions);
    EXPECT_EQ(got.result.dram_bytes, want.result.dram_bytes);
    EXPECT_DOUBLE_EQ(got.result.lines_per_mem_inst,
                     want.result.lines_per_mem_inst);
    EXPECT_DOUBLE_EQ(got.result.iommu_apc_mean,
                     want.result.iommu_apc_mean);
    EXPECT_EQ(got.result.tlb_breakdown.miss_l2_miss,
              want.result.tlb_breakdown.miss_l2_miss);
    EXPECT_DOUBLE_EQ(got.cfg.workload.scale, want.cfg.workload.scale);
    EXPECT_EQ(got.cfg.workload.seed, want.cfg.workload.seed);
    // The document stores the effective SocConfig, so imported
    // records are raw and reproduce it verbatim on re-export.
    EXPECT_TRUE(got.cfg.raw_soc);
    const SocConfig effective = configFor(MmuDesign::kIdeal, {});
    EXPECT_TRUE(got.cfg.soc.percu_tlb_infinite);
    EXPECT_TRUE(got.cfg.soc.iommu.tlb_infinite);
    EXPECT_TRUE(got.cfg.soc.iommu.unlimited_bw);
    EXPECT_EQ(got.cfg.soc.iommu.tlb_entries,
              effective.iommu.tlb_entries);

    // Now every table field at once, each with a distinct nonzero
    // value: RunResult and KernelStats through their tables (u64
    // counters beyond 2^53), SocConfig and WorkloadParams through the
    // leaves of their exported objects (their tables are private to
    // results_io; every leaf there is one table row).
    ResultRecord rec = makeRecord("alpha", MmuDesign::kVcOpt, 1);
    std::uint64_t next = 1;
    forEachResultField(
        [&](const char *, unsigned, auto &v) {
            if constexpr (std::is_floating_point_v<
                              std::decay_t<decltype(v)>>)
                v = double(next++) + 0.25;
            else
                v = (std::uint64_t{1} << 60) + next++;
        },
        rec.result);
    for (std::uint64_t k = 0; k < 2; ++k) {
        rec.result.kernels.push_back(makeKernelStats(next++, k));
        rec.result.tenants.push_back(
            {"tenant" + std::to_string(k), next++,
             makeKernelStats(next++, k)});
    }
    for (TlbRefHist *h :
         {&rec.result.percu_tlb_refs, &rec.result.iommu_tlb_refs})
        for (std::uint64_t &b : h->buckets)
            b = next++;
    rec.result.percu_tlb_refs.retired = next++;
    rec.result.iommu_tlb_refs.dead = next++;

    // Number leaves get small distinct values (every one fits the
    // narrowest field, a uint8_t enum); bool leaves become true.
    const std::function<Json(const Json &)> fill = [&](const Json &j) {
        if (j.isNumber())
            return Json(std::uint64_t(next++ % 250 + 1));
        if (j.type() == Json::Type::kBool)
            return Json(true);
        Json out = Json::object();
        for (const auto &[key, value] : j.members())
            out.set(key, fill(value));
        return out;
    };
    Json j = resultRecordToJson(rec);
    const Json soc = fill(*j.find("soc"));
    const Json params = fill(*j.find("workload_params"));
    j.set("soc", soc);
    j.set("workload_params", params);

    ResultRecord back;
    ASSERT_TRUE(resultRecordFromJson(Json::parse(j.dump(2), &err), back,
                                     &err))
        << err;
    forEachResultField(
        [](const char *name, unsigned, const auto &want,
           const auto &have) { EXPECT_EQ(have, want) << name; },
        rec.result, back.result);
    EXPECT_EQ(back.result.kernels, rec.result.kernels);
    EXPECT_EQ(back.result.tenants, rec.result.tenants);
    EXPECT_EQ(back.result.percu_tlb_refs, rec.result.percu_tlb_refs);
    EXPECT_EQ(back.result.iommu_tlb_refs, rec.result.iommu_tlb_refs);
    // Leaf values, not lexemes: a double field filled with 130 exports
    // as 1.3e+02.
    const std::function<void(const Json &, const Json &)> same =
        [&](const Json &want, const Json &have) {
            ASSERT_EQ(have.size(), want.size());
            for (const auto &[key, value] : want.members()) {
                const Json *got = have.find(key);
                ASSERT_NE(got, nullptr) << key;
                if (value.isObject())
                    same(value, *got);
                else if (value.isNumber())
                    EXPECT_EQ(got->asNumber(), value.asNumber()) << key;
                else
                    EXPECT_EQ(got->dump(), value.dump()) << key;
            }
        };
    same(soc, socConfigToJson(back.cfg.soc));
    same(params, workloadParamsToJson(back.cfg.workload));
}

TEST(ResultsImport, ShardMetadataRoundTrips)
{
    const Json doc = shardDoc(1, 3);
    ASSERT_NE(doc.find("grid")->find("shard"), nullptr);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(doc), meta, records, &err))
        << err;
    EXPECT_EQ(meta.shard_index, 1u);
    EXPECT_EQ(meta.shard_count, 3u);
    EXPECT_EQ(resultsToJson(meta, records).dump(2), doc.dump(2));

    // Unsharded exports carry the same object, as shard 0 of 1.
    const Json plain = resultsToJson(testMeta(), testRecords());
    const Json *shard = plain.find("grid")->find("shard");
    ASSERT_NE(shard, nullptr);
    EXPECT_EQ(shard->find("index")->asU64(), 0u);
    EXPECT_EQ(shard->find("count")->asU64(), 1u);
}

// ---------------------------------------------------------------------
// Schema version 2 (import-only): per-kernel stats arrays
// ---------------------------------------------------------------------

TEST(ResultsSchemaV2, ScenarioRecordsStampVersion2AndRoundTrip)
{
    const Json v4 = resultsToJson(testMeta(), scenarioRecords());
    const Json doc = legacyDoc(v4, kResultsSchemaVersionKernels);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(doc), meta, records, &err))
        << err;
    EXPECT_EQ(meta.schema_version, kResultsSchemaVersionKernels);
    ASSERT_EQ(records.size(), 4u);
    ASSERT_EQ(records[2].result.kernels.size(), 3u);
    EXPECT_EQ(records[2].result.kernels[1], makeKernelStats(3, 1));

    // The v4 re-export covers every per-kernel field at once.
    EXPECT_EQ(resultsToJson(meta, records).dump(2), v4.dump(2));
}

TEST(ResultsSchemaV2, Version1DocumentMustNotCarryKernels)
{
    Json doc = legacyDoc(resultsToJson(testMeta(), scenarioRecords()),
                         kResultsSchemaVersionKernels);
    doc.set("schema_version", kResultsSchemaVersionPlain);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    EXPECT_FALSE(resultsFromJson(reparse(doc), meta, records, &err));
    EXPECT_NE(err.find("kernels"), std::string::npos) << err;
}

TEST(ResultsSchemaV2, Version2DocumentMustCarryKernels)
{
    Json doc = legacyDoc(resultsToJson(testMeta(), testRecords()),
                         kResultsSchemaVersionPlain);
    doc.set("schema_version", kResultsSchemaVersionKernels);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    EXPECT_FALSE(resultsFromJson(reparse(doc), meta, records, &err));
    EXPECT_NE(err.find("kernels"), std::string::npos) << err;
}

TEST(ResultsSchemaV2, MergeRejectsMixedSchemaShards)
{
    // Shard 0 carries per-kernel stats (v2), shard 1 does not (v1):
    // the shards came from different kinds of sweeps and must not
    // silently merge.
    Json merged;
    std::string err;
    EXPECT_FALSE(mergeResults(
        {legacyDoc(scenarioShardDoc(0, 2), kResultsSchemaVersionKernels),
         legacyDoc(shardDoc(1, 2), kResultsSchemaVersionPlain)},
        merged, &err));
    EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
}

TEST(ResultsSchemaV2, MergedV2ShardsMatchUnshardedExport)
{
    Json merged;
    std::string err;
    ASSERT_TRUE(mergeResults(
        {legacyDoc(scenarioShardDoc(0, 2), kResultsSchemaVersionKernels),
         legacyDoc(scenarioShardDoc(1, 2), kResultsSchemaVersionKernels)},
        merged, &err))
        << err;
    EXPECT_EQ(merged.dump(2),
              resultsToJson(testMeta(), scenarioRecords()).dump(2));
    EXPECT_EQ(merged.find("schema_version")->asU64(),
              std::uint64_t(kResultsSchemaVersion));
}

// ---------------------------------------------------------------------
// Schema version 4: one record shape
// ---------------------------------------------------------------------

TEST(ResultsSchemaV4, MixedRecordsShareOneDocument)
{
    // Plain, per-kernel, and tenant records have the same shape, so a
    // grid mixing them exports and round-trips like any other.
    std::vector<ResultRecord> mixed = testRecords();
    mixed[1].result.kernels.push_back(makeKernelStats(9, 0));
    mixed[2].result.tenants.push_back({"beta", 2, makeKernelStats(9, 1)});
    const Json doc = resultsToJson(testMeta(), mixed);
    EXPECT_EQ(doc.find("schema_version")->asU64(),
              std::uint64_t(kResultsSchemaVersion));
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        const Json &rec = doc.find("results")->at(i);
        EXPECT_TRUE(rec.find("kernels")->isArray());
        EXPECT_TRUE(rec.find("tenants")->isArray());
        EXPECT_NE(rec.find("percu_tlb_refs"), nullptr);
        EXPECT_NE(rec.find("victima_hits"), nullptr);
        EXPECT_NE(rec.find("soc")->find("coalesce_max_reach"), nullptr);
    }

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(doc), meta, records, &err))
        << err;
    EXPECT_EQ(meta.schema_version, kResultsSchemaVersion);
    EXPECT_EQ(records[2].result.tenants, mixed[2].result.tenants);
    EXPECT_EQ(resultsToJson(meta, records).dump(2), doc.dump(2));
}

TEST(ResultsSchemaV4, EveryFieldIsRequired)
{
    // v4 has no optional fields: dropping any record member that v1
    // writers omitted while zero is an error now.
    for (const char *key :
         {"victima_hits", "kernels", "tenants", "tenant_storm_pages",
          "iommu_tlb_refs", "coalesce_max_reach", "tlb_policy"}) {
        const Json doc = resultsToJson(testMeta(), testRecords());
        std::string text = doc.dump(2);
        const std::string from = std::string("\"") + key + "\"";
        text.replace(text.find(from), from.size(), "\"renamed\"");
        std::string err;
        ExportMeta meta;
        std::vector<ResultRecord> records;
        EXPECT_FALSE(resultsFromJson(Json::parse(text, &err), meta,
                                     records, &err))
            << key;
        EXPECT_NE(err.find(key), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------------
// resultsFromJson: rejection paths
// ---------------------------------------------------------------------

TEST(ResultsImport, RejectsUnknownSchemaVersion)
{
    Json doc = resultsToJson(testMeta(), testRecords());
    doc.set("schema_version", 99);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    EXPECT_FALSE(resultsFromJson(doc, meta, records, &err));
    EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
}

TEST(ResultsImport, RejectsMissingField)
{
    std::string text = resultsToJson(testMeta(), testRecords()).dump(2);
    // Renaming a field makes it both missing (required) and unknown
    // (ignored) in one edit.
    const std::string from = "\"exec_ticks\"";
    std::size_t pos;
    while ((pos = text.find(from)) != std::string::npos)
        text.replace(pos, from.size(), "\"exec_ticksX\"");

    std::string err;
    const Json doc = Json::parse(text, &err);
    ASSERT_EQ(err, "");

    ExportMeta meta;
    std::vector<ResultRecord> records;
    EXPECT_FALSE(resultsFromJson(doc, meta, records, &err));
    EXPECT_NE(err.find("exec_ticks"), std::string::npos) << err;
}

TEST(ResultsImport, RejectsInvalidShardPosition)
{
    // index >= count is an impossible shard position.
    std::string text = shardDoc(0, 2).dump(2);
    const std::string idx = "\"index\": 0";
    const std::size_t pos = text.find(idx);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, idx.size(), "\"index\": 2");

    std::string err;
    const Json doc = Json::parse(text, &err);
    ASSERT_EQ(err, "");
    ExportMeta meta;
    std::vector<ResultRecord> records;
    EXPECT_FALSE(resultsFromJson(doc, meta, records, &err));
    EXPECT_NE(err.find("shard"), std::string::npos) << err;
}

TEST(ResultsImport, RejectsNonObjectAndTruncatedDocuments)
{
    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    EXPECT_FALSE(resultsFromJson(Json(), meta, records, &err));
    EXPECT_FALSE(err.empty());

    // Truncated text fails at the parser, before import.
    const std::string text =
        resultsToJson(testMeta(), testRecords()).dump(2);
    err.clear();
    const Json doc = Json::parse(text.substr(0, text.size() / 2), &err);
    EXPECT_TRUE(doc.isNull());
    EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------
// mergeResults
// ---------------------------------------------------------------------

TEST(MergeResults, ShardsMergeByteIdenticalToUnsharded)
{
    const std::string unsharded =
        resultsToJson(testMeta(), testRecords()).dump(2);

    Json merged;
    std::string err;
    ASSERT_TRUE(mergeResults({shardDoc(0, 2), shardDoc(1, 2)}, merged,
                             &err))
        << err;
    EXPECT_EQ(merged.dump(2), unsharded);

    // Shard file order must not matter.
    ASSERT_TRUE(mergeResults({shardDoc(1, 2), shardDoc(0, 2)}, merged,
                             &err))
        << err;
    EXPECT_EQ(merged.dump(2), unsharded);

    // Single "shard" covering the whole grid merges to itself.
    ASSERT_TRUE(mergeResults({resultsToJson(testMeta(),
                                            testRecords())},
                             merged, &err))
        << err;
    EXPECT_EQ(merged.dump(2), unsharded);
}

TEST(MergeResults, DetectsDuplicateCells)
{
    Json merged;
    std::string err;
    EXPECT_FALSE(mergeResults({shardDoc(0, 2), shardDoc(0, 2)}, merged,
                              &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(MergeResults, DetectsMissingCells)
{
    Json merged;
    std::string err;
    EXPECT_FALSE(mergeResults({shardDoc(0, 2)}, merged, &err));
    EXPECT_NE(err.find("missing"), std::string::npos) << err;
    // The missing cells are the odd-indexed ones, named by workload.
    EXPECT_NE(err.find("alpha"), std::string::npos) << err;
}

TEST(MergeResults, RejectsIncompatibleShards)
{
    Json merged;
    std::string err;

    // Different workload axis.
    {
        Json other = shardDoc(1, 2);
        Json grid = *other.find("grid");
        Json workloads = Json::array();
        workloads.push(Json("alpha"));
        workloads.push(Json("gamma"));
        grid.set("workloads", std::move(workloads));
        other.set("grid", std::move(grid));
        EXPECT_FALSE(mergeResults({shardDoc(0, 2), other}, merged,
                                  &err));
        EXPECT_NE(err.find("grid axes"), std::string::npos) << err;
    }
    // Different scale.
    {
        Json other = shardDoc(1, 2);
        Json grid = *other.find("grid");
        grid.set("scale", 0.5);
        other.set("grid", std::move(grid));
        EXPECT_FALSE(mergeResults({shardDoc(0, 2), other}, merged,
                                  &err));
        EXPECT_NE(err.find("scale"), std::string::npos) << err;
    }
    // Different seed.
    {
        Json other = shardDoc(1, 2);
        Json grid = *other.find("grid");
        grid.set("seed", std::uint64_t(99));
        other.set("grid", std::move(grid));
        EXPECT_FALSE(mergeResults({shardDoc(0, 2), other}, merged,
                                  &err));
        EXPECT_NE(err.find("seed"), std::string::npos) << err;
    }
    // Different shard count.
    {
        EXPECT_FALSE(mergeResults({shardDoc(0, 3), shardDoc(1, 2)},
                                  merged, &err));
        EXPECT_NE(err.find("shard"), std::string::npos) << err;
    }
}

TEST(MergeResults, JobsIsMaxAcrossShardsAndOrderIndependent)
{
    // Each shard records the worker count of its own invocation; the
    // merged document must not depend on file order (it used to take
    // whichever shard came first).
    auto shardWithJobs = [](unsigned index, unsigned jobs) {
        ExportMeta meta = testMeta();
        meta.shard_index = index;
        meta.shard_count = 2;
        meta.jobs = jobs;
        const std::vector<ResultRecord> all = testRecords();
        std::vector<ResultRecord> mine;
        for (std::size_t i = 0; i < all.size(); ++i)
            if (i % 2 == index)
                mine.push_back(all[i]);
        return resultsToJson(meta, mine);
    };

    Json merged;
    std::string err;
    ASSERT_TRUE(mergeResults({shardWithJobs(0, 2), shardWithJobs(1, 16)},
                             merged, &err))
        << err;
    EXPECT_EQ(merged.find("grid")->find("jobs")->asU64(), 16u);

    Json flipped;
    ASSERT_TRUE(mergeResults({shardWithJobs(1, 16), shardWithJobs(0, 2)},
                             flipped, &err))
        << err;
    EXPECT_EQ(flipped.dump(2), merged.dump(2));

    // Equal jobs across shards keeps the historical value unchanged.
    ASSERT_TRUE(mergeResults({shardWithJobs(0, 3), shardWithJobs(1, 3)},
                             merged, &err))
        << err;
    EXPECT_EQ(merged.dump(2),
              resultsToJson(testMeta(), testRecords()).dump(2));
}

// ---------------------------------------------------------------------
// Cost-balanced sharding: the assignment stamp
// ---------------------------------------------------------------------

namespace
{

/** shardDoc() with an LPT assignment stamp in the shard object. */
Json
lptShardDoc(unsigned index, unsigned count, std::uint64_t digest)
{
    ExportMeta meta = testMeta();
    meta.shard_index = index;
    meta.shard_count = count;
    meta.shard_assignment = "lpt";
    meta.shard_cost_digest = digest;
    const std::vector<ResultRecord> all = testRecords();
    std::vector<ResultRecord> mine;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (i % count == index) // stripe stands in for a real LPT plan
            mine.push_back(all[i]);
    return resultsToJson(meta, mine);
}

} // namespace

TEST(ShardAssignment, StampRoundTripsAndModuloStaysStampFree)
{
    const Json doc = lptShardDoc(0, 2, 0xfeedface12345678ull);
    const Json *shard = doc.find("grid")->find("shard");
    ASSERT_NE(shard, nullptr);
    ASSERT_NE(shard->find("assignment"), nullptr);
    EXPECT_EQ(shard->find("assignment")->asString(), "lpt");
    EXPECT_EQ(shard->find("cost_digest")->asString(),
              "feedface12345678");

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(doc), meta, records, &err))
        << err;
    EXPECT_EQ(meta.shard_assignment, "lpt");
    EXPECT_EQ(meta.shard_cost_digest, 0xfeedface12345678ull);
    EXPECT_EQ(resultsToJson(meta, records).dump(2), doc.dump(2));

    // Modulo-sharded exports carry an empty stamp.
    const Json modulo = shardDoc(0, 2);
    const Json *mshard = modulo.find("grid")->find("shard");
    ASSERT_NE(mshard, nullptr);
    EXPECT_EQ(mshard->find("assignment")->asString(), "");
    EXPECT_EQ(mshard->find("cost_digest")->asString(),
              "0000000000000000");
}

TEST(ShardAssignment, MergedLptShardsDropTheStamp)
{
    // The merged document covers the full grid, so the planning stamp
    // is gone along with the shard object — byte-identical to an
    // unsharded export.
    Json merged;
    std::string err;
    ASSERT_TRUE(mergeResults({lptShardDoc(0, 2, 7), lptShardDoc(1, 2, 7)},
                             merged, &err))
        << err;
    EXPECT_EQ(merged.dump(2),
              resultsToJson(testMeta(), testRecords()).dump(2));
}

TEST(ShardAssignment, MergeRejectsMixedAssignmentStrategies)
{
    Json merged;
    std::string err;

    // LPT shard + modulo shard: planned by different strategies, so
    // coverage cannot be trusted.
    EXPECT_FALSE(mergeResults({lptShardDoc(0, 2, 7), shardDoc(1, 2)},
                              merged, &err));
    EXPECT_NE(err.find("assignment"), std::string::npos) << err;
    EXPECT_NE(err.find("modulo"), std::string::npos) << err;

    // Same strategy, different cost models: same problem.
    EXPECT_FALSE(mergeResults({lptShardDoc(0, 2, 7), lptShardDoc(1, 2, 8)},
                              merged, &err));
    EXPECT_NE(err.find("assignment"), std::string::npos) << err;
}

TEST(ShardAssignment, ImportRejectsMalformedStamps)
{
    // An empty assignment means modulo striping, which no cost model
    // drives: a nonzero digest beside it is corrupt.
    std::string text = lptShardDoc(0, 2, 7).dump(2);
    const std::string from = "\"assignment\": \"lpt\"";
    std::size_t pos = text.find(from);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, from.size(), "\"assignment\": \"\"");
    std::string err;
    Json doc = Json::parse(text, &err);
    ASSERT_EQ(err, "");
    ExportMeta meta;
    std::vector<ResultRecord> records;
    EXPECT_FALSE(resultsFromJson(doc, meta, records, &err));
    EXPECT_NE(err.find("assignment"), std::string::npos) << err;

    // A cost digest that is not 16 lowercase hex digits is corrupt.
    text = lptShardDoc(0, 2, 7).dump(2);
    const std::string dig = "\"cost_digest\": \"0000000000000007\"";
    pos = text.find(dig);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, dig.size(), "\"cost_digest\": \"xyz\"");
    doc = Json::parse(text, &err);
    ASSERT_EQ(err, "");
    EXPECT_FALSE(resultsFromJson(doc, meta, records, &err));
    EXPECT_NE(err.find("cost_digest"), std::string::npos) << err;
}

TEST(MergeResults, RejectsEmptyAndBrokenInputs)
{
    Json merged;
    std::string err;
    EXPECT_FALSE(mergeResults({}, merged, &err));
    EXPECT_FALSE(err.empty());

    Json broken = shardDoc(0, 2);
    broken.set("schema_version", 99);
    EXPECT_FALSE(mergeResults({broken, shardDoc(1, 2)}, merged, &err));
    EXPECT_NE(err.find("schema_version"), std::string::npos) << err;

    // Ambiguous design labels (two spellings of the same design)
    // make cell identity undecidable.
    Json ambiguous = resultsToJson(
        [] {
            ExportMeta m = testMeta();
            m.designs = {"vc", "vc_noopt"};
            return m;
        }(),
        {makeRecord("alpha", MmuDesign::kVcNoOpt, 1),
         makeRecord("beta", MmuDesign::kVcNoOpt, 2)});
    EXPECT_FALSE(mergeResults({ambiguous}, merged, &err));
    EXPECT_NE(err.find("ambiguous"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Design preset, then ordered SoC overrides (the design-collapse fix)
// ---------------------------------------------------------------------

namespace
{

/** The SoC overrides gvc_sweep's rows record for @p args. */
SocOverrides
socFlags(std::vector<std::string> args)
{
    SocOverrides soc;
    std::vector<char *> argv{const_cast<char *>("gvc_test")};
    for (std::string &a : args)
        argv.push_back(a.data());
    EXPECT_FALSE(parseCommandLine("gvc_test", "", socOptions(soc),
                                  int(argv.size()), argv.data()));
    return soc;
}

} // namespace

TEST(RawDesignIntent, CarriesStructuralIdentityPerDesign)
{
    const SocOverrides user = socFlags({"--percu-tlb", "64"});

    const SocConfig ideal = resolveSoc(MmuDesign::kIdeal, user);
    EXPECT_TRUE(ideal.percu_tlb_infinite);
    EXPECT_TRUE(ideal.iommu.tlb_infinite);
    EXPECT_TRUE(ideal.iommu.unlimited_bw);

    const SocConfig base512 = resolveSoc(MmuDesign::kBaseline512, user);
    EXPECT_EQ(base512.percu_tlb_entries, 64u); // user's, kept
    EXPECT_EQ(base512.iommu.tlb_entries, 512u);
    EXPECT_FALSE(base512.percu_tlb_infinite);
    EXPECT_FALSE(base512.fbt_as_second_level_tlb);

    const SocConfig vcopt = resolveSoc(MmuDesign::kVcOpt, user);
    EXPECT_TRUE(vcopt.fbt_as_second_level_tlb);
    EXPECT_EQ(vcopt.iommu.tlb_entries, 512u);

    const SocConfig large = resolveSoc(MmuDesign::kBaselineLargeTlb, user);
    EXPECT_EQ(large.percu_tlb_entries, 64u); // user's, kept
    EXPECT_EQ(large.iommu.tlb_entries, 16u * 1024u);
}

TEST(RawDesignIntent, ExplicitDefaultValuedFlagIsPreserved)
{
    // The old sentinel comparison (value == struct default) silently
    // replaced an explicit `--iommu-tlb 512` with the design's size
    // because 512 is also IommuParams's default.  An override applied
    // after the preset cannot lose that way.
    const SocConfig cfg = resolveSoc(MmuDesign::kBaseline16K,
                                     socFlags({"--iommu-tlb", "512"}));
    EXPECT_EQ(cfg.iommu.tlb_entries, 512u);

    // Without the explicit flag the design's size wins.
    const SocConfig cfg2 = resolveSoc(MmuDesign::kBaseline16K,
                                      socFlags({"--fbt-entries", "8192"}));
    EXPECT_EQ(cfg2.iommu.tlb_entries, 16u * 1024u);
    EXPECT_EQ(cfg2.fbt.entries, 8192u);

    // baseline-large-tlb gets its 128-entry per-CU TLB when the user
    // did not override it (the old carry-over never touched it).
    const SocConfig cfg3 = resolveSoc(MmuDesign::kBaselineLargeTlb, {});
    EXPECT_EQ(cfg3.percu_tlb_entries, 128u);
}

TEST(RawDesignIntent, NoOpOutsideRawMode)
{
    // With no SoC flag a run's SoC is exactly the design's preset, the
    // config a plain (non-raw) RunConfig resolves to.
    for (const DesignRow &row : kDesignRows) {
        RunConfig plain;
        plain.design = row.design;
        const RunConfig cfg = runConfigFor(row.design, {}, {});
        EXPECT_EQ(socConfigToJson(cfg.soc).dump(),
                  socConfigToJson(effectiveSoc(plain)).dump())
            << row.label;
        EXPECT_EQ(runConfigKey("bfs", cfg), runConfigKey("bfs", plain))
            << row.label;
    }
}

TEST(RawDesignIntent, OverridesApplyInArgvOrder)
{
    // The last of two flags setting one field wins, and flags that
    // touch different fields compose.
    const SocConfig cfg = resolveSoc(
        MmuDesign::kBaseline512,
        socFlags({"--percu-tlb", "64", "--cus", "4", "--percu-tlb", "16",
                  "--tlb-replacement", "srrip"}));
    EXPECT_EQ(cfg.percu_tlb_entries, 16u);
    EXPECT_EQ(cfg.gpu.num_cus, 4u);
    EXPECT_EQ(cfg.tlb_replacement, unsigned(kTlbReplSrrip));
    EXPECT_EQ(cfg.iommu.tlb_entries, 512u);
}

/**
 * Regression for the design-collapse bug: a raw sweep (`--percu-tlb
 * 64`) must still produce different results for different designs.
 * Before the fix every cell simulated the same SoC.
 */
TEST(RawDesignIntent, RawSweepStillDistinguishesDesigns)
{
    const SocOverrides user = socFlags({"--percu-tlb", "64"});
    WorkloadParams params;
    params.scale = 0.05;

    std::vector<Tick> ticks;
    for (const MmuDesign d :
         {MmuDesign::kIdeal, MmuDesign::kBaseline512,
          MmuDesign::kVcOpt}) {
        ticks.push_back(
            runWorkload("hotspot", runConfigFor(d, params, user))
                .exec_ticks);
    }
    EXPECT_NE(ticks[0], ticks[1]);
    EXPECT_NE(ticks[0], ticks[2]);
    EXPECT_NE(ticks[1], ticks[2]);
}

// ---------------------------------------------------------------------
// Checked CLI parsing
// ---------------------------------------------------------------------

TEST(CliParse, AcceptsWellFormedNumbers)
{
    std::uint64_t u64 = 1;
    EXPECT_EQ(parseValue("--seed", "0", u64), "");
    EXPECT_EQ(u64, 0u);
    EXPECT_EQ(parseValue("--seed", "18446744073709551615", u64), "");
    EXPECT_EQ(u64, 0xffffffffffffffffull);
    unsigned u = 0;
    EXPECT_EQ(parseValue("--cus", "16", u), "");
    EXPECT_EQ(u, 16u);
    EXPECT_EQ(parseValue("--cus", "4294967295", u), "");
    EXPECT_EQ(u, 0xffffffffu);
    double d = 0.0;
    EXPECT_EQ(parseValue("--scale", "0.5", d), "");
    EXPECT_DOUBLE_EQ(d, 0.5);
    EXPECT_EQ(parseValue("--scale", "2e-3", d), "");
    EXPECT_DOUBLE_EQ(d, 0.002);
}

namespace
{

/** Success when @p err contains @p needle. */
::testing::AssertionResult
errorNames(const CliError &err, const std::string &needle)
{
    if (err.find(needle) != std::string::npos)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "error '" << err << "' does not name '" << needle << "'";
}

} // namespace

TEST(CliParse, RejectsMalformedNumbers)
{
    std::uint64_t u64 = 7;
    EXPECT_TRUE(errorNames(parseValue("--seed", "12ab", u64), "--seed"));
    EXPECT_TRUE(errorNames(parseValue("--seed", "-1", u64), "--seed"));
    EXPECT_TRUE(errorNames(parseValue("--seed", "", u64), "--seed"));
    EXPECT_TRUE(errorNames(
        parseValue("--seed", "18446744073709551616", u64), "--seed"));
    EXPECT_EQ(u64, 7u); // a rejected value leaves the target alone
    unsigned u = 0;
    EXPECT_TRUE(errorNames(parseValue("--cus", "-4", u), "--cus"));
    EXPECT_TRUE(
        errorNames(parseValue("--cus", "4294967296", u), "out of range"));
    double d = 0.0;
    EXPECT_TRUE(errorNames(parseValue("--scale", "fast", d), "--scale"));
    EXPECT_TRUE(errorNames(parseValue("--scale", "", d), "--scale"));
    EXPECT_TRUE(errorNames(parseValue("--scale", "1.5x", d), "--scale"));
    EXPECT_TRUE(errorNames(parseValue("--scale", "inf", d), "--scale"));
}

namespace
{

/** Run the parse loop over @p table; returns its status and stderr. */
std::optional<int>
parseArgs(const OptionTable &table, std::vector<std::string> args,
          std::string &err)
{
    std::vector<char *> argv{const_cast<char *>("gvc_test")};
    for (std::string &a : args)
        argv.push_back(a.data());
    ::testing::internal::CaptureStderr();
    const auto rc = parseCommandLine("gvc_test", "[options]", table,
                                     int(argv.size()), argv.data());
    err = ::testing::internal::GetCapturedStderr();
    return rc;
}

} // namespace

TEST(CliParse, UsageErrorsNameTheFlagAndExitTwo)
{
    GridAxes grid;
    WorkloadParams params;
    SocOverrides soc;
    const OptionTable table = concat(
        {{workloadsOption(grid, "all"), designsOption(grid, "ideal"),
          jobsOption(grid)},
         workloadParamOptions(params), socOptions(soc)});
    std::string err;

    // Each case: one stderr line that names the offending flag or
    // argument, and exit status 2.
    const std::vector<std::pair<std::vector<std::string>, std::string>>
        cases = {
            {{"--scale"}, "--scale: missing value"},
            {{"--seed", "1", "--jobs"}, "--jobs: missing value"},
            {{"--bogus"}, "unknown option '--bogus'"},
            {{"stray"}, "unexpected argument 'stray'"},
            {{"-d", "vc,warp-drive"}, "--designs: unknown design"},
            {{"--tlb-fill-policy", "mru"},
             "--tlb-fill-policy: unknown value 'mru'"},
            {{"--tlb-replacement", "fifo"}, "--tlb-replacement"},
            {{"--cus", "-4"}, "--cus"},
            {{"-w", ","}, "--workloads: no workloads selected"},
        };
    for (const auto &[args, want] : cases) {
        EXPECT_EQ(parseArgs(table, args, err), 2) << want;
        EXPECT_TRUE(errorNames(err, want));
        EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << err;
    }

    // A well-formed line parses, and later flags override earlier ones.
    EXPECT_EQ(parseArgs(table,
                        {"-w", "bfs,mis", "-d", "all", "-j", "3",
                         "--scale", "0.25", "-d", "vc-opt,ideal"},
                        err),
              std::nullopt)
        << err;
    EXPECT_EQ(grid.workloads, (std::vector<std::string>{"bfs", "mis"}));
    EXPECT_EQ(grid.designs,
              (std::vector<MmuDesign>{MmuDesign::kVcOpt, MmuDesign::kIdeal}));
    EXPECT_EQ(grid.design_labels,
              (std::vector<std::string>{"vc-opt", "ideal"}));
    EXPECT_EQ(grid.jobs, 3u);
    EXPECT_DOUBLE_EQ(params.scale, 0.25);
}

TEST(CliParse, HelpListsEveryRowAndDesign)
{
    GridAxes grid;
    SocOverrides soc;
    const OptionTable table = concat(
        {{workloadsOption(grid, "all"), designsOption(grid, "ideal")},
         socOptions(soc)});
    std::vector<std::string> args{"gvc_test", "--help"};
    std::vector<char *> argv{args[0].data(), args[1].data()};
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(parseCommandLine("gvc_test", "[options]", table, 2,
                               argv.data()),
              0);
    const std::string help = ::testing::internal::GetCapturedStdout();
    for (const Option &row : table)
        EXPECT_NE(help.find(row.name), std::string::npos) << row.name;
    for (const DesignRow &row : kDesignRows)
        EXPECT_NE(help.find(row.spellings[0]), std::string::npos)
            << row.label;
}

TEST(CliParse, AllDesignsExpandInDesignOrder)
{
    GridAxes grid;
    ASSERT_EQ(expandDesigns("--designs", "all", grid), "");
    ASSERT_EQ(grid.designs.size(), std::size(kDesignRows));
    for (std::size_t i = 0; i < grid.designs.size(); ++i)
        EXPECT_EQ(grid.designs[i], kDesignRows[i].design);
    EXPECT_EQ(grid.design_labels.front(), "ideal");
    EXPECT_EQ(grid.design_labels[3], "baseline_large_tlb");
}

TEST(CliParse, WriteOutputReportsFailure)
{
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(writeOutput("gvc_test", "/nonexistent-dir/out.json", "{}"));
    EXPECT_TRUE(errorNames(::testing::internal::GetCapturedStderr(),
                           "gvc_test: cannot write '/nonexistent-dir"));
    if (FILE *probe = std::fopen("/dev/full", "wb")) {
        std::fclose(probe);
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(writeOutput("gvc_test", "/dev/full", "{}"));
        EXPECT_TRUE(errorNames(::testing::internal::GetCapturedStderr(),
                               "cannot write '/dev/full'"));
    }
}

TEST(CliParse, ShardSpecs)
{
    ShardSpec s;
    ASSERT_EQ(parseShardSpec("0/1", s), "");
    EXPECT_EQ(s.index, 0u);
    EXPECT_EQ(s.count, 1u);
    ASSERT_EQ(parseShardSpec("3/4", s), "");
    EXPECT_EQ(s.index, 3u);
    EXPECT_EQ(s.count, 4u);

    for (const char *bad :
         {"", "1", "/2", "1/", "2/2", "4/3", "1/0", "a/b", "-1/2",
          "1/2/3", "0x1/2"}) {
        EXPECT_NE(parseShardSpec(bad, s), "") << "accepted '" << bad << "'";
    }
}

TEST(CliParse, DesignSpellings)
{
    MmuDesign d;
    EXPECT_TRUE(tryParseDesign("vc-opt", d));
    EXPECT_EQ(d, MmuDesign::kVcOpt);
    EXPECT_TRUE(tryParseDesign("vc_opt", d));
    EXPECT_EQ(d, MmuDesign::kVcOpt);
    EXPECT_TRUE(tryParseDesign("Baseline512", d));
    EXPECT_EQ(d, MmuDesign::kBaseline512);
    EXPECT_TRUE(tryParseDesign("baseline-large-tlb", d));
    EXPECT_EQ(d, MmuDesign::kBaselineLargeTlb);
    EXPECT_FALSE(tryParseDesign("warp-drive", d));

    // The canonical display names reverse back to the enum (used by
    // the importer to recover each record's design).
    for (const MmuDesign want :
         {MmuDesign::kIdeal, MmuDesign::kBaseline512,
          MmuDesign::kVcOpt, MmuDesign::kL1Vc128}) {
        MmuDesign got;
        ASSERT_TRUE(designFromName(designName(want), got));
        EXPECT_EQ(got, want);
    }
    MmuDesign got;
    EXPECT_FALSE(designFromName("No Such Design", got));
}
