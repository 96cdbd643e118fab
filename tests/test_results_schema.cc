/**
 * @file
 * Results schema v4 against the files older versions wrote
 * (tests/compat/): each v1–v3 golden imports and holds the same values
 * as its v4 regeneration, a pre-v4 journal loads but cannot be resumed,
 * and shards of different versions never merge.  Plus the strict
 * integer reader every importer shares: negative, fractional,
 * exponent, and out-of-range integers are rejected by dotted path.
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/journal.hh"
#include "harness/plan.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"

using namespace gvc;

namespace
{

std::string
dataPath(const std::string &name)
{
    return std::string(GVC_TEST_DATA_DIR) + "/" + name;
}

Json
readJson(const std::string &name)
{
    std::ifstream in(dataPath(name));
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    const Json doc = Json::parse(ss.str(), &err);
    EXPECT_EQ(err, "") << name;
    return doc;
}

/**
 * Walk @p now (a v4 document or record) beside @p old (the same run as
 * an older version wrote it): every value the old one holds must be
 * identical in the new one, and every value it lacks must equal
 * @p defaults — the v4 re-export of the imported old file, i.e. zero,
 * empty, or the importer's default (an unsharded grid is shard 0 of 1).
 * The one exception is the *_tlb_refs histograms, which writers before
 * v3 dropped although every run collects them; there the new data must
 * at least be a well-formed histogram.
 */
void
expectCompatible(const Json *old, const Json &now, const Json &defaults,
                 const std::string &path)
{
    if (path.size() >= 9 &&
        path.compare(path.size() - 9, 9, "_tlb_refs") == 0 && !old) {
        const Json &buckets = *now.find("buckets");
        std::uint64_t sum = 0;
        for (std::size_t b = 0; b < buckets.size(); ++b)
            sum += buckets.at(b).asU64();
        EXPECT_EQ(sum, now.find("retired")->asU64()) << path;
        EXPECT_EQ(buckets.at(0).asU64(), now.find("dead")->asU64())
            << path;
        return;
    }
    if (!old) {
        EXPECT_EQ(now.dump(), defaults.dump()) << path;
        return;
    }
    if (now.isObject()) {
        for (const auto &[key, value] : now.members())
            if (path != "" || key != "schema_version")
                expectCompatible(old->find(key), value,
                                 *defaults.find(key), path + "." + key);
        for (const auto &[key, value] : old->members())
            EXPECT_NE(now.find(key), nullptr) << path << "." << key;
    } else if (now.isArray()) {
        ASSERT_EQ(old->size(), now.size()) << path;
        for (std::size_t i = 0; i < now.size(); ++i)
            expectCompatible(&old->at(i), now.at(i), defaults.at(i),
                             path + "[" + std::to_string(i) + "]");
    } else {
        EXPECT_EQ(old->dump(), now.dump()) << path;
    }
}

struct CompatCase
{
    const char *old_file;
    const char *golden;
    int version;
};

const CompatCase kCompatCases[] = {
    {"compat/POLICY_SMOKE_LRU_V1.json", "POLICY_SMOKE_LRU.json", 1},
    {"compat/POLICY_SMOKE_SRRIP_V1.json", "POLICY_SMOKE_SRRIP.json", 1},
    {"compat/POLICY_SMOKE_BYPASS_V1.json", "POLICY_SMOKE_BYPASS.json", 1},
    {"compat/TENANTS_SMOKE_V3.json", "TENANTS_SMOKE.json", 3},
};

/** @p text with the first `"key": value` member's value replaced. */
std::string
withValue(std::string text, const std::string &key,
          const std::string &value)
{
    const std::string from = "\"" + key + "\": ";
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + from.size();
    const std::size_t end = text.find_first_of(",\n}", begin);
    return text.replace(begin, end - begin, value);
}

/** Import the v4 LRU golden with one value edited; "" on success. */
std::string
importError(const std::string &key, const std::string &value)
{
    const std::string text =
        withValue(readJson("POLICY_SMOKE_LRU.json").dump(2), key, value);
    std::string err;
    const Json doc = Json::parse(text, &err);
    EXPECT_EQ(err, "");
    ExportMeta meta;
    std::vector<ResultRecord> records;
    return resultsFromJson(doc, meta, records, &err) ? "" : err;
}

} // namespace

// ---------------------------------------------------------------------
// Old files against their v4 regenerations
// ---------------------------------------------------------------------

TEST(ResultsCompat, LegacyGoldensHoldTheSameValuesAsV4)
{
    for (const CompatCase &c : kCompatCases) {
        SCOPED_TRACE(c.old_file);
        const Json old = readJson(c.old_file);
        const Json now = readJson(c.golden);
        ExportMeta old_meta, now_meta;
        std::vector<ResultRecord> old_records, now_records;
        std::string err;
        ASSERT_TRUE(resultsFromJson(old, old_meta, old_records, &err))
            << err;
        ASSERT_TRUE(resultsFromJson(now, now_meta, now_records, &err))
            << err;
        EXPECT_EQ(old_meta.schema_version, c.version);
        EXPECT_EQ(now_meta.schema_version, kResultsSchemaVersion);
        EXPECT_EQ(now.find("schema_version")->asU64(),
                  std::uint64_t(kResultsSchemaVersion));
        expectCompatible(&old, now, resultsToJson(old_meta, old_records),
                         "");
    }
}

TEST(ResultsCompat, V2ScenarioRecordHoldsTheSameValuesAsV4)
{
    // The v2 fixture is `gvc_run -w pagerank -d vc-opt --scale 0.1
    // --kernels 3 --json`: a bare record, without workload_params.
    RunConfig cfg;
    cfg.design = MmuDesign::kVcOpt;
    cfg.workload.scale = 0.1;
    ScenarioSpec spec;
    spec.rounds = 3;
    const SocConfig effective = configFor(cfg.design, cfg.soc);
    const Json now =
        runResultToJson(runScenario("pagerank", cfg, spec), &effective);

    Json old = readJson("compat/SCENARIO_PAGERANK_V2.json");
    ASSERT_EQ(old.find("kernels")->size(), 3u);
    Json record = old;
    record.set("workload_params", workloadParamsToJson(cfg.workload));
    ResultRecord imported;
    std::string err;
    ASSERT_TRUE(resultRecordFromJson(record, imported, &err,
                                     kResultsSchemaVersionKernels))
        << err;
    expectCompatible(&old, now,
                     runResultToJson(imported.result, &imported.cfg.soc),
                     "");
}

TEST(ResultsCompat, MergeRefusesShardsOfDifferentVersions)
{
    // The same grid as v1 and as v4: versions never mix in a merge.
    Json merged;
    std::string err;
    EXPECT_FALSE(mergeResults({readJson("POLICY_SMOKE_LRU.json"),
                               readJson("compat/POLICY_SMOKE_LRU_V1.json")},
                              merged, &err));
    EXPECT_NE(err.find("schema_version 1 differs from shard 0's 4"),
              std::string::npos)
        << err;
}

TEST(ResultsCompat, PreV4JournalLoadsButIsNotResumable)
{
    const std::string path = dataPath("compat/SWEEP_PRE_V4.gvcj");
    ExportMeta meta;
    std::vector<JournalEntry> entries;
    std::string err;
    ASSERT_TRUE(readJournal(path, meta, entries, &err)) << err;
    EXPECT_EQ(meta.schema_version, kResultsSchemaVersionPlain);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].record.result.workload, "hotspot");

    // Resuming it is refused by name, even for the very same grid.
    ExportMeta run = meta;
    run.schema_version = kResultsSchemaVersion;
    EXPECT_FALSE(journalMatchesGrid(meta, run, &err));
    EXPECT_NE(err.find("results schema v1"), std::string::npos) << err;

    // As a cost model it still serves.
    CostModel model;
    ASSERT_TRUE(model.load(path, &err)) << err;
    for (const JournalEntry &e : entries)
        EXPECT_DOUBLE_EQ(model.costFor("hotspot",
                                       designName(e.record.result.design)),
                         double(e.record.result.exec_ticks));
}

// ---------------------------------------------------------------------
// Strict integers
// ---------------------------------------------------------------------

TEST(ResultsImport, RejectsNegativeInteger)
{
    const std::string err = importError("exec_ticks", "-1");
    EXPECT_NE(err.find("results[0].exec_ticks: expected a non-negative "
                       "decimal integer"),
              std::string::npos)
        << err;
}

TEST(ResultsImport, RejectsFractionalInteger)
{
    const std::string err = importError("l1_assoc", "4.9");
    EXPECT_NE(err.find("results[0].soc.l1_assoc"), std::string::npos)
        << err;
    // A zero fraction is still not a plain decimal.
    EXPECT_NE(importError("l1_assoc", "4.0"), "");
}

TEST(ResultsImport, RejectsExponentInteger)
{
    const std::string err = importError("percu_tlb_entries", "1e3");
    EXPECT_NE(err.find("results[0].soc.percu_tlb_entries"),
              std::string::npos)
        << err;
}

TEST(ResultsImport, RejectsU64Overflow)
{
    EXPECT_EQ(importError("exec_ticks", "18446744073709551615"), "");
    const std::string err =
        importError("exec_ticks", "18446744073709551616");
    EXPECT_NE(err.find("results[0].exec_ticks"), std::string::npos)
        << err;
    EXPECT_NE(err.find("18446744073709551615"), std::string::npos) << err;
}

TEST(ResultsImport, RejectsUnsignedOverflow)
{
    EXPECT_EQ(importError("percu_tlb_entries", "4294967295"), "");
    const std::string err =
        importError("percu_tlb_entries", "4294967296");
    EXPECT_NE(err.find("results[0].soc.percu_tlb_entries: expected a "
                       "non-negative decimal integer no larger than "
                       "4294967295"),
              std::string::npos)
        << err;
}

TEST(ResultsImport, JournalRecordsUseTheStrictReader)
{
    Json record = readJson("POLICY_SMOKE_LRU.json").find("results")->at(0);
    record.set("page_walks", Json(-1.0));
    ResultRecord rec;
    std::string err;
    EXPECT_FALSE(resultRecordFromJson(record, rec, &err));
    EXPECT_NE(err.find("record.page_walks"), std::string::npos) << err;
}

TEST(Json, NumbersFollowTheJsonGrammar)
{
    for (const char *bad : {"01", "+1", "1.", ".5", "1e", "--1", "1-2",
                            "1e+", "-"}) {
        std::string err;
        EXPECT_TRUE(Json::parse(bad, &err).isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    // Lexemes are kept verbatim; only plain decimals read as integers.
    for (const char *good : {"0", "-0.5e+3", "1E3", "4.0", "12"}) {
        std::string err;
        const Json v = Json::parse(good, &err);
        EXPECT_EQ(err, "") << good;
        EXPECT_EQ(v.dump(), good);
        std::uint64_t u = 0;
        EXPECT_EQ(v.toU64(u), std::string(good) == "0" ||
                                  std::string(good) == "12")
            << good;
    }
    std::uint64_t u = 0;
    EXPECT_FALSE(Json::parse("256").toU64(u, 255));
    EXPECT_TRUE(Json::parse("255").toU64(u, 255));
    EXPECT_EQ(u, 255u);
}
