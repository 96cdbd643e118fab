/**
 * @file
 * Tenant subsystem tests: seeded multi-tenant runs are deterministic,
 * a 1-tenant schedule is bit-identical to the plain scenario runner,
 * per-tenant deltas partition the cumulative totals field-exactly, the
 * TLB entry-lifetime histogram is well-formed, and import-only
 * schema-v3 results documents (tenant block + ref histograms) round-trip
 * into v4, merge per shard, and reject every malformed variant.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "harness/tenants.hh"
#include "legacy_schema.hh"
#include "tlb/tlb.hh"

using namespace gvc;
using gvc::test::legacyDoc;

namespace
{

/** Small-but-nontrivial 4-tenant spec exercising every moving part. */
TenantsSpec
fourTenantSpec()
{
    TenantsSpec spec;
    for (const char *w : {"pagerank", "bfs", "hotspot", "backprop"}) {
        TenantSpec t;
        t.workload = w;
        t.params.scale = 0.05;
        spec.tenants.push_back(t);
    }
    spec.rounds = 2;
    spec.sched = TenantSched::kFifo;
    spec.arrival.kind = ArrivalSpec::Kind::kPoisson;
    spec.arrival.interval = 500;
    spec.switch_policy = SwitchPolicy::kAsidShootdown;
    spec.storm.pages = 4;
    spec.storm.period = 1;
    return spec;
}

KernelStats
sumTenants(const RunResult &r)
{
    KernelStats sum;
    for (const TenantStats &t : r.tenants)
        sum = kernelSum(sum, t.stats);
    return sum;
}

KernelStats
sumKernels(const RunResult &r)
{
    KernelStats sum;
    for (const KernelStats &k : r.kernels)
        sum = kernelSum(sum, k);
    return sum;
}

Json
reparse(const Json &doc)
{
    std::string err;
    Json out = Json::parse(doc.dump(2), &err);
    EXPECT_EQ(err, "");
    return out;
}

/** Synthetic base record (mirrors the results-merge test fixture). */
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
    return rec;
}

KernelStats
makeStats(std::uint64_t salt)
{
    KernelStats s;
    std::uint64_t i = 0;
    forEachKernelStat([&](const char *, std::uint64_t &v) {
        v = 1000000 * salt + (i++);
    }, s);
    return s;
}

TlbRefHist
makeRefHist(std::uint64_t salt)
{
    TlbRefHist h;
    for (std::size_t i = 0; i < TlbRefHist::kBuckets; ++i) {
        h.buckets[i] = 10 * salt + i;
        h.retired += h.buckets[i];
    }
    h.dead = h.buckets[0];
    return h;
}

/** makeRecord() plus the full schema-v3 tenant block. */
ResultRecord
makeTenantRecord(const std::string &workload, MmuDesign design,
                 std::uint64_t salt)
{
    ResultRecord rec = makeRecord(workload, design, salt);
    // v3 records may also carry per-slot kernel deltas; include them so
    // the down-stamp rejection test exercises the tenant-key check and
    // not the older kernels requirement.
    rec.result.kernels = {makeStats(100 * salt + 50),
                          makeStats(100 * salt + 51)};
    for (std::uint64_t t = 0; t < 2; ++t) {
        TenantStats ts;
        ts.workload = "tenant" + std::to_string(t);
        ts.launches = 2 + t;
        ts.stats = makeStats(10 * salt + t);
        rec.result.tenants.push_back(ts);
    }
    rec.result.tenant_context_switches = 3 * salt + 1;
    rec.result.tenant_storm_pages = 8 * salt;
    rec.result.percu_tlb_refs = makeRefHist(salt);
    rec.result.iommu_tlb_refs = makeRefHist(salt + 100);
    return rec;
}

/** The canonical 2x2 grid meta shared by the shard tests. */
ExportMeta
testMeta()
{
    ExportMeta meta;
    meta.generator = "gvc_tenants";
    meta.workloads = {"alpha", "beta"};
    meta.designs = {"ideal", "vc_opt"};
    meta.scale = 0.25;
    meta.seed = 0x5eed;
    meta.jobs = 3;
    return meta;
}

std::vector<ResultRecord>
tenantRecords()
{
    return {
        makeTenantRecord("alpha", MmuDesign::kIdeal, 1),
        makeTenantRecord("alpha", MmuDesign::kVcOpt, 2),
        makeTenantRecord("beta", MmuDesign::kIdeal, 3),
        makeTenantRecord("beta", MmuDesign::kVcOpt, 4),
    };
}

/** Export the stripe of tenantRecords() with cell % count == index. */
Json
tenantShardDoc(unsigned index, unsigned count)
{
    ExportMeta meta = testMeta();
    meta.shard_index = index;
    meta.shard_count = count;
    const std::vector<ResultRecord> all = tenantRecords();
    std::vector<ResultRecord> mine;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (i % count == index)
            mine.push_back(all[i]);
    return resultsToJson(meta, mine);
}

} // namespace

// ---------------------------------------------------------------------
// TlbRefHist
// ---------------------------------------------------------------------

TEST(TlbRefHist, BucketsArePowerOfTwoRanges)
{
    // Bucket 0 holds dead entries; bucket b>0 holds [2^(b-1), 2^b).
    EXPECT_EQ(TlbRefHist::bucketOf(0), 0u);
    EXPECT_EQ(TlbRefHist::bucketOf(1), 1u);
    EXPECT_EQ(TlbRefHist::bucketOf(2), 2u);
    EXPECT_EQ(TlbRefHist::bucketOf(3), 2u);
    EXPECT_EQ(TlbRefHist::bucketOf(4), 3u);
    EXPECT_EQ(TlbRefHist::bucketOf(7), 3u);
    EXPECT_EQ(TlbRefHist::bucketOf(8), 4u);
    // The last bucket saturates.
    EXPECT_EQ(TlbRefHist::bucketOf(~0ull), TlbRefHist::kBuckets - 1);
}

TEST(TlbRefHist, RecordTracksRetiredAndDead)
{
    TlbRefHist h;
    h.record(0);
    h.record(0);
    h.record(5);
    EXPECT_EQ(h.retired, 3u);
    EXPECT_EQ(h.dead, 2u);
    EXPECT_EQ(h.buckets[0], 2u);
    EXPECT_EQ(h.buckets[TlbRefHist::bucketOf(5)], 1u);
    EXPECT_DOUBLE_EQ(h.deadFraction(), 2.0 / 3.0);

    TlbRefHist other;
    other.record(1);
    h.merge(other);
    EXPECT_EQ(h.retired, 4u);
    EXPECT_EQ(h.buckets[1], 1u);
}

// ---------------------------------------------------------------------
// runTenants
// ---------------------------------------------------------------------

TEST(Tenants, FourTenantRunIsDeterministic)
{
    RunConfig cfg;
    cfg.design = MmuDesign::kVcOpt;
    const RunResult a = runTenants(fourTenantSpec(), cfg);
    const RunResult b = runTenants(fourTenantSpec(), cfg);

    ASSERT_EQ(a.tenants.size(), 4u);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i)
        EXPECT_EQ(a.tenants[i], b.tenants[i]) << "tenant " << i;
    EXPECT_EQ(a.tenant_context_switches, b.tenant_context_switches);
    EXPECT_EQ(a.tenant_storm_pages, b.tenant_storm_pages);
    EXPECT_GT(a.tenant_context_switches, 0u);
    EXPECT_GT(a.tenant_storm_pages, 0u);

    // Bit-identical through the full serialized record, histograms
    // included.
    EXPECT_EQ(runResultToJson(a).dump(2), runResultToJson(b).dump(2));
}

TEST(Tenants, SingleTenantMatchesPlainScenario)
{
    // One tenant, keep-all switches, no storms, zero-interval arrivals:
    // the schedule degenerates to the scenario runner's trace, so the
    // results must be bit-identical (the N=1 equivalence property).
    RunConfig cfg;
    cfg.design = MmuDesign::kVcOpt;
    cfg.workload.scale = 0.05;

    ScenarioSpec sspec;
    sspec.rounds = 3;
    sspec.boundary = BoundaryPolicy::keepAll();
    const RunResult plain = runScenario("pagerank", cfg, sspec);

    TenantsSpec tspec;
    TenantSpec t;
    t.workload = "pagerank";
    t.params = cfg.workload;
    tspec.tenants.push_back(t);
    tspec.rounds = 3;
    tspec.sched = TenantSched::kSerial;
    tspec.switch_policy = SwitchPolicy::kKeepAll;
    RunResult tenant = runTenants(tspec, cfg);

    ASSERT_EQ(tenant.tenants.size(), 1u);
    // Every launch belongs to the single tenant, `rounds` rounds of the
    // captured kernel sequence.
    EXPECT_GT(tenant.tenants[0].launches, 0u);
    EXPECT_EQ(tenant.tenants[0].launches % 3, 0u);
    EXPECT_EQ(tenant.tenant_context_switches, 0u);
    EXPECT_EQ(tenant.tenant_storm_pages, 0u);

    // Same physics: the lifetime histograms agree exactly too.
    EXPECT_EQ(tenant.percu_tlb_refs, plain.percu_tlb_refs);
    EXPECT_EQ(tenant.iommu_tlb_refs, plain.iommu_tlb_refs);

    // Strip the tenant attribution block and the remaining record must
    // serialize byte-identically to the plain scenario run.
    tenant.tenants.clear();
    EXPECT_EQ(runResultToJson(tenant).dump(2),
              runResultToJson(plain).dump(2));
}

TEST(Tenants, PerTenantDeltasSumExactlyToTotals)
{
    RunConfig cfg;
    cfg.design = MmuDesign::kBaseline512;
    const TenantsSpec spec = fourTenantSpec();
    const RunResult r = runTenants(spec, cfg);

    ASSERT_EQ(r.tenants.size(), 4u);
    ASSERT_FALSE(r.kernels.empty());

    // The per-tenant and per-slot partitions of the timeline must both
    // telescope to the same cumulative totals, field-exactly.
    const KernelStats by_tenant = sumTenants(r);
    EXPECT_EQ(by_tenant, sumKernels(r));
    EXPECT_EQ(by_tenant.exec_ticks, r.exec_ticks);
    EXPECT_EQ(by_tenant.instructions, r.instructions);
    EXPECT_EQ(by_tenant.mem_instructions, r.mem_instructions);
    EXPECT_EQ(by_tenant.tlb_accesses, r.tlb_accesses);
    EXPECT_EQ(by_tenant.tlb_misses, r.tlb_misses);
    EXPECT_EQ(by_tenant.iommu_accesses, r.iommu_accesses);
    EXPECT_EQ(by_tenant.page_walks, r.page_walks);
    EXPECT_EQ(by_tenant.l1_accesses, r.l1_accesses);
    EXPECT_EQ(by_tenant.l2_accesses, r.l2_accesses);
    EXPECT_EQ(by_tenant.dram_accesses, r.dram_accesses);
    EXPECT_EQ(by_tenant.dram_bytes, r.dram_bytes);
    EXPECT_EQ(by_tenant.fbt_lookups, r.fbt_lookups);
    EXPECT_EQ(by_tenant.synonym_replays, r.synonym_replays);

    // One delta per scheduler slot, and every launch is attributed to
    // exactly one tenant (a slot may hold several kernel launches).
    EXPECT_EQ(r.kernels.size(), r.tenants.size() * spec.rounds);
    std::uint64_t launches = 0;
    for (const TenantStats &t : r.tenants) {
        EXPECT_GT(t.launches, 0u) << t.workload;
        launches += t.launches;
    }
    EXPECT_GE(launches, r.kernels.size());
}

TEST(Tenants, NameTablesRoundTrip)
{
    for (const SwitchPolicy p :
         {SwitchPolicy::kKeepAll, SwitchPolicy::kFlushL1,
          SwitchPolicy::kFlushAll, SwitchPolicy::kAsidShootdown}) {
        SwitchPolicy back;
        ASSERT_TRUE(switchPolicyFromName(switchPolicyName(p), back));
        EXPECT_EQ(back, p);
    }
    for (const TenantSched s :
         {TenantSched::kSerial, TenantSched::kFifo,
          TenantSched::kRoundRobin}) {
        TenantSched back;
        ASSERT_TRUE(tenantSchedFromName(tenantSchedName(s), back));
        EXPECT_EQ(back, s);
    }
    for (const ArrivalSpec::Kind k :
         {ArrivalSpec::Kind::kFixed, ArrivalSpec::Kind::kPoisson}) {
        ArrivalSpec::Kind back;
        ASSERT_TRUE(arrivalKindFromName(arrivalKindName(k), back));
        EXPECT_EQ(back, k);
    }
    SwitchPolicy p;
    EXPECT_FALSE(switchPolicyFromName("bogus", p));
    TenantSched s;
    EXPECT_FALSE(tenantSchedFromName("bogus", s));
    ArrivalSpec::Kind k;
    EXPECT_FALSE(arrivalKindFromName("bogus", k));
}

// ---------------------------------------------------------------------
// Schema version 3 (import-only): tenant block + lifetime histograms
// ---------------------------------------------------------------------

TEST(ResultsSchemaV3, TenantRecordsStampVersion3AndRoundTrip)
{
    const Json v4 = resultsToJson(testMeta(), tenantRecords());
    const Json doc = legacyDoc(v4, kResultsSchemaVersionTenants);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    ASSERT_TRUE(resultsFromJson(reparse(doc), meta, records, &err))
        << err;
    EXPECT_EQ(meta.schema_version, kResultsSchemaVersionTenants);
    ASSERT_EQ(records.size(), 4u);
    const RunResult &r = records[1].result;
    ASSERT_EQ(r.tenants.size(), 2u);
    EXPECT_EQ(r.tenants[1], tenantRecords()[1].result.tenants[1]);
    EXPECT_EQ(r.tenant_context_switches, 7u);
    EXPECT_EQ(r.tenant_storm_pages, 16u);
    EXPECT_EQ(r.percu_tlb_refs, makeRefHist(2));
    EXPECT_EQ(r.iommu_tlb_refs, makeRefHist(102));

    // The v4 re-export covers every v3 field at once.
    EXPECT_EQ(resultsToJson(meta, records).dump(2), v4.dump(2));
}

TEST(ResultsSchemaV3, OlderDocumentMustNotCarryTenantFields)
{
    Json doc = legacyDoc(resultsToJson(testMeta(), tenantRecords()),
                         kResultsSchemaVersionTenants);
    doc.set("schema_version", kResultsSchemaVersionKernels);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    EXPECT_FALSE(resultsFromJson(reparse(doc), meta, records, &err));
    EXPECT_NE(err.find("tenant"), std::string::npos) << err;
}

TEST(ResultsSchemaV3, Version3DocumentMustCarryTenantFields)
{
    std::vector<ResultRecord> plain = {
        makeRecord("alpha", MmuDesign::kIdeal, 1),
        makeRecord("alpha", MmuDesign::kVcOpt, 2),
        makeRecord("beta", MmuDesign::kIdeal, 3),
        makeRecord("beta", MmuDesign::kVcOpt, 4),
    };
    Json doc = legacyDoc(resultsToJson(testMeta(), plain),
                         kResultsSchemaVersionPlain);
    doc.set("schema_version", kResultsSchemaVersionTenants);

    ExportMeta meta;
    std::vector<ResultRecord> records;
    std::string err;
    EXPECT_FALSE(resultsFromJson(reparse(doc), meta, records, &err));
    EXPECT_NE(err.find("tenants"), std::string::npos) << err;
}

TEST(ResultsSchemaV3, MergeRejectsMixedSchemaShards)
{
    // Shard 0 carries the tenant block (v3), shard 1 does not (v1).
    ExportMeta meta = testMeta();
    meta.shard_index = 1;
    meta.shard_count = 2;
    std::vector<ResultRecord> plain;
    const char *names[] = {"alpha", "alpha", "beta", "beta"};
    const MmuDesign designs[] = {MmuDesign::kIdeal, MmuDesign::kVcOpt,
                                 MmuDesign::kIdeal, MmuDesign::kVcOpt};
    for (std::size_t i = 0; i < 4; ++i)
        if (i % 2 == 1)
            plain.push_back(
                makeRecord(names[i], designs[i], std::uint64_t(i + 1)));
    const Json v1_shard =
        legacyDoc(resultsToJson(meta, plain), kResultsSchemaVersionPlain);

    Json merged;
    std::string err;
    EXPECT_FALSE(mergeResults(
        {legacyDoc(tenantShardDoc(0, 2), kResultsSchemaVersionTenants),
         v1_shard},
        merged, &err));
    EXPECT_NE(err.find("schema_version"), std::string::npos) << err;
}

TEST(ResultsSchemaV3, MergedV3ShardsMatchUnshardedExport)
{
    Json merged;
    std::string err;
    ASSERT_TRUE(mergeResults(
        {legacyDoc(tenantShardDoc(0, 2), kResultsSchemaVersionTenants),
         legacyDoc(tenantShardDoc(1, 2), kResultsSchemaVersionTenants)},
        merged, &err))
        << err;
    EXPECT_EQ(merged.dump(2),
              resultsToJson(testMeta(), tenantRecords()).dump(2));
}
