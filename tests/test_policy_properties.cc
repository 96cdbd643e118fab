/**
 * @file
 * Property/invariant tests for the dead-entry-aware TLB policy
 * subsystem, plus the policy axis' results-schema guarantees:
 *
 *  (a) translation-correctness invariance — a TLB replacement or fill
 *      policy decides *where* a translation is served, never what is
 *      translated: the instruction and translation-request streams are
 *      bit-identical to the LRU/install-all run of the same workload;
 *  (b) TlbRefHist partition exactness — retired residencies equal the
 *      bucket sum, dead-on-arrival entries are exactly bucket 0, across
 *      every design and policy;
 *  (c) trained bypass beats the static next-line heuristic on the dead
 *      fraction of a TLB-thrashing workload;
 *  (d) the documented l1vc-32 warm-run pathology (warm launches cost
 *      MORE IOMMU traffic than cold under LRU — the expected-failure
 *      exception carved out of WarmNeverWorse) exists, and the trained
 *      dead-entry policy flips it;
 *  (e) results schema: the seven new policy counters round-trip
 *      field-exactly, the grid's tlb_policy stamp round-trips, and
 *      gvc_merge's core refuses mixed-policy-axis shards by name.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "mmu/boundary.hh"

namespace gvc
{
namespace
{

RunConfig
quick(MmuDesign design, double scale = 0.1)
{
    RunConfig cfg;
    cfg.design = design;
    cfg.workload.scale = scale;
    return cfg;
}

/** quick() plus the policy knobs (configFor preserves them). */
RunConfig
withPolicy(MmuDesign design, unsigned repl, unsigned fill,
           double scale = 0.1)
{
    RunConfig cfg = quick(design, scale);
    cfg.soc.tlb_replacement = repl;
    cfg.soc.percu_tlb_fill_policy = fill;
    return cfg;
}

RunResult
runRounds(const std::string &workload, const RunConfig &cfg,
          unsigned rounds)
{
    ScenarioSpec spec;
    spec.rounds = rounds;
    spec.boundary = BoundaryPolicy::keepAll();
    return runScenario(workload, cfg, spec);
}

// ---------------------------------------------------------------------
// (a) Policies never change what is translated, only where
// ---------------------------------------------------------------------

class PolicyInvariance
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(PolicyInvariance, TranslationStreamMatchesLruRun)
{
    const auto [repl, fill] = GetParam();
    for (const MmuDesign d :
         {MmuDesign::kBaseline512, MmuDesign::kL1Vc32}) {
        const RunResult lru = runWorkload("pagerank", quick(d));
        const RunResult alt =
            runWorkload("pagerank", withPolicy(d, repl, fill));
        // The GPU executes the same program against the same VM image:
        // instruction counts cannot depend on the TLB policy.
        // (Misses, walks, and timing legitimately do.)
        EXPECT_EQ(alt.instructions, lru.instructions) << designName(d);
        EXPECT_EQ(alt.mem_instructions, lru.mem_instructions)
            << designName(d);
        EXPECT_DOUBLE_EQ(alt.lines_per_mem_inst,
                         lru.lines_per_mem_inst)
            << designName(d);
        if (d == MmuDesign::kBaseline512) {
            // On the baseline, every memory access translates before
            // it touches a cache, so the translation-request and L1
            // access streams are policy-invariant too, and every
            // per-CU miss reaches the IOMMU exactly once.  (The
            // L1-only VC design translates on L1 *misses*, and
            // policy-induced timing shifts legitimately reshape that
            // filtered stream — which is the whole l1vc-32 story.)
            EXPECT_EQ(alt.tlb_accesses, lru.tlb_accesses);
            EXPECT_EQ(alt.l1_accesses, lru.l1_accesses);
            EXPECT_EQ(alt.iommu_accesses, alt.tlb_misses);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    ReplacementAndFill, PolicyInvariance,
    ::testing::Values(
        std::make_tuple(kTlbReplSrrip, kTlbFillLru),
        std::make_tuple(kTlbReplBrrip, kTlbFillLru),
        std::make_tuple(kTlbReplDrrip, kTlbFillLru),
        std::make_tuple(kTlbReplLru, kTlbFillBypassTrained),
        std::make_tuple(kTlbReplSrrip, kTlbFillBypassTrained)));

// ---------------------------------------------------------------------
// (b) TlbRefHist is an exact partition of retired residencies
// ---------------------------------------------------------------------

void
expectExactPartition(const TlbRefHist &h, const std::string &what)
{
    std::uint64_t sum = 0;
    for (const std::uint64_t b : h.buckets)
        sum += b;
    EXPECT_EQ(h.retired, sum) << what;
    EXPECT_EQ(h.dead, h.buckets[0]) << what;
    EXPECT_LE(h.dead, h.retired) << what;
}

TEST(RefHistPartition, ExactAcrossAllDesigns)
{
    for (const MmuDesign d :
         {MmuDesign::kIdeal, MmuDesign::kBaseline512,
          MmuDesign::kBaseline16K, MmuDesign::kBaselineLargeTlb,
          MmuDesign::kVcNoOpt, MmuDesign::kVcOpt, MmuDesign::kL1Vc32,
          MmuDesign::kL1Vc128, MmuDesign::kBase2MB,
          MmuDesign::kBaseCoalesced, MmuDesign::kBaseVictima}) {
        const RunResult r = runWorkload("bfs", quick(d, 0.05));
        expectExactPartition(r.percu_tlb_refs,
                             std::string("percu ") + designName(d));
        expectExactPartition(r.iommu_tlb_refs,
                             std::string("iommu ") + designName(d));
    }
}

TEST(RefHistPartition, ExactAcrossAllPolicies)
{
    for (const unsigned repl :
         {kTlbReplLru, kTlbReplSrrip, kTlbReplBrrip, kTlbReplDrrip}) {
        for (const unsigned fill :
             {kTlbFillLru, kTlbFillBypassDead,
              kTlbFillBypassTrained}) {
            const RunResult r = runWorkload(
                "pagerank",
                withPolicy(MmuDesign::kBaseline512, repl, fill, 0.05));
            const std::string what =
                std::string(tlbReplacementName(repl)) + "/" +
                tlbFillPolicyName(fill);
            expectExactPartition(r.percu_tlb_refs, "percu " + what);
            expectExactPartition(r.iommu_tlb_refs, "iommu " + what);
        }
    }
}

// ---------------------------------------------------------------------
// (c) The trained predictor outfilters the static next-line heuristic
// ---------------------------------------------------------------------

TEST(DeadEntryFiltering, TrainedBypassBeatsStaticNextLine)
{
    // pagerank thrashes the 32-entry per-CU TLBs (miss ratio > 40%
    // under LRU), which is exactly the population the dead-entry
    // machinery exists for.  The trained predictor must let strictly
    // fewer dead residencies through than either install-all or the
    // static next-line heuristic — it bypasses by observed reuse
    // history, not by a fill-order accident — and must actually
    // bypass something.  (The dead *fraction* of what does retire is
    // not comparable across fill policies: dead-first eviction
    // deliberately retires zero-ref entries early, so the trained
    // policy's retirees skew dead even as their absolute count
    // collapses.)
    const RunResult install_all = runWorkload(
        "pagerank", withPolicy(MmuDesign::kBaseline512, kTlbReplLru,
                               kTlbFillLru));
    const RunResult static_nl = runWorkload(
        "pagerank", withPolicy(MmuDesign::kBaseline512, kTlbReplLru,
                               kTlbFillBypassDead));
    const RunResult trained = runWorkload(
        "pagerank", withPolicy(MmuDesign::kBaseline512, kTlbReplLru,
                               kTlbFillBypassTrained));
    EXPECT_GT(trained.tlb_fill_bypasses, 0u);
    EXPECT_GT(trained.tlb_pred_true_pos, 0u);
    EXPECT_LT(trained.percu_tlb_refs.dead,
              static_nl.percu_tlb_refs.dead);
    EXPECT_LT(trained.percu_tlb_refs.dead,
              install_all.percu_tlb_refs.dead);
    // Filtering the dead population must not cost hit rate: the
    // trained policy also misses less than both on this workload.
    EXPECT_LT(trained.tlb_misses, static_nl.tlb_misses);
    EXPECT_LT(trained.tlb_misses, install_all.tlb_misses);
    // Sampling installs are 1-in-kSamplePeriod of predicted-dead
    // fills; their scoring can never exceed the retired population.
    EXPECT_LE(trained.tlb_pred_true_pos + trained.tlb_pred_false_pos,
              trained.percu_tlb_refs.retired);
}

// ---------------------------------------------------------------------
// (d) The l1vc-32 warm-run pathology, and its cure
// ---------------------------------------------------------------------

TEST(L1Vc32WarmPathology, ExistsUnderLruAndTrainedBypassFlipsIt)
{
    // Expected-failure fixture: WarmNeverWorse deliberately excludes
    // kL1Vc32 because a warm tiny L1-only virtual cache filters the
    // high-locality references out of the translation stream, the
    // per-CU TLBs stop being refreshed, and warm launches miss MORE.
    // This pins the pathology down as a positive assertion — if it
    // ever stops reproducing, the WarmNeverWorse exception comment is
    // stale and kL1Vc32 belongs back in that suite.
    const RunResult lru =
        runRounds("pagerank", quick(MmuDesign::kL1Vc32), 3);
    ASSERT_EQ(lru.kernels.size(), 3u);
    const std::uint64_t cold = lru.kernels[0].iommu_accesses;
    EXPECT_GT(lru.kernels[1].iommu_accesses, cold);
    EXPECT_GT(lru.kernels[2].iommu_accesses, cold);

    // The cure: the trained dead-entry policy bypasses the
    // never-rereferenced fills that were flushing the hot entries, so
    // warm launches get cheaper than cold again.
    const RunResult trained = runRounds(
        "pagerank",
        withPolicy(MmuDesign::kL1Vc32, kTlbReplLru,
                   kTlbFillBypassTrained),
        3);
    ASSERT_EQ(trained.kernels.size(), 3u);
    const std::uint64_t tcold = trained.kernels[0].iommu_accesses;
    EXPECT_LT(trained.kernels[1].iommu_accesses, tcold);
    EXPECT_LT(trained.kernels[2].iommu_accesses, tcold);
}

// ---------------------------------------------------------------------
// (e) Results schema: policy counters and the tlb_policy axis stamp
// ---------------------------------------------------------------------

ResultRecord
policyRecord(const std::string &workload, std::uint64_t salt)
{
    ResultRecord rec;
    rec.cfg.design = MmuDesign::kBaseline512;
    rec.cfg.workload.scale = 0.25;
    rec.cfg.workload.seed = 0x5eed;
    rec.result.workload = workload;
    rec.result.design = MmuDesign::kBaseline512;
    rec.result.exec_ticks = 1000 + salt;
    rec.result.instructions = 77 * salt;
    // The seven policy counters, with values past 2^53 to prove the
    // JSON layer keeps u64 lexemes exact.
    rec.result.tlb_fill_bypasses = (1ull << 53) + 11 * salt;
    rec.result.tlb_dead_first_evictions = (1ull << 54) + 13 * salt;
    rec.result.tlb_pred_true_pos = (1ull << 55) + 17 * salt;
    rec.result.tlb_pred_false_pos = (1ull << 56) + 19 * salt;
    rec.result.iommu_fill_bypasses = (1ull << 57) + 23 * salt;
    rec.result.iommu_dead_first_evictions = (1ull << 58) + 29 * salt;
    rec.result.iommu_pred_true_pos = (1ull << 59) + 31 * salt;
    rec.result.iommu_pred_false_pos = (1ull << 60) + 37 * salt;
    return rec;
}

TEST(PolicySchema, CountersRoundTripFieldExactly)
{
    const ResultRecord rec = policyRecord("alpha", 7);
    ResultRecord back;
    std::string err;
    ASSERT_TRUE(resultRecordFromJson(
        Json::parse(resultRecordToJson(rec).dump(2), &err), back,
        &err))
        << err;
    EXPECT_EQ(back.result.tlb_fill_bypasses,
              rec.result.tlb_fill_bypasses);
    EXPECT_EQ(back.result.tlb_dead_first_evictions,
              rec.result.tlb_dead_first_evictions);
    EXPECT_EQ(back.result.tlb_pred_true_pos,
              rec.result.tlb_pred_true_pos);
    EXPECT_EQ(back.result.tlb_pred_false_pos,
              rec.result.tlb_pred_false_pos);
    EXPECT_EQ(back.result.iommu_fill_bypasses,
              rec.result.iommu_fill_bypasses);
    EXPECT_EQ(back.result.iommu_dead_first_evictions,
              rec.result.iommu_dead_first_evictions);
    EXPECT_EQ(back.result.iommu_pred_true_pos,
              rec.result.iommu_pred_true_pos);
    EXPECT_EQ(back.result.iommu_pred_false_pos,
              rec.result.iommu_pred_false_pos);
    // ...and the re-export is byte-identical.
    EXPECT_EQ(resultRecordToJson(back).dump(),
              resultRecordToJson(rec).dump());
}

TEST(PolicySchema, TlbPolicyStampCanonicalForms)
{
    SocConfig soc;
    EXPECT_EQ(tlbPolicyStamp(soc), "");
    soc.tlb_replacement = kTlbReplSrrip;
    EXPECT_EQ(tlbPolicyStamp(soc), "repl=srrip");
    soc.percu_tlb_fill_policy = kTlbFillBypassTrained;
    EXPECT_EQ(tlbPolicyStamp(soc), "repl=srrip,fill=bypass-trained");
    soc.iommu_tlb_fill_policy = kTlbFillBypassDead;
    EXPECT_EQ(tlbPolicyStamp(soc),
              "repl=srrip,fill=bypass-trained,iommu-fill=bypass-dead");
    soc.tlb_replacement = kTlbReplLru;
    soc.percu_tlb_fill_policy = kTlbFillLru;
    EXPECT_EQ(tlbPolicyStamp(soc), "iommu-fill=bypass-dead");
}

ExportMeta
stampMeta(const std::string &stamp)
{
    ExportMeta meta;
    meta.workloads = {"alpha", "beta"};
    meta.designs = {"ideal"};
    meta.scale = 0.25;
    meta.seed = 0x5eed;
    meta.jobs = 2;
    meta.tlb_policy = stamp;
    return meta;
}

ResultRecord
gridRecord(const std::string &workload)
{
    ResultRecord rec;
    rec.cfg.design = MmuDesign::kIdeal;
    rec.cfg.workload.scale = 0.25;
    rec.cfg.workload.seed = 0x5eed;
    rec.result.workload = workload;
    rec.result.design = MmuDesign::kIdeal;
    rec.result.exec_ticks = workload.size();
    return rec;
}

Json
shardDoc(const std::string &stamp, unsigned index)
{
    ExportMeta meta = stampMeta(stamp);
    meta.shard_index = index;
    meta.shard_count = 2;
    return resultsToJson(meta,
                         {gridRecord(index == 0 ? "alpha" : "beta")});
}

TEST(PolicySchema, TlbPolicyStampRoundTripsAndStaysOffByDefault)
{
    // Stamped grid: survives export -> import.
    const Json doc =
        resultsToJson(stampMeta("repl=drrip"),
                      {gridRecord("alpha"), gridRecord("beta")});
    std::string err;
    ExportMeta back;
    std::vector<ResultRecord> records;
    ASSERT_TRUE(resultsFromJson(Json::parse(doc.dump(2), &err), back,
                                records, &err))
        << err;
    EXPECT_EQ(back.tlb_policy, "repl=drrip");

    // Unstamped grid: the stamp stays empty, and imports as the
    // default.
    const Json plain = resultsToJson(
        stampMeta(""), {gridRecord("alpha"), gridRecord("beta")});
    EXPECT_EQ(plain.find("grid")->find("tlb_policy")->asString(), "");
    ExportMeta plain_back;
    std::vector<ResultRecord> plain_records;
    ASSERT_TRUE(resultsFromJson(Json::parse(plain.dump(2), &err),
                                plain_back, plain_records, &err))
        << err;
    EXPECT_EQ(plain_back.tlb_policy, "");
}

TEST(PolicySchema, MergeRefusesMixedPolicyAxisShardsByName)
{
    // Same grid, same seed, one shard swept under SRRIP and one under
    // the defaults: these measured different machines, and the merge
    // core must say so instead of fabricating a half-and-half grid.
    std::string err;
    Json merged;
    EXPECT_FALSE(mergeResults(
        {shardDoc("repl=srrip", 0), shardDoc("", 1)}, merged, &err));
    EXPECT_NE(err.find("tlb policy axis"), std::string::npos) << err;

    // Positive control: matching stamps merge fine and keep the stamp.
    ASSERT_TRUE(mergeResults({shardDoc("repl=srrip", 0),
                              shardDoc("repl=srrip", 1)},
                             merged, &err))
        << err;
    const Json *grid = merged.find("grid");
    ASSERT_NE(grid, nullptr);
    const Json *stamp = grid->find("tlb_policy");
    ASSERT_NE(stamp, nullptr);
    EXPECT_EQ(stamp->asString(), "repl=srrip");
}

} // namespace
} // namespace gvc
