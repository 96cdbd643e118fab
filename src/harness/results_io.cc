#include "harness/results_io.hh"

#include <algorithm>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "harness/cli.hh"

namespace gvc
{

// ---------------------------------------------------------------------
// Field tables and serialization
// ---------------------------------------------------------------------

namespace
{

/**
 * SocConfig's field table, in the forEachResultField() style: every
 * simulation-relevant field in export order, dotted names being nested
 * JSON objects.  translation_memo is absent on purpose: it is a
 * host-side toggle with bit-identical results.
 */
template <class F, class... S>
void
forEachSocField(F &&f, S &...s)
{
    f("gpu.num_cus", 0u, s.gpu.num_cus...);
    f("gpu.max_resident_warps", 0u, s.gpu.max_resident_warps...);
    f("gpu.scratchpad_latency", 0u, s.gpu.scratchpad_latency...);
    f("gpu.max_outstanding_stores", 0u, s.gpu.max_outstanding_stores...);
    f("gpu.sched", 0u, s.gpu.sched...);
    f("l1_size", 0u, s.l1_size...);
    f("l1_assoc", 0u, s.l1_assoc...);
    f("l2_size", 0u, s.l2_size...);
    f("l2_assoc", 0u, s.l2_assoc...);
    f("l2_banks", 0u, s.l2_banks...);
    f("l1_latency", 0u, s.l1_latency...);
    f("cu_to_l2", 0u, s.cu_to_l2...);
    f("l2_latency", 0u, s.l2_latency...);
    f("l2_to_dir", 0u, s.l2_to_dir...);
    f("dir_latency", 0u, s.dir_latency...);
    f("cu_to_iommu", 0u, s.cu_to_iommu...);
    f("l2_to_iommu", 0u, s.l2_to_iommu...);
    f("fbt_latency", 0u, s.fbt_latency...);
    f("percu_tlb_latency", 0u, s.percu_tlb_latency...);
    f("percu_tlb_entries", 0u, s.percu_tlb_entries...);
    f("percu_tlb_assoc", 0u, s.percu_tlb_assoc...);
    f("percu_tlb_infinite", 0u, s.percu_tlb_infinite...);
    constexpr unsigned kOpt = kFieldLegacyOptional;
    f("percu_tlb_fill_policy", kOpt, s.percu_tlb_fill_policy...);
    f("iommu_tlb_fill_policy", kOpt, s.iommu_tlb_fill_policy...);
    f("tlb_replacement", kOpt, s.tlb_replacement...);
    f("tlb_max_reach", kOpt, s.tlb_max_reach...);
    f("tlb_merge_on_insert", kOpt, s.tlb_merge_on_insert...);
    f("coalesce_max_reach", kOpt, s.coalesce_max_reach...);
    f("victima_stash", kOpt, s.victima_stash...);
    f("vm_page_policy", kOpt, s.vm_page_policy...);
    f("iommu.tlb_entries", 0u, s.iommu.tlb_entries...);
    f("iommu.tlb_assoc", 0u, s.iommu.tlb_assoc...);
    f("iommu.tlb_infinite", 0u, s.iommu.tlb_infinite...);
    f("iommu.accesses_per_cycle", 0u, s.iommu.accesses_per_cycle...);
    f("iommu.unlimited_bw", 0u, s.iommu.unlimited_bw...);
    f("iommu.banks", 0u, s.iommu.banks...);
    f("iommu.bank_select_shift", 0u, s.iommu.bank_select_shift...);
    f("iommu.tlb_latency", 0u, s.iommu.tlb_latency...);
    f("iommu.second_level_latency", 0u, s.iommu.second_level_latency...);
    f("iommu.fault_latency", 0u, s.iommu.fault_latency...);
    f("iommu.ptw.max_concurrent", 0u, s.iommu.ptw.max_concurrent...);
    f("iommu.ptw.pwc_hit_latency", 0u, s.iommu.ptw.pwc_hit_latency...);
    f("iommu.ptw.dispatch_latency", 0u, s.iommu.ptw.dispatch_latency...);
    f("iommu.sample_window", 0u, s.iommu.sample_window...);
    f("fbt.entries", 0u, s.fbt.entries...);
    f("fbt.bt_assoc", 0u, s.fbt.bt_assoc...);
    f("fbt.ft_assoc", 0u, s.fbt.ft_assoc...);
    f("fbt.split_large_pages", 0u, s.fbt.split_large_pages...);
    f("fbt_as_second_level_tlb", 0u, s.fbt_as_second_level_tlb...);
    f("synonym_remap_entries", 0u, s.synonym_remap_entries...);
    f("cu_injection_rate", 0u, s.cu_injection_rate...);
    f("dram.access_latency", 0u, s.dram.access_latency...);
    f("dram.bytes_per_cycle", 0u, s.dram.bytes_per_cycle...);
    f("phys_mem_bytes", 0u, s.phys_mem_bytes...);
    f("track_lifetimes", 0u, s.track_lifetimes...);
    f("classify_tlb_misses", 0u, s.classify_tlb_misses...);
}

/** WorkloadParams' field table. */
template <class F, class... P>
void
forEachWorkloadParam(F &&f, P &...p)
{
    f("scale", 0u, p.scale...);
    f("seed", 0u, p.seed...);
    f("grid_warps", 0u, p.grid_warps...);
    f("graph", 0u, p.graph...);
}

/** The JSON value of one table field (enums as their number). */
template <class T>
Json
fieldToJson(const T &v)
{
    if constexpr (std::is_same_v<T, bool> || std::is_floating_point_v<T>)
        return Json(v);
    else
        return Json(std::uint64_t(v));
}

/** Set @p path ("a.b.c") in @p obj, creating intermediate objects. */
void
setPath(Json &obj, std::string_view path, Json v)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string_view::npos) {
        obj.set(std::string(path), std::move(v));
        return;
    }
    const std::string_view key = path.substr(0, dot);
    Json *child = obj.find(key);
    if (!child) {
        obj.set(std::string(key), Json::object());
        child = obj.find(key);
    }
    setPath(*child, path.substr(dot + 1), std::move(v));
}

/** A table visitor writing each row of one object into @p j. */
auto
rowWriter(Json &j)
{
    return [&j](const char *name, unsigned, const auto &v) {
        setPath(j, name, fieldToJson(v));
    };
}

Json
kernelStatsToJson(const KernelStats &k)
{
    Json j = Json::object();
    forEachKernelStat(
        [&](const char *name, std::uint64_t v) { j.set(name, v); }, k);
    return j;
}

Json
tlbRefHistToJson(const TlbRefHist &h)
{
    Json j = Json::object();
    Json buckets = Json::array();
    for (const std::uint64_t b : h.buckets)
        buckets.push(Json(b));
    j.set("buckets", std::move(buckets));
    j.set("retired", h.retired);
    j.set("dead", h.dead);
    return j;
}

} // namespace

std::string
tlbPolicyStamp(const SocConfig &soc)
{
    std::string stamp;
    const auto add = [&](const std::string &part) {
        if (!stamp.empty())
            stamp += ',';
        stamp += part;
    };
    if (soc.tlb_replacement != kTlbReplLru)
        add(std::string("repl=") +
            tlbReplacementName(soc.tlb_replacement));
    if (soc.percu_tlb_fill_policy != kTlbFillLru)
        add(std::string("fill=") +
            tlbFillPolicyName(soc.percu_tlb_fill_policy));
    if (soc.iommu_tlb_fill_policy != kTlbFillLru)
        add(std::string("iommu-fill=") +
            tlbFillPolicyName(soc.iommu_tlb_fill_policy));
    return stamp;
}

Json
socConfigToJson(const SocConfig &soc)
{
    Json j = Json::object();
    forEachSocField(rowWriter(j), soc);
    return j;
}

Json
workloadParamsToJson(const WorkloadParams &p)
{
    Json j = Json::object();
    forEachWorkloadParam(rowWriter(j), p);
    return j;
}

Json
runResultToJson(const RunResult &r, const SocConfig *soc)
{
    Json j = Json::object();
    j.set("workload", r.workload);
    j.set("design", designName(r.design));
    forEachResultField(rowWriter(j), r);
    Json kernels = Json::array();
    for (const KernelStats &k : r.kernels)
        kernels.push(kernelStatsToJson(k));
    j.set("kernels", std::move(kernels));
    Json tenants = Json::array();
    for (const TenantStats &t : r.tenants) {
        Json one = Json::object();
        one.set("workload", t.workload);
        one.set("launches", t.launches);
        one.set("stats", kernelStatsToJson(t.stats));
        tenants.push(std::move(one));
    }
    j.set("tenants", std::move(tenants));
    j.set("percu_tlb_refs", tlbRefHistToJson(r.percu_tlb_refs));
    j.set("iommu_tlb_refs", tlbRefHistToJson(r.iommu_tlb_refs));
    if (soc)
        j.set("soc", socConfigToJson(*soc));
    return j;
}

Json
resultRecordToJson(const ResultRecord &rec)
{
    const SocConfig effective = effectiveSoc(rec.cfg);
    Json one = runResultToJson(rec.result, &effective);
    one.set("workload_params", workloadParamsToJson(rec.cfg.workload));
    return one;
}

Json
resultsToJson(const ExportMeta &meta,
              const std::vector<ResultRecord> &records)
{
    Json grid = Json::object();
    Json workloads = Json::array();
    for (const auto &w : meta.workloads)
        workloads.push(Json(w));
    Json designs = Json::array();
    for (const auto &d : meta.designs)
        designs.push(Json(d));
    grid.set("workloads", std::move(workloads));
    grid.set("designs", std::move(designs));
    grid.set("scale", meta.scale);
    grid.set("seed", meta.seed);
    grid.set("jobs", meta.jobs);
    grid.set("tlb_policy", meta.tlb_policy);
    Json shard = Json::object();
    shard.set("index", meta.shard_index);
    shard.set("count", meta.shard_count);
    shard.set("assignment", meta.shard_assignment);
    shard.set("cost_digest", hexU64(meta.shard_cost_digest));
    grid.set("shard", std::move(shard));

    Json results = Json::array();
    for (const auto &rec : records)
        results.push(resultRecordToJson(rec));

    Json doc = Json::object();
    doc.set("schema_version", kResultsSchemaVersion);
    doc.set("generator", meta.generator);
    doc.set("grid", std::move(grid));
    doc.set("results", std::move(results));
    return doc;
}

// ---------------------------------------------------------------------
// Import (resultsFromJson) and shard merging
// ---------------------------------------------------------------------

namespace
{

/** The failure for a tenant field in a pre-v3 document. */
bool
tenantFieldTooOld(JsonReader &imp, const std::string &where)
{
    return imp.fail(where + ": tenant stats require schema_version " +
                    std::to_string(kResultsSchemaVersionTenants));
}

/**
 * A table visitor reading each row of @p j into one object under the
 * document version's rules: v1–v3 default the rows their writers
 * omitted while zero (kFieldLegacyOptional), and v1/v2 must not carry
 * tenant rows.  The first failure sticks in `ok`.
 */
struct RowReader
{
    JsonReader &imp;
    const Json &j;
    const std::string &ctx;
    int version;
    bool ok = true;

    template <class T>
    void
    operator()(const char *name, unsigned flags, T &field)
    {
        if (!ok)
            return;
        if (version < kResultsSchemaVersion) {
            if ((flags & kFieldTenant) &&
                version < kResultsSchemaVersionTenants) {
                ok = !j.find(name) ||
                     tenantFieldTooOld(imp, ctx + "." + name);
                return;
            }
            if ((flags & kFieldLegacyOptional) && !j.find(name))
                return;
        }
        ok = imp.read(j, name, ctx, field);
    }
};

bool
kernelStatsFromJson(JsonReader &imp, const Json &j, const std::string &ctx,
                    KernelStats &out)
{
    if (!j.isObject())
        return imp.fail(ctx + ": expected an object");
    bool ok = true;
    forEachKernelStat(
        [&](const char *name, std::uint64_t &v) {
            ok = ok && imp.read(j, name, ctx, v);
        },
        out);
    return ok;
}

bool
tenantStatsFromJson(JsonReader &imp, const Json &j, const std::string &ctx,
                    TenantStats &out)
{
    if (!j.isObject())
        return imp.fail(ctx + ": expected an object");
    if (!imp.getString(j, "workload", ctx, out.workload) ||
        !imp.read(j, "launches", ctx, out.launches))
        return false;
    const Json *stats = imp.getObject(j, "stats", ctx);
    return stats &&
           kernelStatsFromJson(imp, *stats, ctx + ".stats", out.stats);
}

bool
tlbRefHistFromJson(JsonReader &imp, const Json &j, const char *key,
                   const std::string &ctx, TlbRefHist &out)
{
    const Json *h = imp.getObject(j, key, ctx);
    if (!h)
        return false;
    const std::string hctx = ctx + "." + key;
    const Json *buckets = h->find("buckets");
    if (!buckets || !buckets->isArray() ||
        buckets->size() != TlbRefHist::kBuckets)
        return imp.fail(hctx + ".buckets: expected an array of " +
                        std::to_string(TlbRefHist::kBuckets) +
                        " numbers");
    for (std::size_t b = 0; b < buckets->size(); ++b) {
        const auto where = [&] {
            return hctx + ".buckets[" + std::to_string(b) + "]";
        };
        if (!imp.readValue(buckets->at(b), where, out.buckets[b]))
            return false;
    }
    return imp.read(*h, "retired", hctx, out.retired) &&
           imp.read(*h, "dead", hctx, out.dead);
}

/**
 * Read the array @p key of @p j element by element with @p one; the
 * v2/v3 arrays additionally had to be non-empty.
 */
template <class T, class Fn>
bool
arrayFromJson(JsonReader &imp, const Json &j, const char *key,
              const std::string &ctx, bool non_empty, std::vector<T> &out,
              Fn one)
{
    const std::string actx = ctx + "." + key;
    const Json *a = j.find(key);
    if (!a || !a->isArray() || (non_empty && a->size() == 0))
        return imp.fail(actx + (non_empty ? ": expected a non-empty array"
                                          : ": expected an array"));
    for (std::size_t i = 0; i < a->size(); ++i) {
        T item;
        if (!one(imp, a->at(i), actx + "[" + std::to_string(i) + "]",
                 item))
            return false;
        out.push_back(std::move(item));
    }
    return true;
}

bool
resultRecordFromJson(JsonReader &imp, const Json &j,
                     const std::string &ctx, int version,
                     ResultRecord &rec)
{
    if (!imp.getString(j, "workload", ctx, rec.result.workload))
        return false;
    std::string design;
    if (!imp.getString(j, "design", ctx, design))
        return false;
    if (!designFromName(design, rec.result.design))
        return imp.fail(ctx + ": unknown design '" + design + "'");
    rec.cfg.design = rec.result.design;

    // Per-kernel stats: always an array in v4; v1 predates them, v2
    // requires them in every record, and a v3 (tenant) record may go
    // either way — a one-slot schedule has no boundaries.
    const bool legacy = version < kResultsSchemaVersion;
    const bool kernels = j.find("kernels");
    if (kernels && version == kResultsSchemaVersionPlain)
        return imp.fail(ctx + ".kernels: per-kernel stats require "
                              "schema_version " +
                        std::to_string(kResultsSchemaVersionKernels));
    if ((kernels || version == kResultsSchemaVersionKernels ||
         !legacy) &&
        !arrayFromJson(imp, j, "kernels", ctx, legacy, rec.result.kernels,
                       kernelStatsFromJson))
        return false;

    // The tenant block: always present from v3 on (v3: non-empty),
    // rejected outright below it.
    const bool tenant_block = version >= kResultsSchemaVersionTenants;
    if (!tenant_block) {
        for (const char *key :
             {"tenants", "percu_tlb_refs", "iommu_tlb_refs"})
            if (j.find(key))
                return tenantFieldTooOld(imp, ctx + "." + key);
    } else if (!arrayFromJson(imp, j, "tenants", ctx, legacy,
                              rec.result.tenants, tenantStatsFromJson)) {
        return false;
    }

    RowReader scalars{imp, j, ctx, version};
    forEachResultField(scalars, rec.result);
    if (!scalars.ok)
        return false;
    if (tenant_block &&
        (!tlbRefHistFromJson(imp, j, "percu_tlb_refs", ctx,
                             rec.result.percu_tlb_refs) ||
         !tlbRefHistFromJson(imp, j, "iommu_tlb_refs", ctx,
                             rec.result.iommu_tlb_refs)))
        return false;

    const Json *soc = imp.getObject(j, "soc", ctx);
    if (!soc)
        return false;
    const std::string soc_ctx = ctx + ".soc";
    RowReader soc_rows{imp, *soc, soc_ctx, version};
    forEachSocField(soc_rows, rec.cfg.soc);
    if (!soc_rows.ok)
        return false;
    // The document stores the *effective* config; raw_soc makes the
    // re-exported "soc" object reproduce it byte-for-byte.
    rec.cfg.raw_soc = true;

    const Json *params = imp.getObject(j, "workload_params", ctx);
    if (!params)
        return false;
    const std::string params_ctx = ctx + ".workload_params";
    RowReader param_rows{imp, *params, params_ctx, version};
    forEachWorkloadParam(param_rows, rec.cfg.workload);
    return param_rows.ok;
}

} // namespace

bool
resultRecordFromJson(const Json &j, ResultRecord &rec, std::string *err,
                     int version)
{
    JsonReader imp;
    rec = ResultRecord{};
    const bool ok = j.isObject()
                        ? resultRecordFromJson(imp, j, "record", version,
                                               rec)
                        : imp.fail("record: expected a JSON object");
    if (!ok && err)
        *err = imp.err;
    return ok;
}

bool
resultsFromJson(const Json &doc, ExportMeta &meta,
                std::vector<ResultRecord> &records, std::string *err)
{
    JsonReader imp;
    meta = ExportMeta{};
    records.clear();
    const auto done = [&](bool ok) {
        if (!ok && err)
            *err = imp.err;
        return ok;
    };

    if (!doc.isObject())
        return done(imp.fail("document: expected a JSON object"));
    std::uint64_t version = 0;
    if (!imp.read(doc, "schema_version", "document", version))
        return done(false);
    if (version < std::uint64_t(kResultsSchemaVersionPlain) ||
        version > std::uint64_t(kResultsSchemaVersion))
        return done(imp.fail(
            "unsupported schema_version " + std::to_string(version) +
            " (expected " + std::to_string(kResultsSchemaVersion) +
            ", or 1-3 for import-only legacy documents)"));
    meta.schema_version = int(version);
    const bool legacy = meta.schema_version < kResultsSchemaVersion;
    if (!imp.getString(doc, "generator", "document", meta.generator))
        return done(false);

    const Json *grid = imp.getObject(doc, "grid", "document");
    if (!grid)
        return done(false);
    if (!imp.getStrings(*grid, "workloads", "grid", meta.workloads) ||
        !imp.getStrings(*grid, "designs", "grid", meta.designs) ||
        !imp.read(*grid, "scale", "grid", meta.scale) ||
        !imp.read(*grid, "seed", "grid", meta.seed) ||
        !imp.read(*grid, "jobs", "grid", meta.jobs))
        return done(false);
    // v1–v3 writers omitted the default policy stamp, the shard object
    // of unsharded runs, and the modulo assignment stamp.
    if (!legacy || grid->find("tlb_policy")) {
        if (!imp.getString(*grid, "tlb_policy", "grid", meta.tlb_policy))
            return done(false);
        if (legacy && meta.tlb_policy.empty())
            return done(imp.fail("grid.tlb_policy: expected a "
                                 "non-empty policy stamp"));
    }
    if (!legacy || grid->find("shard")) {
        const Json *shard = imp.getObject(*grid, "shard", "grid");
        if (!shard ||
            !imp.read(*shard, "index", "grid.shard", meta.shard_index) ||
            !imp.read(*shard, "count", "grid.shard", meta.shard_count))
            return done(false);
        if (meta.shard_count == 0 ||
            meta.shard_index >= meta.shard_count)
            return done(imp.fail(
                "grid.shard: index " +
                std::to_string(meta.shard_index) +
                " out of range for count " +
                std::to_string(meta.shard_count)));
        if (!legacy || shard->find("assignment")) {
            std::string digest;
            if (!imp.getString(*shard, "assignment", "grid.shard",
                               meta.shard_assignment) ||
                !imp.getString(*shard, "cost_digest", "grid.shard",
                               digest))
                return done(false);
            if (legacy && meta.shard_assignment.empty())
                return done(imp.fail("grid.shard.assignment: expected a "
                                     "non-empty strategy name"));
            if (!parseHexU64(digest, meta.shard_cost_digest))
                return done(imp.fail("grid.shard.cost_digest: expected "
                                     "16 lowercase hex digits"));
            // "" is modulo striping, which no cost model drives.
            if (meta.shard_assignment.empty() && meta.shard_cost_digest)
                return done(imp.fail("grid.shard.assignment: modulo "
                                     "(empty) with a nonzero "
                                     "cost_digest"));
        }
    }

    const Json *results = imp.getArray(doc, "results", "document");
    if (!results)
        return done(false);
    records.reserve(results->size());
    for (std::size_t i = 0; i < results->size(); ++i) {
        const std::string ctx = "results[" + std::to_string(i) + "]";
        if (!results->at(i).isObject())
            return done(imp.fail(ctx + ": expected an object"));
        ResultRecord rec;
        if (!resultRecordFromJson(imp, results->at(i), ctx,
                                  meta.schema_version, rec))
            return done(false);
        records.push_back(std::move(rec));
    }
    return done(true);
}

bool
mergeResults(const std::vector<Json> &shards, Json &merged,
             std::string *err)
{
    const auto fail = [&](const std::string &msg) {
        if (err)
            *err = msg;
        return false;
    };
    if (shards.empty())
        return fail("no shard documents to merge");

    ExportMeta meta;
    std::vector<MmuDesign> grid_designs;
    std::vector<std::optional<ResultRecord>> cells;
    std::size_t design_count = 0;

    for (std::size_t s = 0; s < shards.size(); ++s) {
        const std::string who = "shard " + std::to_string(s);
        ExportMeta m;
        std::vector<ResultRecord> recs;
        std::string e;
        if (!resultsFromJson(shards[s], m, recs, &e))
            return fail(who + ": " + e);

        if (s == 0) {
            meta = m;
            design_count = m.designs.size();
            for (const std::string &label : m.designs) {
                MmuDesign d;
                if (!tryParseDesign(label, d))
                    return fail(who + ": grid design label '" + label +
                                "' is not a known design");
                if (std::find(grid_designs.begin(), grid_designs.end(),
                              d) != grid_designs.end())
                    return fail(who + ": grid lists design '" + label +
                                "' more than once; cell identity is "
                                "ambiguous");
                grid_designs.push_back(d);
            }
            for (std::size_t w = 0; w < m.workloads.size(); ++w) {
                if (std::find(m.workloads.begin(),
                              m.workloads.begin() + long(w),
                              m.workloads[w]) !=
                    m.workloads.begin() + long(w))
                    return fail(who + ": grid lists workload '" +
                                m.workloads[w] +
                                "' more than once; cell identity is "
                                "ambiguous");
            }
            cells.assign(m.workloads.size() * design_count,
                         std::nullopt);
        } else {
            if (m.schema_version != meta.schema_version)
                return fail(who + ": schema_version " +
                            std::to_string(m.schema_version) +
                            " differs from shard 0's " +
                            std::to_string(meta.schema_version) +
                            "; shards of different schema versions "
                            "cannot merge");
            if (m.generator != meta.generator)
                return fail(who + ": generator '" + m.generator +
                            "' differs from shard 0's '" +
                            meta.generator + "'");
            if (m.workloads != meta.workloads ||
                m.designs != meta.designs)
                return fail(who +
                            ": grid axes differ from shard 0 (the "
                            "shards were produced from different "
                            "grids)");
            if (m.scale != meta.scale)
                return fail(who + ": workload scale differs from "
                            "shard 0");
            if (m.seed != meta.seed)
                return fail(who + ": workload seed differs from "
                            "shard 0");
            if (m.tlb_policy != meta.tlb_policy)
                return fail(who + ": tlb policy axis '" +
                            (m.tlb_policy.empty() ? "default"
                                                  : m.tlb_policy) +
                            "' differs from shard 0's '" +
                            (meta.tlb_policy.empty()
                                 ? "default"
                                 : meta.tlb_policy) +
                            "' (shards swept under different TLB "
                            "policies measure different machines and "
                            "cannot merge)");
            if (m.shard_count != meta.shard_count)
                return fail(who + ": shard count " +
                            std::to_string(m.shard_count) +
                            " differs from shard 0's " +
                            std::to_string(meta.shard_count));
            if (m.shard_assignment != meta.shard_assignment ||
                m.shard_cost_digest != meta.shard_cost_digest)
                return fail(who + ": shard assignment '" +
                            (m.shard_assignment.empty()
                                 ? "modulo"
                                 : m.shard_assignment) +
                            "' differs from shard 0's '" +
                            (meta.shard_assignment.empty()
                                 ? "modulo"
                                 : meta.shard_assignment) +
                            "' (the shards were planned with different "
                            "assignment strategies or cost models, so "
                            "their cell sets need not partition the "
                            "grid)");
            // Worker count never affects results; keep the maximum so
            // the merged document is independent of shard file order.
            meta.jobs = std::max(meta.jobs, m.jobs);
        }

        for (ResultRecord &rec : recs) {
            const auto wit =
                std::find(meta.workloads.begin(), meta.workloads.end(),
                          rec.result.workload);
            if (wit == meta.workloads.end())
                return fail(who + ": result workload '" +
                            rec.result.workload +
                            "' is not in the grid");
            const auto dit = std::find(grid_designs.begin(),
                                       grid_designs.end(),
                                       rec.cfg.design);
            if (dit == grid_designs.end())
                return fail(who + ": result design '" +
                            std::string(designName(rec.cfg.design)) +
                            "' is not in the grid");
            const std::size_t idx =
                std::size_t(wit - meta.workloads.begin()) *
                    design_count +
                std::size_t(dit - grid_designs.begin());
            if (cells[idx])
                return fail(who + ": duplicate cell " +
                            rec.result.workload + " x " +
                            designName(rec.cfg.design));
            cells[idx] = std::move(rec);
        }
    }

    std::vector<std::string> missing;
    for (std::size_t idx = 0; idx < cells.size(); ++idx) {
        if (!cells[idx]) {
            missing.push_back(
                meta.workloads[idx / design_count] + " x " +
                meta.designs[idx % design_count]);
        }
    }
    if (!missing.empty()) {
        std::string msg = std::to_string(missing.size()) +
                          " missing cell(s):";
        const std::size_t show =
            std::min<std::size_t>(missing.size(), 8);
        for (std::size_t i = 0; i < show; ++i)
            msg += (i ? ", " : " ") + missing[i];
        if (missing.size() > show)
            msg += ", ...";
        return fail(msg);
    }

    meta.shard_index = 0;
    meta.shard_count = 1;
    meta.shard_assignment.clear();
    meta.shard_cost_digest = 0;
    std::vector<ResultRecord> ordered;
    ordered.reserve(cells.size());
    for (auto &cell : cells)
        ordered.push_back(std::move(*cell));
    merged = resultsToJson(meta, ordered);
    return true;
}

std::string
resultsCsvHeader()
{
    std::string h = "workload,design";
    forEachResultField([&](const char *name, unsigned flags) {
        if (!(flags & kFieldTenant))
            h += std::string(",") + name;
    });
    return h;
}

std::string
resultsCsvRow(const RunResult &r)
{
    // Design names contain spaces but no commas/quotes, so plain
    // unquoted CSV cells are sufficient.
    std::string row = r.workload + "," + designName(r.design);
    forEachResultField(
        [&](const char *, unsigned flags, const auto &v) {
            if (!(flags & kFieldTenant)) {
                row += ',';
                row += fieldToJson(v).dump();
            }
        },
        r);
    return row;
}

std::string
resultsToCsv(const std::vector<ResultRecord> &records)
{
    std::string out = resultsCsvHeader();
    out += '\n';
    for (const auto &rec : records) {
        out += resultsCsvRow(rec.result);
        out += '\n';
    }
    return out;
}

} // namespace gvc
