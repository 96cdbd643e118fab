/**
 * @file
 * Structured results export: versioned JSON and CSV serialization of
 * sweep results (RunResult grids plus the SocConfig and WorkloadParams
 * that produced them), with no external dependencies.  The JSON value
 * type, its parser, and the strict field reader live in harness/json.hh.
 *
 * Schema (version 4) — every record has the same shape, and the writer
 * emits nothing conditionally:
 *   {
 *     "schema_version": 4,
 *     "generator": "<tool name>",
 *     "grid": { "workloads": [...], "designs": [...],
 *               "scale": F, "seed": N, "jobs": N,
 *               "tlb_policy": "<stamp, '' for the defaults>",
 *               "shard": { "index": N, "count": N,
 *                          "assignment": "<'' = modulo, or 'lpt'>",
 *                          "cost_digest": "<16 hex digits>" } },
 *     "results": [ { "workload": "...", "design": "...",
 *                    <every forEachResultField() row>,
 *                    "kernels": [ {<KernelStats>}, ... ],
 *                    "tenants": [ {"workload", "launches",
 *                                  "stats": {<KernelStats>}}, ... ],
 *                    "percu_tlb_refs": {<TlbRefHist>},
 *                    "iommu_tlb_refs": {<TlbRefHist>},
 *                    "soc": {<every SocConfig table row>},
 *                    "workload_params": {...} }, ... ]
 *   }
 *
 * "kernels" and "tenants" are always present and empty for runs
 * without per-kernel or per-tenant stats.  Each record type is
 * serialized from one field table (forEachRunCounter,
 * forEachKernelStat, forEachResultField, and the SocConfig and
 * WorkloadParams tables in results_io.cc) that JSON export, JSON
 * import, CSV, and the bench counters all iterate, so a new counter is
 * one RunResult member plus one table row.
 *
 * Versions 1–3 are import-only.  Their writers omitted fields: v1 is a
 * plain record, v2 adds a non-empty "kernels" array to every record,
 * v3 adds the tenant block ("tenants" non-empty, the tenant counters,
 * both *_tlb_refs histograms; "kernels" optional) to every record, and
 * all three omitted the reach/policy counters and SocConfig knobs while
 * zero or default, "grid.tlb_policy" for the default policies, and
 * "grid.shard" for unsharded runs.  Importing them keeps each version's
 * rules (a v1 record must not carry "kernels", v1/v2 records must not
 * carry tenant fields, ...) and defaults what they omitted.  Shards of
 * different schema versions never merge.
 */

#ifndef GVC_HARNESS_RESULTS_IO_HH
#define GVC_HARNESS_RESULTS_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/runner.hh"

namespace gvc
{

/** One (config, result) pair of a sweep, ready for export. */
struct ResultRecord
{
    RunConfig cfg;
    RunResult result;
};

/** Schema version of every exported document. */
inline constexpr int kResultsSchemaVersion = 4;
/** Import-only legacy versions: plain, per-kernel, and tenant records. */
inline constexpr int kResultsSchemaVersionPlain = 1;
inline constexpr int kResultsSchemaVersionKernels = 2;
inline constexpr int kResultsSchemaVersionTenants = 3;

/** Metadata describing the exporting run (the "grid" JSON object). */
struct ExportMeta
{
    std::string generator = "gvc_sweep";
    /** Full grid axes — not the shard subset — so shards can merge. */
    std::vector<std::string> workloads;
    std::vector<std::string> designs;
    double scale = 0.0;
    std::uint64_t seed = 0;
    unsigned jobs = 1;
    /**
     * Shard position when the grid was partitioned with `--shard I/N`;
     * a shard_count of 1 means an unsharded document.
     */
    unsigned shard_index = 0;
    unsigned shard_count = 1;
    /**
     * How cells were assigned to shards: empty for the classic
     * idx % N modulo striping, "lpt" for cost-balanced
     * longest-processing-time bin packing.  Stored with the FNV-1a-64
     * digest of the cost-model file that drove the packing (0 =
     * uniform costs), so gvc_merge can refuse shards planned against
     * different cost models — such shard sets can silently overlap or
     * leave holes.
     */
    std::string shard_assignment;
    std::uint64_t shard_cost_digest = 0;
    /**
     * TLB policy axis the whole grid ran under: empty for the default
     * LRU/install-all policies, otherwise a canonical stamp such as
     * "repl=srrip,fill=bypass-trained" (see gvc_sweep).  Shards of
     * different policy axes measure different machines; gvc_merge
     * refuses to merge them.
     */
    std::string tlb_policy;
    /**
     * Version of the document (or journal records) this meta was
     * imported from.  Export ignores it: resultsToJson always writes
     * kResultsSchemaVersion.
     */
    int schema_version = kResultsSchemaVersion;
};

/**
 * Canonical ExportMeta::tlb_policy stamp for a SocConfig: "" when every
 * TLB policy knob is at its default, otherwise the non-default knobs as
 * "repl=<r>,fill=<f>,iommu-fill=<g>" (each component only when set).
 */
std::string tlbPolicyStamp(const SocConfig &soc);

/** Serialize a full SocConfig (every simulation-relevant field). */
Json socConfigToJson(const SocConfig &soc);

/** Serialize WorkloadParams. */
Json workloadParamsToJson(const WorkloadParams &p);

/**
 * Serialize one RunResult; when @p soc is non-null the effective
 * SocConfig is embedded under "soc".
 */
Json runResultToJson(const RunResult &r, const SocConfig *soc = nullptr);

/**
 * Serialize one (config, result) cell exactly as it appears inside a
 * results document's "results" array: runResultToJson() of the result
 * with the *effective* SocConfig embedded under "soc", plus the
 * "workload_params" object.  resultsToJson() emits this per record,
 * and the sweep checkpoint journal (harness/journal.hh) appends it per
 * completed cell — one serializer, so the two can never drift.
 */
Json resultRecordToJson(const ResultRecord &rec);

/**
 * Rebuild one ResultRecord from resultRecordToJson() output — the
 * record-level inverse of the importer behind resultsFromJson(), under
 * @p version's rules (see the schema notes above).  Field-exact with
 * the same dotted-path error messages; the imported record carries the
 * document's effective SocConfig with `raw_soc` set so it re-exports
 * byte-identically.  Returns false with a message in @p err on any
 * mismatch.
 */
bool resultRecordFromJson(const Json &j, ResultRecord &rec,
                          std::string *err = nullptr,
                          int version = kResultsSchemaVersion);

/** Full versioned results document (always kResultsSchemaVersion). */
Json resultsToJson(const ExportMeta &meta,
                   const std::vector<ResultRecord> &records);

/**
 * Rebuild an ExportMeta plus ResultRecords from a parsed results
 * document — the inverse of resultsToJson(), and the import path for
 * the legacy versions 1–3.  Field-exact: every field the document's
 * version requires must be present with the right type (integers as
 * plain non-negative decimals within the field's range), and documents
 * with an unknown schema_version are rejected outright; the seen
 * version is recorded in `meta.schema_version`.  Imported records
 * carry the document's (effective) SocConfig with `raw_soc` set, so
 * re-exporting them emits byte-identical "soc" objects.  Returns false
 * and stores a message in @p err on any mismatch.
 */
bool resultsFromJson(const Json &doc, ExportMeta &meta,
                     std::vector<ResultRecord> &records,
                     std::string *err = nullptr);

/**
 * Merge per-shard results documents (`gvc_sweep --shard I/N --json`)
 * into one document in canonical grid order, byte-identical to the
 * unsharded export of the same grid.  Validates every shard against
 * the first: schema version (via resultsFromJson), generator, grid
 * axes, scale, seed, TLB policy axis, and shard count must match
 * (shards of different schema versions never merge), every grid label
 * must be resolvable, and each (workload, design) cell must appear
 * exactly once across all shards — duplicates and missing cells are
 * reported by name.  Shards planned with different assignment
 * strategies or cost models (the "shard" object's assignment stamp)
 * are rejected too.  `jobs` is the maximum across the shards: worker
 * count does not affect results, and the maximum is order-independent,
 * so the merged document is stable however the shard files are listed
 * (it used to be silently taken from whichever shard came first).
 * Returns false and stores a message in @p err when the shards are not
 * mergeable.
 */
bool mergeResults(const std::vector<Json> &shards, Json &merged,
                  std::string *err = nullptr);

/** CSV column header matching csvRow(). */
std::string resultsCsvHeader();

/** One CSV data row: every forEachResultField() row but the tenant ones. */
std::string resultsCsvRow(const RunResult &r);

/** Whole CSV document: header plus one row per record. */
std::string resultsToCsv(const std::vector<ResultRecord> &records);

} // namespace gvc

#endif // GVC_HARNESS_RESULTS_IO_HH
