/**
 * @file
 * Test helper: rewrite a results document written by resultsToJson()
 * (schema v4) into the shape a results-schema v1–v3 writer produced,
 * so the import-only legacy rules can be exercised on synthetic
 * records.  The real files old writers produced live in tests/compat/.
 */

#ifndef GVC_TESTS_LEGACY_SCHEMA_HH
#define GVC_TESTS_LEGACY_SCHEMA_HH

#include <functional>
#include <string>

#include "harness/results_io.hh"

namespace gvc::test
{

/** Copy of object @p obj keeping the members @p keep accepts. */
inline Json
filterMembers(const Json &obj,
              const std::function<bool(const std::string &, const Json &)>
                  &keep)
{
    Json out = Json::object();
    for (const auto &[key, value] : obj.members())
        if (keep(key, value))
            out.set(key, value);
    return out;
}

/**
 * @p doc in the shape of a version-@p version (1–3) document: v1 has no
 * "kernels", v1/v2 have no tenant block, v3 drops empty "kernels", and
 * every version drops the default policy stamp, the shard object of an
 * unsharded grid, and the modulo assignment stamp.  Counters and knobs
 * old writers omitted while zero stay present; the legacy importer
 * accepts them either way.
 */
inline Json
legacyDoc(const Json &doc, int version)
{
    const Json &grid = *doc.find("grid");
    Json legacy_grid = filterMembers(grid, [](const std::string &key,
                                              const Json &v) {
        if (key == "tlb_policy")
            return !v.asString().empty();
        if (key == "shard")
            return v.find("count")->asU64() > 1;
        return true;
    });
    if (const Json *shard = legacy_grid.find("shard")) {
        if (shard->find("assignment")->asString().empty())
            legacy_grid.set("shard", filterMembers(
                                         *shard, [](const std::string &key,
                                                    const Json &) {
                                             return key != "assignment" &&
                                                    key != "cost_digest";
                                         }));
    }

    Json results = Json::array();
    const Json &records = *doc.find("results");
    for (std::size_t i = 0; i < records.size(); ++i) {
        results.push(filterMembers(
            records.at(i), [version](const std::string &key, const Json &v) {
                if (key == "kernels")
                    return version == 2 || (version == 3 && v.size() > 0);
                if (key == "tenants" || key == "tenant_context_switches" ||
                    key == "tenant_storm_pages" || key == "percu_tlb_refs" ||
                    key == "iommu_tlb_refs")
                    return version == 3;
                return true;
            }));
    }

    Json out = doc;
    out.set("schema_version", version);
    out.set("grid", std::move(legacy_grid));
    out.set("results", std::move(results));
    return out;
}

} // namespace gvc::test

#endif // GVC_TESTS_LEGACY_SCHEMA_HH
