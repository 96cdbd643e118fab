/**
 * @file
 * gvc_tenants — multi-tenant contention driver: run N tenants (each its
 * own address space and kernel round stream) on one memory system under
 * a grid of (context-switch policy x shootdown-storm intensity x MMU
 * design) cells, and export per-tenant results as JSON.
 *
 *   gvc_tenants --workloads pagerank,bfs --designs baseline512,vc_opt \
 *               --switch keep-all,asid-shootdown --storm 0,8 --json -
 *   gvc_tenants -w pagerank,bfs,hotspot,lud --rounds 3 --sched rr \
 *               --arrival poisson --interval 2000 --csv grid.csv
 *
 * Every cell is deterministic: same flags (and any --jobs value) give
 * bit-identical results.  Cell labels are "<tenants>|<switch>|stormN",
 * so per-cell records merge/validate like any sweep grid.
 */

#include <algorithm>
#include <cstdio>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "harness/tenants.hh"
#include "harness/thread_pool.hh"

using namespace gvc;

namespace
{

struct Options
{
    std::vector<std::string> workloads{"pagerank", "bfs"};
    GridAxes grid; ///< Designs and jobs; workloads are per tenant.
    std::vector<SwitchPolicy> switches{SwitchPolicy::kKeepAll};
    std::vector<unsigned> storm_pages{0, 8};
    TenantsSpec base_spec;
    WorkloadParams params;
    OutputOptions out;
    bool per_tenant = false;
};

/** "flag: no <what> selected" when @p items is empty. */
template <typename T>
CliError
nonEmpty(const char *flag, const std::vector<T> &items, const char *what)
{
    return items.empty() ? std::string(flag) + ": no " + what + " selected"
                         : CliError();
}

OptionTable
options(Options &opt)
{
    const OptionTable tenants = {
        {"--workloads", "-w", "LIST",
         "one workload per tenant (default: pagerank,bfs)",
         [&opt](const char *flag, const std::string &value) {
             opt.workloads = splitList(value);
             return nonEmpty(flag, opt.workloads, "tenant workloads");
         }},
        designsOption(opt.grid, "baseline512,vc_opt"),
        {"--rounds", nullptr, "N", "kernel rounds per tenant (default 2)",
         store(opt.base_spec.rounds)},
        {"--switch", nullptr, "LIST",
         "keep-all, flush-l1, flush-all, asid-shootdown or all",
         [&opt](const char *flag, const std::string &value) {
             opt.switches.clear();
             for (const auto &name :
                  splitList(value != "all" ? value
                                           : "keep-all,flush-l1,flush-all,"
                                             "asid-shootdown")) {
                 if (!switchPolicyFromName(name, opt.switches.emplace_back()))
                     return std::string(flag) + ": unknown policy '" + name +
                            "'";
             }
             return nonEmpty(flag, opt.switches, "switch policies");
         }},
        {"--storm", nullptr, "LIST",
         "storm burst sizes in pages, 0 = off (default: 0,8)",
         [&opt](const char *flag, const std::string &value) {
             opt.storm_pages.clear();
             for (const auto &item : splitList(value)) {
                 CliError err =
                     parseValue(flag, item, opt.storm_pages.emplace_back());
                 if (!err.empty())
                     return err;
             }
             return nonEmpty(flag, opt.storm_pages, "storm burst sizes");
         }},
        {"--storm-period", nullptr, "N",
         "burst every N boundaries (default 1)",
         store(opt.base_spec.storm.period)},
        {"--storm-seed", nullptr, "N", "storm target RNG seed",
         store(opt.base_spec.storm.seed)},
        {"--arrival", nullptr, "KIND", "fixed | poisson (default: fixed)",
         storeNamed(opt.base_spec.arrival.kind, arrivalKindFromName,
                    "fixed | poisson")},
        {"--interval", nullptr, "N", "inter-arrival ticks (default 0)",
         store(opt.base_spec.arrival.interval)},
        {"--phase", nullptr, "N", "per-tenant arrival stagger ticks",
         store(opt.base_spec.arrival.phase)},
        {"--arrival-seed", nullptr, "N", "poisson inter-arrival seed",
         store(opt.base_spec.arrival.seed)},
        {"--sched", nullptr, "KIND", "serial | fifo | rr (default: fifo)",
         storeNamed(opt.base_spec.sched, tenantSchedFromName,
                    "serial | fifo | rr")},
        {"--per-tenant", nullptr, nullptr,
         "print the per-tenant breakdown table",
         storeConstant(opt.per_tenant)},
    };
    return concat({tenants, workloadParamOptions(opt.params),
                   {jobsOption(opt.grid)}, outputOptions(opt.out)});
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.params.scale = 0.5;
    if (const auto rc = parseCommandLine("gvc_tenants", "[options]",
                                         options(opt), argc, argv))
        return *rc;

    // Expand the cell grid in canonical (label-major, design-minor)
    // order: labels enumerate switch-policy x storm combinations.
    struct Cell
    {
        std::string label;
        TenantsSpec spec;
        RunConfig cfg;
    };
    std::string composite;
    for (std::size_t t = 0; t < opt.workloads.size(); ++t)
        composite += (t ? "+" : "") + opt.workloads[t];

    std::vector<std::string> labels;
    std::vector<Cell> cells;
    for (const SwitchPolicy sw : opt.switches) {
        for (const unsigned pages : opt.storm_pages) {
            const std::string label = composite + "|" +
                                      switchPolicyName(sw) + "|storm" +
                                      std::to_string(pages);
            labels.push_back(label);
            TenantsSpec spec = opt.base_spec;
            spec.switch_policy = sw;
            spec.storm.pages = pages;
            for (const auto &w : opt.workloads)
                spec.tenants.push_back(TenantSpec{w, opt.params});
            for (const MmuDesign d : opt.grid.designs)
                cells.push_back(
                    {label, spec, runConfigFor(d, opt.params, {})});
        }
    }

    // Each cell is a fully self-contained single-seed simulation, so a
    // worker pool over cells is deterministic regardless of job count:
    // results land at their cell's index, never in completion order.
    std::vector<ResultRecord> records(cells.size());
    const unsigned jobs = std::max(
        1u, std::min<unsigned>(opt.grid.jobs ? opt.grid.jobs : defaultJobs(),
                               unsigned(cells.size())));
    {
        ThreadPool pool(jobs);
        std::mutex progress;
        std::size_t finished = 0;
        std::vector<std::future<void>> futures;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            futures.push_back(pool.submit([&, i] {
                RunResult r = runTenants(cells[i].spec, cells[i].cfg);
                r.workload = cells[i].label;
                records[i] = ResultRecord{cells[i].cfg, std::move(r)};
                if (opt.out.quiet)
                    return;
                const std::lock_guard<std::mutex> lock(progress);
                std::fprintf(stderr, "[gvc_tenants] %zu/%zu %s x %s\n",
                             ++finished, cells.size(),
                             cells[i].label.c_str(),
                             designName(cells[i].cfg.design));
            }));
        }
        for (auto &f : futures)
            f.get();
    }

    if (opt.out.print_table) {
        TextTable table({"cell", "design", "exec cycles", "IOMMU acc",
                         "page walks", "switches", "storm pages"});
        for (const ResultRecord &rec : records) {
            const RunResult &r = rec.result;
            table.addRow({r.workload, designName(r.design),
                          std::to_string(r.exec_ticks),
                          std::to_string(r.iommu_accesses),
                          std::to_string(r.page_walks),
                          std::to_string(r.tenant_context_switches),
                          std::to_string(r.tenant_storm_pages)});
        }
        table.print();
        std::printf("\n%zu cells (%zu labels x %zu designs), %u worker "
                    "threads\n",
                    cells.size(), labels.size(), opt.grid.designs.size(),
                    jobs);
    }

    if (opt.per_tenant) {
        TextTable table({"cell", "design", "tenant", "launches",
                         "exec ticks", "IOMMU acc", "page walks"});
        for (const ResultRecord &rec : records) {
            for (const TenantStats &t : rec.result.tenants) {
                table.addRow({rec.result.workload,
                              designName(rec.result.design), t.workload,
                              std::to_string(t.launches),
                              std::to_string(t.stats.exec_ticks),
                              std::to_string(t.stats.iommu_accesses),
                              std::to_string(t.stats.page_walks)});
            }
        }
        std::printf("\n");
        table.print();
    }

    ExportMeta meta;
    meta.generator = "gvc_tenants";
    meta.workloads = labels;
    meta.designs = opt.grid.design_labels;
    meta.scale = opt.params.scale;
    meta.seed = opt.params.seed;
    meta.jobs = jobs;
    return writeResults("gvc_tenants", opt.out, meta, records) ? 0 : 1;
}
