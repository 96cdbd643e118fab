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

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "harness/tenants.hh"

using namespace gvc;

namespace
{

struct Options
{
    std::vector<std::string> workloads{"pagerank", "bfs"};
    std::vector<MmuDesign> designs;
    std::vector<std::string> design_labels;
    std::vector<SwitchPolicy> switches;
    std::vector<unsigned> storm_pages{0, 8};
    TenantsSpec base_spec;
    RunConfig base;
    unsigned jobs = 0;
    std::string json_path;
    std::string csv_path;
    bool quiet = false;
    bool print_table = true;
    bool per_tenant = false;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: gvc_tenants [options]\n"
        "  -w, --workloads LIST    one workload per tenant, comma-\n"
        "                          separated (default: pagerank,bfs)\n"
        "  -d, --designs LIST      comma-separated designs\n"
        "                          (default: baseline512,vc_opt)\n"
        "      --rounds N          kernel rounds per tenant (default 2)\n"
        "      --switch LIST       context-switch policies: keep-all,\n"
        "                          flush-l1, flush-all, asid-shootdown,\n"
        "                          or 'all' (default: keep-all)\n"
        "      --storm LIST        shootdown-storm burst sizes in pages,\n"
        "                          0 = off (default: 0,8)\n"
        "      --storm-period N    burst every N boundaries (default 1)\n"
        "      --storm-seed N      storm target RNG seed\n"
        "      --arrival KIND      fixed | poisson (default: fixed)\n"
        "      --interval N        inter-arrival ticks (default 0)\n"
        "      --phase N           per-tenant arrival stagger ticks\n"
        "      --arrival-seed N    poisson inter-arrival seed\n"
        "      --sched KIND        serial | fifo | rr (default: fifo)\n"
        "      --scale F           workload scale factor (default 0.5)\n"
        "      --seed N            workload RNG seed (all tenants)\n"
        "  -j, --jobs N            worker threads (default: GVC_JOBS or\n"
        "                          hardware concurrency)\n"
        "      --json PATH         write results JSON ('-' = stdout)\n"
        "      --csv PATH          write CSV results ('-' = stdout)\n"
        "      --per-tenant        print the per-tenant breakdown table\n"
        "      --no-table          skip the summary table on stdout\n"
        "  -q, --quiet             no progress output on stderr\n"
        "      --help              this text\n");
    std::exit(code);
}

std::vector<std::string>
splitList(const std::string &spec)
{
    std::vector<std::string> out;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.base.workload.scale = 0.5;
    opt.switches = {SwitchPolicy::kKeepAll};
    std::string designs_spec = "baseline512,vc_opt";

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(1);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a == "-w" || a == "--workloads") {
            opt.workloads = splitList(need(i));
        } else if (a == "-d" || a == "--designs") {
            designs_spec = need(i);
        } else if (a == "--rounds") {
            opt.base_spec.rounds = parseUnsigned("--rounds", need(i));
        } else if (a == "--switch") {
            const std::string spec = need(i);
            opt.switches.clear();
            if (spec == "all") {
                opt.switches = {SwitchPolicy::kKeepAll,
                                SwitchPolicy::kFlushL1,
                                SwitchPolicy::kFlushAll,
                                SwitchPolicy::kAsidShootdown};
            } else {
                for (const auto &name : splitList(spec)) {
                    SwitchPolicy p;
                    if (!switchPolicyFromName(name, p))
                        fatal("--switch: unknown policy '" + name + "'");
                    opt.switches.push_back(p);
                }
            }
        } else if (a == "--storm") {
            opt.storm_pages.clear();
            for (const auto &item : splitList(need(i)))
                opt.storm_pages.push_back(
                    parseUnsigned("--storm", item));
        } else if (a == "--storm-period") {
            opt.base_spec.storm.period =
                parseUnsigned("--storm-period", need(i));
        } else if (a == "--storm-seed") {
            opt.base_spec.storm.seed = parseU64("--storm-seed", need(i));
        } else if (a == "--arrival") {
            if (!arrivalKindFromName(need(i),
                                     opt.base_spec.arrival.kind))
                fatal("--arrival: expected 'fixed' or 'poisson'");
        } else if (a == "--interval") {
            opt.base_spec.arrival.interval =
                parseU64("--interval", need(i));
        } else if (a == "--phase") {
            opt.base_spec.arrival.phase = parseU64("--phase", need(i));
        } else if (a == "--arrival-seed") {
            opt.base_spec.arrival.seed =
                parseU64("--arrival-seed", need(i));
        } else if (a == "--sched") {
            if (!tenantSchedFromName(need(i), opt.base_spec.sched))
                fatal("--sched: expected 'serial', 'fifo', or 'rr'");
        } else if (a == "--scale") {
            opt.base.workload.scale = parseDouble("--scale", need(i));
        } else if (a == "--seed") {
            opt.base.workload.seed = parseU64("--seed", need(i));
        } else if (a == "-j" || a == "--jobs") {
            opt.jobs = parseUnsigned("--jobs", need(i));
        } else if (a == "--json") {
            opt.json_path = need(i);
        } else if (a == "--csv") {
            opt.csv_path = need(i);
        } else if (a == "--per-tenant") {
            opt.per_tenant = true;
        } else if (a == "--no-table") {
            opt.print_table = false;
        } else if (a == "-q" || a == "--quiet") {
            opt.quiet = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(1);
        }
    }

    if (opt.workloads.empty())
        fatal("no tenant workloads selected");
    for (const auto &name : splitList(designs_spec)) {
        opt.designs.push_back(parseDesign(name));
        opt.design_labels.push_back(name);
    }
    if (opt.designs.empty())
        fatal("no designs selected");
    if (opt.switches.empty())
        fatal("no switch policies selected");
    if (opt.storm_pages.empty())
        fatal("no storm burst sizes selected");
    return opt;
}

void
writeOut(const std::string &path, const std::string &content,
         const char *what)
{
    if (path == "-") {
        std::fwrite(content.data(), 1, content.size(), stdout);
        return;
    }
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal(std::string("cannot open ") + what + " output file '" +
              path + "'");
    os << content;
    if (!os)
        fatal(std::string("failed writing ") + what + " to '" + path +
              "'");
    std::fprintf(stderr, "[gvc_tenants] wrote %s (%zu bytes)\n",
                 path.c_str(), content.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

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
            for (const MmuDesign d : opt.designs) {
                Cell cell;
                cell.label = label;
                cell.spec = opt.base_spec;
                cell.spec.switch_policy = sw;
                cell.spec.storm.pages = pages;
                for (const auto &w : opt.workloads)
                    cell.spec.tenants.push_back(
                        TenantSpec{w, opt.base.workload});
                cell.cfg = opt.base;
                cell.cfg.design = d;
                cells.push_back(std::move(cell));
            }
        }
    }

    // Each cell is a fully self-contained single-seed simulation, so a
    // worker pool over cells is deterministic regardless of job count:
    // results land at their cell's index, never in completion order.
    std::vector<ResultRecord> records(cells.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> finished{0};
    const unsigned jobs = std::max(
        1u, std::min<unsigned>(opt.jobs ? opt.jobs : defaultJobs(),
                               unsigned(cells.size())));
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= cells.size())
                return;
            RunResult r = runTenants(cells[i].spec, cells[i].cfg);
            r.workload = cells[i].label;
            records[i] = ResultRecord{cells[i].cfg, std::move(r)};
            const std::size_t done =
                finished.fetch_add(1, std::memory_order_relaxed) + 1;
            if (!opt.quiet) {
                std::fprintf(stderr, "[gvc_tenants] %zu/%zu %s x %s\n",
                             done, cells.size(),
                             cells[i].label.c_str(),
                             designName(cells[i].cfg.design));
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned j = 1; j < jobs; ++j)
        threads.emplace_back(worker);
    worker();
    for (auto &th : threads)
        th.join();

    if (opt.print_table) {
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
                    cells.size(), labels.size(), opt.designs.size(),
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

    if (!opt.json_path.empty()) {
        ExportMeta meta;
        meta.generator = "gvc_tenants";
        meta.workloads = labels;
        meta.designs = opt.design_labels;
        meta.scale = opt.base.workload.scale;
        meta.seed = opt.base.workload.seed;
        meta.jobs = jobs;
        writeOut(opt.json_path,
                 resultsToJson(meta, records).dump(2) + "\n", "JSON");
    }
    if (!opt.csv_path.empty())
        writeOut(opt.csv_path, resultsToCsv(records), "CSV");
    return 0;
}
