/**
 * @file
 * gvc_sweep — parallel design-space sweep driver: run a (workload x
 * design) grid across worker threads and export the results as
 * versioned JSON and/or CSV (see harness/results_io.hh for the schema).
 *
 *   gvc_sweep --workloads bfs,pagerank --designs baseline512,vc_opt \
 *             --jobs 4 --json out.json
 *   gvc_sweep --workloads all --designs all --csv grid.csv
 *   gvc_sweep -w high-bw -d vc_opt,ideal --scale 0.25 --json -
 *
 * Multi-machine sharding: `--shard I/N` deterministically keeps the
 * grid cells whose canonical (workload-major, design-minor) index
 * satisfies idx % N == I, and stamps the shard position into the JSON
 * export.  Run every shard (any host, any order), then combine the
 * per-shard JSON files with `gvc_merge` — the merged document is
 * byte-identical to an unsharded run of the full grid.  `--balance`
 * replaces the modulo stripe with cost-balanced LPT bin packing driven
 * by `--cost-model FILE` (a gvc_bench report, sweep journal, or sweep
 * results JSON; uniform costs without one), so shards finish together
 * instead of the slowest cell-count stripe gating the fleet; every
 * shard of one grid must use the same flags (gvc_merge checks the
 * stamped assignment + cost-model digest).
 *
 * Checkpoint/resume: `--journal FILE.gvcj` appends every completed
 * cell to a crash-safe journal (harness/journal.hh); after an
 * interruption, `--resume FILE.gvcj` (with the same grid flags) skips
 * the journaled cells, finishes the rest, and exports byte-identically
 * to an uninterrupted run.
 *
 * Design names accept both the gvc_run spelling (vc-opt) and
 * underscore/concatenated forms (vc_opt, baseline512).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "harness/cli.hh"
#include "harness/journal.hh"
#include "harness/plan.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"

using namespace gvc;

namespace
{

struct Options
{
    std::vector<std::string> workloads;
    std::vector<MmuDesign> designs;
    std::vector<std::string> design_labels;
    RunConfig base;
    RawSocOverrides raw_set; ///< Raw fields the user set explicitly.
    ShardSpec shard;
    unsigned jobs = 0; ///< 0 = defaultJobs().
    std::string json_path;
    std::string csv_path;
    std::string journal_path; ///< --journal: start a fresh checkpoint.
    std::string resume_path;  ///< --resume: continue a prior journal.
    std::string cost_model_path; ///< --cost-model (implies --balance).
    bool balance = false;     ///< LPT shard assignment instead of modulo.
    std::size_t max_cells = 0; ///< Cap unique simulations (0 = all).
    bool quiet = false;
    bool print_table = true;
    bool live = false; ///< Regenerate per cell instead of trace replay.
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: gvc_sweep [options]\n"
        "  -w, --workloads LIST    comma-separated workloads, or\n"
        "                          'all' / 'high-bw' (default: all)\n"
        "  -d, --designs LIST      comma-separated designs, or 'all'\n"
        "                          (default: ideal,baseline512,vc_opt)\n"
        "      --scale F           workload scale factor (default 0.5)\n"
        "      --seed N            workload RNG seed\n"
        "  -j, --jobs N            worker threads (default: GVC_JOBS or\n"
        "                          hardware concurrency)\n"
        "      --shard I/N         run grid cells with index %% N == I\n"
        "                          (0 <= I < N); merge the per-shard\n"
        "                          JSON exports with gvc_merge\n"
        "      --balance           assign cells to shards by LPT cost\n"
        "                          balancing instead of modulo striping\n"
        "                          (same flags on every shard)\n"
        "      --cost-model FILE   per-cell costs for --balance: a\n"
        "                          gvc_bench report, .gvcj journal, or\n"
        "                          sweep results JSON (default: uniform;\n"
        "                          implies --balance)\n"
        "      --journal FILE      checkpoint each completed cell into\n"
        "                          FILE (.gvcj), overwriting it\n"
        "      --resume FILE       skip cells already in FILE, append\n"
        "                          the rest (same grid flags required)\n"
        "      --max-cells N       stop after N unique simulations and\n"
        "                          skip export (test/CI interruption)\n"
        "      --json PATH         write JSON results ('-' = stdout)\n"
        "      --csv PATH          write CSV results ('-' = stdout)\n"
        "      --iommu-bw F        shared TLB accesses/cycle override\n"
        "      --iommu-tlb N       shared TLB entries (raw mode)\n"
        "      --percu-tlb N       per-CU TLB entries (raw mode)\n"
        "      --fbt-entries N     FBT entries (raw mode)\n"
        "      --tlb-fill-policy P per-CU TLB fill policy: lru |\n"
        "                          bypass-dead (static next-line) |\n"
        "                          bypass-trained (trained predictor +\n"
        "                          dead-first victim selection)\n"
        "      --iommu-tlb-fill-policy P\n"
        "                          same policies for the shared IOMMU TLB\n"
        "      --tlb-replacement R TLB replacement, both levels: lru |\n"
        "                          srrip | brrip | drrip\n"
        "      --cus N             number of compute units\n"
        "      --live              regenerate each workload per cell\n"
        "                          instead of capture-once/replay\n"
        "                          (also: GVC_SWEEP_LIVE=1)\n"
        "      --no-table          skip the summary table on stdout\n"
        "  -q, --quiet             no progress output on stderr\n"
        "      --list              list workloads and designs, exit\n"
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
    std::string workloads_spec = "all";
    std::string designs_spec = "ideal,baseline512,vc_opt";

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(1);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage(0);
        } else if (a == "--list") {
            std::printf("workloads:\n");
            for (const auto &n : allWorkloadNames())
                std::printf("  %s\n", n.c_str());
            for (const auto &n : extraWorkloadNames())
                std::printf("  %s (extra)\n", n.c_str());
            std::printf("designs:\n");
            for (const DesignRow &row : kDesignRows)
                for (const char *spelling : row.spellings)
                    if (spelling)
                        std::printf("  %-18s %s\n", spelling, row.label);
            std::exit(0);
        } else if (a == "-w" || a == "--workloads") {
            workloads_spec = need(i);
        } else if (a == "-d" || a == "--designs") {
            designs_spec = need(i);
        } else if (a == "--scale") {
            opt.base.workload.scale = parseDouble("--scale", need(i));
        } else if (a == "--seed") {
            opt.base.workload.seed = parseU64("--seed", need(i));
        } else if (a == "-j" || a == "--jobs") {
            opt.jobs = parseUnsigned("--jobs", need(i));
        } else if (a == "--shard") {
            std::string err;
            if (!parseShardSpec(need(i), opt.shard, &err))
                fatal("--shard: " + err);
        } else if (a == "--balance") {
            opt.balance = true;
        } else if (a == "--cost-model") {
            opt.cost_model_path = need(i);
            opt.balance = true;
        } else if (a == "--journal") {
            opt.journal_path = need(i);
        } else if (a == "--resume") {
            opt.resume_path = need(i);
        } else if (a == "--max-cells") {
            opt.max_cells = parseU64("--max-cells", need(i));
        } else if (a == "--json") {
            opt.json_path = need(i);
        } else if (a == "--csv") {
            opt.csv_path = need(i);
        } else if (a == "--iommu-bw") {
            opt.base.soc.iommu.accesses_per_cycle =
                parseDouble("--iommu-bw", need(i));
        } else if (a == "--iommu-tlb") {
            opt.base.soc.iommu.tlb_entries =
                parseUnsigned("--iommu-tlb", need(i));
            opt.raw_set.iommu_tlb_entries = true;
            opt.base.raw_soc = true;
        } else if (a == "--percu-tlb") {
            opt.base.soc.percu_tlb_entries =
                parseUnsigned("--percu-tlb", need(i));
            opt.raw_set.percu_tlb_entries = true;
            opt.base.raw_soc = true;
        } else if (a == "--fbt-entries") {
            opt.base.soc.fbt.entries =
                parseUnsigned("--fbt-entries", need(i));
            opt.raw_set.fbt_entries = true;
            opt.base.raw_soc = true;
        } else if (a == "--tlb-fill-policy") {
            const std::string name = need(i);
            if (!tlbFillPolicyFromName(
                    name, opt.base.soc.percu_tlb_fill_policy)) {
                fatal("--tlb-fill-policy: unknown policy '" + name +
                      "' (lru | bypass-dead | bypass-trained)");
            }
        } else if (a == "--iommu-tlb-fill-policy") {
            const std::string name = need(i);
            if (!tlbFillPolicyFromName(
                    name, opt.base.soc.iommu_tlb_fill_policy)) {
                fatal("--iommu-tlb-fill-policy: unknown policy '" +
                      name + "' (lru | bypass-dead | bypass-trained)");
            }
        } else if (a == "--tlb-replacement") {
            const std::string name = need(i);
            if (!tlbReplacementFromName(
                    name, opt.base.soc.tlb_replacement)) {
                fatal("--tlb-replacement: unknown policy '" + name +
                      "' (lru | srrip | brrip | drrip)");
            }
        } else if (a == "--cus") {
            opt.base.soc.gpu.num_cus = parseUnsigned("--cus", need(i));
        } else if (a == "--live") {
            opt.live = true;
        } else if (a == "--no-table") {
            opt.print_table = false;
        } else if (a == "-q" || a == "--quiet") {
            opt.quiet = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
            usage(1);
        }
    }

    if (workloads_spec == "all")
        opt.workloads = allWorkloadNames();
    else if (workloads_spec == "high-bw")
        opt.workloads = highBandwidthWorkloadNames();
    else
        opt.workloads = splitList(workloads_spec);
    if (opt.workloads.empty())
        fatal("no workloads selected");

    std::vector<std::string> design_names;
    if (designs_spec == "all") {
        design_names = {"ideal",   "baseline512", "baseline16k",
                        "baseline_large_tlb", "vc", "vc_opt",
                        "l1vc32",  "l1vc128", "base2mb",
                        "basecoalesced", "basevictima"};
    } else {
        design_names = splitList(designs_spec);
    }
    for (const auto &name : design_names) {
        opt.designs.push_back(parseDesign(name));
        opt.design_labels.push_back(name);
    }
    if (opt.designs.empty())
        fatal("no designs selected");
    if (!opt.journal_path.empty() && !opt.resume_path.empty())
        fatal("--journal starts a fresh checkpoint and --resume "
              "continues one; pass exactly one of them");
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
    std::fprintf(stderr, "[gvc_sweep] wrote %s (%zu bytes)\n",
                 path.c_str(), content.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    Sweep sweep(opt.jobs);
    if (opt.quiet)
        sweep.setProgress(false);
    if (opt.live)
        sweep.setCapture(false);
    if (opt.max_cells)
        sweep.setCellLimit(opt.max_cells);

    // Expand the full grid in canonical order (workload-major,
    // design-minor), carrying each design's structural intent into
    // raw-mode cells.  Every invocation sees the whole grid so shard
    // assignment and journal keys are invocation-independent.
    struct GridCell
    {
        std::string workload;
        RunConfig cfg;
        std::string key;
    };
    std::vector<GridCell> grid;
    for (const auto &w : opt.workloads) {
        for (const MmuDesign d : opt.designs) {
            RunConfig cfg = opt.base;
            cfg.design = d;
            applyRawDesignIntent(cfg, opt.raw_set);
            grid.push_back({w, cfg, runConfigKey(w, cfg)});
        }
    }

    // Shard assignment: cost-balanced LPT when requested, else the
    // classic modulo stripe.
    CostModel cost_model = CostModel::uniform();
    if (!opt.cost_model_path.empty()) {
        std::string err;
        if (!cost_model.load(opt.cost_model_path, &err))
            fatal(err);
        if (!opt.quiet) {
            std::fprintf(stderr,
                         "[gvc_sweep] cost model '%s': %zu measured "
                         "cells\n",
                         opt.cost_model_path.c_str(),
                         cost_model.measuredCells());
        }
    }
    std::vector<unsigned> assignment(grid.size(), 0);
    if (opt.balance) {
        std::vector<double> costs;
        costs.reserve(grid.size());
        for (const GridCell &c : grid)
            costs.push_back(cost_model.costFor(c.workload,
                                               designName(c.cfg.design)));
        assignment = planShards(costs, opt.shard.count);
    } else {
        for (std::size_t i = 0; i < grid.size(); ++i)
            assignment[i] = unsigned(i % opt.shard.count);
    }

    ExportMeta meta;
    meta.workloads = opt.workloads;
    meta.designs = opt.design_labels;
    meta.scale = opt.base.workload.scale;
    meta.seed = opt.base.workload.seed;
    meta.jobs = sweep.jobs();
    meta.shard_index = opt.shard.index;
    meta.shard_count = opt.shard.count;
    if (opt.balance) {
        meta.shard_assignment = "lpt";
        meta.shard_cost_digest = cost_model.digest();
    }
    meta.tlb_policy = tlbPolicyStamp(opt.base.soc);

    // This shard's cells, in canonical order; mine[i] is the grid
    // cell behind the sweep's cell i (its key names it in the
    // journal, its cfg rides along in journaled records).
    std::vector<const GridCell *> mine;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (assignment[i] != opt.shard.index)
            continue;
        sweep.add(grid[i].workload, grid[i].cfg);
        mine.push_back(&grid[i]);
    }

    // Checkpoint journal: seed already-completed cells on resume, then
    // append every newly completed cell from the sweep's cell hook.
    JournalWriter journal;
    std::unordered_set<std::string> journaled;
    if (!opt.resume_path.empty()) {
        std::string err;
        ExportMeta jmeta;
        std::vector<JournalEntry> entries;
        if (!readJournal(opt.resume_path, jmeta, entries, &err))
            fatal(err);
        if (!journalMatchesGrid(jmeta, meta, &err))
            fatal(err);
        std::unordered_map<std::string, const JournalEntry *> by_key;
        for (const JournalEntry &e : entries)
            by_key[e.key] = &e;
        std::size_t seeded = 0;
        for (std::size_t i = 0; i < mine.size(); ++i) {
            const auto it = by_key.find(mine[i]->key);
            if (it == by_key.end())
                continue;
            sweep.seedResult(i, it->second->record.result);
            journaled.insert(mine[i]->key);
            ++seeded;
        }
        if (!opt.quiet) {
            std::fprintf(stderr,
                         "[gvc_sweep] resume '%s': %zu of %zu cells "
                         "already done\n",
                         opt.resume_path.c_str(), seeded, mine.size());
        }
        if (!journal.openAppend(opt.resume_path, &err))
            fatal(err);
    } else if (!opt.journal_path.empty()) {
        std::string err;
        if (!journal.create(opt.journal_path, meta, &err))
            fatal(err);
    }
    if (journal.isOpen()) {
        sweep.setCellHook([&](std::size_t idx, const RunResult &result) {
            // Duplicate cells share a key; journal each key once (the
            // hook is already serialized by the sweep).
            if (!journaled.insert(mine[idx]->key).second)
                return;
            std::string err;
            if (!journal.append(mine[idx]->key,
                                ResultRecord{mine[idx]->cfg, result},
                                &err))
                fatal(err);
        });
    }

    sweep.run();

    // A cell limit may leave the sweep incomplete on purpose; report
    // and stop before the table/export layers (which require a full
    // grid) — the journal already holds everything that finished.
    const std::size_t done = sweep.records().size();
    if (done < sweep.size()) {
        std::fprintf(stderr,
                     "[gvc_sweep] interrupted: %zu of %zu cells "
                     "complete; rerun with --resume %s to finish\n",
                     done, sweep.size(),
                     journal.isOpen() ? journal.path().c_str()
                                      : "<journal>");
        return 0;
    }

    if (opt.print_table) {
        TextTable table({"workload", "design", "exec cycles",
                         "IOMMU acc", "page walks", "L2 hit"});
        for (std::size_t i = 0; i < sweep.size(); ++i) {
            const RunResult &r = sweep.result(i);
            table.addRow({r.workload, designName(r.design),
                          std::to_string(r.exec_ticks),
                          std::to_string(r.iommu_accesses),
                          std::to_string(r.page_walks),
                          TextTable::pct(r.l2_hit_ratio, 1)});
        }
        table.print();
        std::printf("\n%zu cells, %zu simulated (%zu memoized), %u "
                    "worker threads\n",
                    sweep.size(), sweep.uniqueRuns(),
                    sweep.size() - sweep.uniqueRuns(), sweep.jobs());
        if (opt.shard.count > 1) {
            std::printf("shard %u/%u (%s) of a %zu-cell grid\n",
                        opt.shard.index, opt.shard.count,
                        opt.balance ? "lpt" : "modulo", grid.size());
        }
    }

    if (!opt.json_path.empty() || !opt.csv_path.empty()) {
        const std::vector<ResultRecord> records = sweep.records();
        if (!opt.json_path.empty()) {
            writeOut(opt.json_path,
                     resultsToJson(meta, records).dump(2) + "\n",
                     "JSON");
        }
        if (!opt.csv_path.empty())
            writeOut(opt.csv_path, resultsToCsv(records), "CSV");
    }
    return 0;
}
