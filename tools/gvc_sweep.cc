/**
 * @file
 * gvc_sweep — parallel design-space sweep driver: run a (workload x
 * design) grid across worker threads and export the results as
 * versioned JSON and/or CSV (see harness/results_io.hh for the schema).
 *
 *   gvc_sweep --workloads bfs,pagerank --designs baseline512,vc_opt \
 *             --jobs 4 --json out.json
 *   gvc_sweep --workloads all --designs all --csv grid.csv
 *   gvc_sweep -w high-bw -d vc_opt,ideal --scale 0.25 --json - --no-table
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
    GridAxes grid;
    WorkloadParams params;
    SocOverrides soc;
    OutputOptions out;
    ShardSpec shard;
    std::string journal_path; ///< --journal: start a fresh checkpoint.
    std::string resume_path;  ///< --resume: continue a prior journal.
    std::string cost_model_path; ///< --cost-model (implies --balance).
    bool balance = false;     ///< LPT shard assignment instead of modulo.
    std::uint64_t max_cells = 0; ///< Cap unique simulations (0 = all).
    bool live = false; ///< Regenerate per cell instead of trace replay.
    bool list = false;
};

OptionTable
options(Options &opt)
{
    const OptionTable own = {
        {"--shard", nullptr, "I/N", "run shard I of N; combine with gvc_merge",
         [&opt](const char *flag, const std::string &value) {
             const CliError err = parseShardSpec(value, opt.shard);
             return err.empty() ? err : std::string(flag) + ": " + err;
         }},
        {"--balance", nullptr, nullptr,
         "assign shards by LPT cost balancing, not modulo",
         storeConstant(opt.balance)},
        {"--cost-model", nullptr, "FILE",
         "bench report, journal or results JSON; implies --balance",
         [&opt](const char *, const std::string &value) {
             opt.cost_model_path = value;
             opt.balance = true;
             return CliError();
         }},
        {"--journal", nullptr, "FILE", "checkpoint each finished cell to FILE",
         store(opt.journal_path)},
        {"--resume", nullptr, "FILE",
         "skip the cells FILE holds, append the rest",
         store(opt.resume_path)},
        {"--max-cells", nullptr, "N",
         "stop after N simulations, skip export", store(opt.max_cells)},
        {"--live", nullptr, nullptr,
         "regenerate workloads per cell (GVC_SWEEP_LIVE=1)",
         storeConstant(opt.live)},
        {"--list", nullptr, nullptr, "list workloads and designs, exit",
         storeConstant(opt.list)},
    };
    return concat({{workloadsOption(opt.grid, "all"),
                    designsOption(opt.grid, "ideal,baseline512,vc_opt"),
                    jobsOption(opt.grid)},
                   workloadParamOptions(opt.params), socOptions(opt.soc),
                   own, outputOptions(opt.out)});
}

void
printList()
{
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
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.params.scale = 0.5;
    if (const auto rc = parseCommandLine("gvc_sweep", "[options]",
                                         options(opt), argc, argv))
        return *rc;
    if (opt.list) {
        printList();
        return 0;
    }
    if (!opt.journal_path.empty() && !opt.resume_path.empty())
        return usageError("gvc_sweep",
                          "--journal starts a fresh checkpoint and "
                          "--resume continues one; pass exactly one of "
                          "them");

    Sweep sweep(opt.grid.jobs);
    if (opt.out.quiet)
        sweep.setProgress(false);
    if (opt.live)
        sweep.setCapture(false);
    sweep.setCellLimit(opt.max_cells);

    // Shard assignment: cost-balanced LPT when requested, else the
    // classic modulo stripe.
    CostModel cost_model = CostModel::uniform();
    if (!opt.cost_model_path.empty()) {
        std::string err;
        if (!cost_model.load(opt.cost_model_path, &err))
            fatal(err);
        if (!opt.out.quiet)
            std::fprintf(stderr,
                         "[gvc_sweep] cost model '%s': %zu measured "
                         "cells\n",
                         opt.cost_model_path.c_str(),
                         cost_model.measuredCells());
    }
    const std::vector<unsigned> assignment = assignShards(
        opt.grid, cost_model, opt.shard.count, opt.balance);

    ExportMeta meta;
    meta.workloads = opt.grid.workloads;
    meta.designs = opt.grid.design_labels;
    meta.scale = opt.params.scale;
    meta.seed = opt.params.seed;
    meta.jobs = sweep.jobs();
    meta.shard_index = opt.shard.index;
    meta.shard_count = opt.shard.count;
    if (opt.balance) {
        meta.shard_assignment = "lpt";
        meta.shard_cost_digest = cost_model.digest();
    }
    // Design rows set no policy field, so every cell shares one stamp.
    meta.tlb_policy =
        tlbPolicyStamp(resolveSoc(opt.grid.designs.front(), opt.soc));

    // This shard's cells in canonical (workload-major, design-minor)
    // order, each SoC the design's preset plus the user's SoC flags.
    // The whole grid is numbered on every invocation, so shard
    // assignment and journal keys do not depend on the invocation.
    struct Cell
    {
        RunConfig cfg;
        std::string key; ///< Names the cell in the journal.
    };
    std::vector<Cell> mine;
    std::size_t cell = 0;
    for (const auto &w : opt.grid.workloads) {
        for (const MmuDesign d : opt.grid.designs) {
            if (assignment[cell++] != opt.shard.index)
                continue;
            const RunConfig cfg = runConfigFor(d, opt.params, opt.soc);
            sweep.add(w, cfg);
            mine.push_back({cfg, runConfigKey(w, cfg)});
        }
    }

    // Checkpoint journal: seed already-completed cells on resume, then
    // append every newly completed cell from the sweep's cell hook.
    JournalWriter journal;
    std::unordered_set<std::string> journaled;
    if (!opt.resume_path.empty()) {
        std::string err;
        ExportMeta jmeta;
        std::vector<JournalEntry> entries;
        if (!readJournal(opt.resume_path, jmeta, entries, &err) ||
            !journalMatchesGrid(jmeta, meta, &err))
            fatal(err);
        std::unordered_map<std::string, const JournalEntry *> by_key;
        for (const JournalEntry &e : entries)
            by_key[e.key] = &e;
        std::size_t seeded = 0;
        for (std::size_t i = 0; i < mine.size(); ++i) {
            const auto it = by_key.find(mine[i].key);
            if (it == by_key.end())
                continue;
            sweep.seedResult(i, it->second->record.result);
            journaled.insert(mine[i].key);
            ++seeded;
        }
        if (!opt.out.quiet)
            std::fprintf(stderr,
                         "[gvc_sweep] resume '%s': %zu of %zu cells "
                         "already done\n",
                         opt.resume_path.c_str(), seeded, mine.size());
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
            if (!journaled.insert(mine[idx].key).second)
                return;
            std::string err;
            if (!journal.append(mine[idx].key,
                                ResultRecord{mine[idx].cfg, result},
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

    if (opt.out.print_table) {
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
        if (opt.shard.count > 1)
            std::printf("shard %u/%u (%s) of a %zu-cell grid\n",
                        opt.shard.index, opt.shard.count,
                        opt.balance ? "lpt" : "modulo", assignment.size());
    }

    return writeResults("gvc_sweep", opt.out, meta, sweep.records()) ? 0 : 1;
}
