/**
 * @file
 * gvc_plan — inspect sweep checkpoint journals and preview shard
 * plans without running any simulation.
 *
 *   gvc_plan journal sweep.gvcj
 *       Validate a `.gvcj` checkpoint journal (magic, version, both
 *       digest layers, every record payload) and print its grid meta
 *       plus one line per journaled cell — the same strict reader
 *       `gvc_sweep --resume` uses, so "gvc_plan journal" succeeding
 *       means the resume will accept the file.
 *
 *   gvc_plan shards -w all -d all --shard-count 3 --cost-model B.json
 *       Preview the cost-balanced LPT assignment the same flags would
 *       produce in `gvc_sweep --balance`: per-cell costs and shard
 *       choices, plus per-shard load totals against the ideal split.
 *       `--modulo` previews the classic stripe instead, so the two
 *       strategies' balance can be compared side by side.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/journal.hh"
#include "harness/plan.hh"
#include "harness/table.hh"
#include "sim/logging.hh"

using namespace gvc;

namespace
{

int
cmdJournal(int argc, char **argv)
{
    if (argc != 3)
        return usageError("gvc_plan journal", "expected one FILE.gvcj");
    const std::string path = argv[2];
    ExportMeta meta;
    std::vector<JournalEntry> entries;
    std::string err;
    if (!readJournal(path, meta, entries, &err))
        fatal(err);

    std::printf("journal: %s\n", path.c_str());
    std::printf("generator: %s\n", meta.generator.c_str());
    std::printf("workloads:");
    for (const auto &w : meta.workloads)
        std::printf(" %s", w.c_str());
    std::printf("\ndesigns:");
    for (const auto &d : meta.designs)
        std::printf(" %s", d.c_str());
    std::printf("\nscale: %g  seed: %llu  jobs: %u\n", meta.scale,
                static_cast<unsigned long long>(meta.seed), meta.jobs);
    std::printf("shard: %u/%u  assignment: %s\n", meta.shard_index,
                meta.shard_count,
                meta.shard_assignment.empty()
                    ? "modulo"
                    : meta.shard_assignment.c_str());

    TextTable table({"#", "workload", "design", "exec cycles"});
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const RunResult &r = entries[i].record.result;
        table.addRow({std::to_string(i), r.workload,
                      designName(r.design),
                      std::to_string(r.exec_ticks)});
    }
    table.print();
    std::printf("\n%zu journaled cell%s (journal valid)\n",
                entries.size(), entries.size() == 1 ? "" : "s");
    return 0;
}

int
cmdShards(int argc, char **argv)
{
    GridAxes grid;
    std::string cost_model_path;
    unsigned shard_count = 1;
    bool modulo = false;
    const OptionTable table = {
        workloadsOption(grid, "all"),
        designsOption(grid, "ideal,baseline512,vc_opt"),
        {"--shard-count", nullptr, "N", "shards to plan for (default 1)",
         [&](const char *flag, const std::string &value) {
             CliError err = parseValue(flag, value, shard_count);
             if (err.empty() && shard_count == 0)
                 err = std::string(flag) + ": must be positive";
             return err;
         }},
        {"--cost-model", nullptr, "FILE",
         "bench report, journal or results JSON (default: uniform)",
         store(cost_model_path)},
        {"--modulo", nullptr, nullptr, "preview modulo, not LPT, shards",
         storeConstant(modulo)},
    };
    if (const auto rc = parseCommandLine("gvc_plan shards", "[options]",
                                         table, argc, argv, 2))
        return *rc;

    CostModel model = CostModel::uniform();
    if (!cost_model_path.empty()) {
        std::string err;
        if (!model.load(cost_model_path, &err))
            fatal(err);
        std::printf("cost model: %s (%zu measured cells, digest "
                    "%016llx)\n",
                    cost_model_path.c_str(), model.measuredCells(),
                    static_cast<unsigned long long>(model.digest()));
    } else {
        std::printf("cost model: uniform (every cell 1.0)\n");
    }

    std::vector<double> costs, loads;
    const std::vector<unsigned> assignment =
        assignShards(grid, model, shard_count, !modulo, &costs, &loads);
    TextTable cells({"#", "cell", "cost", "shard"});
    std::size_t i = 0;
    for (const auto &w : grid.workloads) {
        for (const MmuDesign d : grid.designs) {
            cells.addRow({std::to_string(i), w + " x " + designName(d),
                          TextTable::fmt(costs[i], 2),
                          std::to_string(assignment[i])});
            ++i;
        }
    }
    cells.print();

    double total = 0.0, max_load = 0.0;
    for (const double l : loads) {
        total += l;
        max_load = std::max(max_load, l);
    }
    const double ideal = total / double(shard_count);
    std::printf("\nassignment: %s, %zu cells over %u shard%s\n",
                modulo ? "modulo" : "lpt", costs.size(), shard_count,
                shard_count == 1 ? "" : "s");
    TextTable shards({"shard", "cells", "load", "vs ideal"});
    for (unsigned s = 0; s < shard_count; ++s) {
        std::size_t n = 0;
        for (const unsigned a : assignment)
            n += a == s;
        shards.addRow({std::to_string(s), std::to_string(n),
                       TextTable::fmt(loads[s], 2),
                       TextTable::fmt(ideal > 0.0 ? loads[s] / ideal : 1.0,
                                 3)});
    }
    shards.print();
    std::printf("\nmakespan %s (ideal %s, %.1f%% over)\n",
                TextTable::fmt(max_load, 2).c_str(),
                TextTable::fmt(ideal, 2).c_str(),
                ideal > 0.0 ? (max_load / ideal - 1.0) * 100.0 : 0.0);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return dispatchSubcommand(
        "gvc_plan",
        {{"journal",
          "FILE.gvcj: validate a sweep checkpoint journal and list its "
          "cells (the same strict reader --resume uses)",
          cmdJournal},
         {"shards",
          "preview the shard assignment gvc_sweep --shard would use",
          cmdShards}},
        argc, argv);
}
