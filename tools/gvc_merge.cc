/**
 * @file
 * gvc_merge — combine per-shard gvc_sweep JSON exports into one
 * results document in canonical grid order.
 *
 *   gvc_sweep -w all -d all --shard 0/2 --json s0.json    # host A
 *   gvc_sweep -w all -d all --shard 1/2 --json s1.json    # host B
 *   gvc_merge s0.json s1.json -o merged.json
 *
 * Shards must come from the same grid (schema version, workload and
 * design axes, scale, seed, shard count); duplicate or missing cells
 * are rejected by name.  The merged document is byte-identical to the
 * unsharded `gvc_sweep --json` export of the same grid.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/results_io.hh"
#include "sim/logging.hh"

using namespace gvc;

int
main(int argc, char **argv)
{
    std::vector<std::string> inputs;
    std::string out_path = "-";
    const OptionTable table = {
        {"--out", "-o", "PATH", "merged JSON ('-' = stdout, the default)",
         store(out_path)},
    };
    if (const auto rc = parseCommandLine(
            "gvc_merge", "[options] SHARD.json [SHARD.json ...]", table,
            argc, argv, 1, &inputs))
        return *rc;
    if (inputs.empty())
        return usageError("gvc_merge", "no shard files given (try --help)");

    std::vector<Json> shards;
    shards.reserve(inputs.size());
    for (const std::string &path : inputs) {
        std::string text, err;
        if (!readInput("gvc_merge", path, text))
            return 1;
        Json doc = Json::parse(text, &err);
        if (!err.empty())
            fatal("'" + path + "': invalid JSON: " + err);
        shards.push_back(std::move(doc));
    }

    Json merged;
    std::string err;
    if (!mergeResults(shards, merged, &err))
        fatal(err);

    if (!writeOutput("gvc_merge", out_path, merged.dump(2) + "\n"))
        return 1;
    std::fprintf(stderr,
                 "[gvc_merge] merged %zu shard%s, %zu cells -> %s\n",
                 shards.size(), shards.size() == 1 ? "" : "s",
                 merged.find("results")->size(), out_path.c_str());
    return 0;
}
