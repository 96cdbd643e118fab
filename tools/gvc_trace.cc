/**
 * @file
 * gvc_trace — workload trace capture/inspection/replay driver.
 *
 *   gvc_trace record -w bfs -o bfs.gvct [--scale F] [--seed N]
 *   gvc_trace info bfs.gvct
 *   gvc_trace replay bfs.gvct -d vc-opt [--json PATH|-]
 *
 * `record` generates the workload once (no simulation) and writes the
 * versioned binary trace; `replay` simulates it under any MMU design,
 * producing a RunResult bit-identical to a live `gvc_run` of the same
 * workload/params under that design.
 */

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "mmu/boundary.hh"

using namespace gvc;

namespace
{

/** GraphKind spellings, in enum order. */
constexpr const char *kGraphNames[] = {"rmat", "uniform", "grid"};

bool
graphFromName(const std::string &name, GraphKind &out)
{
    for (std::size_t g = 0; g < std::size(kGraphNames); ++g)
        if (name == kGraphNames[g]) {
            out = GraphKind(g);
            return true;
        }
    return false;
}

int
cmdRecord(int argc, char **argv)
{
    std::string workload;
    std::string out;
    WorkloadParams params;
    params.scale = 0.5;
    const OptionTable table = concat(
        {{workloadOption(workload),
          {"--out", "-o", "PATH", "output trace file (required)",
           store(out)}},
         workloadParamOptions(params),
         {{"--grid-warps", nullptr, "N", "warps per kernel launch",
           store(params.grid_warps)},
          {"--graph", nullptr, "KIND", "rmat | uniform | grid",
           storeNamed(params.graph, graphFromName,
                      "rmat | uniform | grid")}}});
    if (const auto rc = parseCommandLine("gvc_trace record", "[options]",
                                         table, argc, argv, 2))
        return *rc;
    if (workload.empty() || out.empty())
        return usageError("gvc_trace record",
                          "both -w WORKLOAD and -o PATH are required");

    const trace::Trace t = trace::captureWorkloadTrace(workload, params);
    std::string err;
    if (!trace::TraceWriter::writeFile(out, t, &err))
        fatal("record: " + err);
    std::printf("recorded %s (scale %.2f, seed %llu) -> %s\n",
                workload.c_str(), params.scale,
                (unsigned long long)params.seed, out.c_str());
    std::printf("  kernels %zu, warps %llu, instructions %llu, "
                "vm ops %zu, digest %016llx\n",
                t.kernels.size(), (unsigned long long)t.totalWarps(),
                (unsigned long long)t.totalInstructions(),
                t.vm_ops.size(),
                (unsigned long long)trace::traceDigest(t));
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usageError("gvc_trace info", "missing PATH");
    const std::string path = argv[2];
    trace::Trace t;
    std::string err;
    if (!trace::TraceReader::readFile(path, t, &err))
        fatal("info: " + err);

    std::printf("%s\n", path.c_str());
    std::printf("  format version : %u\n", t.formatVersion());
    std::printf("  workload       : %s\n", t.workload.c_str());
    std::printf("  scale          : %g\n", t.params.scale);
    std::printf("  seed           : %llu\n",
                (unsigned long long)t.params.seed);
    std::printf("  grid warps     : %u\n", t.params.grid_warps);
    std::printf("  graph          : %s\n",
                kGraphNames[unsigned(t.params.graph)]);
    std::printf("  vm ops         : %zu\n", t.vm_ops.size());
    std::printf("  kernels        : %zu\n", t.kernels.size());
    if (!t.boundaries.empty()) {
        std::printf("  boundaries     : %zu\n", t.boundaries.size());
        for (const auto &b : t.boundaries) {
            const auto policy = BoundaryPolicy::decode(b.policy);
            std::printf("    after kernel %llu: %s\n",
                        (unsigned long long)b.kernel,
                        policy ? boundaryPolicyName(*policy) : "?");
        }
    }
    std::printf("  warps          : %llu\n",
                (unsigned long long)t.totalWarps());
    std::printf("  instructions   : %llu\n",
                (unsigned long long)t.totalInstructions());
    std::printf("  digest         : %016llx\n",
                (unsigned long long)trace::traceDigest(t));
    return 0;
}

int
cmdReplay(int argc, char **argv)
{
    MmuDesign design = MmuDesign::kVcOpt;
    std::string json_out;
    bool quiet = false;
    std::vector<std::string> paths;
    const OptionTable table = {designOption(design), jsonOption(json_out),
                               quietOption(quiet)};
    if (const auto rc = parseCommandLine("gvc_trace replay",
                                         "PATH [options]", table, argc,
                                         argv, 2, &paths))
        return *rc;
    if (paths.empty())
        return usageError("gvc_trace replay",
                          "a trace file path is required");

    RunConfig cfg = runConfigFor(design, {}, {});
    cfg.trace_in = paths.back();
    const RunResult r = runWorkload("", cfg);

    if (!quiet) {
        std::printf("replayed %s (%s) under %s\n", cfg.trace_in.c_str(),
                    r.workload.c_str(), designName(r.design));
        std::printf("  cycles %llu, instructions %llu, IOMMU accesses "
                    "%llu, page walks %llu\n",
                    (unsigned long long)r.exec_ticks,
                    (unsigned long long)r.instructions,
                    (unsigned long long)r.iommu_accesses,
                    (unsigned long long)r.page_walks);
    }
    // cfg.soc is the resolved SoC the replay simulated.
    const bool ok = json_out.empty() ||
                    writeOutput("gvc_trace", json_out,
                                runResultToJson(r, &cfg.soc).dump(2) + "\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return dispatchSubcommand(
        "gvc_trace",
        {{"record", "capture a workload into a trace file", cmdRecord},
         {"info", "PATH: print a trace file's metadata and stream stats",
          cmdInfo},
         {"replay", "PATH: simulate a trace under an MMU design",
          cmdReplay}},
        argc, argv);
}
