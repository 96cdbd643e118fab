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
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "harness/cli.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "mmu/boundary.hh"

using namespace gvc;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: gvc_trace <command> [options]\n"
        "\n"
        "commands:\n"
        "  record   capture a workload into a trace file\n"
        "    -w, --workload NAME   workload (see gvc_run --list)\n"
        "    -o, --out PATH        output trace file (required)\n"
        "        --scale F         workload scale factor (default 0.5)\n"
        "        --seed N          workload RNG seed\n"
        "        --grid-warps N    warps per kernel launch\n"
        "        --graph KIND      rmat | uniform | grid\n"
        "  info     print a trace file's metadata and stream stats\n"
        "    gvc_trace info PATH\n"
        "  replay   simulate a trace under an MMU design\n"
        "    gvc_trace replay PATH\n"
        "    -d, --design NAME     ideal | baseline-512 | baseline-16k |\n"
        "                          baseline-large-tlb | vc | vc-opt |\n"
        "                          l1vc-32 | l1vc-128 (default vc-opt)\n"
        "        --json PATH|-     write the RunResult as JSON\n"
        "        --quiet           suppress the text report\n");
    std::exit(code);
}

GraphKind
parseGraph(const std::string &name)
{
    if (name == "rmat")
        return GraphKind::kRmat;
    if (name == "uniform")
        return GraphKind::kUniform;
    if (name == "grid")
        return GraphKind::kGrid;
    fatal("unknown graph kind '" + name + "' (rmat|uniform|grid)");
}

const char *
graphName(GraphKind g)
{
    switch (g) {
      case GraphKind::kRmat:
        return "rmat";
      case GraphKind::kUniform:
        return "uniform";
      case GraphKind::kGrid:
        return "grid";
    }
    return "?";
}

int
cmdRecord(int argc, char **argv)
{
    std::string workload;
    std::string out;
    WorkloadParams params;
    params.scale = 0.5;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(1);
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "-w" || a == "--workload")
            workload = need(i);
        else if (a == "-o" || a == "--out")
            out = need(i);
        else if (a == "--scale")
            params.scale = parseDouble("--scale", need(i));
        else if (a == "--seed")
            params.seed = parseU64("--seed", need(i));
        else if (a == "--grid-warps")
            params.grid_warps = parseUnsigned("--grid-warps", need(i));
        else if (a == "--graph")
            params.graph = parseGraph(need(i));
        else if (a == "--help" || a == "-h")
            usage(0);
        else
            fatal("record: unknown option '" + a + "'");
    }
    if (workload.empty() || out.empty())
        fatal("record: both -w WORKLOAD and -o PATH are required");

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
        usage(1);
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
    std::printf("  graph          : %s\n", graphName(t.params.graph));
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
    std::string path;
    std::string design = "vc-opt";
    std::string json_out;
    bool quiet = false;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage(1);
        return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "-d" || a == "--design")
            design = need(i);
        else if (a == "--json")
            json_out = need(i);
        else if (a == "--quiet" || a == "-q")
            quiet = true;
        else if (a == "--help" || a == "-h")
            usage(0);
        else if (!a.empty() && a[0] == '-')
            fatal("replay: unknown option '" + a + "'");
        else
            path = a;
    }
    if (path.empty())
        fatal("replay: a trace file path is required");

    RunConfig cfg;
    cfg.design = parseDesign(design);
    cfg.trace_in = path;
    const RunResult r = runWorkload("", cfg);

    if (!quiet) {
        std::printf("replayed %s (%s) under %s\n", path.c_str(),
                    r.workload.c_str(), designName(r.design));
        std::printf("  cycles %llu, instructions %llu, IOMMU accesses "
                    "%llu, page walks %llu\n",
                    (unsigned long long)r.exec_ticks,
                    (unsigned long long)r.instructions,
                    (unsigned long long)r.iommu_accesses,
                    (unsigned long long)r.page_walks);
    }
    if (!json_out.empty()) {
        const SocConfig effective = effectiveSoc(cfg);
        const std::string doc =
            runResultToJson(r, &effective).dump(2) + "\n";
        if (json_out == "-") {
            std::fputs(doc.c_str(), stdout);
        } else {
            std::FILE *f = std::fopen(json_out.c_str(), "wb");
            if (!f)
                fatal("replay: cannot open '" + json_out + "'");
            std::fwrite(doc.data(), 1, doc.size(), f);
            std::fclose(f);
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage(1);
    const std::string cmd = argv[1];
    if (cmd == "--help" || cmd == "-h")
        usage(0);
    if (cmd == "record")
        return cmdRecord(argc, argv);
    if (cmd == "info")
        return cmdInfo(argc, argv);
    if (cmd == "replay")
        return cmdReplay(argc, argv);
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    usage(1);
}
