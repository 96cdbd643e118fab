/**
 * @file
 * gvc_bench — the counter gate: runs the fixed benchmark matrix (cold
 * run, trace replay, warm scenario, tenants, small sweep over 3
 * workloads x 3 designs, reach designs, TLB policies) once and
 * emits/validates versioned BENCH_PR<N>.json documents.
 *
 *   gvc_bench --out BENCH_PR<N>.json        run, write the report
 *   gvc_bench --check BENCH_PR10.json       CI gate: counters only
 *
 * --check compares every counter field-exactly and exits 1 on drift.
 * A baseline run at another scale, seed or round count is refused
 * before the first cell.
 * Host speed is gvc_perf's job (docs/BENCHMARKING.md).
 */

#include <cstdio>
#include <string>

#include "harness/bench.hh"
#include "harness/cli.hh"

using namespace gvc;

namespace
{

struct Options
{
    BenchOptions bench;
    std::string out;   ///< Write the report JSON here ("-" = stdout).
    std::string check; ///< Compare counters against this baseline file.
};

OptionTable
options(Options &opt)
{
    const OptionTable own = {
        {"--out", nullptr, "PATH", "write the report JSON ('-' = stdout)",
         store(opt.out)},
        {"--check", nullptr, "PATH",
         "exit 1 unless every counter matches this baseline",
         store(opt.check)},
        {"--rounds", nullptr, "N", "warm-scenario kernels (default 3)",
         store(opt.bench.scenario_rounds)},
        {"--quiet", nullptr, nullptr, "no per-config progress on stderr",
         storeConstant(opt.bench.progress, false)},
    };
    return concat({own, workloadParamOptions(opt.bench.workload)});
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (const auto rc = parseCommandLine("gvc_bench", "[options]",
                                         options(opt), argc, argv))
        return *rc;
    if (opt.out.empty() && opt.check.empty())
        return usageError("gvc_bench",
                          "nothing to do — pass --out and/or --check");

    // Loading the baseline up front makes a malformed file fail before
    // the (minutes-long) run, not after.
    BenchReport baseline;
    if (!opt.check.empty()) {
        std::string text, err;
        if (!readInput("gvc_bench", opt.check, text))
            return 1;
        const Json doc = Json::parse(text, &err);
        if (doc.isNull() || !benchReportFromJson(doc, baseline, &err)) {
            std::fprintf(stderr, "gvc_bench: baseline '%s': %s\n",
                         opt.check.c_str(), err.c_str());
            return 1;
        }
        // A baseline of other run options cannot match: say so now
        // instead of after the whole matrix.
        const auto mismatches = benchOptionMismatches(baseline.opts,
                                                      opt.bench);
        if (!mismatches.empty()) {
            std::string line;
            for (const std::string &m : mismatches)
                line += (line.empty() ? "" : "; ") + m;
            std::fprintf(stderr,
                         "gvc_bench: baseline '%s' was run with other "
                         "options: %s\n",
                         opt.check.c_str(), line.c_str());
            return 1;
        }
    }

    const BenchReport report = runBench(opt.bench);
    const std::string text = benchReportToJson(report).dump(2) + "\n";

    if (!opt.out.empty() && !writeOutput("gvc_bench", opt.out, text))
        return 1;

    if (!opt.check.empty()) {
        std::string diff;
        if (!benchCountersMatch(baseline, report, diff)) {
            std::fprintf(stderr,
                         "gvc_bench: counter drift vs '%s':\n%s"
                         "If the simulator behavior change is intended, "
                         "regenerate the baseline (see "
                         "docs/BENCHMARKING.md).\n",
                         opt.check.c_str(), diff.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "[gvc_bench] counters match '%s' field-exactly\n",
                     opt.check.c_str());
    }
    return 0;
}
