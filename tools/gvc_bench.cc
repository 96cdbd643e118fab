/**
 * @file
 * gvc_bench — continuous performance tracking driver: times the fixed
 * benchmark matrix (cold run, trace replay, warm scenario, small sweep
 * over 3 workloads x 3 designs) and emits/validates versioned
 * BENCH_PR<N>.json documents.
 *
 *   gvc_bench --out BENCH_PR6.json          full run, write the report
 *   gvc_bench --quick --check BENCH_PR6.json  CI gate: counters only
 *   gvc_bench --quick --out /tmp/b.json     fast local measurement
 *
 * Counters in the JSON are deterministic and gated field-exactly by
 * --check; wall times / throughput / RSS are recorded but never gated.
 */

#include <cstdio>
#include <string>

#include "harness/bench.hh"
#include "harness/cli.hh"
#include "sim/logging.hh"

using namespace gvc;

namespace
{

struct Options
{
    BenchOptions bench;
    WorkloadParams params; ///< --scale/--seed, copied into bench.
    std::string out;   ///< Write the report JSON here ("-" = stdout).
    std::string check; ///< Compare counters against this baseline file.
};

OptionTable
options(Options &opt)
{
    opt.params.scale = opt.bench.scale;
    opt.params.seed = opt.bench.seed;
    const OptionTable own = {
        {"--out", nullptr, "PATH", "write the report JSON ('-' = stdout)",
         store(opt.out)},
        {"--check", nullptr, "PATH",
         "exit 1 unless every counter matches this baseline",
         store(opt.check)},
        {"--quick", nullptr, nullptr, "1 trial, no warmup (same counters)",
         [&opt](const char *, const std::string &) {
             opt.bench.trials = 1;
             opt.bench.warmup = 0;
             return CliError();
         }},
        {"--trials", nullptr, "N", "timed trials per config (default 3)",
         store(opt.bench.trials)},
        {"--warmup", nullptr, "N", "untimed warmup runs (default 1)",
         store(opt.bench.warmup)},
        {"--rounds", nullptr, "N", "warm-scenario kernels (default 3)",
         store(opt.bench.scenario_rounds)},
        {"--quiet", nullptr, nullptr, "no per-config progress on stderr",
         storeConstant(opt.bench.progress, false)},
    };
    return concat({own, workloadParamOptions(opt.params)});
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
    opt.bench.scale = opt.params.scale;
    opt.bench.seed = opt.params.seed;

    // Loading the baseline up front makes a malformed file fail before
    // the (minutes-long) measurement, not after.
    BenchReport baseline;
    if (!opt.check.empty()) {
        std::string text, err;
        if (!readInput("gvc_bench", opt.check, text))
            return 1;
        const Json doc = Json::parse(text, &err);
        if (doc.isNull() || !benchReportFromJson(doc, baseline, &err))
            fatal("gvc_bench: baseline '" + opt.check + "': " + err);
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
