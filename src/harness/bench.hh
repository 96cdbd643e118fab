/**
 * @file
 * The counter gate: a fixed benchmark matrix of representative
 * simulator configurations (cold run, trace replay, warm multi-kernel
 * scenario, multi-tenant run, small sweep, reach designs, TLB
 * policies), each run once for its deterministic counters.
 *
 * Reports serialize as a versioned JSON document (`BENCH_PR<N>.json`)
 * through the harness Json layer.  Counters (exec_ticks, instructions,
 * ...) are bit-deterministic per (matrix, scale, seed); CI compares
 * them field-exactly against the checked-in baseline, so any drift is
 * a simulator behavior change that must be acknowledged by
 * regenerating the file.  Host speed is not measured here: gvc_perf
 * (see docs/BENCHMARKING.md) is the speed instrument.
 *
 * Schema v2 holds counters only.  Version 1 documents also carried
 * per-trial wall times, throughput, and RSS; the reader accepts them
 * and ignores those fields.
 */

#ifndef GVC_HARNESS_BENCH_HH
#define GVC_HARNESS_BENCH_HH

#include <string>
#include <vector>

#include "harness/results_io.hh"

namespace gvc
{

/**
 * One configuration's deterministic counters: the RunCounters of a run
 * (forEachRunCounter() is their field table), summed over every
 * simulation the configuration executes, so a sweep config contributes
 * the sum over its cells.
 */
using BenchCounters = RunCounters;

/** Identity of one benchmark configuration. */
struct BenchConfig
{
    std::string mode;     ///< cold, replay, warm, tenants, sweep, policy-*.
    std::string workload; ///< Workload name, "a+b" tenants, or "grid".
    std::string design;   ///< designName(), or "3x3" for sweeps.

    /** Stable key: "<mode>/<workload>/<design>". */
    std::string name() const;
};

/** One configuration and its counters. */
struct BenchMeasurement
{
    BenchConfig cfg;
    BenchCounters counters;
};

/** How to run the benchmark matrix. */
struct BenchOptions
{
    WorkloadParams workload;      ///< Every cell's; scale defaults to 1.
    unsigned scenario_rounds = 3; ///< Kernels per warm-scenario config.
    bool progress = true;         ///< Per-configuration progress on stderr.

    BenchOptions() { workload.scale = 1.0; }
};

/** A complete benchmark run. */
struct BenchReport
{
    BenchOptions opts;
    std::vector<BenchMeasurement> configs;
};

/** Schema version stamped into bench JSON documents. */
inline constexpr int kBenchSchemaVersion = 2;

/** The fixed benchmark matrix. */
std::vector<BenchConfig> benchMatrix();

/** Run one configuration and return its counters. */
BenchCounters runBenchConfig(const BenchConfig &cfg,
                             const BenchOptions &opts);

/** Run every configuration of the matrix once. */
BenchReport runBench(const BenchOptions &opts);

/** Serialize a report (schema version kBenchSchemaVersion). */
Json benchReportToJson(const BenchReport &report);

/**
 * Parse a bench JSON document of version 1 or 2.  Field-exact on the
 * counters: unknown schema versions and missing or mistyped fields are
 * rejected.  Returns false and stores a message in @p err on any
 * defect.
 */
bool benchReportFromJson(const Json &doc, BenchReport &out,
                         std::string *err = nullptr);

/**
 * The run options (scale, seed, scenario rounds) in which @p current
 * differs from @p baseline, one "name: baseline X, current Y" entry
 * each; empty when they agree.  Known before any cell runs.
 */
std::vector<std::string> benchOptionMismatches(const BenchOptions &baseline,
                                               const BenchOptions &current);

/**
 * Compare the deterministic identity of two reports: scale, seed,
 * scenario rounds, configuration set, and every counter field must
 * match exactly.  Returns true when identical; otherwise false with a
 * human-readable description of every drifted field in @p diff.
 */
bool benchCountersMatch(const BenchReport &baseline,
                        const BenchReport &current, std::string &diff);

} // namespace gvc

#endif // GVC_HARNESS_BENCH_HH
