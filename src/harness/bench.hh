/**
 * @file
 * Continuous performance tracking: a fixed benchmark matrix of
 * representative simulator configurations (cold run, trace replay, warm
 * multi-kernel scenario, small sweep) timed with warmup and repeated
 * trials, reporting median wall time, throughput (warp instructions and
 * simulated cycles per wall second), and peak RSS.
 *
 * Reports serialize as a versioned JSON document (`BENCH_PR<N>.json`)
 * through the results_io Json layer.  The document carries two kinds of
 * fields with different contracts:
 *
 *  - **Counters** (exec_ticks, instructions, ...) are bit-deterministic
 *    per (matrix, scale, seed).  CI compares them field-exactly against
 *    the checked-in baseline — any drift is a simulator behavior change
 *    that must be acknowledged by regenerating the file.
 *  - **Wall times / throughput / RSS** are machine-dependent.  They are
 *    never gated on, only recorded, so the checked-in per-PR documents
 *    form an inspectable performance trajectory.
 */

#ifndef GVC_HARNESS_BENCH_HH
#define GVC_HARNESS_BENCH_HH

#include <cstdint>
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
    std::string mode;     ///< "cold" | "replay" | "warm" | "sweep".
    std::string workload; ///< Workload name, or "grid" for sweeps.
    std::string design;   ///< designName(), or "3x3" for sweeps.

    /** Stable key: "<mode>/<workload>/<design>". */
    std::string name() const;
};

/** One configuration's measurements across all trials. */
struct BenchMeasurement
{
    BenchConfig cfg;
    BenchCounters counters; ///< Identical across trials (verified).
    std::vector<double> wall_ms; ///< One entry per timed trial.
    double median_wall_ms = 0.0;
    /** Warp instructions retired per wall-clock second (median trial). */
    double warp_inst_per_sec = 0.0;
    /** Simulated cycles advanced per wall-clock second (median trial). */
    double sim_cycles_per_sec = 0.0;
    /** Process peak RSS after this configuration's trials, KiB. */
    std::uint64_t peak_rss_kb = 0;
};

/** How to run the benchmark matrix. */
struct BenchOptions
{
    double scale = 1.0;      ///< Workload scale for every cell.
    std::uint64_t seed;      ///< Workload seed (default: WorkloadParams').
    unsigned trials = 3;     ///< Timed trials per configuration.
    unsigned warmup = 1;     ///< Untimed warmup runs per configuration.
    unsigned scenario_rounds = 3; ///< Kernels per warm-scenario config.
    bool progress = true;    ///< Per-configuration progress on stderr.

    BenchOptions();
};

/** A complete benchmark run. */
struct BenchReport
{
    BenchOptions opts;
    std::vector<BenchMeasurement> configs;
};

/** Schema version stamped into bench JSON documents. */
inline constexpr int kBenchSchemaVersion = 1;

/** The fixed benchmark matrix for the given options. */
std::vector<BenchConfig> benchMatrix();

/**
 * Execute one configuration once and return its counters (no timing,
 * no warmup).  This is the exact simulation a timed trial runs, exposed
 * so tests can cross-check bench counters against the plain runner.
 */
BenchCounters runBenchConfigOnce(const BenchConfig &cfg,
                                 const BenchOptions &opts);

/**
 * Run the full matrix with warmup + trials per configuration.  Counters
 * are required to be identical across trials (fatal otherwise — the
 * simulator must be deterministic).
 */
BenchReport runBench(const BenchOptions &opts);

/** Serialize a report (schema version kBenchSchemaVersion). */
Json benchReportToJson(const BenchReport &report);

/**
 * Parse a bench JSON document.  Field-exact on the schema: unknown
 * schema versions and missing/mistyped fields are rejected.  Returns
 * false and stores a message in @p err on any defect.
 */
bool benchReportFromJson(const Json &doc, BenchReport &out,
                         std::string *err = nullptr);

/**
 * Compare the deterministic identity of two reports: scale, seed,
 * scenario rounds, configuration set, and every counter field must
 * match exactly.  Wall times, throughput, and RSS are ignored.
 * Returns true when identical; otherwise false with a human-readable
 * description of every drifted field in @p diff.
 */
bool benchCountersMatch(const BenchReport &baseline,
                        const BenchReport &current, std::string &diff);

/** Current process peak RSS in KiB (getrusage). */
std::uint64_t peakRssKb();

} // namespace gvc

#endif // GVC_HARNESS_BENCH_HH
