/**
 * @file
 * Parallel experiment orchestration: expand a declarative grid of
 * (workload, RunConfig) cells into jobs, execute them across worker
 * threads, and collect RunResults in deterministic grid order.
 *
 * Properties the figure benches rely on:
 *
 *  - **Determinism.**  Each simulation is a single-seed-deterministic,
 *    fully self-contained process (see the thread-safety audit in
 *    sweep.cc), so an N-thread sweep produces bit-identical RunResults
 *    to a serial one; results are always reported in add() order, never
 *    completion order.
 *  - **Memoization.**  Duplicate cells — same workload, design, and
 *    effective SocConfig/WorkloadParams — are simulated once and the
 *    result is shared, so e.g. the IDEAL baseline each figure
 *    normalizes against costs one run per workload regardless of how
 *    many comparison points reference it.  The memo cache persists
 *    across run() calls, so benches can add follow-up grids
 *    incrementally.
 *  - **Capture once, replay per design.**  By default each unique
 *    (workload, params) source is generated once into an in-memory
 *    gvc::trace::Trace and every design in the row replays it, so
 *    generation cost scales with the workloads, not the grid.  Replay
 *    is bit-identical to live generation; the memo key gains the trace
 *    digest so memoized results name the exact streams they ran.
 *    Disable with setCapture(false) or GVC_SWEEP_LIVE=1.
 *  - **One decode per trace file.**  Cells replaying a `.gvct` file
 *    (RunConfig::trace_in) share one decoded copy of it, read when the
 *    first of them starts and dropped after the last finishes.
 *  - **Progress.**  Completed-cell progress is reported to stderr
 *    (stdout stays clean for the figure tables); disable with
 *    setProgress(false) or GVC_SWEEP_QUIET=1.
 *
 * Worker count: explicit constructor argument, else the GVC_JOBS
 * environment variable, else std::thread::hardware_concurrency().
 */

#ifndef GVC_HARNESS_SWEEP_HH
#define GVC_HARNESS_SWEEP_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/results_io.hh"
#include "harness/runner.hh"

namespace gvc
{

/**
 * Worker threads to use by default: GVC_JOBS when set to a positive
 * integer, otherwise std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultJobs();

/**
 * Canonical memoization key of one cell: the workload name, design,
 * WorkloadParams, and *effective* SocConfig (after configFor() unless
 * raw_soc).  Two cells with equal keys simulate identically.
 */
std::string runConfigKey(const std::string &workload,
                         const RunConfig &cfg);

/** Queue of experiment cells, executed across a thread pool. */
class Sweep
{
  public:
    /** @param jobs  Worker threads; 0 means defaultJobs(). */
    explicit Sweep(unsigned jobs = 0);

    /**
     * Queue one cell; returns its index (stable across run()).
     * @p label is carried into progress reporting only.
     */
    std::size_t add(std::string workload, RunConfig cfg,
                    std::string label = {});

    /**
     * Convenience grid expansion: every workload under every design,
     * row-major (workload-major, design-minor), from @p base.
     */
    void addGrid(const std::vector<std::string> &workloads,
                 const std::vector<MmuDesign> &designs,
                 const RunConfig &base);

    /** Execute all cells that do not have a result yet. */
    void run();

    /**
     * Observer invoked (under an internal mutex — implementations need
     * no locking of their own) each time a cell's result becomes
     * available during run(): when a leader simulation completes, when
     * a duplicate cell is resolved from its leader, and when a cell is
     * satisfied from the cross-run memo cache.  This is the checkpoint
     * hook: gvc_sweep appends each completed cell to its `.gvcj`
     * journal from here, so a kill loses at most the cell in flight.
     * Cells satisfied by seedResult() do NOT fire the hook — they were
     * journaled by the run being resumed.
     */
    using CellHook = std::function<void(std::size_t idx,
                                        const RunResult &result)>;
    void setCellHook(CellHook hook) { cell_hook_ = std::move(hook); }

    /**
     * Pre-load cell @p idx with an already-known result (e.g. from a
     * checkpoint journal).  run() skips seeded cells entirely: no
     * simulation, no trace capture on their behalf, no hook firing.
     * Seeded results are deliberately not memoized — seed every
     * duplicate cell explicitly (duplicates share a runConfigKey, so
     * key-matched seeding covers them naturally).
     */
    void seedResult(std::size_t idx, RunResult result);

    /**
     * Cap the number of unique simulations a single run() call
     * executes (0 = unlimited).  With a cap in place run() may leave
     * cells unresolved — used by tests and `--max-cells` to produce a
     * deterministically interrupted sweep for resume proofs.
     */
    void setCellLimit(std::size_t limit) { cell_limit_ = limit; }

    /** Result of cell @p idx (run() must have covered it). */
    const RunResult &result(std::size_t idx) const;

    /** First result matching (workload, design); fatal when absent. */
    const RunResult &result(const std::string &workload,
                            MmuDesign design) const;

    /** All (config, result) pairs in add() order, for export. */
    std::vector<ResultRecord> records() const;

    std::size_t size() const { return items_.size(); }
    unsigned jobs() const { return jobs_; }
    /** Simulations actually executed (after memo deduplication). */
    std::size_t uniqueRuns() const { return unique_runs_; }
    void setProgress(bool on) { progress_ = on; }

    /** Enable/disable capture-once-replay-per-design (default: on). */
    void setCapture(bool on) { capture_ = on; }
    bool capture() const { return capture_; }

    /** Distinct (workload, params) sources captured so far. */
    std::size_t capturedTraces() const { return traces_.size(); }

    /** The captured trace for (workload, params); null if none. */
    std::shared_ptr<const trace::Trace>
    capturedTrace(const std::string &workload,
                  const WorkloadParams &params) const;

  private:
    struct Item
    {
        std::string workload;
        RunConfig cfg;
        std::string label;
        std::string key;
        std::string source_key; ///< Trace-cache key when capturing.
        std::optional<RunResult> result;
    };

    struct CapturedTrace
    {
        std::shared_ptr<const trace::Trace> trace;
        std::uint64_t digest = 0;
    };

    /** Generate traces for pending cells and fold digests into keys. */
    void captureSources();

    std::vector<Item> items_;
    std::unordered_map<std::string, RunResult> memo_;
    std::unordered_map<std::string, CapturedTrace> traces_;
    unsigned jobs_;
    std::size_t unique_runs_ = 0;
    bool progress_;
    bool capture_;
    CellHook cell_hook_;
    std::size_t cell_limit_ = 0;
};

} // namespace gvc

#endif // GVC_HARNESS_SWEEP_HH
