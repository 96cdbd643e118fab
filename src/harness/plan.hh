/**
 * @file
 * Cost-balanced shard planning for distributed sweeps.
 *
 * Modulo striping (`cell % N == I`) splits a grid evenly by *count*,
 * but Table-2 grid cells differ wildly in runtime (a reach design on a
 * graph workload can cost many times an ideal-MMU cell), so the
 * slowest shard gates the fleet.  This layer loads a per-cell cost
 * model from measurements the repo already produces — a `gvc_bench`
 * JSON report, a sweep checkpoint journal (`.gvcj`), or a sweep
 * results JSON document — and packs cells onto shards with the
 * classic LPT (longest-processing-time) greedy heuristic.
 *
 * Everything here is deterministic: samples aggregate by (workload,
 * design name) independent of file order, LPT breaks ties by
 * canonical cell index then lowest shard index, and the cost-model
 * file's FNV-1a-64 digest is stamped into each shard's export so
 * `gvc_merge` can refuse shard sets planned against different models
 * (which could silently overlap or leave holes).
 */

#ifndef GVC_HARNESS_PLAN_HH
#define GVC_HARNESS_PLAN_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace gvc
{

/**
 * Per-cell cost estimates aggregated from a measurement file.
 *
 * Costs are keyed by (workload, design display name) — the identity
 * both bench configs and results records already carry.  Multiple
 * samples for one cell average; lookups for unmeasured cells fall
 * back (exact cell -> workload mean -> overall mean -> 1.0), so a
 * partial measurement file still yields a usable plan and the uniform
 * model degenerates to balanced-count packing.
 */
class CostModel
{
  public:
    /** The no-measurements model: every cell costs 1.0. */
    static CostModel uniform() { return CostModel{}; }

    /**
     * Load measurements from @p path, auto-detected by content:
     * `.gvcj` journal (exec_ticks per journaled cell), `gvc_bench`
     * report (counters.exec_ticks per config), or sweep results JSON
     * (exec_ticks per record), so every cost is in simulated ticks.
     * Returns false with a named error in @p err on
     * unreadable/unrecognized files.
     */
    bool load(const std::string &path, std::string *err = nullptr);

    /** Estimated cost of one cell (always > 0; see fallback chain). */
    double costFor(const std::string &workload,
                   const std::string &design) const;

    /** FNV-1a-64 of the source file's bytes; 0 for the uniform model. */
    std::uint64_t digest() const { return digest_; }

    /** Path the model was loaded from; empty for the uniform model. */
    const std::string &source() const { return source_; }

    bool isUniform() const { return cells_.empty(); }

    /** Number of distinct (workload, design) cells with measurements. */
    std::size_t measuredCells() const { return cells_.size(); }

  private:
    struct Sample
    {
        double sum = 0.0;
        std::uint64_t count = 0;
        double mean() const { return count ? sum / double(count) : 0.0; }
    };

    void addSample(const std::string &workload, const std::string &design,
                   double cost);

    std::map<std::pair<std::string, std::string>, Sample> cells_;
    std::map<std::string, Sample> workloads_;
    Sample overall_;
    std::uint64_t digest_ = 0;
    std::string source_;
};

/**
 * Assign each cell to a shard by LPT greedy bin packing: cells sorted
 * by cost descending (canonical index ascending on ties) each go to
 * the currently least-loaded shard (lowest shard index on ties).
 * Returns one shard index per cell, in the cells' canonical order;
 * when @p loads is non-null it receives the final per-shard cost
 * totals.  Fully deterministic for a given (costs, shard_count).
 */
std::vector<unsigned> planShards(const std::vector<double> &costs,
                                 unsigned shard_count,
                                 std::vector<double> *loads = nullptr);

} // namespace gvc

#endif // GVC_HARNESS_PLAN_HH
