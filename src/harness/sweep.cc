/**
 * @file
 * Sweep engine implementation.
 *
 * Thread-safety audit of runWorkload() (why concurrent jobs are safe):
 * every piece of simulation state is constructed per call — SimContext
 * (event queue, stat registry, RNG), PhysMem, Vm, the workload
 * generator, Dram, SystemUnderTest, and Gpu all live on the job's
 * stack, and no component holds references to anything process-wide.
 * The only globals a run touches are (a) the debug-trace mask and the
 * workload name tables, which are function-local `static const` values
 * (C++11 magic statics: initialization is synchronized, and they are
 * immutable afterwards), and (b) stderr for warn()/trace output, where
 * interleaving is cosmetic.  fatal()/panic() terminate the process
 * from whichever thread hits them, which is the intended behaviour for
 * an invariant violation mid-sweep.
 */

#include "harness/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <thread>

#include "harness/thread_pool.hh"
#include "sim/logging.hh"

namespace gvc
{

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("GVC_JOBS")) {
        char *end = nullptr;
        const long n = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && n > 0)
            return unsigned(n);
        warn("GVC_JOBS='" + std::string(env) +
             "' is not a positive integer; ignoring");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::string
runConfigKey(const std::string &workload, const RunConfig &cfg)
{
    const SocConfig effective = effectiveSoc(cfg);
    Json key = Json::object();
    key.set("workload", workload);
    key.set("design", unsigned(cfg.design));
    key.set("params", workloadParamsToJson(cfg.workload));
    key.set("soc", socConfigToJson(effective));
    if (!cfg.trace_in.empty())
        key.set("trace_in", cfg.trace_in);
    return key.dump();
}

namespace
{

/** Trace-cache key: the generation inputs (workload + params). */
std::string
sourceKeyOf(const std::string &workload, const WorkloadParams &params)
{
    Json key = Json::object();
    key.set("workload", workload);
    key.set("params", workloadParamsToJson(params));
    return key.dump();
}

std::string
hexDigest(std::uint64_t digest)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

} // namespace

Sweep::Sweep(unsigned jobs)
    : jobs_(jobs ? jobs : defaultJobs()),
      progress_(std::getenv("GVC_SWEEP_QUIET") == nullptr),
      capture_(std::getenv("GVC_SWEEP_LIVE") == nullptr)
{
}

std::size_t
Sweep::add(std::string workload, RunConfig cfg, std::string label)
{
    Item item;
    item.key = runConfigKey(workload, cfg);
    item.workload = std::move(workload);
    item.cfg = cfg;
    item.label = std::move(label);
    items_.push_back(std::move(item));
    return items_.size() - 1;
}

void
Sweep::addGrid(const std::vector<std::string> &workloads,
               const std::vector<MmuDesign> &designs,
               const RunConfig &base)
{
    for (const auto &w : workloads) {
        for (const MmuDesign d : designs) {
            RunConfig cfg = base;
            cfg.design = d;
            add(w, cfg);
        }
    }
}

void
Sweep::captureSources()
{
    // Collect the distinct generation sources pending cells need, in
    // first-occurrence order for deterministic capture scheduling.
    std::vector<std::string> missing;
    for (Item &item : items_) {
        if (item.result || !item.cfg.trace_in.empty())
            continue;
        if (item.source_key.empty())
            item.source_key = sourceKeyOf(item.workload,
                                          item.cfg.workload);
        if (!traces_.count(item.source_key) &&
            std::find(missing.begin(), missing.end(), item.source_key) ==
                missing.end()) {
            missing.push_back(item.source_key);
        }
    }

    if (!missing.empty()) {
        // One generation pass per source; each capture is independent
        // (fresh PhysMem/Vm/workload per call), so they parallelize.
        std::vector<CapturedTrace> captured(missing.size());
        auto job = [this, &missing, &captured](std::size_t i) {
            const Item *item = nullptr;
            for (const Item &it : items_) {
                if (it.source_key == missing[i]) {
                    item = &it;
                    break;
                }
            }
            trace::WorkloadKernelSource source(item->workload,
                                               item->cfg.workload);
            auto t = std::make_shared<trace::Trace>(trace::captureTrace(
                source, item->cfg.soc.phys_mem_bytes));
            captured[i] = {t, trace::traceDigest(*t)};
        };
        const unsigned workers =
            unsigned(std::min<std::size_t>(jobs_, missing.size()));
        if (workers <= 1) {
            for (std::size_t i = 0; i < missing.size(); ++i)
                job(i);
        } else {
            ThreadPool pool(workers);
            std::vector<std::future<void>> futures;
            futures.reserve(missing.size());
            for (std::size_t i = 0; i < missing.size(); ++i)
                futures.push_back(pool.submit([&job, i] { job(i); }));
            for (auto &f : futures)
                f.get();
        }
        for (std::size_t i = 0; i < missing.size(); ++i)
            traces_.emplace(missing[i], std::move(captured[i]));
    }

    // The memo key names the exact streams the cell runs: append the
    // capture's digest so trace-replayed results never alias live ones.
    for (Item &item : items_) {
        if (item.result || item.source_key.empty())
            continue;
        const CapturedTrace &ct = traces_.at(item.source_key);
        const std::string suffix = "#trace:" + hexDigest(ct.digest);
        if (item.key.size() < suffix.size() ||
            item.key.compare(item.key.size() - suffix.size(),
                             suffix.size(), suffix) != 0) {
            item.key += suffix;
        }
    }
}

void
Sweep::run()
{
    if (capture_)
        captureSources();

    // The hook mutex outlives the parallel section below; hook calls
    // are serialized so implementations (journal appends) need no
    // locking of their own.
    std::mutex hook_mutex;
    auto fire_hook = [&](std::size_t idx, const RunResult &result) {
        if (!cell_hook_)
            return;
        std::lock_guard<std::mutex> lock(hook_mutex);
        cell_hook_(idx, result);
    };

    // Unique pending keys in first-occurrence (add) order, so the
    // serial path and job submission order are both deterministic.
    std::vector<std::size_t> leaders;
    for (std::size_t i = 0; i < items_.size(); ++i) {
        Item &item = items_[i];
        if (item.result)
            continue;
        if (auto memo = memo_.find(item.key); memo != memo_.end()) {
            item.result = memo->second;
            fire_hook(i, *item.result);
            continue;
        }
        bool first = true;
        for (const std::size_t j : leaders) {
            if (items_[j].key == item.key) {
                first = false;
                break;
            }
        }
        if (first)
            leaders.push_back(i);
    }

    // A cell limit deterministically truncates this run's work to the
    // first N unique simulations; later duplicates of an un-run leader
    // stay pending (the fanout below tolerates the missing memo).
    if (cell_limit_ && leaders.size() > cell_limit_)
        leaders.resize(cell_limit_);

    if (leaders.empty())
        return;

    const unsigned workers =
        unsigned(std::min<std::size_t>(jobs_, leaders.size()));
    const auto start = std::chrono::steady_clock::now();
    std::mutex progress_mutex;
    std::size_t completed = 0;

    auto report = [&](const Item &item) {
        if (!progress_)
            return;
        std::lock_guard<std::mutex> lock(progress_mutex);
        ++completed;
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        std::fprintf(stderr,
                     "[gvc::sweep] %3zu/%zu %s x %s%s%s (%.1fs)\n",
                     completed, leaders.size(), item.workload.c_str(),
                     designName(item.cfg.design),
                     item.label.empty() ? "" : " ",
                     item.label.c_str(), secs);
    };

    if (progress_) {
        std::fprintf(stderr,
                     "[gvc::sweep] %zu cells, %zu unique, %u worker%s\n",
                     items_.size(), leaders.size(), workers,
                     workers == 1 ? "" : "s");
    }

    // Replay the cell's captured trace when one exists; traces_ is not
    // mutated during execution, so concurrent reads are safe.
    auto run_item = [this](const Item &item) {
        if (!item.source_key.empty()) {
            trace::TraceKernelSource source(
                traces_.at(item.source_key).trace);
            return runSource(source, item.cfg);
        }
        return runWorkload(item.workload, item.cfg);
    };

    if (workers <= 1) {
        for (const std::size_t i : leaders) {
            Item &item = items_[i];
            item.result = run_item(item);
            // Checkpoint in the worker, before anything else can
            // observe the result: a kill after this point never loses
            // a completed simulation.
            fire_hook(i, *item.result);
            report(item);
        }
    } else {
        ThreadPool pool(workers);
        std::vector<std::future<RunResult>> futures;
        futures.reserve(leaders.size());
        for (const std::size_t i : leaders) {
            const Item &item = items_[i];
            futures.push_back(
                pool.submit([&item, i, &report, &run_item, &fire_hook] {
                    RunResult r = run_item(item);
                    fire_hook(i, r);
                    report(item);
                    return r;
                }));
        }
        for (std::size_t k = 0; k < leaders.size(); ++k)
            items_[leaders[k]].result = futures[k].get();
    }

    unique_runs_ += leaders.size();
    for (const std::size_t i : leaders)
        memo_.emplace(items_[i].key, *items_[i].result);
    // Fan the leader results out to every duplicate cell.  A missing
    // memo entry means the cell's leader fell past this run's cell
    // limit; the cell stays pending for the next run().
    for (std::size_t i = 0; i < items_.size(); ++i) {
        Item &item = items_[i];
        if (item.result)
            continue;
        if (const auto memo = memo_.find(item.key); memo != memo_.end()) {
            item.result = memo->second;
            fire_hook(i, *item.result);
        }
    }
}

void
Sweep::seedResult(std::size_t idx, RunResult result)
{
    panicIfNot(idx < items_.size(),
               "Sweep::seedResult: index out of range");
    items_[idx].result = std::move(result);
}

std::shared_ptr<const trace::Trace>
Sweep::capturedTrace(const std::string &workload,
                     const WorkloadParams &params) const
{
    const auto it = traces_.find(sourceKeyOf(workload, params));
    return it == traces_.end() ? nullptr : it->second.trace;
}

const RunResult &
Sweep::result(std::size_t idx) const
{
    panicIfNot(idx < items_.size(), "Sweep::result: index out of range");
    if (!items_[idx].result)
        fatal("Sweep::result: cell " + std::to_string(idx) +
              " has not been run (call run() first)");
    return *items_[idx].result;
}

const RunResult &
Sweep::result(const std::string &workload, MmuDesign design) const
{
    for (const Item &item : items_) {
        if (item.workload == workload && item.cfg.design == design &&
            item.result)
            return *item.result;
    }
    fatal("Sweep::result: no completed cell for " + workload + " x " +
          designName(design));
}

std::vector<ResultRecord>
Sweep::records() const
{
    std::vector<ResultRecord> out;
    out.reserve(items_.size());
    for (const Item &item : items_) {
        if (!item.result)
            continue;
        out.push_back({item.cfg, *item.result});
    }
    return out;
}

} // namespace gvc
