#include "harness/bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "harness/sweep.hh"
#include "harness/tenants.hh"
#include "sim/logging.hh"
#include "trace/kernel_source.hh"

namespace gvc
{

namespace
{

/** The matrix cells: the golden-stats grid, so bench and golden-stats
 *  baselines can never disagree about which configurations matter. */
const char *const kBenchWorkloads[] = {"pagerank", "bfs", "hotspot"};
const MmuDesign kBenchDesigns[] = {MmuDesign::kBaseline512,
                                   MmuDesign::kVcOpt, MmuDesign::kL1Vc32};

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

RunConfig
cellConfig(const BenchConfig &cfg, const BenchOptions &opts)
{
    MmuDesign design;
    if (!designFromName(cfg.design, design))
        fatal("gvc_bench: unknown design '" + cfg.design + "'");
    RunConfig rc;
    rc.design = design;
    rc.workload.scale = opts.scale;
    rc.workload.seed = opts.seed;
    return rc;
}

/** In-memory captured traces for the replay configs, one per workload,
 *  shared across trials so capture cost never pollutes timing. */
class ReplayTraceCache
{
  public:
    std::shared_ptr<const trace::Trace>
    get(const std::string &workload, const BenchOptions &opts)
    {
        auto it = traces_.find(workload);
        if (it != traces_.end())
            return it->second;
        WorkloadParams params;
        params.scale = opts.scale;
        params.seed = opts.seed;
        auto trace = std::make_shared<trace::Trace>(
            trace::captureWorkloadTrace(workload, params));
        traces_.emplace(workload, trace);
        return trace;
    }

  private:
    std::unordered_map<std::string, std::shared_ptr<const trace::Trace>>
        traces_;
};

ReplayTraceCache &
replayTraces()
{
    static ReplayTraceCache cache;
    return cache;
}

BenchCounters
runCell(const BenchConfig &cfg, const BenchOptions &opts)
{
    if (cfg.mode == "cold") {
        return BenchCounters(
            runWorkload(cfg.workload, cellConfig(cfg, opts)));
    }
    if (cfg.mode == "replay") {
        trace::TraceKernelSource source(
            replayTraces().get(cfg.workload, opts));
        return BenchCounters(
            runSource(source, cellConfig(cfg, opts)));
    }
    if (cfg.mode == "warm") {
        ScenarioSpec spec;
        spec.rounds = opts.scenario_rounds;
        spec.boundary = BoundaryPolicy::keepAll();
        return BenchCounters(
            runScenario(cfg.workload, cellConfig(cfg, opts), spec));
    }
    if (cfg.mode == "policy-srrip" || cfg.mode == "policy-drrip" ||
        cfg.mode == "policy-bypass") {
        // Dead-entry-aware TLB policy cells: a cold run with the
        // policy knobs set on top of the design's config, so the RRIP
        // victim-selection and predictor/bypass paths stay on the
        // perf trajectory.
        RunConfig rc = cellConfig(cfg, opts);
        if (cfg.mode == "policy-srrip")
            rc.soc.tlb_replacement = kTlbReplSrrip;
        else if (cfg.mode == "policy-drrip")
            rc.soc.tlb_replacement = kTlbReplDrrip;
        else
            rc.soc.percu_tlb_fill_policy = kTlbFillBypassTrained;
        return BenchCounters(runWorkload(cfg.workload, rc));
    }
    if (cfg.mode == "tenants") {
        // Multi-tenant contention cell: '+'-separated tenant workloads
        // under the stressful end of the scheduler knobs (per-ASID
        // shootdown switches plus a storm burst at every boundary), so
        // the bench tracks the tenant subsystem's whole code path.
        TenantsSpec spec;
        std::string name;
        std::stringstream ss(cfg.workload);
        RunConfig rc = cellConfig(cfg, opts);
        while (std::getline(ss, name, '+'))
            if (!name.empty())
                spec.tenants.push_back(TenantSpec{name, rc.workload});
        spec.rounds = opts.scenario_rounds;
        spec.sched = TenantSched::kFifo;
        spec.arrival.kind = ArrivalSpec::Kind::kPoisson;
        spec.arrival.interval = 1000;
        spec.switch_policy = SwitchPolicy::kAsidShootdown;
        spec.storm.pages = 4;
        spec.storm.period = 1;
        return BenchCounters(runTenants(spec, rc));
    }
    if (cfg.mode == "sweep") {
        Sweep sweep(/*jobs=*/1);
        sweep.setProgress(false);
        RunConfig base;
        base.workload.scale = opts.scale;
        base.workload.seed = opts.seed;
        std::vector<std::string> workloads(std::begin(kBenchWorkloads),
                                           std::end(kBenchWorkloads));
        std::vector<MmuDesign> designs(std::begin(kBenchDesigns),
                                       std::end(kBenchDesigns));
        sweep.addGrid(workloads, designs, base);
        sweep.run();
        BenchCounters sum;
        for (std::size_t i = 0; i < sweep.size(); ++i)
            forEachRunCounter([](const char *, std::uint64_t &total,
                                 std::uint64_t v) { total += v; },
                              sum, sweep.result(i));
        return sum;
    }
    fatal("gvc_bench: unknown bench mode '" + cfg.mode + "'");
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

BenchOptions::BenchOptions() : seed(WorkloadParams{}.seed)
{
}

std::string
BenchConfig::name() const
{
    return mode + "/" + workload + "/" + design;
}

std::vector<BenchConfig>
benchMatrix()
{
    std::vector<BenchConfig> matrix;
    for (const char *mode : {"cold", "replay", "warm"})
        for (const char *w : kBenchWorkloads)
            for (const MmuDesign d : kBenchDesigns)
                matrix.push_back(BenchConfig{mode, w, designName(d)});
    for (const MmuDesign d : {MmuDesign::kBaseline512, MmuDesign::kVcOpt})
        matrix.push_back(
            BenchConfig{"tenants", "pagerank+bfs", designName(d)});
    matrix.push_back(BenchConfig{"sweep", "grid", "3x3"});
    // Reach-generalized designs: one cold cell each, on the most
    // translation-bound bench workload, so regressions in the reach,
    // coalescing, and stash paths show up in the perf history.
    for (const MmuDesign d :
         {MmuDesign::kBase2MB, MmuDesign::kBaseCoalesced,
          MmuDesign::kBaseVictima})
        matrix.push_back(BenchConfig{"cold", "pagerank", designName(d)});
    // Dead-entry-aware TLB policies: RRIP replacement on the
    // shared-TLB-bound baseline, the trained dead-entry bypass on the
    // design whose TLB thrash it attacks (l1vc-32).
    matrix.push_back(BenchConfig{"policy-srrip", "pagerank",
                                 designName(MmuDesign::kBaseline512)});
    matrix.push_back(BenchConfig{"policy-drrip", "bfs",
                                 designName(MmuDesign::kBaseline512)});
    matrix.push_back(BenchConfig{"policy-bypass", "pagerank",
                                 designName(MmuDesign::kL1Vc32)});
    return matrix;
}

BenchCounters
runBenchConfigOnce(const BenchConfig &cfg, const BenchOptions &opts)
{
    return runCell(cfg, opts);
}

BenchReport
runBench(const BenchOptions &opts)
{
    if (opts.trials == 0)
        fatal("gvc_bench: trials must be >= 1");
    BenchReport report;
    report.opts = opts;
    const auto matrix = benchMatrix();
    for (const BenchConfig &cfg : matrix) {
        BenchMeasurement m;
        m.cfg = cfg;
        for (unsigned i = 0; i < opts.warmup; ++i)
            runCell(cfg, opts);
        for (unsigned i = 0; i < opts.trials; ++i) {
            const double t0 = nowMs();
            const BenchCounters c = runCell(cfg, opts);
            m.wall_ms.push_back(nowMs() - t0);
            if (i == 0)
                m.counters = c;
            else if (c != m.counters)
                fatal("gvc_bench: counters drifted between trials of '" +
                      cfg.name() + "' — the simulator is nondeterministic");
        }
        m.median_wall_ms = median(m.wall_ms);
        if (m.median_wall_ms > 0.0) {
            m.warp_inst_per_sec = double(m.counters.instructions) /
                                  (m.median_wall_ms / 1e3);
            m.sim_cycles_per_sec = double(m.counters.exec_ticks) /
                                   (m.median_wall_ms / 1e3);
        }
        m.peak_rss_kb = peakRssKb();
        if (opts.progress) {
            std::fprintf(stderr,
                         "[gvc_bench] %-28s %9.1f ms  %11.0f winst/s  "
                         "%12.0f cyc/s\n",
                         cfg.name().c_str(), m.median_wall_ms,
                         m.warp_inst_per_sec, m.sim_cycles_per_sec);
        }
        report.configs.push_back(std::move(m));
    }
    return report;
}

Json
benchReportToJson(const BenchReport &report)
{
    Json doc = Json::object();
    doc.set("bench_schema_version", kBenchSchemaVersion);
    doc.set("generator", "gvc_bench");
    doc.set("scale", report.opts.scale);
    doc.set("seed", report.opts.seed);
    doc.set("trials", unsigned(report.opts.trials));
    doc.set("warmup", unsigned(report.opts.warmup));
    doc.set("scenario_rounds", unsigned(report.opts.scenario_rounds));
    Json configs = Json::array();
    for (const BenchMeasurement &m : report.configs) {
        Json j = Json::object();
        j.set("name", m.cfg.name());
        j.set("mode", m.cfg.mode);
        j.set("workload", m.cfg.workload);
        j.set("design", m.cfg.design);
        Json counters = Json::object();
        forEachRunCounter([&](const char *name,
                              std::uint64_t v) { counters.set(name, v); },
                          m.counters);
        j.set("counters", std::move(counters));
        Json walls = Json::array();
        for (const double ms : m.wall_ms)
            walls.push(ms);
        j.set("wall_ms", std::move(walls));
        j.set("median_wall_ms", m.median_wall_ms);
        j.set("warp_inst_per_sec", m.warp_inst_per_sec);
        j.set("sim_cycles_per_sec", m.sim_cycles_per_sec);
        j.set("peak_rss_kb", m.peak_rss_kb);
        configs.push(std::move(j));
    }
    doc.set("configs", std::move(configs));
    return doc;
}

namespace
{

bool
jsonField(const Json &obj, const char *key, const Json *&out,
          Json::Type type, std::string *err)
{
    const Json *v = obj.find(key);
    if (!v || v->type() != type) {
        if (err)
            *err = std::string("bench json: missing or mistyped field '") +
                   key + "'";
        return false;
    }
    out = v;
    return true;
}

/** A strict non-negative decimal integer field no larger than @p max. */
bool
jsonU64(const Json &obj, const char *key, std::uint64_t &out,
        std::string *err, std::uint64_t max = ~std::uint64_t(0))
{
    const Json *v = obj.find(key);
    if (!v || !v->toU64(out, max)) {
        if (err)
            *err = std::string("bench json: missing or malformed "
                               "integer field '") +
                   key + "'";
        return false;
    }
    return true;
}

bool
jsonUnsigned(const Json &obj, const char *key, unsigned &out,
             std::string *err)
{
    std::uint64_t v = 0;
    if (!jsonU64(obj, key, v, err, std::numeric_limits<unsigned>::max()))
        return false;
    out = unsigned(v);
    return true;
}

} // namespace

bool
benchReportFromJson(const Json &doc, BenchReport &out, std::string *err)
{
    if (!doc.isObject()) {
        if (err)
            *err = "bench json: document is not an object";
        return false;
    }
    const Json *v = nullptr;
    std::uint64_t version = 0;
    if (!jsonU64(doc, "bench_schema_version", version, err))
        return false;
    if (version != std::uint64_t(kBenchSchemaVersion)) {
        if (err)
            *err = "bench json: unknown bench_schema_version '" +
                   std::to_string(version) + "'";
        return false;
    }
    if (!jsonField(doc, "generator", v, Json::Type::kString, err))
        return false;
    BenchReport report;
    report.opts.progress = false;
    if (!jsonField(doc, "scale", v, Json::Type::kNumber, err))
        return false;
    report.opts.scale = v->asNumber();
    if (!jsonU64(doc, "seed", report.opts.seed, err) ||
        !jsonUnsigned(doc, "trials", report.opts.trials, err) ||
        !jsonUnsigned(doc, "warmup", report.opts.warmup, err) ||
        !jsonUnsigned(doc, "scenario_rounds", report.opts.scenario_rounds,
                      err))
        return false;
    const Json *configs = nullptr;
    if (!jsonField(doc, "configs", configs, Json::Type::kArray, err))
        return false;
    for (std::size_t i = 0; i < configs->size(); ++i) {
        const Json &j = configs->at(i);
        if (!j.isObject()) {
            if (err)
                *err = "bench json: configs[" + std::to_string(i) +
                       "] is not an object";
            return false;
        }
        BenchMeasurement m;
        if (!jsonField(j, "mode", v, Json::Type::kString, err))
            return false;
        m.cfg.mode = v->asString();
        if (!jsonField(j, "workload", v, Json::Type::kString, err))
            return false;
        m.cfg.workload = v->asString();
        if (!jsonField(j, "design", v, Json::Type::kString, err))
            return false;
        m.cfg.design = v->asString();
        if (!jsonField(j, "name", v, Json::Type::kString, err))
            return false;
        if (v->asString() != m.cfg.name()) {
            if (err)
                *err = "bench json: config name '" + v->asString() +
                       "' does not match its mode/workload/design";
            return false;
        }
        const Json *counters = nullptr;
        if (!jsonField(j, "counters", counters, Json::Type::kObject, err))
            return false;
        bool ok = true;
        forEachRunCounter(
            [&](const char *name, std::uint64_t &out) {
                ok = ok && jsonU64(*counters, name, out, err);
            },
            m.counters);
        if (!ok)
            return false;
        const Json *walls = nullptr;
        if (!jsonField(j, "wall_ms", walls, Json::Type::kArray, err))
            return false;
        for (std::size_t k = 0; k < walls->size(); ++k)
            m.wall_ms.push_back(walls->at(k).asNumber());
        if (!jsonField(j, "median_wall_ms", v, Json::Type::kNumber, err))
            return false;
        m.median_wall_ms = v->asNumber();
        if (!jsonField(j, "warp_inst_per_sec", v, Json::Type::kNumber,
                       err))
            return false;
        m.warp_inst_per_sec = v->asNumber();
        if (!jsonField(j, "sim_cycles_per_sec", v, Json::Type::kNumber,
                       err))
            return false;
        m.sim_cycles_per_sec = v->asNumber();
        if (!jsonU64(j, "peak_rss_kb", m.peak_rss_kb, err))
            return false;
        report.configs.push_back(std::move(m));
    }
    out = std::move(report);
    return true;
}

bool
benchCountersMatch(const BenchReport &baseline, const BenchReport &current,
                   std::string &diff)
{
    diff.clear();
    auto mismatch = [&diff](const std::string &what,
                            const std::string &base,
                            const std::string &cur) {
        diff += "  " + what + ": baseline " + base + ", current " + cur +
                "\n";
    };
    if (baseline.opts.scale != current.opts.scale)
        mismatch("scale", std::to_string(baseline.opts.scale),
                 std::to_string(current.opts.scale));
    if (baseline.opts.seed != current.opts.seed)
        mismatch("seed", std::to_string(baseline.opts.seed),
                 std::to_string(current.opts.seed));
    if (baseline.opts.scenario_rounds != current.opts.scenario_rounds)
        mismatch("scenario_rounds",
                 std::to_string(baseline.opts.scenario_rounds),
                 std::to_string(current.opts.scenario_rounds));

    for (const BenchMeasurement &b : baseline.configs) {
        const BenchMeasurement *c = nullptr;
        for (const BenchMeasurement &m : current.configs)
            if (m.cfg.name() == b.cfg.name())
                c = &m;
        if (!c) {
            mismatch("config " + b.cfg.name(), "present", "absent");
            continue;
        }
        forEachRunCounter(
            [&](const char *name, std::uint64_t base, std::uint64_t cur) {
                if (base != cur)
                    mismatch(b.cfg.name() + "." + name,
                             std::to_string(base), std::to_string(cur));
            },
            b.counters, c->counters);
    }
    for (const BenchMeasurement &m : current.configs) {
        bool found = false;
        for (const BenchMeasurement &b : baseline.configs)
            found = found || b.cfg.name() == m.cfg.name();
        if (!found)
            mismatch("config " + m.cfg.name(), "absent", "present");
    }
    return diff.empty();
}

std::uint64_t
peakRssKb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    std::uint64_t kb = std::uint64_t(ru.ru_maxrss);
#ifdef __APPLE__
    // ru_maxrss is bytes on macOS (KB on Linux/BSD); without this the
    // trajectory's RSS column is off by 1024x between hosts.
    kb /= 1024;
#endif
    return kb;
}

} // namespace gvc
