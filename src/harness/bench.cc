#include "harness/bench.hh"

#include <cstdio>
#include <memory>
#include <sstream>
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

} // namespace

BenchCounters
runBenchConfig(const BenchConfig &cfg, const BenchOptions &opts)
{
    RunConfig rc;
    rc.workload = opts.workload;
    if (cfg.mode == "sweep") {
        Sweep sweep(/*jobs=*/1);
        sweep.setProgress(false);
        std::vector<std::string> workloads(std::begin(kBenchWorkloads),
                                           std::end(kBenchWorkloads));
        std::vector<MmuDesign> designs(std::begin(kBenchDesigns),
                                       std::end(kBenchDesigns));
        sweep.addGrid(workloads, designs, rc);
        sweep.run();
        BenchCounters sum;
        for (std::size_t i = 0; i < sweep.size(); ++i)
            forEachRunCounter([](const char *, std::uint64_t &total,
                                 std::uint64_t v) { total += v; },
                              sum, sweep.result(i));
        return sum;
    }
    if (!designFromName(cfg.design, rc.design))
        fatal("gvc_bench: unknown design '" + cfg.design + "'");
    if (cfg.mode == "cold")
        return BenchCounters(runWorkload(cfg.workload, rc));
    if (cfg.mode == "replay") {
        trace::TraceKernelSource source(std::make_shared<trace::Trace>(
            trace::captureWorkloadTrace(cfg.workload, opts.workload)));
        return BenchCounters(runSource(source, rc));
    }
    if (cfg.mode == "warm") {
        ScenarioSpec spec;
        spec.rounds = opts.scenario_rounds;
        spec.boundary = BoundaryPolicy::keepAll();
        return BenchCounters(runScenario(cfg.workload, rc, spec));
    }
    if (cfg.mode == "policy-srrip" || cfg.mode == "policy-drrip" ||
        cfg.mode == "policy-bypass") {
        // Dead-entry-aware TLB policy cells: a cold run with the
        // policy knobs set on top of the design's config, so the RRIP
        // victim-selection and predictor/bypass paths stay gated.
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
        // the gate covers the tenant subsystem's whole code path.
        TenantsSpec spec;
        std::string name;
        std::stringstream ss(cfg.workload);
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
    fatal("gvc_bench: unknown bench mode '" + cfg.mode + "'");
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
    // coalescing, and stash paths show up in the gate.
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

BenchReport
runBench(const BenchOptions &opts)
{
    BenchReport report;
    report.opts = opts;
    for (const BenchConfig &cfg : benchMatrix()) {
        const BenchCounters counters = runBenchConfig(cfg, opts);
        if (opts.progress)
            std::fprintf(stderr, "[gvc_bench] %-28s exec_ticks %llu\n",
                         cfg.name().c_str(),
                         (unsigned long long)counters.exec_ticks);
        report.configs.push_back({cfg, counters});
    }
    return report;
}

Json
benchReportToJson(const BenchReport &report)
{
    Json doc = Json::object();
    doc.set("bench_schema_version", kBenchSchemaVersion);
    doc.set("generator", "gvc_bench");
    doc.set("scale", report.opts.workload.scale);
    doc.set("seed", report.opts.workload.seed);
    doc.set("scenario_rounds", report.opts.scenario_rounds);
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
        configs.push(std::move(j));
    }
    doc.set("configs", std::move(configs));
    return doc;
}

bool
benchReportFromJson(const Json &doc, BenchReport &out, std::string *err)
{
    JsonReader r;
    BenchReport report;
    report.opts.progress = false;
    std::uint64_t version = 0;
    std::string generator;
    const Json *configs = nullptr;
    bool ok = (doc.isObject() || r.fail("bench: expected a JSON object")) &&
              r.read(doc, "bench_schema_version", "bench", version);
    // Version 1 differs only in its timing fields, which are ignored.
    if (ok && version != 1 && version != std::uint64_t(kBenchSchemaVersion))
        ok = r.fail("bench: unknown bench_schema_version " +
                    std::to_string(version));
    ok = ok && r.getString(doc, "generator", "bench", generator) &&
         r.read(doc, "scale", "bench", report.opts.workload.scale) &&
         r.read(doc, "seed", "bench", report.opts.workload.seed) &&
         r.read(doc, "scenario_rounds", "bench",
                report.opts.scenario_rounds) &&
         (configs = r.getArray(doc, "configs", "bench"));
    for (std::size_t i = 0; ok && i < configs->size(); ++i) {
        const Json &j = configs->at(i);
        const std::string ctx = "bench.configs[" + std::to_string(i) + "]";
        BenchMeasurement m;
        std::string name;
        const Json *counters = nullptr;
        ok = (j.isObject() || r.fail(ctx + ": expected an object")) &&
             r.getString(j, "mode", ctx, m.cfg.mode) &&
             r.getString(j, "workload", ctx, m.cfg.workload) &&
             r.getString(j, "design", ctx, m.cfg.design) &&
             r.getString(j, "name", ctx, name) &&
             (name == m.cfg.name() ||
              r.fail(ctx + ".name: '" + name + "' does not match its "
                     "mode/workload/design")) &&
             (counters = r.getObject(j, "counters", ctx));
        forEachRunCounter(
            [&](const char *field, std::uint64_t &v) {
                ok = ok && r.read(*counters, field, ctx + ".counters", v);
            },
            m.counters);
        report.configs.push_back(std::move(m));
    }
    if (!ok) {
        if (err)
            *err = r.err;
        return false;
    }
    out = std::move(report);
    return true;
}

std::vector<std::string>
benchOptionMismatches(const BenchOptions &baseline,
                      const BenchOptions &current)
{
    std::vector<std::string> out;
    const auto check = [&out](const char *what, auto base, auto cur) {
        if (base != cur)
            out.push_back(std::string(what) + ": baseline " +
                          std::to_string(base) + ", current " +
                          std::to_string(cur));
    };
    check("scale", baseline.workload.scale, current.workload.scale);
    check("seed", baseline.workload.seed, current.workload.seed);
    check("scenario_rounds", baseline.scenario_rounds,
          current.scenario_rounds);
    return out;
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
    for (const std::string &m :
         benchOptionMismatches(baseline.opts, current.opts))
        diff += "  " + m + "\n";

    const auto find = [](const BenchReport &r, const std::string &name) {
        const BenchMeasurement *found = nullptr;
        for (const BenchMeasurement &m : r.configs)
            found = m.cfg.name() == name ? &m : found;
        return found;
    };
    for (const BenchMeasurement &b : baseline.configs) {
        const BenchMeasurement *c = find(current, b.cfg.name());
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
    for (const BenchMeasurement &m : current.configs)
        if (!find(baseline, m.cfg.name()))
            mismatch("config " + m.cfg.name(), "absent", "present");
    return diff.empty();
}

} // namespace gvc
