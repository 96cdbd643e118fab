/**
 * @file
 * gvc_perf_pass: one measured pass of one gvc_perf workload.
 *
 * Every call gvc_perf makes into the gvc library lives in this file, so a
 * library API change touches one place.  gvc_perf.py runs each pass in a
 * child process of its own (for a per-pass peak RSS) and reads the lines
 * this program prints on stdout:
 *
 *     gvc_perf_pass --workload NAME --seed N --tmp DIR
 *                   [--scale F] [--jobs N] [--traced]
 *     gvc_perf_pass --golden FILE
 *
 * A workload pass first prints {"planned_checks": N}, so a pass that
 * dies can still be charged its checks, then one result object with the
 * pass's timings, simulated-counter digest, check outcomes and, with
 * --traced, the per-layer metrics and the spans recorded around every
 * library call.  The golden mode prints one object with the outcome of
 * the checked-in golden-stats grid.
 *
 * A pass is set-up (capture each input, encode it, decode it back),
 * simulation, then export and I/O (results JSON out and back in, a
 * checkpoint journal out and back in).  --traced adds, after the timed
 * pass, the runs and component replays the per-layer attribution needs.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache_array.hh"
#include "core/fbt.hh"
#include "gpu/coalescer.hh"
#include "harness/journal.hh"
#include "harness/results_io.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/tenants.hh"
#include "mem/vm.hh"
#include "tlb/pwc.hh"
#include "tlb/tlb.hh"
#include "trace/kernel_source.hh"
#include "trace/trace.hh"

namespace gvc
{
namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

constexpr double kMiB = 1024.0 * 1024.0;

/** How a workload drives the simulator. */
enum class Kind {
    kReplay,  ///< runSource over each parsed trace x design, serially.
    kTenants, ///< runTenants over the inputs as tenants, per design.
    kSweep,   ///< One Sweep of --jobs workers over .gvct inputs x designs.
};

/**
 * One benchmark workload.  Why each exists is in gvc_perf/README.md; in
 * short: graph-xlat is translation-bound, graph-filtered is the same
 * inputs with translation filtered away by virtual caching, tenant-churn
 * adds invalidations, and sweep-regular is many short sweep cells.
 */
struct WorkloadDef
{
    std::string name;
    Kind kind;
    std::vector<std::string> inputs;
    std::vector<MmuDesign> designs;
    /**
     * Designs whose host time above IDEAL MMU on the same input is
     * charged to translation (--traced).  sweep-regular probes only
     * Baseline 512, outside the sweep, since its cells may run in
     * parallel.
     */
    std::vector<MmuDesign> xlat_designs;
    double scale;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"graph-xlat", Kind::kReplay, {"pagerank", "color_max"},
         {MmuDesign::kBaseline512, MmuDesign::kL1Vc32},
         {MmuDesign::kBaseline512, MmuDesign::kL1Vc32}, 0.25},
        {"graph-filtered", Kind::kReplay, {"pagerank", "color_max"},
         {MmuDesign::kVcOpt, MmuDesign::kVcNoOpt, MmuDesign::kIdeal},
         {MmuDesign::kVcOpt, MmuDesign::kVcNoOpt}, 0.25},
        {"tenant-churn", Kind::kTenants, {"pagerank", "bfs"},
         {MmuDesign::kBaseline512, MmuDesign::kVcOpt},
         {MmuDesign::kBaseline512, MmuDesign::kVcOpt}, 0.25},
        {"sweep-regular", Kind::kSweep,
         {"hotspot", "kmeans", "backprop", "srad", "pathfinder", "lud",
          "nw"},
         {MmuDesign::kIdeal, MmuDesign::kBaseline512,
          MmuDesign::kBaseline16K, MmuDesign::kBaselineLargeTlb,
          MmuDesign::kVcNoOpt, MmuDesign::kVcOpt, MmuDesign::kL1Vc32,
          MmuDesign::kL1Vc128, MmuDesign::kBase2MB,
          MmuDesign::kBaseCoalesced, MmuDesign::kBaseVictima},
         {MmuDesign::kBaseline512}, 0.25},
    };
    return defs;
}

/**
 * Times library calls.  Per-layer totals are always kept (they give the
 * end-to-end set-up and simulation times); spans are kept only for a
 * traced pass, in memory, and printed when it ends.
 */
class Tracer
{
  public:
    explicit Tracer(bool traced) : traced_(traced), origin_(Clock::now()) {}

    /** Run @p f, charging its host time to @p layer. */
    template <class F>
    decltype(auto)
    time(const std::string &layer, const std::string &detail, F &&f)
    {
        const Scope scope(*this, layer, detail);
        return f();
    }

    double
    total(const std::string &layer) const
    {
        const auto it = totals_.find(layer);
        return it == totals_.end() ? 0.0 : it->second;
    }

    /** Seconds since the tracer was created. */
    double now() const { return secondsBetween(origin_, Clock::now()); }

    Json
    spansJson() const
    {
        Json out = Json::array();
        for (const Span &s : spans_) {
            Json j = Json::object();
            j.set("name", s.layer);
            j.set("detail", s.detail);
            j.set("ts_us", s.start * 1e6);
            j.set("dur_us", s.dur * 1e6);
            out.push(std::move(j));
        }
        return out;
    }

  private:
    struct Span
    {
        std::string layer;
        std::string detail;
        double start;
        double dur;
    };

    struct Scope
    {
        Scope(Tracer &t, const std::string &layer, const std::string &detail)
            : t(t), layer(layer), detail(detail), start(Clock::now())
        {
        }
        ~Scope() { t.record(layer, detail, start, Clock::now()); }
        Tracer &t;
        const std::string &layer;
        const std::string &detail;
        Clock::time_point start;
    };

    void
    record(const std::string &layer, const std::string &detail,
           Clock::time_point start, Clock::time_point end)
    {
        const double dur = secondsBetween(start, end);
        totals_[layer] += dur;
        if (traced_)
            spans_.push_back(
                {layer, detail, secondsBetween(origin_, start), dur});
    }

    bool traced_;
    Clock::time_point origin_;
    std::map<std::string, double> totals_;
    std::vector<Span> spans_;
};

/** Outcome of the pass's correctness checks. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            failures.push_back(what);
    }
};

/** The state of one pass of one workload. */
struct Pass
{
    Pass(const WorkloadDef &def, const WorkloadParams &params, unsigned jobs,
         std::string tmp, bool traced)
        : def(def), params(params), jobs(jobs), tmp(std::move(tmp)),
          tracer(traced)
    {
    }

    const WorkloadDef &def;
    WorkloadParams params;
    unsigned jobs;
    std::string tmp;
    Tracer tracer;
    Checks checks;

    std::vector<std::shared_ptr<const trace::Trace>> traces; ///< Parsed.
    std::uint64_t trace_bytes = 0;
    std::vector<ResultRecord> records;
    /** Journal frames in append order: (key, index into records). */
    std::vector<std::pair<std::string, std::size_t>> journaled;
    /** Completion time of each simulation call or sweep cell. */
    std::vector<double> done_at;
    double sim_start = 0.0;
    std::uint64_t digest = 0;

    std::string path(const std::string &file) const
    {
        return tmp + "/" + file;
    }
};

std::size_t
plannedChecks(const WorkloadDef &def)
{
    // Trace round-trip per input, results re-export, journal readback,
    // plus per-tenant sums (tenants) or cell completeness (sweep).
    std::size_t n = def.inputs.size() + 2;
    if (def.kind == Kind::kTenants)
        n += def.designs.size();
    if (def.kind == Kind::kSweep)
        n += 1;
    return n;
}

/** The contention scenario of tenant-churn (and of the churn probe). */
TenantsSpec
churnSpec(const std::vector<std::string> &tenants,
          const WorkloadParams &params)
{
    TenantsSpec spec;
    for (const std::string &t : tenants)
        spec.tenants.push_back({t, params});
    spec.rounds = 3;
    spec.sched = TenantSched::kFifo;
    spec.arrival.kind = ArrivalSpec::Kind::kPoisson;
    spec.arrival.interval = 1000;
    spec.arrival.seed = params.seed;
    spec.switch_policy = SwitchPolicy::kAsidShootdown;
    spec.storm.pages = 4;
    spec.storm.period = 1;
    spec.storm.seed = params.seed;
    return spec;
}

/** Per-tenant deltas must partition the run's totals field-exactly. */
bool
tenantsSumToTotals(const RunResult &r)
{
    if (r.tenants.empty())
        return false;
    KernelStats sum;
    for (const TenantStats &t : r.tenants)
        sum = kernelSum(sum, t.stats);
    return sum.exec_ticks == r.exec_ticks &&
           sum.instructions == r.instructions &&
           sum.mem_instructions == r.mem_instructions &&
           sum.tlb_accesses == r.tlb_accesses &&
           sum.tlb_misses == r.tlb_misses &&
           sum.iommu_accesses == r.iommu_accesses &&
           sum.page_walks == r.page_walks &&
           sum.l1_accesses == r.l1_accesses &&
           sum.l2_accesses == r.l2_accesses &&
           sum.dram_accesses == r.dram_accesses &&
           sum.dram_bytes == r.dram_bytes &&
           sum.fbt_lookups == r.fbt_lookups &&
           sum.synonym_replays == r.synonym_replays;
}

bool
writeFile(const std::string &path, const void *data, std::size_t size)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(static_cast<const char *>(data), std::streamsize(size));
    return bool(out);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

// ------------------------------------------------------------------
// The timed pass
// ------------------------------------------------------------------

/** Capture every input, encode it, and decode it back (set-up). */
void
setUp(Pass &p)
{
    Tracer &t = p.tracer;
    for (const std::string &input : p.def.inputs) {
        const trace::Trace captured = t.time("workloads.gen", input, [&] {
            return trace::captureWorkloadTrace(input, p.params);
        });
        const std::vector<std::uint8_t> bytes =
            t.time("trace.encode", input, [&] {
                return trace::TraceWriter::serialize(captured);
            });
        p.trace_bytes += bytes.size();
        auto parsed = std::make_shared<trace::Trace>();
        std::string err;
        const bool ok = t.time("trace.decode", input, [&] {
            return trace::TraceReader::parse(bytes.data(), bytes.size(),
                                             *parsed, &err);
        });
        p.checks.expect(ok && trace::traceDigest(*parsed) ==
                                  trace::traceDigest(captured),
                        "trace round-trip of " + input + " " + err);
        if (p.def.kind == Kind::kSweep) {
            t.time("trace.write", input, [&] {
                return writeFile(p.path(input + ".gvct"), bytes.data(),
                                 bytes.size());
            });
        }
        p.traces.push_back(std::move(parsed));
    }
}

ExportMeta
exportMeta(const Pass &p)
{
    ExportMeta meta;
    meta.generator = "gvc_perf";
    meta.workloads = p.def.inputs;
    for (const MmuDesign d : p.def.designs)
        meta.designs.push_back(designName(d));
    meta.scale = p.params.scale;
    meta.seed = p.params.seed;
    meta.jobs = p.jobs;
    return meta;
}

void
addRecord(Pass &p, const RunConfig &cfg, RunResult r)
{
    p.done_at.push_back(p.tracer.now());
    p.records.push_back({cfg, std::move(r)});
}

void
simulate(Pass &p)
{
    Tracer &t = p.tracer;
    p.sim_start = t.now();
    switch (p.def.kind) {
      case Kind::kReplay:
        for (const auto &tr : p.traces) {
            for (const MmuDesign d : p.def.designs) {
                RunConfig cfg;
                cfg.design = d;
                cfg.workload = tr->params;
                trace::TraceKernelSource source(tr);
                RunResult r = t.time(
                    "runner.sim", tr->workload + " x " + designName(d),
                    [&] { return runSource(source, cfg); });
                addRecord(p, cfg, std::move(r));
            }
        }
        break;
      case Kind::kTenants:
        for (const MmuDesign d : p.def.designs) {
            RunConfig cfg;
            cfg.design = d;
            cfg.workload = p.params;
            RunResult r = t.time("runner.sim",
                                 std::string("tenants x ") + designName(d),
                                 [&] {
                                     return runTenants(
                                         churnSpec(p.def.inputs, p.params),
                                         cfg);
                                 });
            p.checks.expect(tenantsSumToTotals(r),
                            std::string("per-tenant deltas sum to totals "
                                        "on ") +
                                designName(d));
            addRecord(p, cfg, std::move(r));
        }
        break;
      case Kind::kSweep: {
        Sweep sweep(p.jobs);
        sweep.setProgress(false);
        std::vector<RunConfig> cells;
        std::vector<std::string> keys, labels;
        for (const std::string &input : p.def.inputs) {
            for (const MmuDesign d : p.def.designs) {
                RunConfig cfg;
                cfg.design = d;
                cfg.workload = p.params;
                cfg.trace_in = p.path(input + ".gvct");
                keys.push_back(runConfigKey(input, cfg));
                labels.push_back(input + " x " + designName(d));
                cells.push_back(cfg);
                sweep.add(input, cfg);
            }
        }
        JournalWriter journal;
        std::string err;
        const bool created = t.time("journal.append", "create", [&] {
            return journal.create(p.path("cells.gvcj"), exportMeta(p),
                                  &err);
        });
        if (!created)
            fatal("gvc_perf_pass: " + err);
        // Sweep serializes hook calls, and run() joins its workers
        // before the tracer is read again.
        sweep.setCellHook([&](std::size_t idx, const RunResult &r) {
            p.done_at.push_back(t.now());
            t.time("journal.append", labels[idx], [&] {
                return journal.append(keys[idx], {cells[idx], r}, &err);
            });
            p.journaled.push_back({keys[idx], idx});
        });
        t.time("runner.sim", "sweep", [&] { sweep.run(); });
        journal.close();
        p.records = sweep.records();
        p.checks.expect(p.records.size() == cells.size(),
                        "sweep completed every cell");
        break;
      }
    }
}

/** Results JSON out and back in, and the journal read back. */
void
exportAndReimport(Pass &p)
{
    Tracer &t = p.tracer;
    const ExportMeta meta = exportMeta(p);
    const std::string results_path = p.path("results.json");
    const std::string text = t.time("results.export", "", [&] {
        std::string s = resultsToJson(meta, p.records).dump(2);
        writeFile(results_path, s.data(), s.size());
        return s;
    });
    p.digest = fnv1a(text);

    ExportMeta meta_in;
    std::vector<ResultRecord> records_in;
    std::string err;
    const bool imported = t.time("results.import", "", [&] {
        const Json doc = Json::parse(readFile(results_path), &err);
        return !doc.isNull() &&
               resultsFromJson(doc, meta_in, records_in, &err);
    });
    p.checks.expect(imported &&
                        resultsToJson(meta_in, records_in).dump(2) == text,
                    "results JSON re-exports byte-identically " + err);

    const std::string journal_path = p.path("cells.gvcj");
    if (p.def.kind != Kind::kSweep) {
        JournalWriter journal;
        t.time("journal.append", "create", [&] {
            return journal.create(journal_path, meta, &err);
        });
        for (std::size_t i = 0; i < p.records.size(); ++i) {
            const ResultRecord &rec = p.records[i];
            const std::string key =
                runConfigKey(rec.result.workload, rec.cfg);
            t.time("journal.append",
                   rec.result.workload + " x " + designName(rec.cfg.design),
                   [&] { return journal.append(key, rec, &err); });
            p.journaled.push_back({key, i});
        }
    }

    ExportMeta journal_meta;
    std::vector<JournalEntry> entries;
    const bool read = t.time("journal.read", "", [&] {
        return readJournal(journal_path, journal_meta, entries, &err);
    });
    bool same = read && entries.size() == p.journaled.size();
    for (std::size_t i = 0; same && i < entries.size(); ++i) {
        const auto &[key, idx] = p.journaled[i];
        same = entries[i].key == key &&
               resultRecordToJson(entries[i].record).dump() ==
                   resultRecordToJson(p.records[idx]).dump();
    }
    p.checks.expect(same, "journal reads back the appended records " + err);
}

void
runPass(Pass &p)
{
    setUp(p);
    simulate(p);
    exportAndReimport(p);
}

// ------------------------------------------------------------------
// Per-layer attribution (--traced only, after the timed pass)
// ------------------------------------------------------------------

/** Host seconds and operation count of one replayed component. */
struct Cost
{
    double seconds = 0.0;
    std::uint64_t ops = 0;

    double nsPerOp() const { return ops ? seconds * 1e9 / double(ops) : 0; }
};

/** One coalesced line access of the per-CU stream, pre-translated. */
struct LineRef
{
    Asid asid;
    bool store;
    Vaddr va;
    Ppn ppn;
    Perms perms;

    Paddr pa() const { return pageBase(ppn) | pageOffset(va); }
};

struct Components
{
    Cost coalesce, percu, percu_no_memo, iommu, walk, l1, l2, fbt;
};

/**
 * Per-CU TLB pass over one CU's stream; appends misses to @p misses.
 * @return host seconds spent in Tlb::lookup/insert (and the append).
 */
double
replayPerCuTlb(const std::vector<LineRef> &stream, bool memo,
               std::vector<LineRef> &misses)
{
    TlbParams tp;
    tp.entries = SocConfig{}.percu_tlb_entries;
    tp.assoc = SocConfig{}.percu_tlb_assoc;
    tp.memo = memo;
    Tlb tlb(tp);
    Tick now = 0;
    const auto t0 = Clock::now();
    for (const LineRef &l : stream) {
        const Vpn vpn = pageOf(l.va);
        if (!tlb.lookup(l.asid, vpn, ++now)) {
            tlb.insert(l.asid, vpn, TlbLookup{l.ppn, l.perms}, now);
            misses.push_back(l);
        }
    }
    return secondsBetween(t0, Clock::now());
}

/**
 * Feed one trace's real warp streams through the components the
 * simulator is built from, in warp order (warp w runs on CU w % CUs),
 * each stage consuming the previous stage's misses: coalescer, per-CU
 * TLB, IOMMU TLB, page walk + PWC, L1, L2, FBT.
 */
void
replayComponents(const trace::Trace &tr, Components &c)
{
    const SocConfig soc;
    PhysMem pm(soc.phys_mem_bytes);
    Vm vm(pm);
    applyVmOps(vm, tr.vm_ops);

    std::vector<const WarpInst *> mem_insts;
    std::vector<std::vector<LineRef>> per_cu(soc.gpu.num_cus);
    Coalescer scratch;
    for (const trace::TraceKernel &k : tr.kernels) {
        for (std::size_t w = 0; w < k.warps.size(); ++w) {
            auto &stream = per_cu[w % per_cu.size()];
            for (const WarpInst &inst : k.warps[w]) {
                if (!inst.isGlobalMem())
                    continue;
                mem_insts.push_back(&inst);
                for (const Vaddr line : scratch.coalesce(inst.lane_addrs)) {
                    const auto x = vm.translate(k.asid, line);
                    if (x)
                        stream.push_back({k.asid,
                                          inst.op == WarpOp::kStore, line,
                                          x->ppn, x->perms});
                }
            }
        }
    }

    Coalescer coalescer;
    auto t0 = Clock::now();
    for (const WarpInst *inst : mem_insts)
        coalescer.coalesce(inst->lane_addrs);
    c.coalesce.seconds += secondsBetween(t0, Clock::now());
    c.coalesce.ops += mem_insts.size();

    std::vector<LineRef> percu_misses, discard;
    for (const auto &stream : per_cu) {
        discard.clear();
        discard.reserve(stream.size());
        c.percu_no_memo.seconds += replayPerCuTlb(stream, false, discard);
        c.percu_no_memo.ops += stream.size();
        percu_misses.reserve(percu_misses.size() + stream.size());
        c.percu.seconds += replayPerCuTlb(stream, true, percu_misses);
        c.percu.ops += stream.size();
    }

    TlbParams iommu_params;
    iommu_params.entries = soc.iommu.tlb_entries;
    iommu_params.assoc = soc.iommu.tlb_assoc;
    Tlb iommu_tlb(iommu_params);
    std::vector<LineRef> walks;
    walks.reserve(percu_misses.size());
    Tick now = 0;
    t0 = Clock::now();
    for (const LineRef &l : percu_misses) {
        const Vpn vpn = pageOf(l.va);
        if (!iommu_tlb.lookup(l.asid, vpn, ++now)) {
            iommu_tlb.insert(l.asid, vpn, TlbLookup{l.ppn, l.perms}, now);
            walks.push_back(l);
        }
    }
    c.iommu.seconds += secondsBetween(t0, Clock::now());
    c.iommu.ops += percu_misses.size();

    // The PWC holds upper levels only; the leaf PTE always goes to
    // memory (as tlb/ptw.hh walks).
    PageWalkCache pwc;
    t0 = Clock::now();
    for (const LineRef &l : walks) {
        const WalkPath path = vm.pageTable(l.asid).walk(pageOf(l.va));
        for (unsigned lvl = 0; lvl < path.levels; ++lvl) {
            const bool leaf =
                lvl + 1 == path.levels && path.result.has_value();
            if (!leaf && !pwc.lookup(path.pte_addrs[lvl]))
                pwc.insert(path.pte_addrs[lvl]);
        }
    }
    c.walk.seconds += secondsBetween(t0, Clock::now());
    c.walk.ops += walks.size();

    // Physical L1s (write-through, no write-allocate), then the shared
    // write-back L2, then the FBT on what misses the L2.
    CacheParams l1p;
    l1p.size_bytes = soc.l1_size;
    l1p.assoc = soc.l1_assoc;
    std::vector<LineRef> to_l2;
    for (const auto &stream : per_cu) {
        CacheArray l1(l1p);
        to_l2.reserve(to_l2.size() + stream.size());
        now = 0;
        t0 = Clock::now();
        for (const LineRef &l : stream) {
            if (!l1.access(0, l.pa(), l.store, ++now)) {
                if (!l.store)
                    l1.insert(0, l.pa(), l.perms, false, now);
                to_l2.push_back(l);
            } else if (l.store) {
                to_l2.push_back(l);
            }
        }
        c.l1.seconds += secondsBetween(t0, Clock::now());
        c.l1.ops += stream.size();
    }

    CacheParams l2p;
    l2p.size_bytes = soc.l2_size;
    l2p.assoc = soc.l2_assoc;
    l2p.write_back = true;
    l2p.write_allocate = true;
    CacheArray l2(l2p);
    std::vector<LineRef> l2_misses;
    l2_misses.reserve(to_l2.size());
    now = 0;
    t0 = Clock::now();
    for (const LineRef &l : to_l2) {
        if (!l2.access(0, l.pa(), l.store, ++now)) {
            l2.insert(0, l.pa(), l.perms, l.store, now);
            l2_misses.push_back(l);
        }
    }
    c.l2.seconds += secondsBetween(t0, Clock::now());
    c.l2.ops += to_l2.size();

    Fbt fbt(soc.fbt);
    t0 = Clock::now();
    for (const LineRef &l : l2_misses)
        fbt.onCacheMiss(l.asid, pageOf(l.va), l.ppn, l.perms,
                        lineInPage(l.va), l.store);
    c.fbt.seconds += secondsBetween(t0, Clock::now());
    c.fbt.ops += l2_misses.size();
}

/** Host seconds and result of one probe simulation. */
struct Probe
{
    double seconds;
    RunResult result;
};

/** Run the simulation @p f under a span, keeping its host seconds. */
template <class F>
Probe
probe(Tracer &t, const std::string &layer, const std::string &detail, F &&f)
{
    const auto t0 = Clock::now();
    RunResult r = t.time(layer, detail, f);
    return {secondsBetween(t0, Clock::now()), std::move(r)};
}

Probe
probeRun(Pass &p, std::size_t input, MmuDesign d)
{
    RunConfig cfg;
    cfg.design = d;
    cfg.workload = p.traces[input]->params;
    if (p.def.kind == Kind::kTenants) {
        return probe(p.tracer, "probe.tenants", designName(d), [&] {
            return runTenants(churnSpec(p.def.inputs, p.params), cfg);
        });
    }
    trace::TraceKernelSource source(p.traces[input]);
    return probe(p.tracer, "probe.sim",
                 p.def.inputs[input] + " x " + designName(d),
                 [&] { return runSource(source, cfg); });
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Simulated per-layer metrics, aggregated over the pass's records. */
void
simulatedLayers(const Pass &p, Json &layers)
{
    double exec = 0, mem = 0, lines = 0, tlb_acc = 0, tlb_miss = 0;
    double iommu = 0, ser = 0, apc = 0, walks = 0, l1 = 0, l1_hits = 0;
    double l2 = 0, l2_hits = 0, dram = 0, fbt = 0, fbt_hits = 0, cs = 0;
    unsigned apc_cells = 0;
    for (const ResultRecord &rec : p.records) {
        const RunResult &r = rec.result;
        exec += double(r.exec_ticks);
        mem += double(r.mem_instructions);
        lines += r.lines_per_mem_inst * double(r.mem_instructions);
        tlb_acc += double(r.tlb_accesses);
        tlb_miss += double(r.tlb_misses);
        iommu += double(r.iommu_accesses);
        ser += r.iommu_serialization_mean * double(r.iommu_accesses);
        if (r.iommu_accesses) {
            apc += r.iommu_apc_mean;
            ++apc_cells;
        }
        walks += double(r.page_walks);
        l1 += double(r.l1_accesses);
        l1_hits += r.l1_hit_ratio * double(r.l1_accesses);
        l2 += double(r.l2_accesses);
        l2_hits += r.l2_hit_ratio * double(r.l2_accesses);
        dram += double(r.dram_bytes);
        fbt += double(r.fbt_lookups);
        fbt_hits += r.fbt_second_level_hit_ratio * double(r.fbt_lookups);
        cs += double(r.tenant_context_switches);
    }
    layers.set("sim.exec_ticks", exec);
    layers.set("gpu.lines_per_mem_inst", ratio(lines, mem));
    layers.set("tlb.miss_ratio", ratio(tlb_miss, tlb_acc));
    layers.set("iommu.accesses", iommu);
    layers.set("iommu.apc_mean", ratio(apc, apc_cells));
    layers.set("iommu.serialization_mean", ratio(ser, iommu));
    layers.set("ptw.walks", walks);
    layers.set("cache.l1_hit_ratio", ratio(l1_hits, l1));
    layers.set("cache.l2_hit_ratio", ratio(l2_hits, l2));
    layers.set("dram.mb", dram / kMiB);
    layers.set("fbt.lookups", fbt);
    layers.set("fbt.l2tlb_hit_ratio", ratio(fbt_hits, fbt));
    layers.set("tenants.context_switches", cs);
}

/** The per-layer metrics of a traced pass. */
Json
attribute(Pass &p)
{
    Tracer &t = p.tracer;
    Json layers = Json::object();

    // Host time of the pass's own library calls.
    layers.set("workloads.gen_s", t.total("workloads.gen"));
    layers.set("trace.encode_s", t.total("trace.encode"));
    layers.set("trace.decode_s", t.total("trace.decode"));
    layers.set("trace.mb", double(p.trace_bytes) / kMiB);
    layers.set("runner.sim_s", t.total("runner.sim"));
    layers.set("results.export_s", t.total("results.export"));
    layers.set("results.import_s", t.total("results.import"));
    layers.set("journal.append_s", t.total("journal.append"));
    layers.set("journal.read_s", t.total("journal.read"));

    // Straggler tail: from the (N - jobs)-th completion to the last.
    const std::size_t n = p.done_at.size();
    const std::size_t jobs = p.def.kind == Kind::kSweep ? p.jobs : 1;
    layers.set("sweep.tail_s",
               n == 0 ? 0.0
                      : p.done_at[n - 1] -
                            (n > jobs ? p.done_at[n - 1 - jobs]
                                      : p.sim_start));

    // Translation's host share: each translation design against IDEAL
    // MMU on the same input, run serially.
    const std::size_t probe_inputs =
        p.def.kind == Kind::kTenants ? 1 : p.traces.size();
    double xlat_s = 0, design_s = 0, iommu = 0, ideal_s = 0, ideal_l1 = 0;
    double rel = 0;
    unsigned rel_n = 0;
    for (std::size_t i = 0; i < probe_inputs; ++i) {
        const Probe ideal = probeRun(p, i, MmuDesign::kIdeal);
        ideal_s += ideal.seconds;
        ideal_l1 += double(ideal.result.l1_accesses);
        for (const MmuDesign d : p.def.xlat_designs) {
            const Probe run = probeRun(p, i, d);
            xlat_s += run.seconds - ideal.seconds;
            design_s += run.seconds;
            iommu += double(run.result.iommu_accesses);
            rel += ratio(double(run.result.exec_ticks),
                         double(ideal.result.exec_ticks));
            ++rel_n;
        }
    }
    layers.set("xlat.host_s", xlat_s);
    layers.set("xlat.share", ratio(xlat_s, design_s));
    layers.set("xlat.ns_per_iommu_access", ratio(xlat_s * 1e9, iommu));
    layers.set("ideal.ns_per_l1_access", ratio(ideal_s * 1e9, ideal_l1));
    layers.set("sim.rel_time_vs_ideal", ratio(rel, rel_n));

    // What context-switch churn costs on this workload's first two
    // inputs: the churn scenario minus keep-all with no storms.
    {
        const std::vector<std::string> tenants(p.def.inputs.begin(),
                                               p.def.inputs.begin() + 2);
        TenantsSpec churn = churnSpec(tenants, p.params);
        TenantsSpec calm = churn;
        calm.switch_policy = SwitchPolicy::kKeepAll;
        calm.storm.pages = 0;
        RunConfig cfg;
        cfg.design = p.def.xlat_designs.front();
        cfg.workload = p.params;
        const Probe a = probe(t, "probe.tenants", "churn",
                              [&] { return runTenants(churn, cfg); });
        const Probe b = probe(t, "probe.tenants", "keep-all",
                              [&] { return runTenants(calm, cfg); });
        layers.set("tenants.churn_s", a.seconds - b.seconds);
        layers.set("tenants.churn_iommu_accesses",
                   double(a.result.iommu_accesses) -
                       double(b.result.iommu_accesses));
    }

    Components c;
    for (const auto &tr : p.traces)
        t.time("probe.components", tr->workload,
               [&] { replayComponents(*tr, c); });
    layers.set("gpu.coalesce_ns", c.coalesce.nsPerOp());
    layers.set("tlb.percu_lookup_ns", c.percu.nsPerOp());
    layers.set("tlb.iommu_lookup_ns", c.iommu.nsPerOp());
    layers.set("tlb.memo_gain",
               ratio(c.percu_no_memo.nsPerOp(), c.percu.nsPerOp()));
    layers.set("ptw.walk_ns", c.walk.nsPerOp());
    layers.set("cache.l1_access_ns", c.l1.nsPerOp());
    layers.set("cache.l2_access_ns", c.l2.nsPerOp());
    layers.set("fbt.ns", c.fbt.nsPerOp());

    simulatedLayers(p, layers);
    return layers;
}

// ------------------------------------------------------------------
// Golden grid
// ------------------------------------------------------------------

/**
 * The checked-in golden-stats grid (tests/golden_stats.txt, scale 0.1,
 * default seed), recomputed and compared fact by fact.
 */
int
runGolden(const std::string &path)
{
    std::vector<std::string> current;
    for (const char *w : {"pagerank", "bfs", "hotspot"}) {
        for (const MmuDesign d : {MmuDesign::kBaseline512,
                                  MmuDesign::kVcOpt, MmuDesign::kL1Vc32}) {
            RunConfig cfg;
            cfg.design = d;
            cfg.workload.scale = 0.1;
            const RunResult r = runWorkload(w, cfg);
            const std::string key =
                std::string(w) + " " + designName(d) + " ";
            current.push_back(key + "exec_ticks " +
                              std::to_string(r.exec_ticks));
            current.push_back(key + "iommu_accesses " +
                              std::to_string(r.iommu_accesses));
            current.push_back(key + "page_walks " +
                              std::to_string(r.page_walks));
            current.push_back(key + "l1_hit_ratio " +
                              Json(r.l1_hit_ratio).dump());
        }
    }
    std::vector<std::string> golden;
    std::istringstream in(readFile(path));
    for (std::string line; std::getline(in, line);)
        if (!line.empty() && line[0] != '#')
            golden.push_back(line);

    Checks checks;
    const std::size_t n = std::max(current.size(), golden.size());
    for (std::size_t i = 0; i < n; ++i) {
        const std::string want = i < golden.size() ? golden[i] : "";
        const std::string got = i < current.size() ? current[i] : "";
        checks.expect(want == got, "golden '" + want + "' got '" + got +
                                       "'");
    }
    Json out = Json::object();
    out.set("attempted", checks.attempted);
    out.set("failed", std::uint64_t(checks.failures.size()));
    Json failures = Json::array();
    for (const std::string &f : checks.failures)
        failures.push(f);
    out.set("failures", std::move(failures));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: gvc_perf_pass --workload NAME --seed N --tmp DIR\n"
                 "                     [--scale F] [--jobs N] [--traced]\n"
                 "       gvc_perf_pass --golden FILE\n");
    return 2;
}

} // namespace
} // namespace gvc

int
main(int argc, char **argv)
{
    using namespace gvc;
    std::string workload, tmp, golden;
    WorkloadParams params;
    double scale = 0.0;
    unsigned jobs = 1;
    bool traced = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--traced")
            traced = true;
        else if (arg == "--workload" && has_value)
            workload = argv[++i];
        else if (arg == "--seed" && has_value)
            params.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--scale" && has_value)
            scale = std::strtod(argv[++i], nullptr);
        else if (arg == "--jobs" && has_value)
            jobs = unsigned(std::max(1l, std::strtol(argv[++i], nullptr,
                                                     10)));
        else if (arg == "--tmp" && has_value)
            tmp = argv[++i];
        else if (arg == "--golden" && has_value)
            golden = argv[++i];
        else
            return usage();
    }
    if (!golden.empty())
        return runGolden(golden);

    const auto &defs = workloadDefs();
    const auto def = std::find_if(defs.begin(), defs.end(),
                                  [&](const WorkloadDef &d) {
                                      return d.name == workload;
                                  });
    if (def == defs.end() || tmp.empty())
        return usage();
    params.scale = scale > 0.0 ? scale : def->scale;

    Json planned = Json::object();
    planned.set("planned_checks", std::uint64_t(plannedChecks(*def)));
    std::printf("%s\n", planned.dump().c_str());
    std::fflush(stdout);

    Pass p(*def, params, jobs, tmp, traced);
    const auto t0 = Clock::now();
    runPass(p);
    const double wall = secondsBetween(t0, Clock::now());

    Json out = Json::object();
    out.set("wall_s", wall);
    out.set("setup_s", p.tracer.total("workloads.gen") +
                           p.tracer.total("trace.encode") +
                           p.tracer.total("trace.decode") +
                           p.tracer.total("trace.write"));
    out.set("sim_s", p.tracer.total("runner.sim"));
    std::uint64_t winst = 0;
    for (const ResultRecord &rec : p.records)
        winst += rec.result.instructions;
    out.set("winst", winst);
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(p.digest));
    out.set("digest", std::string(digest));
    if (traced) {
        out.set("layers", attribute(p));
        out.set("spans", p.tracer.spansJson());
    }
    out.set("attempted", p.checks.attempted);
    out.set("failed", std::uint64_t(p.checks.failures.size()));
    Json failures = Json::array();
    for (const std::string &f : p.checks.failures)
        failures.push(f);
    out.set("failures", std::move(failures));
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
