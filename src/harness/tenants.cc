#include "harness/tenants.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "mem/vm.hh"
#include "sim/rng.hh"
#include "trace/kernel_source.hh"

namespace gvc
{

const char *
switchPolicyName(SwitchPolicy p)
{
    switch (p) {
      case SwitchPolicy::kKeepAll: return "keep-all";
      case SwitchPolicy::kFlushL1: return "flush-l1";
      case SwitchPolicy::kFlushAll: return "flush-all";
      case SwitchPolicy::kAsidShootdown: return "asid-shootdown";
    }
    return "?";
}

namespace
{

/** Lower-cased with '_' folded to '-', for forgiving CLI parsing. */
std::string
foldName(const std::string &name)
{
    std::string s = name;
    for (char &c : s) {
        if (c >= 'A' && c <= 'Z')
            c = char(c - 'A' + 'a');
        else if (c == '_')
            c = '-';
    }
    return s;
}

} // namespace

bool
switchPolicyFromName(const std::string &name, SwitchPolicy &out)
{
    const std::string s = foldName(name);
    for (const SwitchPolicy p :
         {SwitchPolicy::kKeepAll, SwitchPolicy::kFlushL1,
          SwitchPolicy::kFlushAll, SwitchPolicy::kAsidShootdown}) {
        if (s == switchPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

BoundaryPolicy
switchBoundary(SwitchPolicy p)
{
    switch (p) {
      case SwitchPolicy::kKeepAll: return BoundaryPolicy::keepAll();
      case SwitchPolicy::kFlushL1: return BoundaryPolicy::flushL1();
      case SwitchPolicy::kFlushAll: return BoundaryPolicy::flushAll();
      // The teardown runs through Vm::shootdownAll in the scheduler's
      // after-boundary hook; the boundary byte itself drops nothing.
      case SwitchPolicy::kAsidShootdown: return BoundaryPolicy::keepAll();
    }
    return BoundaryPolicy::keepAll();
}

const char *
arrivalKindName(ArrivalSpec::Kind k)
{
    switch (k) {
      case ArrivalSpec::Kind::kFixed: return "fixed";
      case ArrivalSpec::Kind::kPoisson: return "poisson";
    }
    return "?";
}

bool
arrivalKindFromName(const std::string &name, ArrivalSpec::Kind &out)
{
    const std::string s = foldName(name);
    if (s == "fixed") {
        out = ArrivalSpec::Kind::kFixed;
    } else if (s == "poisson") {
        out = ArrivalSpec::Kind::kPoisson;
    } else {
        return false;
    }
    return true;
}

const char *
tenantSchedName(TenantSched s)
{
    switch (s) {
      case TenantSched::kSerial: return "serial";
      case TenantSched::kFifo: return "fifo";
      case TenantSched::kRoundRobin: return "rr";
    }
    return "?";
}

bool
tenantSchedFromName(const std::string &name, TenantSched &out)
{
    const std::string s = foldName(name);
    for (const TenantSched v :
         {TenantSched::kSerial, TenantSched::kFifo,
          TenantSched::kRoundRobin}) {
        if (s == tenantSchedName(v)) {
            out = v;
            return true;
        }
    }
    if (s == "round-robin") {
        out = TenantSched::kRoundRobin;
        return true;
    }
    return false;
}

namespace
{

/** One schedule entry: round @p round of tenant @p tenant. */
struct Slot
{
    unsigned tenant = 0;
    unsigned round = 0;
    Tick arrival = 0;
};

/**
 * Materialize every (tenant, round) slot with its arrival tick, ordered
 * by the scheduling discipline.  Arrivals are a pure function of the
 * spec: the fixed process is phase*t + interval*r; the Poisson-like
 * process draws integer inter-arrivals uniform on [0, 2*interval] (same
 * mean, memoryless enough for contention studies, and — unlike an
 * exponential draw through libm — bit-portable) from a per-tenant
 * SplitMix-derived stream.
 */
std::vector<Slot>
buildSchedule(const TenantsSpec &spec)
{
    const unsigned n = unsigned(spec.tenants.size());
    std::vector<Slot> slots;
    slots.reserve(std::size_t(n) * spec.rounds);
    for (unsigned t = 0; t < n; ++t) {
        std::uint64_t sm = spec.arrival.seed;
        for (unsigned k = 0; k <= t; ++k)
            splitMix64(sm);
        Rng rng(sm);
        Tick at = Tick(t) * spec.arrival.phase;
        for (unsigned r = 0; r < spec.rounds; ++r) {
            if (r > 0) {
                at += spec.arrival.kind == ArrivalSpec::Kind::kPoisson
                          ? rng.below(2 * spec.arrival.interval + 1)
                          : spec.arrival.interval;
            }
            slots.push_back(Slot{t, r, at});
        }
    }
    switch (spec.sched) {
      case TenantSched::kSerial:
        std::sort(slots.begin(), slots.end(),
                  [](const Slot &a, const Slot &b) {
                      return std::make_pair(a.tenant, a.round) <
                             std::make_pair(b.tenant, b.round);
                  });
        break;
      case TenantSched::kFifo:
        std::sort(slots.begin(), slots.end(),
                  [](const Slot &a, const Slot &b) {
                      return std::make_tuple(a.arrival, a.tenant,
                                             a.round) <
                             std::make_tuple(b.arrival, b.tenant,
                                             b.round);
                  });
        break;
      case TenantSched::kRoundRobin:
        std::sort(slots.begin(), slots.end(),
                  [](const Slot &a, const Slot &b) {
                      return std::make_pair(a.round, a.tenant) <
                             std::make_pair(b.round, b.tenant);
                  });
        break;
    }
    return slots;
}

} // namespace

RunResult
runTenants(const TenantsSpec &spec, const RunConfig &cfg)
{
    if (spec.tenants.empty())
        fatal("runTenants: need at least one tenant");
    if (spec.rounds == 0)
        fatal("runTenants: rounds must be >= 1");
    const unsigned n = unsigned(spec.tenants.size());

    // Capture each tenant's kernel round once, then splice the recorded
    // op logs — each rebased onto a fresh ASID range — into one
    // multi-process VM image, and move the kernels, rebased likewise,
    // into one combined trace.  The whole multi-tenant run is thereby a
    // list of launches over that trace replayed through the core
    // runner, exactly the construction runScenario uses, so it is
    // deterministic and trace-recordable for free.
    std::vector<Asid> asid_base(n, 0);
    std::vector<unsigned> asid_count(n, 0);
    // Tenant t's kernels are combined->kernels[first[t], first[t + 1]).
    std::vector<std::size_t> first(n + 1, 0);
    std::vector<VmRegion> regions;      // storm targets, all tenants
    auto combined = std::make_shared<trace::Trace>();
    Asid next_base = 0;
    for (unsigned t = 0; t < n; ++t) {
        const TenantSpec &ts = spec.tenants[t];
        trace::Trace tr = trace::captureWorkloadTrace(
            ts.workload, ts.params, cfg.soc.phys_mem_bytes);
        if (tr.kernels.empty())
            fatal("runTenants: tenant workload '" + ts.workload +
                  "' emitted no kernels");
        asid_base[t] = next_base;
        unsigned procs = 0;
        for (const VmOp &op : tr.vm_ops)
            if (op.kind == VmOp::Kind::kCreateProcess)
                ++procs;
        if (procs == 0)
            fatal("runTenants: tenant workload '" + ts.workload +
                  "' created no process");
        asid_count[t] = procs;
        const auto rebased = rebaseVmOps(tr.vm_ops, next_base);
        combined->vm_ops.insert(combined->vm_ops.end(), rebased.begin(),
                                rebased.end());
        const auto regs = anonWriteRegions(tr.vm_ops, next_base);
        regions.insert(regions.end(), regs.begin(), regs.end());
        for (trace::TraceKernel &k : tr.kernels) {
            k.asid = Asid(k.asid + next_base);
            combined->kernels.push_back(std::move(k));
        }
        first[t + 1] = combined->kernels.size();
        next_base = Asid(next_base + procs);
        combined->workload +=
            (t == 0 ? "" : "+") + spec.tenants[t].workload;
    }
    // Tenant 0 seeds the simulation context (matches runScenario for a
    // single tenant, making N=1/keep-all/no-storm bit-equivalent).
    combined->params = spec.tenants[0].params;

    const std::vector<Slot> slots = buildSchedule(spec);

    // Launch each slot's tenant kernels in turn, with a boundary marker
    // between slots: the switch policy's byte when the tenant changes,
    // keep-all otherwise (a no-op boundary, but it delimits the
    // per-slot stat snapshot the attribution hook needs).
    std::vector<trace::TraceLaunch> launches;
    std::vector<trace::TraceBoundary> boundaries;
    std::vector<unsigned> slot_tenant;
    slot_tenant.reserve(slots.size());
    std::vector<Tick> kernel_arrival;
    std::uint64_t context_switches = 0;
    for (std::size_t s = 0; s < slots.size(); ++s) {
        const Slot &slot = slots[s];
        const unsigned t = slot.tenant;
        for (std::size_t k = first[t]; k < first[t + 1]; ++k) {
            launches.push_back({k, combined->kernels[k].asid});
            kernel_arrival.push_back(k == first[t] ? slot.arrival : 0);
        }
        slot_tenant.push_back(t);
        if (s + 1 < slots.size()) {
            const bool switched = slots[s + 1].tenant != t;
            if (switched)
                ++context_switches;
            const BoundaryPolicy bp = switched
                                          ? switchBoundary(
                                                spec.switch_policy)
                                          : BoundaryPolicy::keepAll();
            boundaries.push_back(trace::TraceBoundary{
                launches.size() - 1, bp.encode()});
        }
    }

    // Scheduler hooks.  Attribution snapshots the cumulative counters
    // after each boundary's policy has applied and charges the delta to
    // the slot that just ran; because consecutive snapshots telescope,
    // the per-tenant sums partition the run's totals field-exactly.
    // The same hook then applies per-ASID shootdowns (the selective
    // switch policy) and the shootdown-storm bursts — both *after* the
    // snapshot, so their downstream cost lands on the next slot, where
    // a real victim would pay it.
    KernelStats prev;
    std::vector<KernelStats> per_tenant(n);
    std::uint64_t storm_pages = 0;
    Rng storm_rng(spec.storm.seed);
    std::uint64_t region_pages_total = 0;
    for (const VmRegion &r : regions)
        region_pages_total += r.bytes >> kPageShift;

    RunHooks hooks;
    hooks.start_at = [&kernel_arrival](std::size_t i) {
        return kernel_arrival[i];
    };
    hooks.after_boundary = [&](std::size_t b, SystemUnderTest &sut,
                               Gpu &gpu, Dram &, Vm &vm,
                               SimContext &ctx) {
        const KernelStats snap = collectKernelStats(sut, gpu, ctx);
        const unsigned out_t = slot_tenant[b];
        per_tenant[out_t] = kernelSum(per_tenant[out_t],
                                      kernelDelta(snap, prev));
        prev = snap;
        const unsigned in_t = slot_tenant[b + 1];
        if (in_t != out_t &&
            spec.switch_policy == SwitchPolicy::kAsidShootdown) {
            for (unsigned p = 0; p < asid_count[out_t]; ++p)
                vm.shootdownAll(Asid(asid_base[out_t] + p));
        }
        if (spec.storm.pages > 0 && spec.storm.period > 0 &&
            (b + 1) % spec.storm.period == 0 && region_pages_total > 0) {
            for (unsigned p = 0; p < spec.storm.pages; ++p) {
                // Uniform over every mapped storm-eligible page of
                // every tenant — cross-tenant by construction.
                std::uint64_t flat = storm_rng.below(region_pages_total);
                for (const VmRegion &r : regions) {
                    const std::uint64_t pages = r.bytes >> kPageShift;
                    if (flat >= pages) {
                        flat -= pages;
                        continue;
                    }
                    const Vaddr va = r.base + flat * kPageSize;
                    // Bounce to read-only and back: two per-page
                    // shootdowns through every subscriber, no net
                    // change to the VM image.
                    vm.protect(r.asid, va, kPageSize, kPermRead);
                    vm.protect(r.asid, va, kPageSize, r.perms);
                    ++storm_pages;
                    break;
                }
            }
        }
    };
    hooks.at_end = [&](SystemUnderTest &sut, Gpu &gpu, Dram &, Vm &,
                       SimContext &ctx) {
        const KernelStats snap = collectKernelStats(sut, gpu, ctx);
        const unsigned last = slot_tenant.back();
        per_tenant[last] = kernelSum(per_tenant[last],
                                     kernelDelta(snap, prev));
        prev = snap;
    };

    RunConfig run_cfg = cfg;
    run_cfg.trace_in.clear();
    trace::TraceKernelSource source(std::move(combined),
                                    std::move(launches),
                                    std::move(boundaries));
    RunResult r = runSource(source, run_cfg, {}, nullptr, &hooks);

    r.tenants.reserve(n);
    for (unsigned t = 0; t < n; ++t) {
        TenantStats ts;
        ts.workload = spec.tenants[t].workload;
        ts.launches = std::uint64_t(spec.rounds) * (first[t + 1] - first[t]);
        ts.stats = per_tenant[t];
        r.tenants.push_back(std::move(ts));
    }
    r.tenant_context_switches = context_switches;
    r.tenant_storm_pages = storm_pages;
    return r;
}

} // namespace gvc
