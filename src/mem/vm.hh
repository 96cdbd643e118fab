/**
 * @file
 * Virtual memory manager: processes (address spaces), anonymous and
 * aliased (synonym) mappings, permission changes and unmapping with TLB
 * shootdown notification.
 *
 * This is the OS-substrate the paper's system-level behaviours depend on:
 * synonyms arise from alias()/share() mappings, homonyms from multiple
 * ASIDs reusing the same VAs, and shootdowns from protect()/unmap().
 */

#ifndef GVC_MEM_VM_HH
#define GVC_MEM_VM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "sim/callback.hh"
#include "sim/types.hh"

namespace gvc
{

/**
 * One mutating Vm operation.  The trace layer (src/trace/) records the
 * setup-time operation sequence of a workload and replays it verbatim
 * into a fresh Vm: because both PhysMem and PageTable allocate frames
 * deterministically in call order, replaying the log reconstructs a
 * bit-identical VM image — same VAs, same PPNs, same PTE addresses.
 */
struct VmOp
{
    enum class Kind : std::uint8_t {
        kCreateProcess = 0,
        kMmapAnon = 1,
        kMmapAnonLarge = 2,
        kAlias = 3,
        kProtect = 4,
        kUnmap = 5,
    };

    Kind kind = Kind::kCreateProcess;
    Asid asid = 0;     ///< Target (destination) address space.
    Asid src_asid = 0; ///< Alias source address space.
    Vaddr base = 0;    ///< Alias source base, or protect/unmap range base.
    std::uint64_t bytes = 0;
    Perms perms = kPermNone;
    /**
     * Contiguity metadata (kVmOpFlag*): records what the *recording*
     * run's page policy did, so traces carry the allocation property
     * explicitly.  Replay maps by the replaying Vm's own policy — the
     * flags are descriptive, not prescriptive, which is what lets one
     * captured trace replay under every design's policy.
     */
    std::uint8_t flags = 0;
};

/** The mapping's 2 MB-aligned interior was backed by large pages. */
inline constexpr std::uint8_t kVmOpFlagContig = 1;

/**
 * Owns all process address spaces and their page tables.  Components that
 * cache translations (TLBs, the FBT) subscribe to shootdown events.
 */
class Vm
{
  public:
    /** Per-page shootdown callback: (asid, vpn). */
    using PageShootdownFn = SmallFunc<void(Asid, Vpn)>;
    /** Full address-space shootdown callback: (asid). */
    using FullShootdownFn = SmallFunc<void(Asid)>;

    /**
     * Anonymous-mapping page-size policy (Mosaic-style transparent
     * huge pages).  The virtual layout is policy-invariant — reserve()
     * arithmetic never changes, so recorded warp streams stay valid
     * across policies — and with a fresh PhysMem the frame sequence is
     * identical too (both the 4 KB and contiguous allocators are pure
     * bumps), making the policies differ only in mapping granularity.
     */
    enum class PagePolicy : std::uint8_t {
        k4k = 0,         ///< Every anonymous page maps at 4 KB.
        k2mInterior = 1, ///< 2 MB-aligned interiors map as 2 MB pages.
    };

    explicit Vm(PhysMem &pm) : pm_(pm) {}

    /** Select the anonymous-mapping policy (before any mmapAnon). */
    void setPagePolicy(PagePolicy p) { policy_ = p; }

    /** Create a new address space; returns its ASID. */
    Asid
    createProcess()
    {
        record({VmOp::Kind::kCreateProcess, 0, 0, 0, 0, kPermNone});
        const Asid asid = Asid(procs_.size());
        procs_.push_back(std::make_unique<ProcState>(pm_));
        return asid;
    }

    /** Start/stop appending mutating operations to the op log. */
    void recordOps(bool on) { recording_ = on; }

    /** Operations recorded while recordOps(true) was in effect. */
    const std::vector<VmOp> &recordedOps() const { return op_log_; }

    /**
     * Eagerly map @p bytes of fresh anonymous memory in @p asid.
     * @return the base virtual address of the new region.
     */
    Vaddr
    mmapAnon(Asid asid, std::uint64_t bytes,
             Perms perms = kPermRead | kPermWrite)
    {
        ProcState &p = proc(asid);
        const std::uint64_t pages = pageCount(bytes);
        const Vaddr base = p.reserve(pages);
        const Vpn first = pageOf(base);
        const Vpn end = first + pages;
        // The 2 MB-aligned interior, when the policy maps it large.
        const Vpn lo = (first + 511) & ~Vpn{511};
        const bool contig = policy_ == PagePolicy::k2mInterior &&
                            lo + 512 <= end;
        record({VmOp::Kind::kMmapAnon, asid, 0, 0, bytes, perms,
                contig ? kVmOpFlagContig : std::uint8_t(0)});
        if (!contig) {
            for (Vpn v = first; v < end; ++v)
                p.pt.map(v, pm_.allocFrame(), perms);
            return base;
        }
        for (Vpn v = first; v < lo; ++v)
            p.pt.map(v, pm_.allocFrame(), perms);
        Vpn v = lo;
        for (; v + 512 <= end; v += 512)
            p.pt.mapLarge(v, pm_.allocContiguous(512), perms);
        for (; v < end; ++v)
            p.pt.map(v, pm_.allocFrame(), perms);
        return base;
    }

    /**
     * Eagerly map @p bytes using 2 MB pages (rounded up).
     * @return the base virtual address (2 MB aligned).
     */
    Vaddr
    mmapAnonLarge(Asid asid, std::uint64_t bytes,
                  Perms perms = kPermRead | kPermWrite)
    {
        record({VmOp::Kind::kMmapAnonLarge, asid, 0, 0, bytes, perms});
        ProcState &p = proc(asid);
        const std::uint64_t large_pages =
            (bytes + kLargePageSize - 1) / kLargePageSize;
        const Vaddr base = p.reserveAligned(large_pages * 512, 512);
        for (std::uint64_t i = 0; i < large_pages; ++i) {
            const Ppn frames = pm_.allocContiguous(512);
            p.pt.mapLarge(pageOf(base) + i * 512, frames, perms);
        }
        return base;
    }

    /**
     * Create a synonym: a new VA range in @p dst_asid backed by the same
     * frames as [src_base, src_base+bytes) in @p src_asid.  When the two
     * ASIDs are equal this is an intra-address-space alias.
     * @return base VA of the alias region.
     */
    Vaddr
    alias(Asid dst_asid, Asid src_asid, Vaddr src_base,
          std::uint64_t bytes, Perms perms = kPermRead | kPermWrite)
    {
        record({VmOp::Kind::kAlias, dst_asid, src_asid, src_base, bytes,
                perms});
        ProcState &src = proc(src_asid);
        ProcState &dst = proc(dst_asid);
        const std::uint64_t pages = pageCount(bytes);
        const Vaddr base = dst.reserve(pages);
        for (std::uint64_t i = 0; i < pages; ++i) {
            const auto t = src.pt.translate(pageOf(src_base) + i);
            if (!t)
                fatal("Vm::alias: source range not fully mapped");
            dst.pt.map(pageOf(base) + i, t->ppn, perms);
        }
        return base;
    }

    /** Change permissions on a range; fires per-page shootdowns. */
    void
    protect(Asid asid, Vaddr base, std::uint64_t bytes, Perms perms)
    {
        record({VmOp::Kind::kProtect, asid, 0, base, bytes, perms});
        ProcState &p = proc(asid);
        const std::uint64_t pages = pageCount(bytes);
        for (std::uint64_t i = 0; i < pages; ++i) {
            const Vpn vpn = pageOf(base) + i;
            if (p.pt.protect(vpn, perms))
                firePageShootdown(asid, vpn);
        }
    }

    /** Unmap a range; fires per-page shootdowns; frees frames that were
     *  exclusively owned (aliased frames are left allocated). */
    void
    unmap(Asid asid, Vaddr base, std::uint64_t bytes)
    {
        record({VmOp::Kind::kUnmap, asid, 0, base, bytes, kPermNone});
        ProcState &p = proc(asid);
        const std::uint64_t pages = pageCount(bytes);
        for (std::uint64_t i = 0; i < pages; ++i) {
            const Vpn vpn = pageOf(base) + i;
            if (p.pt.unmap(vpn))
                firePageShootdown(asid, vpn);
        }
    }

    /** Tear down all translations of a process (exit/context destroy). */
    void
    shootdownAll(Asid asid)
    {
        for (auto &fn : full_listeners_)
            fn(asid);
    }

    std::optional<Translation>
    translate(Asid asid, Vaddr va)
    {
        return proc(asid).pt.translate(pageOf(va));
    }

    PageTable &pageTable(Asid asid) { return proc(asid).pt; }

    void
    addPageShootdownListener(PageShootdownFn fn)
    {
        page_listeners_.push_back(std::move(fn));
    }

    void
    addFullShootdownListener(FullShootdownFn fn)
    {
        full_listeners_.push_back(std::move(fn));
    }

    std::uint64_t pageShootdowns() const { return page_shootdowns_; }

  private:
    struct ProcState
    {
        explicit ProcState(PhysMem &pm) : pt(pm) {}

        /** Bump-reserve @p pages of VA space with a guard page. */
        Vaddr
        reserve(std::uint64_t pages)
        {
            const Vaddr base = next_va;
            next_va += (pages + 1) * kPageSize;
            return base;
        }

        /** Reserve with @p align_pages alignment (for 2 MB pages). */
        Vaddr
        reserveAligned(std::uint64_t pages, std::uint64_t align_pages)
        {
            const std::uint64_t align = align_pages * kPageSize;
            next_va = (next_va + align - 1) & ~(align - 1);
            const Vaddr base = next_va;
            next_va += (pages + align_pages) * kPageSize;
            return base;
        }

        PageTable pt;
        Vaddr next_va = 0x1000'0000;
    };

    static std::uint64_t
    pageCount(std::uint64_t bytes)
    {
        return (bytes + kPageSize - 1) >> kPageShift;
    }

    ProcState &
    proc(Asid asid)
    {
        if (asid >= procs_.size())
            fatal("Vm: unknown ASID");
        return *procs_[asid];
    }

    void
    record(const VmOp &op)
    {
        if (recording_)
            op_log_.push_back(op);
    }

    void
    firePageShootdown(Asid asid, Vpn vpn)
    {
        ++page_shootdowns_;
        for (auto &fn : page_listeners_)
            fn(asid, vpn);
    }

    PhysMem &pm_;
    std::vector<std::unique_ptr<ProcState>> procs_;
    std::vector<PageShootdownFn> page_listeners_;
    std::vector<FullShootdownFn> full_listeners_;
    std::uint64_t page_shootdowns_ = 0;
    std::vector<VmOp> op_log_;
    bool recording_ = false;
    PagePolicy policy_ = PagePolicy::k4k;
};

/**
 * Rebase a recorded op log onto a Vm that already owns @p asid_base
 * processes: every ASID reference shifts up by @p asid_base, so N
 * independently captured single-process logs concatenate into one
 * multi-process image.  Replay order still matters for frame identity
 * (PhysMem allocates in call order), but each process's *virtual*
 * layout is position-independent — the per-process bump allocator
 * always starts at the same VA.
 */
inline std::vector<VmOp>
rebaseVmOps(const std::vector<VmOp> &ops, Asid asid_base)
{
    std::vector<VmOp> out;
    out.reserve(ops.size());
    for (VmOp op : ops) {
        if (op.kind != VmOp::Kind::kCreateProcess) {
            op.asid = Asid(op.asid + asid_base);
            if (op.kind == VmOp::Kind::kAlias)
                op.src_asid = Asid(op.src_asid + asid_base);
        }
        out.push_back(op);
    }
    return out;
}

/** A mapped anonymous region reconstructed from an op log. */
struct VmRegion
{
    Asid asid = 0;
    Vaddr base = 0;
    std::uint64_t bytes = 0; ///< Page-rounded mapped size.
    Perms perms = kPermNone; ///< Perms the region was mapped with.
};

/**
 * Reconstruct the writable small-page anonymous regions an op log maps,
 * with their base VAs, by replaying the reservation arithmetic of Vm's
 * per-process bump allocator (the op log records sizes, not addresses).
 * ASIDs in the result are shifted by @p asid_base to match rebaseVmOps.
 * Large-page and alias regions are tracked for address accounting but
 * not reported: they are poor shootdown-storm targets (a 4 KB protect
 * inside a 2 MB mapping would have to split the page, and alias targets
 * double-fire on the source mapping).  Regions the log itself later
 * protects or unmaps (even partially) are dropped too, so a storm's
 * protect-and-restore can never overwrite workload-chosen permissions.
 */
inline std::vector<VmRegion>
anonWriteRegions(const std::vector<VmOp> &ops, Asid asid_base = 0)
{
    constexpr Vaddr kFirstVa = 0x1000'0000; // ProcState::next_va start
    const auto pages = [](std::uint64_t bytes) {
        return (bytes + kPageSize - 1) >> kPageShift;
    };
    std::vector<Vaddr> next;
    std::vector<VmRegion> out;
    for (const VmOp &op : ops) {
        switch (op.kind) {
          case VmOp::Kind::kCreateProcess:
            next.push_back(kFirstVa);
            break;
          case VmOp::Kind::kMmapAnon: {
            const std::uint64_t n = pages(op.bytes);
            const Vaddr base = next[op.asid];
            next[op.asid] += (n + 1) * kPageSize; // region + guard page
            if (permsAllow(op.perms, kPermWrite)) {
                out.push_back(VmRegion{Asid(op.asid + asid_base), base,
                                       n * kPageSize, op.perms});
            }
            break;
          }
          case VmOp::Kind::kMmapAnonLarge: {
            const std::uint64_t large =
                (op.bytes + kLargePageSize - 1) / kLargePageSize;
            const std::uint64_t align = 512 * kPageSize;
            next[op.asid] = (next[op.asid] + align - 1) & ~(align - 1);
            next[op.asid] += (large * 512 + 512) * kPageSize;
            break;
          }
          case VmOp::Kind::kAlias:
            next[op.asid] += (pages(op.bytes) + 1) * kPageSize;
            break;
          case VmOp::Kind::kProtect:
          case VmOp::Kind::kUnmap: {
            const Vaddr lo = op.base;
            const Vaddr hi = op.base + pages(op.bytes) * kPageSize;
            std::erase_if(out, [&](const VmRegion &r) {
                return r.asid == Asid(op.asid + asid_base) &&
                       r.base < hi && lo < r.base + r.bytes;
            });
            break;
          }
        }
    }
    return out;
}

/** Replay a recorded operation log into @p vm (trace replay). */
inline void
applyVmOps(Vm &vm, const std::vector<VmOp> &ops)
{
    for (const VmOp &op : ops) {
        switch (op.kind) {
          case VmOp::Kind::kCreateProcess:
            vm.createProcess();
            break;
          case VmOp::Kind::kMmapAnon:
            vm.mmapAnon(op.asid, op.bytes, op.perms);
            break;
          case VmOp::Kind::kMmapAnonLarge:
            vm.mmapAnonLarge(op.asid, op.bytes, op.perms);
            break;
          case VmOp::Kind::kAlias:
            vm.alias(op.asid, op.src_asid, op.base, op.bytes, op.perms);
            break;
          case VmOp::Kind::kProtect:
            vm.protect(op.asid, op.base, op.bytes, op.perms);
            break;
          case VmOp::Kind::kUnmap:
            vm.unmap(op.asid, op.base, op.bytes);
            break;
        }
    }
}

} // namespace gvc

#endif // GVC_MEM_VM_HH
