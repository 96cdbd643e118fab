/**
 * @file
 * Captured workload traces: the on-disk representation of everything a
 * simulation needs to re-execute a workload without regenerating it —
 * the VM-image recipe (the setup-time Vm operation log) plus every
 * per-warp instruction stream of every kernel launch.
 *
 * Replay is bit-identical to live generation: PhysMem and PageTable
 * allocate frames deterministically in call order, so replaying the
 * recorded VmOp log reconstructs the same VAs, PPNs, and PTE physical
 * addresses, and the recorded WarpInst streams are the exact streams
 * the live workload emitted.
 *
 * ## File format (versions 1 and 2)
 *
 *     offset  size  field
 *     0       4     magic "GVCT"
 *     4       4     format version, u32 little-endian
 *     8       8     FNV-1a-64 digest of the body, u64 little-endian
 *     16      ...   body
 *
 * Body (all integers LEB128 varints unless noted):
 *
 *     workload name        varint length + bytes
 *     params.scale         u64 little-endian (IEEE-754 bit pattern)
 *     params.seed          varint
 *     params.grid_warps    varint
 *     params.graph         u8
 *     vm-op count          varint
 *       per op:            u8 kind, varint asid, varint src_asid,
 *                          varint base, varint bytes, u8 perms
 *     kernel count         varint
 *       per kernel:        varint asid, varint warp count
 *         per warp:        varint instruction count
 *           per inst:      u8 op, then
 *                          - compute/scratch: varint cycles
 *                          - load/store: varint lane count (<= 32),
 *                            varint first address, then zigzag-varint
 *                            deltas between consecutive lane addresses
 *                          - barrier: nothing
 *
 * Version 2 appends a kernel-boundary section (multi-kernel scenarios):
 *
 *     boundary count       varint
 *       per boundary:      varint kernel index, u8 policy byte
 *
 * Boundary kernel indices must be strictly increasing and each must
 * leave at least one kernel after it (a boundary sits *between*
 * launches); the policy byte is a BoundaryPolicy encoding and must be
 * < BoundaryPolicy::kBoundaryPolicyLimit.  A trace without boundaries
 * always serializes as version 1, so every pre-scenario trace file is
 * byte-identical to what older writers produced.
 *
 * Version 3 appends a vm-op flags section (contiguity metadata, only
 * written when some op carries flags; a version-3 body always includes
 * the boundary section, with a zero count when boundary-free):
 *
 *     flagged-op count     varint
 *       per entry:         varint vm-op index, u8 flags (nonzero)
 *
 * Indices must be strictly increasing and in range; the flags byte
 * must be a known kVmOpFlag* combination.  Flag-free traces keep
 * serializing as version 1 or 2 byte-identically.
 *
 * Lane addresses are overwhelmingly small positive strides off the
 * previous lane, so zigzag delta coding shrinks the dominant payload
 * from 8 bytes to 1-2 bytes per lane.  A decoded trace keeps the lanes
 * in these very bytes (gpu/warp_inst.hh's lane codec), so encoding
 * copies them and decoding validates and copies them back.
 */

#ifndef GVC_TRACE_TRACE_HH
#define GVC_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/warp_inst.hh"
#include "mem/vm.hh"
#include "workloads/workload.hh"

namespace gvc::trace
{

/** Base on-disk format version (no boundary section). */
inline constexpr std::uint32_t kTraceVersion = 1;

/** Format version carrying the kernel-boundary section. */
inline constexpr std::uint32_t kTraceVersionScenario = 2;

/** Format version carrying the vm-op flags (contiguity) section. */
inline constexpr std::uint32_t kTraceVersionContig = 3;

/** File magic ("GVCT"). */
inline constexpr char kTraceMagic[4] = {'G', 'V', 'C', 'T'};

/** One recorded kernel launch: its ASID and fully-materialized warps. */
struct TraceKernel
{
    Asid asid = 0;
    std::vector<WarpInsts> warps;
};

/**
 * A kernel boundary recorded in a scenario trace: after launch @p kernel
 * completes, apply the boundary policy encoded in @p policy (see
 * BoundaryPolicy::encode) before the next launch.  Kept as the raw byte
 * so the trace layer stays independent of policy semantics.
 */
struct TraceBoundary
{
    std::uint64_t kernel = 0;
    std::uint8_t policy = 0;
};

/** A complete captured workload. */
struct Trace
{
    std::string workload;
    WorkloadParams params;
    std::vector<VmOp> vm_ops;
    std::vector<TraceKernel> kernels;
    std::vector<TraceBoundary> boundaries;

    std::uint64_t
    totalInstructions() const
    {
        std::uint64_t n = 0;
        for (const auto &k : kernels)
            for (const auto &w : k.warps)
                n += w.size();
        return n;
    }

    std::uint64_t
    totalWarps() const
    {
        std::uint64_t n = 0;
        for (const auto &k : kernels)
            n += k.warps.size();
        return n;
    }

    /** True when some vm op carries contiguity flags. */
    bool
    hasVmOpFlags() const
    {
        for (const VmOp &op : vm_ops)
            if (op.flags)
                return true;
        return false;
    }

    /** On-disk format version this trace serializes as. */
    std::uint32_t
    formatVersion() const
    {
        if (hasVmOpFlags())
            return kTraceVersionContig;
        return boundaries.empty() ? kTraceVersion : kTraceVersionScenario;
    }
};

/**
 * FNV-1a-64 digest of the trace body (everything after the 16-byte
 * header).  Identifies a capture for sweep memoization keys.
 */
std::uint64_t traceDigest(const Trace &trace);

/** Serializes traces to the versioned binary format. */
class TraceWriter
{
  public:
    /** Full file image: header + body. */
    static std::vector<std::uint8_t> serialize(const Trace &trace);

    /**
     * Write @p trace to @p path.
     * @return false (with @p err filled when non-null) on I/O failure.
     */
    static bool writeFile(const std::string &path, const Trace &trace,
                          std::string *err = nullptr);
};

/** Parses and validates the binary format. */
class TraceReader
{
  public:
    /**
     * Parse a full file image.  Validates magic, version, digest, enum
     * ranges, lane counts and lane varints, that no count exceeds the
     * bytes left, and that the body is exactly consumed.
     * @return false (with @p err filled when non-null) on any defect.
     */
    static bool parse(const std::uint8_t *data, std::size_t size,
                      Trace &out, std::string *err = nullptr);

    /** Read and parse @p path. */
    static bool readFile(const std::string &path, Trace &out,
                         std::string *err = nullptr);
};

} // namespace gvc::trace

#endif // GVC_TRACE_TRACE_HH
