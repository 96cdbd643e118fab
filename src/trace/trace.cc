#include "trace/trace.hh"

#include <cstdio>
#include <cstring>

#include "mmu/boundary.hh"
#include "sim/bytes.hh"

namespace gvc::trace
{

namespace
{

// --- encoding primitives ------------------------------------------------

void
putU32Fixed(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putU64Fixed(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(std::uint8_t(v >> (8 * i)));
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(std::uint8_t(v) | 0x80);
        v >>= 7;
    }
    out.push_back(std::uint8_t(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (std::uint64_t(v) << 1) ^ std::uint64_t(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return std::int64_t(v >> 1) ^ -std::int64_t(v & 1);
}

/** Bounds-checked little-endian / varint cursor over a byte buffer. */
class Cursor
{
  public:
    Cursor(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::size_t remaining() const { return size_ - pos_; }
    bool ok() const { return ok_; }
    const std::string &error() const { return err_; }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32Fixed()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64Fixed()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= std::uint64_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (!need(1))
                return 0;
            const std::uint8_t b = data_[pos_++];
            v |= std::uint64_t(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
        fail("varint longer than 64 bits");
        return 0;
    }

    std::string
    str()
    {
        const std::uint64_t len = varint();
        if (!ok_ || !need(std::size_t(len)))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      std::size_t(len));
        pos_ += std::size_t(len);
        return s;
    }

    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            err_ = why;
            pos_ = size_; // stop consuming
        }
    }

  private:
    bool
    need(std::size_t n)
    {
        if (!ok_)
            return false;
        if (size_ - pos_ < n) {
            fail("truncated trace body");
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string err_;
};

// --- body ---------------------------------------------------------------

void
serializeInst(std::vector<std::uint8_t> &out, const WarpInst &inst)
{
    out.push_back(std::uint8_t(inst.op));
    switch (inst.op) {
      case WarpOp::kCompute:
      case WarpOp::kScratchLoad:
      case WarpOp::kScratchStore:
        putVarint(out, inst.cycles);
        break;
      case WarpOp::kBarrier:
        break;
      case WarpOp::kLoad:
      case WarpOp::kStore:
        putVarint(out, inst.lane_addrs.size());
        for (std::size_t i = 0; i < inst.lane_addrs.size(); ++i) {
            if (i == 0) {
                putVarint(out, inst.lane_addrs[0]);
            } else {
                const std::int64_t delta =
                    std::int64_t(inst.lane_addrs[i]) -
                    std::int64_t(inst.lane_addrs[i - 1]);
                putVarint(out, zigzag(delta));
            }
        }
        break;
    }
}

bool
parseInst(Cursor &c, WarpInst &inst)
{
    const std::uint8_t op = c.u8();
    if (!c.ok())
        return false;
    if (op > std::uint8_t(WarpOp::kBarrier)) {
        c.fail("invalid warp op");
        return false;
    }
    inst.op = WarpOp(op);
    inst.cycles = 1;
    inst.lane_addrs.clear();
    switch (inst.op) {
      case WarpOp::kCompute:
      case WarpOp::kScratchLoad:
      case WarpOp::kScratchStore:
        inst.cycles = std::uint32_t(c.varint());
        break;
      case WarpOp::kBarrier:
        break;
      case WarpOp::kLoad:
      case WarpOp::kStore: {
        const std::uint64_t lanes = c.varint();
        if (!c.ok())
            return false;
        if (lanes > kWarpLanes) {
            c.fail("lane count exceeds warp width");
            return false;
        }
        inst.lane_addrs.reserve(std::size_t(lanes));
        Vaddr prev = 0;
        for (std::uint64_t i = 0; i < lanes; ++i) {
            Vaddr va;
            if (i == 0)
                va = c.varint();
            else
                va = Vaddr(std::int64_t(prev) + unzigzag(c.varint()));
            inst.lane_addrs.push_back(va);
            prev = va;
        }
        break;
      }
    }
    return c.ok();
}

std::vector<std::uint8_t>
serializeBody(const Trace &t)
{
    std::vector<std::uint8_t> out;
    putVarint(out, t.workload.size());
    out.insert(out.end(), t.workload.begin(), t.workload.end());

    std::uint64_t scale_bits;
    static_assert(sizeof(scale_bits) == sizeof(t.params.scale));
    std::memcpy(&scale_bits, &t.params.scale, sizeof(scale_bits));
    putU64Fixed(out, scale_bits);
    putVarint(out, t.params.seed);
    putVarint(out, t.params.grid_warps);
    out.push_back(std::uint8_t(t.params.graph));

    putVarint(out, t.vm_ops.size());
    for (const VmOp &op : t.vm_ops) {
        out.push_back(std::uint8_t(op.kind));
        putVarint(out, op.asid);
        putVarint(out, op.src_asid);
        putVarint(out, op.base);
        putVarint(out, op.bytes);
        out.push_back(op.perms);
    }

    putVarint(out, t.kernels.size());
    for (const TraceKernel &k : t.kernels) {
        putVarint(out, k.asid);
        putVarint(out, k.warps.size());
        for (const auto &warp : k.warps) {
            putVarint(out, warp.size());
            for (const WarpInst &inst : warp)
                serializeInst(out, inst);
        }
    }

    // Boundary section, present in version-2+ bodies.  A trace
    // without boundaries or flags serializes as version 1 and must
    // stay byte-identical to pre-scenario writers; a version-3 body
    // always carries the boundary count so the flags section that
    // follows is unambiguous.
    const bool flagged = t.hasVmOpFlags();
    if (!t.boundaries.empty() || flagged) {
        putVarint(out, t.boundaries.size());
        for (const TraceBoundary &b : t.boundaries) {
            putVarint(out, b.kernel);
            out.push_back(b.policy);
        }
    }

    // Vm-op flags section (contiguity metadata), version-3 bodies only.
    if (flagged) {
        std::uint64_t count = 0;
        for (const VmOp &op : t.vm_ops)
            if (op.flags)
                ++count;
        putVarint(out, count);
        for (std::size_t i = 0; i < t.vm_ops.size(); ++i) {
            if (t.vm_ops[i].flags) {
                putVarint(out, i);
                out.push_back(t.vm_ops[i].flags);
            }
        }
    }
    return out;
}

bool
parseBody(Cursor &c, Trace &t, std::uint32_t version)
{
    t.workload = c.str();

    const std::uint64_t scale_bits = c.u64Fixed();
    std::memcpy(&t.params.scale, &scale_bits, sizeof(t.params.scale));
    t.params.seed = c.varint();
    t.params.grid_warps = unsigned(c.varint());
    const std::uint8_t graph = c.u8();
    if (!c.ok())
        return false;
    if (graph > std::uint8_t(GraphKind::kGrid)) {
        c.fail("invalid graph kind");
        return false;
    }
    t.params.graph = GraphKind(graph);

    const std::uint64_t n_ops = c.varint();
    if (!c.ok())
        return false;
    t.vm_ops.clear();
    t.vm_ops.reserve(std::size_t(n_ops));
    for (std::uint64_t i = 0; i < n_ops; ++i) {
        VmOp op;
        const std::uint8_t kind = c.u8();
        if (!c.ok())
            return false;
        if (kind > std::uint8_t(VmOp::Kind::kUnmap)) {
            c.fail("invalid vm-op kind");
            return false;
        }
        op.kind = VmOp::Kind(kind);
        op.asid = Asid(c.varint());
        op.src_asid = Asid(c.varint());
        op.base = c.varint();
        op.bytes = c.varint();
        op.perms = c.u8();
        if (!c.ok())
            return false;
        t.vm_ops.push_back(op);
    }

    const std::uint64_t n_kernels = c.varint();
    if (!c.ok())
        return false;
    t.kernels.clear();
    t.kernels.reserve(std::size_t(n_kernels));
    for (std::uint64_t ki = 0; ki < n_kernels; ++ki) {
        TraceKernel k;
        k.asid = Asid(c.varint());
        const std::uint64_t n_warps = c.varint();
        if (!c.ok())
            return false;
        k.warps.reserve(std::size_t(n_warps));
        for (std::uint64_t wi = 0; wi < n_warps; ++wi) {
            const std::uint64_t n_insts = c.varint();
            if (!c.ok())
                return false;
            std::vector<WarpInst> warp;
            warp.reserve(std::size_t(n_insts));
            for (std::uint64_t ii = 0; ii < n_insts; ++ii) {
                WarpInst inst;
                if (!parseInst(c, inst))
                    return false;
                warp.push_back(std::move(inst));
            }
            k.warps.push_back(std::move(warp));
        }
        t.kernels.push_back(std::move(k));
    }

    t.boundaries.clear();
    if (version >= kTraceVersionScenario) {
        const std::uint64_t n_bounds = c.varint();
        if (!c.ok())
            return false;
        t.boundaries.reserve(std::size_t(n_bounds));
        for (std::uint64_t bi = 0; bi < n_bounds; ++bi) {
            TraceBoundary b;
            b.kernel = c.varint();
            b.policy = c.u8();
            if (!c.ok())
                return false;
            if (b.policy >= BoundaryPolicy::kBoundaryPolicyLimit) {
                c.fail("invalid boundary policy byte");
                return false;
            }
            if (!t.boundaries.empty() &&
                b.kernel <= t.boundaries.back().kernel) {
                c.fail("boundary kernel indices not strictly increasing");
                return false;
            }
            // A boundary sits *between* launches: at least one kernel
            // must follow it.
            if (b.kernel + 1 >= t.kernels.size()) {
                c.fail("boundary kernel index out of range");
                return false;
            }
            t.boundaries.push_back(b);
        }
    }

    if (version >= kTraceVersionContig) {
        const std::uint64_t n_flags = c.varint();
        if (!c.ok())
            return false;
        std::uint64_t prev = 0;
        bool first = true;
        for (std::uint64_t fi = 0; fi < n_flags; ++fi) {
            const std::uint64_t idx = c.varint();
            const std::uint8_t flags = c.u8();
            if (!c.ok())
                return false;
            if (idx >= t.vm_ops.size()) {
                c.fail("vm-op flag index out of range");
                return false;
            }
            if (!first && idx <= prev) {
                c.fail("vm-op flag indices not strictly increasing");
                return false;
            }
            if (flags == 0 || (flags & ~kVmOpFlagContig)) {
                c.fail("invalid vm-op flags byte");
                return false;
            }
            t.vm_ops[std::size_t(idx)].flags = flags;
            prev = idx;
            first = false;
        }
    }

    if (c.remaining() != 0) {
        c.fail("trailing bytes after trace body");
        return false;
    }
    return true;
}

void
setErr(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
}

} // namespace

std::uint64_t
traceDigest(const Trace &trace)
{
    const auto body = serializeBody(trace);
    return fnv1a(body.data(), body.size());
}

std::vector<std::uint8_t>
TraceWriter::serialize(const Trace &trace)
{
    const auto body = serializeBody(trace);
    std::vector<std::uint8_t> out;
    out.reserve(16 + body.size());
    for (char c : kTraceMagic)
        out.push_back(std::uint8_t(c));
    putU32Fixed(out, trace.formatVersion());
    putU64Fixed(out, fnv1a(body.data(), body.size()));
    out.insert(out.end(), body.begin(), body.end());
    return out;
}

bool
TraceWriter::writeFile(const std::string &path, const Trace &trace,
                       std::string *err)
{
    const auto bytes = serialize(trace);
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        setErr(err, "cannot open '" + path + "' for writing");
        return false;
    }
    const std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool ok = (n == bytes.size()) && std::fclose(f) == 0;
    if (!ok)
        setErr(err, "short write to '" + path + "'");
    return ok;
}

bool
TraceReader::parse(const std::uint8_t *data, std::size_t size, Trace &out,
                   std::string *err)
{
    if (size < 16) {
        setErr(err, "file too short for trace header");
        return false;
    }
    if (std::memcmp(data, kTraceMagic, 4) != 0) {
        setErr(err, "bad magic: not a gvc trace file");
        return false;
    }
    Cursor c(data + 4, size - 4);
    const std::uint32_t version = c.u32Fixed();
    if (version < kTraceVersion || version > kTraceVersionContig) {
        setErr(err, "unsupported trace version " +
                        std::to_string(version) + " (expected " +
                        std::to_string(kTraceVersion) + ".." +
                        std::to_string(kTraceVersionContig) + ")");
        return false;
    }
    const std::uint64_t digest = c.u64Fixed();
    if (fnv1a(data + 16, size - 16) != digest) {
        setErr(err, "body digest mismatch: trace is corrupt");
        return false;
    }
    if (!parseBody(c, out, version)) {
        setErr(err, c.error());
        return false;
    }
    return true;
}

bool
TraceReader::readFile(const std::string &path, Trace &out,
                      std::string *err)
{
    std::string bytes;
    return readFileBytes(path, bytes, err) &&
           parse(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                 bytes.size(), out, err);
}

} // namespace gvc::trace
