#include "trace/trace.hh"

#include <cstdio>
#include <cstring>
#include <limits>
#include <utility>

#include "mmu/boundary.hh"
#include "sim/bytes.hh"

namespace gvc::trace
{

namespace
{

// --- encoding primitives ------------------------------------------------

/** Store the low @p n bytes of @p v at @p p, little-endian. */
void
putLittleEndian(std::uint8_t *p, std::uint64_t v, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        p[i] = std::uint8_t(v >> (8 * i));
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
    /** The next unread byte. */
    const std::uint8_t *here() const { return data_ + pos_; }
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

    /** A LEB128 varint; @p field names it in the error. */
    std::uint64_t
    varint(const char *field)
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (!need(1))
                return 0;
            const std::uint8_t b = data_[pos_++];
            // A 10th byte carries bit 63 alone, and ends the varint.
            if (shift == 63 && b > 1)
                break;
            v |= std::uint64_t(b & 0x7f) << shift;
            if (!(b & 0x80))
                return v;
        }
        fail(std::string(field) + " overflows 64 bits");
        return 0;
    }

    /**
     * An element count, @p field naming it.  Every element takes at
     * least one body byte, so a count above the bytes left is corrupt,
     * and is refused before anything is reserved for it.
     */
    std::uint64_t
    count(const char *field)
    {
        const std::uint64_t n = varint(field);
        if (ok_ && n > remaining())
            fail(std::string(field) + " exceeds the bytes left");
        return n;
    }

    /** A varint that must fit in @p T; @p field names it. */
    template <typename T>
    T
    varintAs(const char *field)
    {
        const std::uint64_t v = varint(field);
        if (v > std::numeric_limits<T>::max()) {
            fail(std::string(field) + " out of range");
            return 0;
        }
        return T(v);
    }

    std::string
    str(const char *field)
    {
        const std::uint64_t len = varint(field);
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

/**
 * Writes a trace body into [buf, buf + size) and hands the bytes to
 * @p Sink, called as sink(data, size), whenever the buffer fills and at
 * finish().  traceDigest writes through a small buffer it only hashes;
 * serialize writes straight into its exactly sized output, which fills
 * only at the end.
 */
template <typename Sink>
class BodyWriter
{
  public:
    BodyWriter(std::uint8_t *buf, std::size_t size, Sink sink)
        : buf_(buf), p_(buf), end_(buf + size), sink_(std::move(sink))
    {
    }

    void
    u8(std::uint8_t v)
    {
        room(1);
        *p_++ = v;
    }

    void
    u64Fixed(std::uint64_t v)
    {
        room(8);
        putLittleEndian(p_, v, 8);
        p_ += 8;
    }

    void
    varint(std::uint64_t v)
    {
        room(varintSize(v));
        p_ = putVarint(p_, v);
    }

    /** @p n <= kMaxLaneBytes bytes as they are. */
    void
    bytes(const std::uint8_t *data, std::size_t n)
    {
        room(n);
        std::memcpy(p_, data, n);
        p_ += n;
    }

    /** Hand the buffered bytes to the sink. */
    void
    finish()
    {
        sink_(buf_, std::size_t(p_ - buf_));
        p_ = buf_;
    }

  private:
    void
    room(std::size_t n)
    {
        if (std::size_t(end_ - p_) < n)
            finish();
    }

    std::uint8_t *const buf_;
    std::uint8_t *p_;
    std::uint8_t *const end_;
    Sink sink_;
};

/** Counts the bytes of a body, written through BodyWriter's calls. */
struct BodySize
{
    std::size_t n = 0;

    void u8(std::uint8_t) { ++n; }
    void u64Fixed(std::uint64_t) { n += 8; }
    void varint(std::uint64_t v) { n += varintSize(v); }
    void bytes(const std::uint8_t *, std::size_t size) { n += size; }
    void finish() {}
};

template <typename Writer>
void
serializeInst(Writer &w, const WarpInst &inst)
{
    w.u8(std::uint8_t(inst.op));
    switch (inst.op) {
      case WarpOp::kCompute:
      case WarpOp::kScratchLoad:
      case WarpOp::kScratchStore:
        w.varint(inst.cycles());
        break;
      case WarpOp::kBarrier:
        break;
      case WarpOp::kLoad:
      case WarpOp::kStore:
        // The lanes are held in the body's own encoding.
        w.varint(inst.lane_addrs.size());
        w.bytes(inst.lane_addrs.bytes(), inst.lane_addrs.byteSize());
        break;
    }
}

/**
 * Parse one instruction and append it to @p warp.  A load's or store's
 * lanes are validated varint by varint and copied as they are; a lane
 * varint padded with empty bytes is packed again canonically, so the
 * parsed trace holds (and digests to) the bytes a writer would produce.
 */
bool
parseInst(Cursor &c, WarpBuilder &warp)
{
    const std::uint8_t byte = c.u8();
    if (!c.ok())
        return false;
    if (byte > std::uint8_t(WarpOp::kBarrier)) {
        c.fail("invalid warp op");
        return false;
    }
    const WarpOp op = WarpOp(byte);
    switch (op) {
      case WarpOp::kCompute:
      case WarpOp::kScratchLoad:
      case WarpOp::kScratchStore: {
        const std::uint32_t cycles = c.varintAs<std::uint32_t>("cycles");
        if (!c.ok())
            return false;
        warp.add(WarpInst(op, cycles));
        return true;
      }
      case WarpOp::kBarrier:
        warp.add(WarpInst::barrier());
        return true;
      case WarpOp::kLoad:
      case WarpOp::kStore:
        break;
    }
    const std::uint64_t lanes = c.varint("lane count");
    if (!c.ok())
        return false;
    if (lanes > kWarpLanes) {
        c.fail("lane count exceeds warp width");
        return false;
    }
    const std::uint8_t *const start = c.here();
    std::uint64_t raw[kWarpLanes];
    bool canonical = true;
    for (std::uint64_t i = 0; i < lanes; ++i) {
        const std::uint8_t *const at = c.here();
        raw[i] = c.varint(i == 0 ? "lane address" : "lane delta");
        if (!c.ok())
            return false;
        // Only a one-byte varint may end in a zero byte.
        if (c.here() - at > 1 && c.here()[-1] == 0)
            canonical = false;
    }
    if (canonical) {
        warp.packed(op, lanes, start, std::size_t(c.here() - start));
        return true;
    }
    std::uint8_t packed[kMaxLaneBytes];
    std::uint8_t *p = packed;
    for (std::uint64_t i = 0; i < lanes; ++i)
        p = putVarint(p, raw[i]);
    warp.packed(op, lanes, packed, std::size_t(p - packed));
    return true;
}

/** Write the body of @p t through @p w, and finish it. */
template <typename Writer>
void
serializeBody(const Trace &t, Writer &w)
{
    w.varint(t.workload.size());
    for (const char c : t.workload)
        w.u8(std::uint8_t(c));

    std::uint64_t scale_bits;
    static_assert(sizeof(scale_bits) == sizeof(t.params.scale));
    std::memcpy(&scale_bits, &t.params.scale, sizeof(scale_bits));
    w.u64Fixed(scale_bits);
    w.varint(t.params.seed);
    w.varint(t.params.grid_warps);
    w.u8(std::uint8_t(t.params.graph));

    w.varint(t.vm_ops.size());
    for (const VmOp &op : t.vm_ops) {
        w.u8(std::uint8_t(op.kind));
        w.varint(op.asid);
        w.varint(op.src_asid);
        w.varint(op.base);
        w.varint(op.bytes);
        w.u8(op.perms);
    }

    w.varint(t.kernels.size());
    for (const TraceKernel &k : t.kernels) {
        w.varint(k.asid);
        w.varint(k.warps.size());
        for (const WarpInsts &warp : k.warps) {
            w.varint(warp.size());
            for (const WarpInst &inst : warp)
                serializeInst(w, inst);
        }
    }

    // Boundary section, present in version-2+ bodies.  A trace
    // without boundaries or flags serializes as version 1 and must
    // stay byte-identical to pre-scenario writers; a version-3 body
    // always carries the boundary count so the flags section that
    // follows is unambiguous.
    const bool flagged = t.hasVmOpFlags();
    if (!t.boundaries.empty() || flagged) {
        w.varint(t.boundaries.size());
        for (const TraceBoundary &b : t.boundaries) {
            w.varint(b.kernel);
            w.u8(b.policy);
        }
    }

    // Vm-op flags section (contiguity metadata), version-3 bodies only.
    if (flagged) {
        std::uint64_t count = 0;
        for (const VmOp &op : t.vm_ops)
            if (op.flags)
                ++count;
        w.varint(count);
        for (std::size_t i = 0; i < t.vm_ops.size(); ++i) {
            if (t.vm_ops[i].flags) {
                w.varint(i);
                w.u8(t.vm_ops[i].flags);
            }
        }
    }
    w.finish();
}

/** Bytes of @p t's body, counted from its records without encoding. */
std::size_t
bodySize(const Trace &t)
{
    BodySize size;
    serializeBody(t, size);
    return size.n;
}

bool
parseBody(Cursor &c, Trace &t, std::uint32_t version)
{
    // Each warp is parsed here, then finished into one exactly sized
    // block of its records and lanes.
    WarpBuilder scratch;
    t.workload = c.str("workload name");

    const std::uint64_t scale_bits = c.u64Fixed();
    std::memcpy(&t.params.scale, &scale_bits, sizeof(t.params.scale));
    t.params.seed = c.varint("seed");
    t.params.grid_warps = c.varintAs<unsigned>("grid_warps");
    const std::uint8_t graph = c.u8();
    if (!c.ok())
        return false;
    if (graph > std::uint8_t(GraphKind::kGrid)) {
        c.fail("invalid graph kind");
        return false;
    }
    t.params.graph = GraphKind(graph);

    const std::uint64_t n_ops = c.count("vm-op count");
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
        op.asid = c.varintAs<Asid>("vm-op asid");
        op.src_asid = c.varintAs<Asid>("vm-op src_asid");
        op.base = c.varint("vm-op base");
        op.bytes = c.varint("vm-op bytes");
        op.perms = c.u8();
        if (!c.ok())
            return false;
        t.vm_ops.push_back(op);
    }

    const std::uint64_t n_kernels = c.count("kernel count");
    if (!c.ok())
        return false;
    t.kernels.clear();
    t.kernels.reserve(std::size_t(n_kernels));
    for (std::uint64_t ki = 0; ki < n_kernels; ++ki) {
        TraceKernel k;
        k.asid = c.varintAs<Asid>("kernel asid");
        const std::uint64_t n_warps = c.count("warp count");
        if (!c.ok())
            return false;
        k.warps.reserve(std::size_t(n_warps));
        for (std::uint64_t wi = 0; wi < n_warps; ++wi) {
            const std::uint64_t n_insts = c.count("instruction count");
            if (!c.ok())
                return false;
            scratch.clear();
            for (std::uint64_t ii = 0; ii < n_insts; ++ii)
                if (!parseInst(c, scratch))
                    return false;
            if (scratch.blockBytes() > 0xffff'ffffu) {
                c.fail("warp exceeds 4 GiB");
                return false;
            }
            k.warps.push_back(scratch.finish());
        }
        t.kernels.push_back(std::move(k));
    }

    t.boundaries.clear();
    if (version >= kTraceVersionScenario) {
        const std::uint64_t n_bounds = c.count("boundary count");
        if (!c.ok())
            return false;
        t.boundaries.reserve(std::size_t(n_bounds));
        for (std::uint64_t bi = 0; bi < n_bounds; ++bi) {
            TraceBoundary b;
            b.kernel = c.varint("boundary kernel");
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
        const std::uint64_t n_flags = c.varint("flagged-op count");
        if (!c.ok())
            return false;
        std::uint64_t prev = 0;
        bool first = true;
        for (std::uint64_t fi = 0; fi < n_flags; ++fi) {
            const std::uint64_t idx = c.varint("vm-op flag index");
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
    std::uint64_t digest = kFnv1aBasis;
    std::uint8_t buf[16 * 1024];
    BodyWriter w(buf, sizeof(buf),
                 [&digest](const std::uint8_t *p, std::size_t n) {
                     digest = fnv1a(p, n, digest);
                 });
    serializeBody(trace, w);
    return digest;
}

std::vector<std::uint8_t>
TraceWriter::serialize(const Trace &trace)
{
    // One allocation of the file's exact size.  The body is written in
    // place, so it fills only at finish(), which hashes it for the
    // header's digest.
    const std::size_t body = bodySize(trace);
    std::vector<std::uint8_t> out(16 + body);
    std::memcpy(out.data(), kTraceMagic, sizeof(kTraceMagic));
    putLittleEndian(out.data() + 4, trace.formatVersion(), 4);
    std::uint64_t digest = 0;
    BodyWriter w(out.data() + 16, body,
                 [&](const std::uint8_t *p, std::size_t n) {
                     panicIfNot(n == body, "TraceWriter: body miscounted");
                     digest = fnv1a(p, n);
                 });
    serializeBody(trace, w);
    putLittleEndian(out.data() + 8, digest, 8);
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
