/**
 * @file
 * Mutation test of the .gvct decoder.  A bfs trace recorded here is
 * corrupted a fixed number of ways from a fixed seed: byte flips,
 * truncations, splices and inflated counts.  Each mutant must either be
 * refused with a message, or parse to a trace that encodes and parses
 * back to the same digest.  Every mutant but a few gets a fresh header
 * digest, so the body parser, not the digest check, meets the damage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/bytes.hh"
#include "sim/rng.hh"
#include "trace/kernel_source.hh"
#include "trace/trace.hh"

namespace gvc
{
namespace
{

using trace::Trace;
using trace::TraceReader;
using trace::TraceWriter;

using Bytes = std::vector<std::uint8_t>;

constexpr unsigned kMutants = 2400;

void
restampDigest(Bytes &bytes)
{
    if (bytes.size() < 16)
        return;
    const std::uint64_t d = fnv1a(bytes.data() + 16, bytes.size() - 16);
    for (int i = 0; i < 8; ++i)
        bytes[8 + i] = std::uint8_t(d >> (8 * i));
}

/** Bytes of the varint at @p at (to the end of @p bytes at most). */
std::size_t
varintLength(const Bytes &bytes, std::size_t at)
{
    std::size_t n = 1;
    while (at + n <= bytes.size() && (bytes[at + n - 1] & 0x80))
        ++n;
    return std::min(n, bytes.size() - at);
}

/**
 * Offsets in a file image of @p t of the counts that size what follows
 * them: vm ops, kernels, kernel 0's warps and warp 0's instructions.
 * @p t must encode as version 1 with a kernel holding a warp.
 */
std::vector<std::size_t>
countOffsets(const Trace &t)
{
    const std::size_t vm_ops = 16 + varintSize(t.workload.size()) +
                               t.workload.size() + 8 +
                               varintSize(t.params.seed) +
                               varintSize(t.params.grid_warps) + 1;
    Trace head = t;
    head.kernels.clear();
    const std::size_t kernels = TraceWriter::serialize(head).size() - 1;
    const std::size_t warps = kernels + varintSize(t.kernels.size()) +
                              varintSize(t.kernels[0].asid);
    const std::size_t insts = warps + varintSize(t.kernels[0].warps.size());
    return {vm_ops, kernels, warps, insts};
}

/** One mutant of @p good, drawn from @p rng. */
Bytes
mutate(const Bytes &good, const std::vector<std::size_t> &counts, Rng &rng)
{
    Bytes m = good;
    const std::size_t body = m.size() - 16;
    switch (rng.below(5)) {
      case 0: // flip bits in one to four bytes
        for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
            m[16 + rng.below(body)] ^= std::uint8_t(1 + rng.below(255));
        break;
      case 1: // truncate
        m.resize(rng.below(m.size()));
        break;
      case 2: { // splice a run of the trace in at another place
        const std::size_t from = 16 + rng.below(body);
        const std::size_t len =
            1 + rng.below(std::min<std::size_t>(64, m.size() - from));
        const Bytes run(good.begin() + from, good.begin() + from + len);
        const std::size_t to = 16 + rng.below(body);
        if (rng.chance(0.5))
            m.erase(m.begin() + to,
                    m.begin() + std::min(m.size(), to + len));
        m.insert(m.begin() + to, run.begin(), run.end());
        break;
      }
      case 3: { // cut a run out
        const std::size_t at = 16 + rng.below(body);
        m.erase(m.begin() + at,
                m.begin() + std::min(m.size(), at + 1 + rng.below(64)));
        break;
      }
      default: { // inflate a count, or a varint anywhere
        const std::size_t at = rng.chance(0.5)
                                   ? counts[rng.below(counts.size())]
                                   : 16 + rng.below(body);
        const std::size_t len = varintLength(m, at);
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < len && i < 9; ++i)
            v |= std::uint64_t(m[at + i] & 0x7f) << (7 * i);
        const std::uint64_t bigger =
            rng.chance(0.5) ? v + 1 + rng.below(4)
                            : v + (std::uint64_t{1} << rng.below(64));
        std::uint8_t enc[kMaxVarintBytes];
        std::uint8_t *const end = putVarint(enc, bigger);
        m.erase(m.begin() + at, m.begin() + at + len);
        m.insert(m.begin() + at, enc, end);
        break;
      }
    }
    if (!rng.chance(1.0 / 16))
        restampDigest(m);
    return m;
}

TEST(TraceMutants, EveryMutantIsRefusedOrRoundTrips)
{
    WorkloadParams params;
    params.scale = 0.02;
    const Trace bfs = trace::captureWorkloadTrace("bfs", params);
    ASSERT_EQ(bfs.formatVersion(), trace::kTraceVersion);
    const Bytes good = TraceWriter::serialize(bfs);
    const std::vector<std::size_t> counts = countOffsets(bfs);

    Rng rng(0x6776'6374'6d75'74ull);
    unsigned refused = 0, parsed = 0;
    for (unsigned i = 0; i < kMutants; ++i) {
        const Bytes m = mutate(good, counts, rng);
        Trace t;
        std::string err;
        if (!TraceReader::parse(m.data(), m.size(), t, &err)) {
            ASSERT_FALSE(err.empty()) << "mutant " << i;
            ++refused;
            continue;
        }
        ++parsed;
        const Bytes again = TraceWriter::serialize(t);
        Trace back;
        ASSERT_TRUE(TraceReader::parse(again.data(), again.size(), back,
                                       &err))
            << "mutant " << i << ": " << err;
        ASSERT_EQ(trace::traceDigest(back), trace::traceDigest(t))
            << "mutant " << i;
        ASSERT_EQ(TraceWriter::serialize(back), again) << "mutant " << i;
    }
    RecordProperty("refused", int(refused));
    RecordProperty("parsed", int(parsed));
    // Both outcomes are exercised.
    EXPECT_GT(refused, kMutants / 4);
    EXPECT_GT(parsed, 0u);
}

/** The counts the mutants inflate sit where countOffsets says. */
TEST(TraceMutants, CountOffsetsPointAtTheCounts)
{
    WorkloadParams params;
    params.scale = 0.02;
    const Trace bfs = trace::captureWorkloadTrace("bfs", params);
    const Bytes good = TraceWriter::serialize(bfs);
    const std::vector<std::size_t> at = countOffsets(bfs);
    auto value = [&](std::size_t i) {
        const std::uint8_t *p = good.data() + at[i];
        return getVarint(p);
    };
    EXPECT_EQ(value(0), bfs.vm_ops.size());
    EXPECT_EQ(value(1), bfs.kernels.size());
    EXPECT_EQ(value(2), bfs.kernels[0].warps.size());
    EXPECT_EQ(value(3), bfs.kernels[0].warps[0].size());
}

} // namespace
} // namespace gvc
