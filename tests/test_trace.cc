/**
 * @file
 * Tests for the gvc::trace layer: binary format round trips and error
 * paths, the WarpStream pointer contract and in-place replay, record->replay
 * bit-identity of full RunResults against live generation (the tentpole
 * property), and sweep capture-once/replay-per-design equivalence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/results_io.hh"
#include "harness/sweep.hh"
#include "mmu/boundary.hh"
#include "trace/kernel_source.hh"
#include "trace/trace.hh"

namespace gvc
{
namespace
{

using trace::Trace;
using trace::TraceReader;
using trace::TraceWriter;

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.scale = 0.05;
    return p;
}

/** A small hand-built trace exercising every record type. */
Trace
sampleTrace()
{
    Trace t;
    t.workload = "sample";
    t.params.scale = 0.25;
    t.params.seed = 0xabcdef;
    t.params.grid_warps = 64;
    t.params.graph = GraphKind::kGrid;
    t.vm_ops.push_back({VmOp::Kind::kCreateProcess, 0, 0, 0, 0,
                        kPermNone});
    t.vm_ops.push_back({VmOp::Kind::kMmapAnon, 0, 0, 0, 1 << 20,
                        Perms(kPermRead | kPermWrite)});
    t.vm_ops.push_back({VmOp::Kind::kAlias, 0, 0, 0x1000'0000, 0x2000,
                        kPermRead});
    t.vm_ops.push_back({VmOp::Kind::kProtect, 0, 0, 0x1000'0000, 0x1000,
                        kPermRead});
    t.vm_ops.push_back({VmOp::Kind::kUnmap, 0, 0, 0x1000'1000, 0x1000,
                        kPermNone});

    trace::TraceKernel k;
    k.asid = 0;
    std::vector<WarpInst> warp;
    warp.push_back(WarpInst::compute(17));
    warp.push_back(WarpInst::load({0x1000, 0x1004, 0x1008, 0x2000}));
    warp.push_back(WarpInst::store({0x9000, 0x8000})); // negative delta
    warp.push_back(WarpInst::scratch(false));
    warp.push_back(WarpInst::barrier());
    warp.push_back(WarpInst::load({0xffff'ffff'f000ull})); // 1 lane
    k.warps.push_back(std::move(warp));
    k.warps.emplace_back(); // empty warp stream
    t.kernels.push_back(std::move(k));
    return t;
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------
// Binary format
// ---------------------------------------------------------------------

TEST(TraceFormat, SerializeParseRoundTripIsByteIdentical)
{
    const Trace t = sampleTrace();
    const auto bytes = TraceWriter::serialize(t);

    Trace parsed;
    std::string err;
    ASSERT_TRUE(TraceReader::parse(bytes.data(), bytes.size(), parsed,
                                   &err))
        << err;

    EXPECT_EQ(parsed.workload, t.workload);
    EXPECT_EQ(parsed.params.scale, t.params.scale);
    EXPECT_EQ(parsed.params.seed, t.params.seed);
    EXPECT_EQ(parsed.params.grid_warps, t.params.grid_warps);
    EXPECT_EQ(parsed.params.graph, t.params.graph);
    ASSERT_EQ(parsed.vm_ops.size(), t.vm_ops.size());
    for (std::size_t i = 0; i < t.vm_ops.size(); ++i) {
        EXPECT_EQ(parsed.vm_ops[i].kind, t.vm_ops[i].kind);
        EXPECT_EQ(parsed.vm_ops[i].asid, t.vm_ops[i].asid);
        EXPECT_EQ(parsed.vm_ops[i].src_asid, t.vm_ops[i].src_asid);
        EXPECT_EQ(parsed.vm_ops[i].base, t.vm_ops[i].base);
        EXPECT_EQ(parsed.vm_ops[i].bytes, t.vm_ops[i].bytes);
        EXPECT_EQ(parsed.vm_ops[i].perms, t.vm_ops[i].perms);
    }
    ASSERT_EQ(parsed.kernels.size(), 1u);
    ASSERT_EQ(parsed.kernels[0].warps.size(), 2u);
    const auto &w0 = t.kernels[0].warps[0];
    const auto &p0 = parsed.kernels[0].warps[0];
    ASSERT_EQ(p0.size(), w0.size());
    for (std::size_t i = 0; i < w0.size(); ++i) {
        EXPECT_EQ(p0[i].op, w0[i].op);
        EXPECT_EQ(p0[i].lane_addrs, w0[i].lane_addrs);
        if (!w0[i].isGlobalMem()) {
            EXPECT_EQ(p0[i].cycles, w0[i].cycles);
        }
    }
    EXPECT_TRUE(parsed.kernels[0].warps[1].empty());

    // Re-serializing the parse must reproduce the file byte for byte.
    EXPECT_EQ(TraceWriter::serialize(parsed), bytes);
    EXPECT_EQ(trace::traceDigest(parsed), trace::traceDigest(t));
}

TEST(TraceFormat, FileRoundTrip)
{
    const Trace t = sampleTrace();
    const std::string path = tempPath("roundtrip.gvct");
    std::string err;
    ASSERT_TRUE(TraceWriter::writeFile(path, t, &err)) << err;
    Trace parsed;
    ASSERT_TRUE(TraceReader::readFile(path, parsed, &err)) << err;
    EXPECT_EQ(TraceWriter::serialize(parsed), TraceWriter::serialize(t));
    std::remove(path.c_str());
}

TEST(TraceFormat, RejectsShortFile)
{
    const std::uint8_t bytes[4] = {'G', 'V', 'C', 'T'};
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes, sizeof(bytes), out, &err));
    EXPECT_NE(err.find("too short"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsBadMagic)
{
    auto bytes = TraceWriter::serialize(sampleTrace());
    bytes[0] = 'X';
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsUnsupportedVersion)
{
    auto bytes = TraceWriter::serialize(sampleTrace());
    bytes[4] = std::uint8_t(trace::kTraceVersionContig + 1);
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

/** sampleTrace() tiled to three kernels with boundaries after 0 and 1. */
Trace
sampleScenarioTrace()
{
    Trace t = sampleTrace();
    t.kernels.push_back(t.kernels[0]);
    t.kernels.push_back(t.kernels[0]);
    t.boundaries.push_back({0, BoundaryPolicy::keepAll().encode()});
    t.boundaries.push_back({1, BoundaryPolicy::flushAll().encode()});
    return t;
}

TEST(TraceFormat, BoundaryFreeTraceSerializesAsVersion1)
{
    const auto bytes = TraceWriter::serialize(sampleTrace());
    EXPECT_EQ(bytes[4], trace::kTraceVersion);
}

TEST(TraceFormat, ScenarioRoundTripSerializesAsVersion2)
{
    const Trace t = sampleScenarioTrace();
    const auto bytes = TraceWriter::serialize(t);
    EXPECT_EQ(bytes[4], trace::kTraceVersionScenario);

    Trace parsed;
    std::string err;
    ASSERT_TRUE(TraceReader::parse(bytes.data(), bytes.size(), parsed,
                                   &err))
        << err;
    ASSERT_EQ(parsed.boundaries.size(), t.boundaries.size());
    for (std::size_t i = 0; i < t.boundaries.size(); ++i) {
        EXPECT_EQ(parsed.boundaries[i].kernel, t.boundaries[i].kernel);
        EXPECT_EQ(parsed.boundaries[i].policy, t.boundaries[i].policy);
    }
    EXPECT_EQ(TraceWriter::serialize(parsed), bytes);
    EXPECT_EQ(trace::traceDigest(parsed), trace::traceDigest(t));
}

TEST(TraceFormat, ContigFlagsRoundTripAsVersion3)
{
    Trace t = sampleTrace();
    t.vm_ops[1].flags = kVmOpFlagContig;
    const auto bytes = TraceWriter::serialize(t);
    EXPECT_EQ(bytes[4], trace::kTraceVersionContig);

    Trace parsed;
    std::string err;
    ASSERT_TRUE(TraceReader::parse(bytes.data(), bytes.size(), parsed,
                                   &err))
        << err;
    ASSERT_EQ(parsed.vm_ops.size(), t.vm_ops.size());
    for (std::size_t i = 0; i < t.vm_ops.size(); ++i)
        EXPECT_EQ(parsed.vm_ops[i].flags, t.vm_ops[i].flags) << i;
    EXPECT_EQ(TraceWriter::serialize(parsed), bytes);
    EXPECT_EQ(trace::traceDigest(parsed), trace::traceDigest(t));
}

TEST(TraceFormat, FlagFreeTraceStaysVersion1ByteIdentical)
{
    // A trace without contiguity flags must serialize exactly as it did
    // before version 3 existed — pre-PR trace files stay canonical.
    Trace flagged = sampleTrace();
    const auto v1 = TraceWriter::serialize(flagged);
    EXPECT_EQ(v1[4], trace::kTraceVersion);
    flagged.vm_ops[1].flags = kVmOpFlagContig;
    flagged.vm_ops[1].flags = 0; // cleared again -> back to v1 bytes
    EXPECT_EQ(TraceWriter::serialize(flagged), v1);
}

TEST(TraceFormat, RejectsOutOfOrderBoundaries)
{
    Trace t = sampleScenarioTrace();
    std::swap(t.boundaries[0], t.boundaries[1]);
    const auto bytes = TraceWriter::serialize(t);
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("strictly increasing"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsDuplicateBoundaryIndices)
{
    Trace t = sampleScenarioTrace();
    t.boundaries[1].kernel = t.boundaries[0].kernel;
    const auto bytes = TraceWriter::serialize(t);
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("strictly increasing"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsBoundaryAfterLastKernel)
{
    Trace t = sampleScenarioTrace();
    // A boundary sits *between* launches, so one after the final
    // kernel has nothing to precede.
    t.boundaries[1].kernel = t.kernels.size() - 1;
    const auto bytes = TraceWriter::serialize(t);
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsInvalidBoundaryPolicyByte)
{
    Trace t = sampleScenarioTrace();
    t.boundaries[0].policy = BoundaryPolicy::kBoundaryPolicyLimit;
    const auto bytes = TraceWriter::serialize(t);
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("policy"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsCorruptBody)
{
    auto bytes = TraceWriter::serialize(sampleTrace());
    bytes.back() ^= 0xff; // flip body bits; header digest now wrong
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("digest"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsTruncatedBody)
{
    // Truncate the body and re-stamp a valid digest so the cursor-level
    // truncation detection (not the checksum) is what fires.
    auto bytes = TraceWriter::serialize(sampleTrace());
    bytes.resize(bytes.size() - 10);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 16; i < bytes.size(); ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ull;
    }
    for (int i = 0; i < 8; ++i)
        bytes[8 + std::size_t(i)] = std::uint8_t(h >> (8 * i));
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(TraceFormat, RejectsOverwideLaneCount)
{
    Trace t = sampleTrace();
    std::vector<Vaddr> lanes(kWarpLanes + 1, 0x4000);
    t.kernels[0].warps[0].push_back(WarpInst::load(lanes));
    const auto bytes = TraceWriter::serialize(t);
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::parse(bytes.data(), bytes.size(), out,
                                    &err));
    EXPECT_NE(err.find("lane count"), std::string::npos) << err;
}

TEST(TraceFormat, ReadFileReportsMissingFile)
{
    Trace out;
    std::string err;
    EXPECT_FALSE(TraceReader::readFile(tempPath("does-not-exist.gvct"),
                                       out, &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------

TEST(TraceStreams, RecordingStreamForwardsAndCaptures)
{
    std::vector<WarpInst> insts;
    insts.push_back(WarpInst::compute(5));
    insts.push_back(WarpInst::load({0x100, 0x104}));
    insts.push_back(WarpInst::store({0x900}));
    auto inner = std::make_unique<VectorWarpStream>(insts);

    std::vector<WarpInst> sink;
    trace::RecordingWarpStream rec(std::move(inner), &sink);
    std::vector<WarpInst> forwarded;
    while (const WarpInst *inst = rec.next())
        forwarded.push_back(*inst);
    // The end is sticky, and a call past it records nothing.
    EXPECT_EQ(rec.next(), nullptr);
    EXPECT_EQ(rec.next(), nullptr);

    ASSERT_EQ(forwarded.size(), insts.size());
    ASSERT_EQ(sink.size(), insts.size());
    for (std::size_t i = 0; i < insts.size(); ++i) {
        EXPECT_EQ(forwarded[i].op, insts[i].op);
        EXPECT_EQ(forwarded[i].cycles, insts[i].cycles);
        EXPECT_EQ(forwarded[i].lane_addrs, insts[i].lane_addrs);
        EXPECT_EQ(sink[i].op, forwarded[i].op);
        EXPECT_EQ(sink[i].cycles, forwarded[i].cycles);
        EXPECT_EQ(sink[i].lane_addrs, forwarded[i].lane_addrs);
    }
}

TEST(TraceStreams, VectorStreamEndIsSticky)
{
    VectorWarpStream stream({WarpInst::compute(3), WarpInst::barrier()});
    const WarpInst *first = stream.next();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->op, WarpOp::kCompute);
    EXPECT_EQ(first->cycles, 3u);
    const WarpInst *second = stream.next();
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->op, WarpOp::kBarrier);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(stream.next(), nullptr);

    VectorWarpStream empty(std::vector<WarpInst>{});
    EXPECT_EQ(empty.next(), nullptr);
    EXPECT_EQ(empty.next(), nullptr);
}

TEST(TraceStreams, ReplayReadsTheTraceInPlace)
{
    auto t = std::make_shared<Trace>(sampleTrace());
    const std::vector<WarpInst> &warp = t->kernels[0].warps[0];
    auto launches = trace::TraceKernelSource(t).kernels();
    ASSERT_EQ(launches.size(), 1u);
    ASSERT_EQ(launches[0].warps.size(), 2u);
    // The streams keep the trace alive on their own.
    const std::weak_ptr<Trace> alive = t;
    t.reset();
    EXPECT_FALSE(alive.expired());

    WarpStream &stream = *launches[0].warps[0];
    std::size_t n = 0;
    while (const WarpInst *inst = stream.next()) {
        // A pointer into the trace itself: no copy of the lanes.
        EXPECT_EQ(inst, &warp[n]);
        ++n;
    }
    EXPECT_EQ(n, warp.size());
    EXPECT_EQ(stream.next(), nullptr);
    EXPECT_EQ(stream.next(), nullptr);
    EXPECT_EQ(launches[0].warps[1]->next(), nullptr); // empty warp

    launches.clear();
    EXPECT_TRUE(alive.expired());
}

/**
 * A launch list replays each kernel from the one copy in the trace: the
 * first instruction of warp 0 in round 0 and in round 2 is the same
 * object, whatever ASID each launch runs under.
 */
TEST(TraceStreams, RepeatedLaunchesShareOneCopyOfEachKernel)
{
    auto t = std::make_shared<Trace>(sampleTrace());
    const WarpInst *const recorded = &t->kernels[0].warps[0][0];

    auto scenario = trace::TraceKernelSource::repeated(
        t, 3, BoundaryPolicy::flushAll().encode());
    auto rounds = scenario.kernels();
    ASSERT_EQ(rounds.size(), 3u);
    ASSERT_EQ(scenario.boundaries().size(), 2u);
    EXPECT_EQ(scenario.boundaries()[0].kernel, 0u);
    EXPECT_EQ(scenario.boundaries()[1].kernel, 1u);
    EXPECT_EQ(rounds[0].warps[0]->next(), recorded);
    EXPECT_EQ(rounds[2].warps[0]->next(), recorded);

    // runTenants-style: one kernel, three slots under two ASIDs.
    trace::TraceKernelSource slots(
        t, {{0, 3}, {0, 5}, {0, 3}},
        {{0, BoundaryPolicy::keepAll().encode()},
         {1, BoundaryPolicy::keepAll().encode()}});
    auto launches = slots.kernels();
    ASSERT_EQ(launches.size(), 3u);
    EXPECT_EQ(launches[0].asid, 3u);
    EXPECT_EQ(launches[1].asid, 5u);
    EXPECT_EQ(launches[2].asid, 3u);
    EXPECT_EQ(launches[0].warps[0]->next(), recorded);
    EXPECT_EQ(launches[2].warps[0]->next(), recorded);
}

// ---------------------------------------------------------------------
// VM op-log replay
// ---------------------------------------------------------------------

TEST(TraceVmReplay, OpLogRebuildsBitIdenticalTranslations)
{
    PhysMem pm1(1ull << 30);
    Vm vm1(pm1);
    vm1.recordOps(true);
    const Asid a = vm1.createProcess();
    const Vaddr base = vm1.mmapAnon(a, 1 << 16);
    const Vaddr big = vm1.mmapAnonLarge(a, 4 << 20);
    const Vaddr syn = vm1.alias(a, a, base, 1 << 14);
    vm1.protect(a, base, 1 << 13, kPermRead);
    vm1.unmap(a, base + (1 << 14), 1 << 13);
    vm1.recordOps(false);

    PhysMem pm2(1ull << 30);
    Vm vm2(pm2);
    applyVmOps(vm2, vm1.recordedOps());

    for (Vaddr va :
         {base, base + 0x3000, big, big + 0x200000, syn, syn + 0x1000}) {
        const auto t1 = vm1.translate(a, va);
        const auto t2 = vm2.translate(a, va);
        ASSERT_EQ(bool(t1), bool(t2)) << std::hex << va;
        if (t1) {
            EXPECT_EQ(t1->ppn, t2->ppn) << std::hex << va;
            EXPECT_EQ(t1->perms, t2->perms) << std::hex << va;
        }
    }
}

// ---------------------------------------------------------------------
// Record -> replay bit-identity (the tentpole property)
// ---------------------------------------------------------------------

/** Lossless JSON dump: equal strings == every field bit-identical. */
std::string
dumpOf(const RunResult &r)
{
    return runResultToJson(r).dump();
}

TEST(TraceReplay, BitIdenticalRunResultsAcrossWorkloadsAndDesigns)
{
    const std::vector<std::string> workloads = {"bfs", "kmeans",
                                                "hotspot"};
    const std::vector<MmuDesign> designs = {MmuDesign::kBaseline512,
                                            MmuDesign::kVcOpt};
    for (const auto &w : workloads) {
        RunConfig cfg;
        cfg.workload = tinyParams();
        const Trace t =
            trace::captureWorkloadTrace(w, cfg.workload,
                                        cfg.soc.phys_mem_bytes);
        auto shared = std::make_shared<const Trace>(t);
        for (const MmuDesign d : designs) {
            cfg.design = d;
            const RunResult live = runWorkload(w, cfg);
            trace::TraceKernelSource source(shared);
            const RunResult replayed = runSource(source, cfg);
            EXPECT_EQ(dumpOf(live), dumpOf(replayed))
                << w << " x " << designName(d);
        }
    }
}

TEST(TraceReplay, FileReplayThroughRunConfigMatchesLive)
{
    RunConfig cfg;
    cfg.workload = tinyParams();
    cfg.design = MmuDesign::kVcOpt;
    const RunResult live = runWorkload("pagerank", cfg);

    const std::string path = tempPath("pagerank.gvct");
    std::string err;
    ASSERT_TRUE(TraceWriter::writeFile(
        path,
        trace::captureWorkloadTrace("pagerank", cfg.workload,
                                    cfg.soc.phys_mem_bytes),
        &err))
        << err;

    RunConfig replay_cfg;
    replay_cfg.design = MmuDesign::kVcOpt;
    replay_cfg.trace_in = path;
    const RunResult replayed = runWorkload("", replay_cfg);
    EXPECT_EQ(dumpOf(live), dumpOf(replayed));
    std::remove(path.c_str());
}

TEST(TraceReplay, CaptureDuringLiveRunMatchesStandaloneCapture)
{
    RunConfig cfg;
    cfg.workload = tinyParams();
    cfg.design = MmuDesign::kIdeal;
    Trace captured;
    const RunResult live = runWorkload("backprop", cfg, {}, &captured);

    const Trace standalone = trace::captureWorkloadTrace(
        "backprop", cfg.workload, cfg.soc.phys_mem_bytes);
    EXPECT_EQ(TraceWriter::serialize(captured),
              TraceWriter::serialize(standalone));

    // And replaying the mid-run capture reproduces the run itself.
    trace::TraceKernelSource source(
        std::make_shared<const Trace>(captured));
    EXPECT_EQ(dumpOf(live), dumpOf(runSource(source, cfg)));
}

// ---------------------------------------------------------------------
// Sweep capture-once / replay-per-design
// ---------------------------------------------------------------------

TEST(TraceSweep, CapturedRowMatchesLiveCells)
{
    const std::vector<std::string> workloads = {"bfs"};
    const std::vector<MmuDesign> designs = {
        MmuDesign::kIdeal, MmuDesign::kBaseline512, MmuDesign::kVcOpt};
    RunConfig base;
    base.workload = tinyParams();

    Sweep captured(1);
    captured.setProgress(false);
    ASSERT_TRUE(captured.capture());
    captured.addGrid(workloads, designs, base);
    captured.run();

    Sweep live(1);
    live.setProgress(false);
    live.setCapture(false);
    live.addGrid(workloads, designs, base);
    live.run();

    // One generation pass served the whole row...
    EXPECT_EQ(captured.capturedTraces(), 1u);
    ASSERT_NE(captured.capturedTrace("bfs", base.workload), nullptr);
    EXPECT_EQ(live.capturedTraces(), 0u);
    // ...and every cell is bit-identical to its live counterpart.
    ASSERT_EQ(captured.size(), live.size());
    for (std::size_t i = 0; i < captured.size(); ++i)
        EXPECT_EQ(dumpOf(captured.result(i)), dumpOf(live.result(i)))
            << "cell " << i;
}

TEST(TraceSweep, MemoizationStillDeduplicatesUnderCapture)
{
    RunConfig base;
    base.workload = tinyParams();
    base.design = MmuDesign::kIdeal;

    Sweep sweep(1);
    sweep.setProgress(false);
    sweep.add("hotspot", base);
    sweep.add("hotspot", base); // duplicate cell
    sweep.run();
    EXPECT_EQ(sweep.uniqueRuns(), 1u);
    EXPECT_EQ(sweep.capturedTraces(), 1u);
    EXPECT_EQ(dumpOf(sweep.result(0)), dumpOf(sweep.result(1)));
}

// ---------------------------------------------------------------------
// Sweeps over trace files: one decode per file
// ---------------------------------------------------------------------

/** Capture @p workload into a .gvct file under the test's temp dir. */
std::string
writeTraceFile(const std::string &workload, const char *name)
{
    const std::string path = tempPath(name);
    std::string err;
    EXPECT_TRUE(TraceWriter::writeFile(
        path, trace::captureWorkloadTrace(workload, tinyParams()), &err))
        << err;
    return path;
}

TEST(TraceFileSweep, SharedDecodeMatchesPerCellRuns)
{
    const std::vector<std::pair<std::string, std::string>> files = {
        {"bfs", writeTraceFile("bfs", "sweep-bfs.gvct")},
        {"kmeans", writeTraceFile("kmeans", "sweep-kmeans.gvct")}};
    const std::vector<MmuDesign> designs = {
        MmuDesign::kIdeal, MmuDesign::kBaseline512, MmuDesign::kVcOpt};

    std::vector<std::string> expected;
    for (const auto &[workload, path] : files) {
        for (const MmuDesign d : designs) {
            RunConfig cfg;
            cfg.design = d;
            cfg.workload = tinyParams();
            cfg.trace_in = path;
            expected.push_back(dumpOf(runWorkload(workload, cfg)));
        }
    }

    for (const unsigned jobs : {1u, 3u}) {
        Sweep sweep(jobs);
        sweep.setProgress(false);
        for (const auto &[workload, path] : files) {
            for (const MmuDesign d : designs) {
                RunConfig cfg;
                cfg.design = d;
                cfg.workload = tinyParams();
                cfg.trace_in = path;
                sweep.add(workload, cfg);
            }
        }
        sweep.run();
        EXPECT_EQ(sweep.capturedTraces(), 0u);
        ASSERT_EQ(sweep.size(), expected.size());
        for (std::size_t i = 0; i < sweep.size(); ++i)
            EXPECT_EQ(dumpOf(sweep.result(i)), expected[i])
                << "jobs " << jobs << " cell " << i;
    }
    for (const auto &file : files)
        std::remove(file.second.c_str());
}

TEST(TraceFileSweep, EachFileIsReadOnce)
{
    const std::string path = writeTraceFile("hotspot", "sweep-once.gvct");
    Sweep sweep(1);
    sweep.setProgress(false);
    for (const MmuDesign d : {MmuDesign::kIdeal, MmuDesign::kBaseline512,
                              MmuDesign::kVcOpt}) {
        RunConfig cfg;
        cfg.design = d;
        cfg.workload = tinyParams();
        cfg.trace_in = path;
        sweep.add("hotspot", cfg);
    }
    // Once the first cell is done the file is gone: the other cells
    // can only run from the copy decoded for the first.
    std::size_t cells = 0;
    sweep.setCellHook([&](std::size_t, const RunResult &) {
        if (cells++ == 0) {
            EXPECT_EQ(std::remove(path.c_str()), 0);
        }
    });
    sweep.run();
    EXPECT_EQ(cells, 3u);
    EXPECT_NE(dumpOf(sweep.result(0)), dumpOf(sweep.result(1)));
    EXPECT_GT(sweep.result(2).exec_ticks, 0u);
}

} // namespace
} // namespace gvc
