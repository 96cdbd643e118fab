#include "workloads/regular_workloads.hh"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "workloads/kernel_builder.hh"

namespace gvc
{

namespace
{

// =====================================================================
// kmeans: SoA feature streaming, tiny centroid table (lives in cache).
// =====================================================================

class KmeansWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "kmeans"; }
    bool highBandwidth() const override { return false; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        // Floor at four pages of 4-byte elements so a scaled-down run
        // still exercises multiple translation units.
        n_ = scaled(128 * 1024, 4 * (kPageSize / sizeof(std::uint32_t)));
        // AoS point layout: each point's kDims features are contiguous,
        // so a warp's sweep stays within a page or two.
        features_ = allocArray(vm, asid, n_ * kDims);
        centroids_ = allocArray(vm, asid, kClusters * kDims);
        membership_ = allocArray(vm, asid, n_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        for (int iter = 0; iter < 2; ++iter) {
            KernelBuilder kb(asid_, params_.grid_warps);
            // Block-contiguous mapping (CUDA-style) preserves each
            // warp's streaming locality; the distance computation to
            // kClusters x kDims centroids dominates the schedule.
            forEachWarpChunkBlocked(
                n_, kb.numWarps(), 8,
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    for (unsigned d = 0; d < kDims; ++d) {
                        std::vector<Vaddr> addrs;
                        addrs.reserve(lanes);
                        for (unsigned l = 0; l < lanes; ++l)
                            addrs.push_back(features_.at(
                                (first + l) * kDims + d));
                        kb.load(w, addrs);
                    }
                    // Centroid table: one hot line set, always cached.
                    kb.loadSeq(w, centroids_, 0, kClusters);
                    kb.compute(w, kClusters * kDims * 2);
                    kb.storeSeq(w, membership_, first, lanes);
                });
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    static constexpr unsigned kDims = 8;
    static constexpr unsigned kClusters = 16;

    std::uint64_t n_ = 0;
    DevArray features_;
    DevArray centroids_;
    DevArray membership_;
};

// =====================================================================
// backprop: layered MLP, coalesced weight-matrix streaming.
// =====================================================================

class BackpropWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "backprop"; }
    bool highBandwidth() const override { return false; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        in_ = unsigned(scaled(256, 64));
        hid_ = unsigned(scaled(2048, 256));
        weights_ = allocArray(vm, asid, std::uint64_t(in_) * hid_);
        weight_deltas_ = allocArray(vm, asid, std::uint64_t(in_) * hid_);
        input_ = allocArray(vm, asid, in_);
        hidden_ = allocArray(vm, asid, hid_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;

        // Forward: stream the weight matrix, gather the input vector.
        {
            KernelBuilder kb(asid_, params_.grid_warps);
            forEachWarpChunkBlocked(
                std::uint64_t(in_) * hid_, kb.numWarps(), 8,
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    kb.loadSeq(w, weights_, first, lanes);
                    kb.loadSeq(w, input_, first % in_,
                               std::min(lanes, in_));
                    kb.compute(w, 12);
                    if (first % (std::uint64_t(in_) * kWarpLanes) == 0)
                        kb.storeSeq(w, hidden_, (first / in_) % hid_, 1);
                });
            launches.push_back(kb.take());
        }

        // Backward: stream weights again, write the delta matrix.
        {
            KernelBuilder kb(asid_, params_.grid_warps);
            forEachWarpChunkBlocked(
                std::uint64_t(in_) * hid_, kb.numWarps(), 8,
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    kb.loadSeq(w, weights_, first, lanes);
                    kb.loadSeq(w, hidden_, (first / in_) % hid_, 1);
                    kb.compute(w, 12);
                    kb.storeSeq(w, weight_deltas_, first, lanes);
                });
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    unsigned in_ = 0;
    unsigned hid_ = 0;
    DevArray weights_;
    DevArray weight_deltas_;
    DevArray input_;
    DevArray hidden_;
};

// =====================================================================
// hotspot: 2D thermal stencil, scratchpad-tiled.
// =====================================================================

class HotspotWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "hotspot"; }
    bool highBandwidth() const override { return false; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        side_ = unsigned(scaled(512, 64));
        temp_ = allocArray(vm, asid, std::uint64_t(side_) * side_);
        power_ = allocArray(vm, asid, std::uint64_t(side_) * side_);
        out_ = allocArray(vm, asid, std::uint64_t(side_) * side_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        const unsigned tiles = side_ / kTile;
        KernelBuilder kb(asid_, params_.grid_warps);
        unsigned w = 0;
        for (unsigned ty = 0; ty < tiles; ++ty) {
            for (unsigned tx = 0; tx < tiles; ++tx) {
                for (unsigned r = 0; r < kTile; ++r) {
                    const std::uint64_t first =
                        std::uint64_t(ty * kTile + r) * side_ +
                        tx * kTile;
                    kb.loadSeq(w, temp_, first, kTile);
                    kb.loadSeq(w, power_, first, kTile);
                }
                kb.barrier(w);
                for (unsigned s = 0; s < 16; ++s)
                    kb.scratch(w, s % 2 == 0);
                kb.barrier(w);
                for (unsigned r = 0; r < kTile; ++r) {
                    const std::uint64_t first =
                        std::uint64_t(ty * kTile + r) * side_ +
                        tx * kTile;
                    kb.storeSeq(w, out_, first, kTile);
                }
                w = (w + 1) % kb.numWarps();
            }
        }
        launches.push_back(kb.take());
        return launches;
    }

  private:
    static constexpr unsigned kTile = 32;

    unsigned side_ = 0;
    DevArray temp_;
    DevArray power_;
    DevArray out_;
};

// =====================================================================
// lud: blocked LU factorization; the column panels stride by the full
// row length, so panel loads diverge across 4 KB pages.
// =====================================================================

class LudWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "lud"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        n_ = unsigned(scaled(1024, 128));
        a_ = allocArray(vm, asid, std::uint64_t(n_) * n_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        const unsigned tiles = n_ / kTile;
        const unsigned steps = std::min(tiles, 8u);
        for (unsigned d = 0; d < steps; ++d) {
            KernelBuilder kb(asid_, params_.grid_warps);
            unsigned w = 0;

            // Diagonal tile: row-wise, coalesced.
            emitRowTile(kb, w, d, d);

            // Perimeter: row panel coalesced, column panel strided.
            for (unsigned t = d + 1; t < tiles; ++t) {
                emitRowTile(kb, w, d, t);
                emitColTile(kb, w, t, d);
                w = (w + 1) % kb.numWarps();
            }

            // Internal tiles (subsampled band).
            const unsigned band = std::min(tiles - d - 1, 6u);
            for (unsigned ti = d + 1; ti < d + 1 + band; ++ti) {
                for (unsigned tj = d + 1; tj < d + 1 + band; ++tj) {
                    emitRowTile(kb, w, ti, tj);
                    emitColTile(kb, w, ti, tj);
                    for (unsigned r = 0; r < 8; ++r) {
                        const std::uint64_t first =
                            std::uint64_t(ti * kTile + r) * n_ +
                            tj * kTile;
                        kb.storeSeq(w, a_, first, kTile);
                    }
                    w = (w + 1) % kb.numWarps();
                }
            }
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    static constexpr unsigned kTile = 32;

    /** Load 8 rows of a tile, coalesced. */
    void
    emitRowTile(KernelBuilder &kb, unsigned w, unsigned ti, unsigned tj)
    {
        for (unsigned r = 0; r < 8; ++r) {
            const std::uint64_t first =
                std::uint64_t(ti * kTile + r) * n_ + tj * kTile;
            kb.loadSeq(w, a_, first, kTile);
        }
        kb.compute(w, 4);
    }

    /** Load 8 columns of a tile: lane l reads row l — page-strided. */
    void
    emitColTile(KernelBuilder &kb, unsigned w, unsigned ti, unsigned tj)
    {
        for (unsigned c = 0; c < 8; ++c) {
            std::vector<Vaddr> addrs;
            addrs.reserve(kTile);
            for (unsigned l = 0; l < kTile; ++l) {
                addrs.push_back(a_.at(
                    std::uint64_t(ti * kTile + l) * n_ + tj * kTile + c));
            }
            kb.load(w, addrs);
        }
        kb.compute(w, 4);
    }

    unsigned n_ = 0;
    DevArray a_;
};

// =====================================================================
// nw: Needleman-Wunsch wavefront DP; scratchpad-heavy tiles whose
// boundary columns stride by the row length (divergent bursts).
// =====================================================================

class NwWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "nw"; }
    bool highBandwidth() const override { return false; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        n_ = unsigned(scaled(1024, 128));
        score_ = allocArray(vm, asid, std::uint64_t(n_) * n_);
        ref_ = allocArray(vm, asid, std::uint64_t(n_) * n_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        const unsigned tiles = n_ / kTile;
        // One kernel per anti-diagonal wavefront of tiles.
        for (unsigned wave = 0; wave < 2 * tiles - 1; ++wave) {
            KernelBuilder kb(asid_, params_.grid_warps);
            unsigned w = 0;
            for (unsigned ti = 0; ti < tiles; ++ti) {
                if (wave < ti || wave - ti >= tiles)
                    continue;
                const unsigned tj = wave - ti;
                emitTile(kb, w, ti, tj);
                w = (w + 1) % kb.numWarps();
            }
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    static constexpr unsigned kTile = 32;

    void
    emitTile(KernelBuilder &kb, unsigned w, unsigned ti, unsigned tj)
    {
        // Boundary column of the left neighbor: page-strided gather.
        std::vector<Vaddr> left, top;
        for (unsigned l = 0; l < kTile; ++l) {
            left.push_back(score_.at(std::uint64_t(ti * kTile + l) * n_ +
                                     tj * kTile));
            top.push_back(score_.at(std::uint64_t(ti * kTile) * n_ +
                                    tj * kTile + l));
        }
        kb.load(w, left);
        kb.load(w, top);
        // Reference tile rows, coalesced.
        for (unsigned r = 0; r < 4; ++r) {
            kb.loadSeq(w, ref_,
                       std::uint64_t(ti * kTile + r * 8) * n_ +
                           tj * kTile,
                       kTile);
        }
        kb.barrier(w);
        for (unsigned s = 0; s < 24; ++s)
            kb.scratch(w, s % 3 == 0);
        kb.barrier(w);
        // Write the tile's boundary column back: page-strided scatter.
        std::vector<Vaddr> out;
        for (unsigned l = 0; l < kTile; ++l) {
            out.push_back(score_.at(std::uint64_t(ti * kTile + l) * n_ +
                                    (tj + 1) * kTile - 1));
        }
        kb.store(w, out);
    }

    unsigned n_ = 0;
    DevArray score_;
    DevArray ref_;
};

// =====================================================================
// pathfinder: row DP with ghost-zone blocks in the scratchpad.
// =====================================================================

class PathfinderWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "pathfinder"; }
    bool highBandwidth() const override { return false; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        // Same four-page floor as kmeans: keep a scaled-down wall wide
        // enough to cross translation units per row.
        cols_ = scaled(256 * 1024, 4 * (kPageSize / sizeof(std::uint32_t)));
        wall_ = allocArray(vm, asid, cols_ * kRows);
        result_ = allocArray(vm, asid, cols_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        // Two pyramid passes, each consuming kRows/2 wall rows.
        for (unsigned pass = 0; pass < 2; ++pass) {
            KernelBuilder kb(asid_, params_.grid_warps);
            const std::uint64_t row0 = pass * (kRows / 2);
            std::uint64_t block = 0;
            for (std::uint64_t c = 0; c < cols_; c += kBlock, ++block) {
                // Blocked mapping: adjacent blocks share wall pages.
                const unsigned w =
                    unsigned((block / 4) % kb.numWarps());
                const unsigned lanes =
                    unsigned(std::min<std::uint64_t>(kBlock, cols_ - c));
                // Load the block plus ghost zones.
                for (unsigned chunk = 0; chunk < lanes; chunk += 32)
                    kb.loadSeq(w, result_, c + chunk,
                               std::min(32u, lanes - chunk));
                // Iterate rows inside the scratchpad: the pyramid DP
                // does several relaxation steps per wall row.
                for (unsigned r = 0; r < kRows / 2; ++r) {
                    for (unsigned chunk = 0; chunk < lanes; chunk += 32)
                        kb.loadSeq(w, wall_,
                                   (row0 + r) * cols_ + c + chunk,
                                   std::min(32u, lanes - chunk));
                    for (unsigned s = 0; s < 6; ++s)
                        kb.scratch(w, s % 2 == 0);
                    kb.compute(w, 8);
                }
                for (unsigned chunk = 0; chunk < lanes; chunk += 32)
                    kb.storeSeq(w, result_, c + chunk,
                                std::min(32u, lanes - chunk));
            }
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    static constexpr unsigned kRows = 8;
    static constexpr std::uint64_t kBlock = 128;

    std::uint64_t cols_ = 0;
    DevArray wall_;
    DevArray result_;
};

} // namespace

std::unique_ptr<Workload>
makeKmeans(const WorkloadParams &p)
{
    return std::make_unique<KmeansWorkload>(p);
}

std::unique_ptr<Workload>
makeBackprop(const WorkloadParams &p)
{
    return std::make_unique<BackpropWorkload>(p);
}

std::unique_ptr<Workload>
makeHotspot(const WorkloadParams &p)
{
    return std::make_unique<HotspotWorkload>(p);
}

std::unique_ptr<Workload>
makeLud(const WorkloadParams &p)
{
    return std::make_unique<LudWorkload>(p);
}

std::unique_ptr<Workload>
makeNw(const WorkloadParams &p)
{
    return std::make_unique<NwWorkload>(p);
}

std::unique_ptr<Workload>
makePathfinder(const WorkloadParams &p)
{
    return std::make_unique<PathfinderWorkload>(p);
}

} // namespace gvc
