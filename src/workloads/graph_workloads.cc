#include "workloads/graph_workloads.hh"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "workloads/graph.hh"
#include "workloads/kernel_builder.hh"

namespace gvc
{

namespace
{

/** Round up to the next power of two (R-MAT vertex counts). */
std::uint32_t
nextPow2(std::uint64_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Shared base for CSR-graph workloads. */
class GraphWorkload : public Workload
{
  public:
    using Workload::Workload;

  protected:
    /** Build the graph and map row_ptr/col into the address space. */
    void
    setupGraph(Vm &vm, Asid asid, std::uint32_t base_vertices,
               unsigned edges_per_vertex)
    {
        asid_ = asid;
        const std::uint32_t v = nextPow2(scaled(base_vertices, 1024));
        switch (params_.graph) {
          case GraphKind::kRmat:
            g_ = makeRmatGraph(rng_, v,
                               std::uint64_t(v) * edges_per_vertex);
            break;
          case GraphKind::kUniform:
            g_ = makeUniformGraph(rng_, v,
                                  std::uint64_t(v) * edges_per_vertex);
            break;
          case GraphKind::kGrid: {
            std::uint32_t side = 1;
            while (std::uint64_t(side) * side < v)
                side <<= 1;
            g_ = makeGridGraph(side);
            break;
          }
        }
        row_ptr_ = allocArray(vm, asid, g_.num_vertices + 1);
        col_ = allocArray(vm, asid, g_.numEdges());
    }

    /**
     * Emit the per-edge gathers for a chunk of vertices whose flattened
     * adjacency lists are batched 32 edges at a time ("virtual warp"
     * style): each batch loads the edge targets and gathers one or more
     * property arrays at those targets.
     */
    void
    emitEdgeGathers(KernelBuilder &kb, unsigned w, std::uint64_t e_begin,
                    std::uint64_t e_end,
                    const std::vector<const DevArray *> &gather_arrays)
    {
        for (std::uint64_t e = e_begin; e < e_end; e += kWarpLanes) {
            const unsigned lanes =
                unsigned(std::min<std::uint64_t>(kWarpLanes, e_end - e));
            // The edge targets themselves stream in coalesced.
            kb.loadSeq(w, col_, e, lanes);
            // Property gathers at the targets: the divergent part.
            std::vector<std::uint32_t> targets(
                g_.col.begin() + e, g_.col.begin() + e + lanes);
            for (const DevArray *arr : gather_arrays)
                kb.loadGather(w, *arr, targets);
            kb.compute(w, 2);
        }
    }

    CsrGraph g_;
    DevArray row_ptr_;
    DevArray col_;
};

// =====================================================================
// bfs (Rodinia): level-synchronous breadth-first search.
// =====================================================================

class BfsWorkload final : public GraphWorkload
{
  public:
    using GraphWorkload::GraphWorkload;

    std::string name() const override { return "bfs"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        setupGraph(vm, asid, 128 * 1024, 4);
        cost_ = allocArray(vm, asid, g_.num_vertices);
        frontier_in_ = allocArray(vm, asid, g_.num_vertices);
        frontier_out_ = allocArray(vm, asid, g_.num_vertices);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;

        // Start from the highest-degree vertex so the traversal covers
        // a large component.
        std::uint32_t src = 0;
        for (std::uint32_t v = 1; v < g_.num_vertices; ++v)
            if (g_.degree(v) > g_.degree(src))
                src = v;

        std::vector<std::int32_t> dist(g_.num_vertices, -1);
        std::vector<std::uint32_t> frontier{src};
        dist[src] = 0;

        int level = 0;
        while (!frontier.empty() && level < 64) {
            KernelBuilder kb(asid_, params_.grid_warps);
            std::vector<std::uint32_t> next;
            forEachWarpChunk(
                frontier.size(), kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    // Read the frontier slice and each vertex's row
                    // bounds (divergent: frontier ids are scattered).
                    kb.loadSeq(w, frontier_in_, first, lanes);
                    std::vector<std::uint32_t> vs(
                        frontier.begin() + long(first),
                        frontier.begin() + long(first + lanes));
                    kb.loadGather(w, row_ptr_, vs);

                    // Flattened neighbor expansion.
                    std::vector<std::uint32_t> positions;
                    for (const auto v : vs) {
                        for (std::uint32_t p = g_.row_ptr[v];
                             p < g_.row_ptr[v + 1]; ++p)
                            positions.push_back(p);
                    }
                    for (std::size_t i = 0; i < positions.size();
                         i += kWarpLanes) {
                        const auto n = std::min<std::size_t>(
                            kWarpLanes, positions.size() - i);
                        std::vector<std::uint32_t> pos(
                            positions.begin() + long(i),
                            positions.begin() + long(i + n));
                        kb.loadGather(w, col_, pos);
                        std::vector<std::uint32_t> targets;
                        targets.reserve(pos.size());
                        for (const auto p : pos)
                            targets.push_back(g_.col[p]);
                        kb.loadGather(w, cost_, targets);
                        std::vector<std::uint32_t> fresh;
                        for (const auto t : targets) {
                            if (dist[t] < 0) {
                                dist[t] = level + 1;
                                next.push_back(t);
                                fresh.push_back(t);
                            }
                        }
                        kb.storeScatter(w, cost_, fresh);
                        kb.compute(w, 2);
                    }
                    // Append to the output frontier (coalesced).
                    kb.storeSeq(w, frontier_out_, first, lanes);
                });
            launches.push_back(kb.take());
            frontier = std::move(next);
            ++level;
        }
        return launches;
    }

  private:
    DevArray cost_;
    DevArray frontier_in_;
    DevArray frontier_out_;
};

// =====================================================================
// pagerank (Pannotia): pull-style rank accumulation.
// =====================================================================

class PagerankWorkload final : public GraphWorkload
{
  public:
    using GraphWorkload::GraphWorkload;

    std::string name() const override { return "pagerank"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        setupGraph(vm, asid, 128 * 1024, 4);
        // Ranks are doubles in the reference implementation.
        rank_ = allocArray(vm, asid, g_.num_vertices, 8);
        rank_new_ = allocArray(vm, asid, g_.num_vertices, 8);
        outdeg_ = allocArray(vm, asid, g_.num_vertices);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        for (int iter = 0; iter < 2; ++iter) {
            KernelBuilder kb(asid_, params_.grid_warps);
            forEachWarpChunk(
                g_.num_vertices, kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    kb.loadSeq(w, row_ptr_, first, lanes);
                    emitEdgeGathers(kb, w, g_.row_ptr[first],
                                    g_.row_ptr[first + lanes],
                                    {&rank_, &outdeg_});
                    kb.storeSeq(w, rank_new_, first, lanes);
                });
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    DevArray rank_;
    DevArray rank_new_;
    DevArray outdeg_;
};

// =====================================================================
// pagerank_spmv (Pannotia): edge-centric SpMV formulation.
// =====================================================================

class PagerankSpmvWorkload final : public GraphWorkload
{
  public:
    using GraphWorkload::GraphWorkload;

    std::string name() const override { return "pagerank_spmv"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        setupGraph(vm, asid, 128 * 1024, 4);
        val_ = allocArray(vm, asid, g_.numEdges());
        x_ = allocArray(vm, asid, g_.num_vertices);
        y_ = allocArray(vm, asid, g_.num_vertices);
        // Row id of each edge, for the scatter side of y += A x.
        edge_row_.resize(g_.numEdges());
        for (std::uint32_t v = 0; v < g_.num_vertices; ++v)
            for (std::uint32_t p = g_.row_ptr[v]; p < g_.row_ptr[v + 1];
                 ++p)
                edge_row_[p] = v;
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        for (int iter = 0; iter < 2; ++iter) {
            KernelBuilder kb(asid_, params_.grid_warps);
            forEachWarpChunk(
                g_.numEdges(), kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    kb.loadSeq(w, col_, first, lanes);
                    kb.loadSeq(w, val_, first, lanes);
                    std::vector<std::uint32_t> targets(
                        g_.col.begin() + long(first),
                        g_.col.begin() + long(first + lanes));
                    kb.loadGather(w, x_, targets);
                    // Scatter the partial sums to the covered rows.
                    std::vector<std::uint32_t> rows(
                        edge_row_.begin() + long(first),
                        edge_row_.begin() + long(first + lanes));
                    rows.erase(std::unique(rows.begin(), rows.end()),
                               rows.end());
                    kb.storeScatter(w, y_, rows);
                    kb.compute(w, 2);
                });
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    DevArray val_;
    DevArray x_;
    DevArray y_;
    std::vector<std::uint32_t> edge_row_;
};

// =====================================================================
// color_max / color_maxmin (Pannotia): Jones-Plassmann greedy coloring.
// =====================================================================

class ColorWorkload final : public GraphWorkload
{
  public:
    ColorWorkload(const WorkloadParams &p, bool maxmin)
        : GraphWorkload(p), maxmin_(maxmin)
    {
    }

    std::string
    name() const override
    {
        return maxmin_ ? "color_maxmin" : "color_max";
    }

    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        setupGraph(vm, asid, 128 * 1024, 4);
        value_ = allocArray(vm, asid, g_.num_vertices);
        color_ = allocArray(vm, asid, g_.num_vertices);
        values_.resize(g_.num_vertices);
        for (auto &v : values_)
            v = std::uint32_t(rng_());
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        std::vector<bool> colored(g_.num_vertices, false);
        const int iters = maxmin_ ? 3 : 4;
        for (int iter = 0; iter < iters; ++iter) {
            KernelBuilder kb(asid_, params_.grid_warps);
            std::vector<std::uint32_t> newly;
            forEachWarpChunk(
                g_.num_vertices, kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    kb.loadSeq(w, color_, first, lanes);
                    kb.loadSeq(w, row_ptr_, first, lanes);
                    // Jones-Plassmann compares both the random value and
                    // the color state of every neighbor.
                    emitEdgeGathers(kb, w, g_.row_ptr[first],
                                    g_.row_ptr[first + lanes],
                                    {&value_, &color_});
                    // Decide local extrema among uncolored neighbors.
                    std::vector<std::uint32_t> winners;
                    for (unsigned l = 0; l < lanes; ++l) {
                        const auto v = std::uint32_t(first + l);
                        if (colored[v])
                            continue;
                        bool is_max = true, is_min = true;
                        for (std::uint32_t p = g_.row_ptr[v];
                             p < g_.row_ptr[v + 1]; ++p) {
                            const auto u = g_.col[p];
                            if (colored[u] || u == v)
                                continue;
                            if (values_[u] >= values_[v])
                                is_max = false;
                            if (values_[u] <= values_[v])
                                is_min = false;
                        }
                        if (is_max || (maxmin_ && is_min))
                            winners.push_back(v);
                    }
                    for (const auto v : winners)
                        newly.push_back(v);
                    kb.storeScatter(w, color_, winners);
                });
            for (const auto v : newly)
                colored[v] = true;
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    bool maxmin_;
    DevArray value_;
    DevArray color_;
    std::vector<std::uint32_t> values_;
};

// =====================================================================
// mis (Pannotia): Luby-style maximal independent set.
// =====================================================================

class MisWorkload final : public GraphWorkload
{
  public:
    using GraphWorkload::GraphWorkload;

    std::string name() const override { return "mis"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        setupGraph(vm, asid, 128 * 1024, 3);
        prio_ = allocArray(vm, asid, g_.num_vertices);
        state_ = allocArray(vm, asid, g_.num_vertices);
        prios_.resize(g_.num_vertices);
        for (auto &p : prios_)
            p = std::uint32_t(rng_());
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        // 0 = undecided, 1 = in set, 2 = removed.
        std::vector<std::uint8_t> st(g_.num_vertices, 0);
        for (int iter = 0; iter < 3; ++iter) {
            KernelBuilder kb(asid_, params_.grid_warps);
            std::vector<std::uint32_t> winners, removed;
            forEachWarpChunk(
                g_.num_vertices, kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    kb.loadSeq(w, state_, first, lanes);
                    kb.loadSeq(w, row_ptr_, first, lanes);
                    emitEdgeGathers(kb, w, g_.row_ptr[first],
                                    g_.row_ptr[first + lanes],
                                    {&prio_, &state_});
                    std::vector<std::uint32_t> chunk_winners;
                    for (unsigned l = 0; l < lanes; ++l) {
                        const auto v = std::uint32_t(first + l);
                        if (st[v] != 0)
                            continue;
                        bool wins = true;
                        for (std::uint32_t p = g_.row_ptr[v];
                             p < g_.row_ptr[v + 1]; ++p) {
                            const auto u = g_.col[p];
                            if (u != v && st[u] == 0 &&
                                (prios_[u] > prios_[v] ||
                                 (prios_[u] == prios_[v] && u > v))) {
                                wins = false;
                                break;
                            }
                        }
                        if (wins)
                            chunk_winners.push_back(v);
                    }
                    winners.insert(winners.end(), chunk_winners.begin(),
                                   chunk_winners.end());
                    kb.storeScatter(w, state_, chunk_winners);
                });
            for (const auto v : winners) {
                st[v] = 1;
                for (std::uint32_t p = g_.row_ptr[v];
                     p < g_.row_ptr[v + 1]; ++p) {
                    const auto u = g_.col[p];
                    if (st[u] == 0) {
                        st[u] = 2;
                        removed.push_back(u);
                    }
                }
            }
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    DevArray prio_;
    DevArray state_;
    std::vector<std::uint32_t> prios_;
};

// =====================================================================
// bc (Pannotia): one-source Brandes betweenness centrality.
// =====================================================================

class BcWorkload final : public GraphWorkload
{
  public:
    using GraphWorkload::GraphWorkload;

    std::string name() const override { return "bc"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        setupGraph(vm, asid, 64 * 1024, 4);
        sigma_ = allocArray(vm, asid, g_.num_vertices);
        dist_arr_ = allocArray(vm, asid, g_.num_vertices);
        delta_ = allocArray(vm, asid, g_.num_vertices);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        std::uint32_t src = 0;
        for (std::uint32_t v = 1; v < g_.num_vertices; ++v)
            if (g_.degree(v) > g_.degree(src))
                src = v;

        // Forward: BFS levels with sigma accumulation.
        std::vector<std::int32_t> dist(g_.num_vertices, -1);
        std::vector<std::vector<std::uint32_t>> levels;
        std::vector<std::uint32_t> frontier{src};
        dist[src] = 0;
        while (!frontier.empty() && levels.size() < 48) {
            levels.push_back(frontier);
            KernelBuilder kb(asid_, params_.grid_warps);
            std::vector<std::uint32_t> next;
            forEachWarpChunk(
                frontier.size(), kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    std::vector<std::uint32_t> vs(
                        frontier.begin() + long(first),
                        frontier.begin() + long(first + lanes));
                    kb.loadGather(w, row_ptr_, vs);
                    kb.loadGather(w, sigma_, vs);
                    std::vector<std::uint32_t> positions;
                    for (const auto v : vs)
                        for (std::uint32_t p = g_.row_ptr[v];
                             p < g_.row_ptr[v + 1]; ++p)
                            positions.push_back(p);
                    for (std::size_t i = 0; i < positions.size();
                         i += kWarpLanes) {
                        const auto n = std::min<std::size_t>(
                            kWarpLanes, positions.size() - i);
                        std::vector<std::uint32_t> pos(
                            positions.begin() + long(i),
                            positions.begin() + long(i + n));
                        kb.loadGather(w, col_, pos);
                        std::vector<std::uint32_t> targets;
                        for (const auto p : pos)
                            targets.push_back(g_.col[p]);
                        kb.loadGather(w, dist_arr_, targets);
                        std::vector<std::uint32_t> fresh;
                        for (const auto t : targets) {
                            if (dist[t] < 0) {
                                dist[t] =
                                    std::int32_t(levels.size());
                                next.push_back(t);
                                fresh.push_back(t);
                            }
                        }
                        kb.storeScatter(w, dist_arr_, fresh);
                        kb.storeScatter(w, sigma_, fresh);
                        kb.compute(w, 2);
                    }
                });
            launches.push_back(kb.take());
            frontier = std::move(next);
        }

        // Backward: dependency accumulation, deepest level first.
        for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
            KernelBuilder kb(asid_, params_.grid_warps);
            forEachWarpChunk(
                it->size(), kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    std::vector<std::uint32_t> vs(
                        it->begin() + long(first),
                        it->begin() + long(first + lanes));
                    kb.loadGather(w, row_ptr_, vs);
                    std::vector<std::uint32_t> positions;
                    for (const auto v : vs)
                        for (std::uint32_t p = g_.row_ptr[v];
                             p < g_.row_ptr[v + 1]; ++p)
                            positions.push_back(p);
                    for (std::size_t i = 0; i < positions.size();
                         i += kWarpLanes) {
                        const auto n = std::min<std::size_t>(
                            kWarpLanes, positions.size() - i);
                        std::vector<std::uint32_t> pos(
                            positions.begin() + long(i),
                            positions.begin() + long(i + n));
                        std::vector<std::uint32_t> targets;
                        for (const auto p : pos)
                            targets.push_back(g_.col[p]);
                        kb.loadGather(w, sigma_, targets);
                        kb.loadGather(w, delta_, targets);
                        kb.compute(w, 2);
                    }
                    kb.storeScatter(w, delta_, vs);
                });
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    DevArray sigma_;
    DevArray dist_arr_;
    DevArray delta_;
};

// =====================================================================
// fw / fw_block (Pannotia): Floyd-Warshall all-pairs shortest paths.
// =====================================================================

/**
 * Unblocked FW over a column-major distance matrix: sweeping j with
 * fixed k makes dist[j][k] and dist[j][i] stride by a full row, so each
 * lane lands on a different 4 KB page — the memory divergence the paper
 * singles fw out for (~9 lines per memory instruction).
 */
class FwWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "fw"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        // The column sweep must cover far more 4 KB pages than the
        // per-CU TLBs reach, as it does for the paper's inputs: keep a
        // floor of 768 so each column spans most of a page.
        n_ = unsigned(scaled(1024, 768));
        dist_ = allocArray(vm, asid, std::uint64_t(n_) * n_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        const unsigned num_k = 8;
        const unsigned rows_per_k = 32;
        for (unsigned kk = 0; kk < num_k; ++kk) {
            const unsigned k = kk * (n_ / num_k);
            const unsigned i0 = (kk * rows_per_k) % n_;
            KernelBuilder kb(asid_, params_.grid_warps);
            forEachWarpChunk(
                std::uint64_t(rows_per_k) * n_, kb.numWarps(),
                [&](unsigned w, std::uint64_t first, unsigned lanes) {
                    // Column-major: element (i, j) lives at j*n + i.
                    // Lanes take consecutive j for a fixed i.
                    const unsigned i = i0 + unsigned(first / n_);
                    const unsigned j0 = unsigned(first % n_);
                    std::vector<Vaddr> ik, kj, ij;
                    for (unsigned l = 0; l < lanes; ++l) {
                        const unsigned j = (j0 + l) % n_;
                        ik.push_back(dist_.at(std::uint64_t(k) * n_ + i));
                        kj.push_back(dist_.at(std::uint64_t(j) * n_ + k));
                        ij.push_back(dist_.at(std::uint64_t(j) * n_ + i));
                    }
                    kb.load(w, ik);
                    kb.load(w, kj);
                    kb.load(w, ij);
                    kb.compute(w, 2);
                    kb.store(w, ij);
                });
            launches.push_back(kb.take());
        }
        return launches;
    }

  private:
    unsigned n_ = 0;
    DevArray dist_;
};

/**
 * Blocked FW: 32x32 tiles staged through the scratchpad with barriers —
 * the locality-friendly variant (row-major, coalesced tile rows).
 */
class FwBlockWorkload final : public Workload
{
  public:
    using Workload::Workload;

    std::string name() const override { return "fw_block"; }
    bool highBandwidth() const override { return true; }

    void
    setup(Vm &vm, Asid asid) override
    {
        asid_ = asid;
        n_ = unsigned(scaled(1024, 128));
        dist_ = allocArray(vm, asid, std::uint64_t(n_) * n_);
    }

    std::vector<KernelLaunch>
    kernels() override
    {
        std::vector<KernelLaunch> launches;
        const unsigned tiles = n_ / kTile;
        const unsigned num_k = 8;
        for (unsigned kb_idx = 0; kb_idx < num_k; ++kb_idx) {
            const unsigned kt = kb_idx % tiles;
            KernelBuilder kb(asid_, params_.grid_warps);
            // Row panel and column panel of the k-th tile stripe.
            unsigned w = 0;
            for (unsigned t = 0; t < tiles; ++t) {
                emitTile(kb, w, kt, t);       // row panel tile (kt, t)
                emitTile(kb, w, t, kt);       // column panel tile (t, kt)
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
        // Load the tile row-by-row (row-major: each row is coalesced).
        for (unsigned r = 0; r < kTile; ++r) {
            const std::uint64_t first =
                std::uint64_t(ti * kTile + r) * n_ + tj * kTile;
            kb.loadSeq(w, dist_, first, kTile);
        }
        kb.barrier(w);
        for (unsigned s = 0; s < 12; ++s)
            kb.scratch(w, s % 2 == 0);
        kb.barrier(w);
        for (unsigned r = 0; r < kTile; ++r) {
            const std::uint64_t first =
                std::uint64_t(ti * kTile + r) * n_ + tj * kTile;
            kb.storeSeq(w, dist_, first, kTile);
        }
    }

    unsigned n_ = 0;
    DevArray dist_;
};

} // namespace

std::unique_ptr<Workload>
makeBfs(const WorkloadParams &p)
{
    return std::make_unique<BfsWorkload>(p);
}

std::unique_ptr<Workload>
makePagerank(const WorkloadParams &p)
{
    return std::make_unique<PagerankWorkload>(p);
}

std::unique_ptr<Workload>
makePagerankSpmv(const WorkloadParams &p)
{
    return std::make_unique<PagerankSpmvWorkload>(p);
}

std::unique_ptr<Workload>
makeColorMax(const WorkloadParams &p)
{
    return std::make_unique<ColorWorkload>(p, false);
}

std::unique_ptr<Workload>
makeColorMaxMin(const WorkloadParams &p)
{
    return std::make_unique<ColorWorkload>(p, true);
}

std::unique_ptr<Workload>
makeMis(const WorkloadParams &p)
{
    return std::make_unique<MisWorkload>(p);
}

std::unique_ptr<Workload>
makeBc(const WorkloadParams &p)
{
    return std::make_unique<BcWorkload>(p);
}

std::unique_ptr<Workload>
makeFw(const WorkloadParams &p)
{
    return std::make_unique<FwWorkload>(p);
}

std::unique_ptr<Workload>
makeFwBlock(const WorkloadParams &p)
{
    return std::make_unique<FwBlockWorkload>(p);
}

} // namespace gvc
