#include "workloads/graph.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace gvc
{

namespace
{

/**
 * Build CSR from an edge list.  A counting sort on destinations lists
 * each destination's sources; scattering those onto the sources, one
 * destination at a time in increasing order, leaves every adjacency
 * list sorted (the deterministic, realistic layout the workloads read)
 * without sorting any of them.  The edge list is freed before the
 * column array is allocated, so at most one array of sources is held
 * beside it.
 */
CsrGraph
toCsr(std::uint32_t num_vertices,
      std::vector<std::pair<std::uint32_t, std::uint32_t>> edges)
{
    CsrGraph g;
    g.num_vertices = num_vertices;
    g.row_ptr.assign(num_vertices + 1, 0);
    std::vector<std::uint32_t> dst_end(num_vertices + 1, 0);
    for (const auto &[src, dst] : edges) {
        ++g.row_ptr[src + 1];
        ++dst_end[dst + 1];
    }
    for (std::uint32_t v = 0; v < num_vertices; ++v) {
        g.row_ptr[v + 1] += g.row_ptr[v];
        dst_end[v + 1] += dst_end[v];
    }
    // After the scatter, dst_end[d] is where destination d's sources end.
    std::vector<std::uint32_t> srcs(edges.size());
    for (const auto &[src, dst] : edges)
        srcs[dst_end[dst]++] = src;
    edges.clear();
    edges.shrink_to_fit();

    g.col.resize(srcs.size());
    std::vector<std::uint32_t> cursor(g.row_ptr.begin(),
                                      g.row_ptr.end() - 1);
    std::uint32_t i = 0;
    for (std::uint32_t dst = 0; dst < num_vertices; ++dst)
        for (; i < dst_end[dst]; ++i)
            g.col[cursor[srcs[i]]++] = dst;
    return g;
}

} // namespace

CsrGraph
makeRmatGraph(Rng &rng, std::uint32_t num_vertices,
              std::uint64_t num_edges, double a, double b, double c)
{
    if (num_vertices == 0 || (num_vertices & (num_vertices - 1)) != 0)
        fatal("makeRmatGraph: num_vertices must be a power of two");
    unsigned levels = 0;
    while ((std::uint32_t{1} << levels) < num_vertices)
        ++levels;

    // The quadrant is the first i with uniform() < t_i for t = (a, a+b,
    // a+b+c, 1).  With the thresholds made non-decreasing (which keeps
    // "first below" the same) that is how many of them the draw
    // reaches, counted without a branch on the draw.  Quadrant q puts
    // bit q>>1 on the source and q&1 on the target.
    const std::uint64_t t1 = Rng::uniformThreshold(a);
    const std::uint64_t t2 = std::max(t1, Rng::uniformThreshold(a + b));
    const std::uint64_t t3 =
        std::max(t2, Rng::uniformThreshold(a + b + c));

    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(num_edges);
    for (std::uint64_t e = 0; e < num_edges; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (unsigned level = 0; level < levels; ++level) {
            const std::uint64_t x = rng.draw53();
            const unsigned q =
                unsigned(x >= t1) + unsigned(x >= t2) + unsigned(x >= t3);
            src = (src << 1) | (q >> 1);
            dst = (dst << 1) | (q & 1);
        }
        if (src != dst)
            edges.emplace_back(src, dst);
    }
    return toCsr(num_vertices, std::move(edges));
}

CsrGraph
makeUniformGraph(Rng &rng, std::uint32_t num_vertices,
                 std::uint64_t num_edges)
{
    if (num_vertices == 0)
        fatal("makeUniformGraph: empty vertex set");
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(num_edges);
    for (std::uint64_t e = 0; e < num_edges; ++e) {
        const auto src = std::uint32_t(rng.below(num_vertices));
        const auto dst = std::uint32_t(rng.below(num_vertices));
        if (src != dst)
            edges.emplace_back(src, dst);
    }
    return toCsr(num_vertices, std::move(edges));
}

CsrGraph
makeGridGraph(std::uint32_t side)
{
    const std::uint32_t n = side * side;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    edges.reserve(std::uint64_t(n) * 4);
    for (std::uint32_t y = 0; y < side; ++y) {
        for (std::uint32_t x = 0; x < side; ++x) {
            const std::uint32_t v = y * side + x;
            if (x + 1 < side) {
                edges.emplace_back(v, v + 1);
                edges.emplace_back(v + 1, v);
            }
            if (y + 1 < side) {
                edges.emplace_back(v, v + side);
                edges.emplace_back(v + side, v);
            }
        }
    }
    return toCsr(n, std::move(edges));
}

} // namespace gvc
