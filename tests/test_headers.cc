/**
 * @file
 * Header self-containedness: every public header compiles when it is
 * the only project include in a translation unit (this file includes
 * all of them; inclusion order below is deliberately alphabetical so
 * nothing depends on a lucky earlier include).
 */

#include "cache/bank_port.hh"
#include "cache/cache_array.hh"
#include "cache/directory.hh"
#include "cache/mshr.hh"
#include "core/fbt.hh"
#include "core/invalidation_filter.hh"
#include "core/synonym_remap.hh"
#include "core/virtual_hierarchy.hh"
#include "cpu/coherence_agent.hh"
#include "gpu/coalescer.hh"
#include "gpu/cu.hh"
#include "gpu/gpu.hh"
#include "gpu/warp_inst.hh"
#include "harness/energy.hh"
#include "harness/json.hh"
#include "harness/runner.hh"
#include "harness/scenario.hh"
#include "harness/table.hh"
#include "mem/dram.hh"
#include "mem/page_table.hh"
#include "mem/phys_mem.hh"
#include "mem/vm.hh"
#include "mmu/baseline_system.hh"
#include "mmu/boundary.hh"
#include "mmu/cu_translation.hh"
#include "mmu/designs.hh"
#include "mmu/ideal_system.hh"
#include "mmu/injection.hh"
#include "mmu/iommu.hh"
#include "mmu/l1vc_system.hh"
#include "mmu/mem_request.hh"
#include "mmu/mmu_system.hh"
#include "mmu/per_cu_tlbs.hh"
#include "mmu/phys_caches.hh"
#include "mmu/soc_config.hh"
#include "sim/bytes.hh"
#include "sim/debug.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/set_index.hh"
#include "sim/sim_context.hh"
#include "sim/slab_pool.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "tlb/ptw.hh"
#include "tlb/pwc.hh"
#include "tlb/tlb.hh"
#include "workloads/extra_workloads.hh"
#include "workloads/graph.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/registry.hh"
#include "workloads/regular_workloads.hh"
#include "workloads/workload.hh"

#include <gtest/gtest.h>

namespace gvc
{
namespace
{

TEST(Headers, AllPublicHeadersCoexist)
{
    // Compilation of this TU is the test; keep one live assertion so
    // the test registers.
    EXPECT_EQ(kLinesPerPage, 32u);
    EXPECT_EQ(kLineSize, 128u);
    EXPECT_EQ(kPageSize, 4096u);
}

} // namespace
} // namespace gvc
