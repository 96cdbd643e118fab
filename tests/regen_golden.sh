#!/bin/sh
# Regenerate every checked-in determinism baseline from the current
# build, in one step so they can never diverge silently:
#
#   - tests/golden_stats.txt      (golden-stats regression matrix)
#   - tests/POLICY_SMOKE_*.json   (TLB policy-axis sweep goldens)
#   - tests/TENANTS_SMOKE.json    (multi-tenant grid golden)
#   - tests/TENANTS_XLAT_SMOKE.json (per-CU translation under shootdowns)
#   - tests/DESIGNS_SMOKE.json    (every design, two graph workloads)
#   - tests/RAW_SWEEP_SMOKE.json  (every design under SoC flags)
#   - the newest BENCH_PR<N>.json (bench counter baseline gated in CI)
#
# Run after an intended behavior change, then commit the updated files
# together with the change that caused it.  tests/compat/ holds files
# written by older versions (import-only results schemas v1-v3 and a
# pre-v4 journal); they are fixtures and are never regenerated.
#
#   tests/regen_golden.sh [gvc_tests] [gvc_bench] [gvc_sweep] [gvc_tenants]
#
# The bench regeneration runs the full matrix at scale 1 and takes a
# few minutes; pass GVC_REGEN_SKIP_BENCH=1 to regenerate only the
# golden stats.
set -e

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
tests_bin="${1:-build/tests/gvc_tests}"
bench_bin="${2:-build/tools/gvc_bench}"
sweep_bin="${3:-build/tools/gvc_sweep}"
tenants_bin="${4:-build/tools/gvc_tenants}"

if [ ! -x "$tests_bin" ]; then
    echo "error: test binary '$tests_bin' not found (build first, or" >&2
    echo "pass its path: tests/regen_golden.sh <path-to-gvc_tests>)" >&2
    exit 1
fi

GVC_REGEN_GOLDEN=1 "$tests_bin" --gtest_filter='GoldenStats.*'
echo "regenerated $(dirname "$0")/golden_stats.txt"

# Policy-axis sweep goldens (CI's policy smoke diffs against these).
if [ ! -x "$sweep_bin" ]; then
    echo "error: sweep binary '$sweep_bin' not found (build first, or" >&2
    echo "pass its path as the third argument)" >&2
    exit 1
fi
smoke_args="--workloads pagerank --designs baseline512,l1vc32 \
    --scale 0.1 --jobs 2 --quiet --no-table"
"$sweep_bin" $smoke_args --json "$repo_root/tests/POLICY_SMOKE_LRU.json"
"$sweep_bin" $smoke_args --tlb-replacement srrip \
    --json "$repo_root/tests/POLICY_SMOKE_SRRIP.json"
"$sweep_bin" $smoke_args --tlb-fill-policy bypass-trained \
    --json "$repo_root/tests/POLICY_SMOKE_BYPASS.json"
echo "regenerated $repo_root/tests/POLICY_SMOKE_{LRU,SRRIP,BYPASS}.json"

# All-design golden: the exact command the gvc_designs_smoke ctest
# diffs against this file.
"$sweep_bin" --workloads bfs,pagerank --designs all \
    --scale 0.1 --jobs 2 --quiet --no-table \
    --json "$repo_root/tests/DESIGNS_SMOKE.json"
echo "regenerated $repo_root/tests/DESIGNS_SMOKE.json"

# Every design under raw and non-raw SoC flags: the exact command the
# gvc_raw_sweep_smoke ctest diffs against this file.
"$sweep_bin" -w bfs -d all --scale 0.05 --percu-tlb 64 --iommu-tlb 512 \
    --fbt-entries 8192 --iommu-bw 2 --tlb-fill-policy bypass-trained \
    --cus 8 --jobs 2 --quiet --no-table \
    --json "$repo_root/tests/RAW_SWEEP_SMOKE.json"
echo "regenerated $repo_root/tests/RAW_SWEEP_SMOKE.json"

# Multi-tenant grid golden: the exact command CI's multi-tenant step
# diffs against this file.
if [ ! -x "$tenants_bin" ]; then
    echo "error: tenants binary '$tenants_bin' not found (build first," >&2
    echo "or pass its path as the fourth argument)" >&2
    exit 1
fi
"$tenants_bin" -w pagerank,bfs \
    -d baseline512,vc_opt --rounds 2 \
    --switch keep-all,asid-shootdown --storm 0,4 \
    --arrival poisson --interval 500 --sched fifo \
    --scale 0.1 --jobs 2 --quiet --no-table \
    --json "$repo_root/tests/TENANTS_SMOKE.json"
echo "regenerated $repo_root/tests/TENANTS_SMOKE.json"

# Both per-CU translation hierarchies and Base Victima's stash through
# shootdowns: the exact command the gvc_tenants_xlat_golden ctest diffs
# against this file.
"$tenants_bin" -w pagerank,bfs \
    -d baseline512,l1vc32,basevictima --rounds 2 \
    --switch flush-all,asid-shootdown --storm 4 \
    --arrival poisson --interval 500 --sched fifo \
    --scale 0.1 --jobs 2 --quiet --no-table \
    --json "$repo_root/tests/TENANTS_XLAT_SMOKE.json"
echo "regenerated $repo_root/tests/TENANTS_XLAT_SMOKE.json"

if [ "${GVC_REGEN_SKIP_BENCH:-0}" = 1 ]; then
    echo "skipping bench baseline (GVC_REGEN_SKIP_BENCH=1)"
    exit 0
fi

if [ ! -x "$bench_bin" ]; then
    echo "error: bench binary '$bench_bin' not found (build first, or" >&2
    echo "pass its path: tests/regen_golden.sh <gvc_tests> <gvc_bench>)" >&2
    exit 1
fi

# The bench baseline lives at the repo root: rewrite the newest
# BENCH_PR<N>.json, the file CI's counter gate reads.
bench_json="$(ls "$repo_root"/BENCH_PR*.json 2>/dev/null | sort -V | tail -n 1)"
if [ -z "$bench_json" ]; then
    echo "error: no BENCH_PR<N>.json at $repo_root to regenerate" >&2
    exit 1
fi

"$bench_bin" --out "$bench_json"
echo "regenerated $bench_json"
