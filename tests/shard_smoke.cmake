# CLI smoke test: split a small raw-mode sweep grid into two shards,
# merge the per-shard JSON exports with gvc_merge, and require the
# merged document to be byte-identical to the unsharded export of the
# same grid.  Mirrors the CI sharded-sweep step so the property is
# checked by `ctest` locally too.  The merge must also refuse an
# incomplete shard set and shards swept under different TLB policies.

set(args --workloads hotspot,backprop
         --designs ideal,baseline512,vc_opt,base2mb
         --scale 0.05 --jobs 2 --percu-tlb 64 --quiet --no-table)

function(run_checked)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR "command failed (${rc}): ${cmd}")
    endif()
endfunction()

run_checked(${GVC_SWEEP} ${args} --json ${WORK_DIR}/shard_full.json)
run_checked(${GVC_SWEEP} ${args} --shard 0/2
            --json ${WORK_DIR}/shard_0.json)
run_checked(${GVC_SWEEP} ${args} --shard 1/2
            --json ${WORK_DIR}/shard_1.json)
run_checked(${GVC_MERGE} ${WORK_DIR}/shard_0.json
            ${WORK_DIR}/shard_1.json -o ${WORK_DIR}/shard_merged.json)

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/shard_full.json ${WORK_DIR}/shard_merged.json
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "merged shards differ from the unsharded export")
endif()

# Incompatible shards must be rejected, not silently merged: shard 0
# of the grid cannot complete a merge on its own.
execute_process(COMMAND ${GVC_MERGE} ${WORK_DIR}/shard_0.json
                -o ${WORK_DIR}/shard_bad.json
                RESULT_VARIABLE bad_rc ERROR_QUIET OUTPUT_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR "gvc_merge accepted an incomplete shard set")
endif()

# Shards swept under different TLB policies measure different machines:
# the merge refuses the checked-in LRU and SRRIP exports by name.
execute_process(COMMAND ${GVC_MERGE} ${GOLDEN_DIR}/POLICY_SMOKE_LRU.json
                ${GOLDEN_DIR}/POLICY_SMOKE_SRRIP.json
                -o ${WORK_DIR}/shard_mixed.json
                RESULT_VARIABLE mixed_rc ERROR_VARIABLE mixed_err
                OUTPUT_QUIET)
if(mixed_rc EQUAL 0 OR NOT mixed_err MATCHES "tlb policy axis")
    message(FATAL_ERROR
            "gvc_merge did not refuse mixed-policy shards by name "
            "(${mixed_rc}): ${mixed_err}")
endif()

message(STATUS "sharded sweep merges byte-identical to unsharded run")
