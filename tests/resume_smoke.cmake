# CLI smoke test for checkpointed sweeps: interrupt a journaled run
# mid-grid (--max-cells), resume it from the journal, and require the
# resumed JSON export to be byte-identical to an uninterrupted run of
# the same grid.  Then re-use the finished journal as a cost model for
# a cost-balanced (LPT) 3-shard split and require the merged shards to
# be byte-identical as well.  Mirrors the CI kill-and-resume step so
# both properties are checked by `ctest` locally too.  Finally, a
# journal written before results schema v4 must load but not resume.

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

function(require_identical a b what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR "${what}: ${a} differs from ${b}")
    endif()
endfunction()

set(journal ${WORK_DIR}/resume.gvcj)
file(REMOVE ${journal} ${WORK_DIR}/resume_partial.json)

# 1. Uninterrupted reference run.
run_checked(${GVC_SWEEP} ${args} --json ${WORK_DIR}/resume_full.json)

# 2. Journaled run cut off after 3 of the 8 cells (exit stays 0; the
#    export is skipped on an incomplete grid).
run_checked(${GVC_SWEEP} ${args} --journal ${journal} --max-cells 3
            --json ${WORK_DIR}/resume_partial.json)
if(EXISTS ${WORK_DIR}/resume_partial.json)
    message(FATAL_ERROR "interrupted sweep still exported JSON")
endif()

# 3. Resume from the journal; the export must match the reference
#    byte for byte.
run_checked(${GVC_SWEEP} ${args} --resume ${journal}
            --json ${WORK_DIR}/resume_done.json)
require_identical(${WORK_DIR}/resume_full.json
                  ${WORK_DIR}/resume_done.json
                  "resumed sweep differs from uninterrupted run")

# 4. The completed journal doubles as a cost model: a cost-balanced
#    3-shard split must merge back byte-identical to the reference.
run_checked(${GVC_PLAN} journal ${journal})
run_checked(${GVC_PLAN} shards --workloads hotspot,backprop
            --designs ideal,baseline512,vc_opt,base2mb
            --shard-count 3 --cost-model ${journal})
foreach(i RANGE 2)
    run_checked(${GVC_SWEEP} ${args} --shard ${i}/3 --balance
                --cost-model ${journal}
                --json ${WORK_DIR}/resume_lpt_${i}.json)
endforeach()
run_checked(${GVC_MERGE} ${WORK_DIR}/resume_lpt_0.json
            ${WORK_DIR}/resume_lpt_1.json ${WORK_DIR}/resume_lpt_2.json
            -o ${WORK_DIR}/resume_lpt_merged.json)
require_identical(${WORK_DIR}/resume_full.json
                  ${WORK_DIR}/resume_lpt_merged.json
                  "cost-balanced merge differs from unsharded run")

# 5. A journal from one grid must not resume another: dropping a
#    design from the axis has to be rejected, not silently replayed.
execute_process(COMMAND ${GVC_SWEEP} --workloads hotspot,backprop
                --designs ideal,vc_opt --scale 0.05 --jobs 2
                --percu-tlb 64 --quiet --no-table
                --resume ${journal} --json ${WORK_DIR}/resume_bad.json
                RESULT_VARIABLE bad_rc ERROR_QUIET OUTPUT_QUIET)
if(bad_rc EQUAL 0)
    message(FATAL_ERROR
            "gvc_sweep resumed a journal from a different grid")
endif()

# 6. A journal written before results schema v4 still loads in
#    gvc_plan and as a cost model, but resuming it is refused by name:
#    its records lack v4 fields, so the resumed export could not match
#    an uninterrupted run.  (Resume a copy: a refusal must not touch
#    the journal, but the fixture stays read-only either way.)
set(old_args --workloads hotspot --designs ideal,baseline512
             --scale 0.05 --jobs 1 --percu-tlb 64 --quiet --no-table)
file(COPY ${COMPAT_DIR}/SWEEP_PRE_V4.gvcj DESTINATION ${WORK_DIR})
set(old_journal ${WORK_DIR}/SWEEP_PRE_V4.gvcj)
run_checked(${GVC_PLAN} journal ${old_journal})
run_checked(${GVC_SWEEP} ${old_args} --shard 0/2 --balance
            --cost-model ${old_journal}
            --json ${WORK_DIR}/resume_old_cost.json)
execute_process(COMMAND ${GVC_SWEEP} ${old_args} --resume ${old_journal}
                --json ${WORK_DIR}/resume_old.json
                RESULT_VARIABLE old_rc ERROR_VARIABLE old_err
                OUTPUT_QUIET)
if(old_rc EQUAL 0)
    message(FATAL_ERROR "gvc_sweep resumed a pre-v4 journal")
endif()
if(NOT old_err MATCHES "results schema v1")
    message(FATAL_ERROR
            "pre-v4 journal refused without naming the schema: ${old_err}")
endif()

message(STATUS
        "resume and cost-balanced shards byte-identical to full run")
