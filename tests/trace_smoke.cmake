# CLI smoke test: record bfs at scale 0.1 once, replay it under the
# four hierarchies (IDEAL MMU, Baseline 512, VC With OPT, L1-Only VC),
# and require each replayed RunResult JSON to be byte-identical to a
# live gvc_run of the same (workload, design).  Every build type runs
# it, sanitized ones included, so the packed-lane decode and issue
# paths are checked under ASan+UBSan too.

set(trace "${WORK_DIR}/smoke_bfs.gvct")

function(run_checked)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR "command failed (${rc}): ${cmd}")
    endif()
endfunction()

run_checked(${GVC_TRACE} record -w bfs -o ${trace} --scale 0.1)
run_checked(${GVC_TRACE} info ${trace})

foreach(design ideal baseline-512 vc-opt l1vc-32)
    run_checked(${GVC_TRACE} replay ${trace} -d ${design} --quiet
                --json ${WORK_DIR}/smoke_replay_${design}.json)
    run_checked(${GVC_RUN} -w bfs -d ${design} --scale 0.1
                --json ${WORK_DIR}/smoke_live_${design}.json)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/smoke_replay_${design}.json
                ${WORK_DIR}/smoke_live_${design}.json
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
                "replayed RunResult differs from live run for ${design}")
    endif()
endforeach()

message(STATUS "record+replay bit-identical under all four designs")
