# CLI smoke test pinning every design: sweep two graph workloads over
# all eleven designs and require the JSON export to be byte-identical
# to the checked-in tests/DESIGNS_SMOKE.json.  Regenerate that file
# with tests/regen_golden.sh after an intended behaviour change.

execute_process(
    COMMAND ${GVC_SWEEP} --workloads bfs,pagerank --designs all
            --scale 0.1 --jobs 2 --quiet --no-table
            --json ${WORK_DIR}/designs_smoke.json
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gvc_sweep failed (${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/designs_smoke.json ${GOLDEN}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "all-design sweep differs from ${GOLDEN}")
endif()

message(STATUS "all eleven designs match the checked-in golden")
