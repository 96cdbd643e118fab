# CLI smoke test against a checked-in golden: run TOOL with ARGS (one
# space-separated string) plus `--json OUT`, and require the JSON export
# to be byte-identical to GOLDEN.  Each golden-backed ctest passes the
# exact command tests/regen_golden.sh uses for that file; CI runs these
# ctests in its Test step.  Regenerate the goldens with that script
# after an intended behaviour change.
#
#   cmake -DTOOL=<exe> -DARGS="<args>" -DGOLDEN=<file> -DOUT=<file>
#         -P golden_smoke.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${TOOL} ${args} --json ${OUT}
    RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} ${ARGS} failed (${rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()

message(STATUS "${OUT} matches ${GOLDEN}")
