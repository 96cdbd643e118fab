# `gvc_run --json -` must put the RunResult JSON document, and nothing
# else, on stdout: the banner and the report go to stderr.

execute_process(
    COMMAND ${GVC_RUN} -w bfs -d baseline512 --scale 0.05 --stats --json -
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gvc_run --json - failed (${rc}):\n${err}")
endif()
string(LENGTH "${out}" len)
if(len LESS 3)
    message(FATAL_ERROR "gvc_run --json -: stdout is empty")
endif()
string(SUBSTRING "${out}" 0 1 first)
math(EXPR tail_at "${len} - 2")
string(SUBSTRING "${out}" ${tail_at} 2 last)
if(NOT first STREQUAL "{" OR NOT last STREQUAL "}\n")
    message(FATAL_ERROR "stdout is not one JSON document:\n${out}")
endif()
string(JSON design ERROR_VARIABLE json_err GET "${out}" design)
if(json_err)
    message(FATAL_ERROR "stdout does not parse as JSON: ${json_err}")
endif()
foreach(report "gvc_run: bfs under Baseline 512" "execution\n"
               "statistics registry\n")
    string(FIND "${err}" "${report}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "stderr lacks '${report}':\n${err}")
    endif()
endforeach()

message(STATUS "gvc_run --json - writes only JSON to stdout")
