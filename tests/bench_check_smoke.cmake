# gvc_bench --check error contract: a baseline that is not a bench
# report, or that cannot be read, is refused before any cell runs, with
# exit status 1 and one stderr line that names the file.  Progress is
# left on, so a cell that did run would add a "[gvc_bench]" line.
#
#   cmake -DGVC_BENCH=<gvc_bench> -DBASELINE=<a non-bench JSON file>
#         -P bench_check_smoke.cmake

foreach(file ${BASELINE} ${BASELINE}.missing)
    execute_process(COMMAND ${GVC_BENCH} --check ${file} --scale 0.02
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    string(STRIP "${err}" err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "--check ${file}: exit ${rc}, expected 1\n${err}")
    endif()
    if(err MATCHES "\n" OR NOT out STREQUAL "")
        message(FATAL_ERROR "--check ${file}: expected one stderr line and "
                            "no stdout, got\n${err}\n${out}")
    endif()
    string(FIND "${err}" "'${file}'" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "--check ${file}: error does not name the "
                            "file: ${err}")
    endif()
    message(STATUS "--check ${file}: ${err}")
endforeach()
