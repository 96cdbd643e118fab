# gvc_bench --check error contract: a baseline that cannot be read, is
# not a bench report, or was run with other options is refused before
# any cell runs, with exit status 1 and one stderr line that names the
# file (and, for other options, the field).  Progress is left on, so a
# cell that did run would add a "[gvc_bench]" line.
#
#   cmake -DGVC_BENCH=<gvc_bench> -DBASELINE=<a non-bench JSON file>
#         -P bench_check_smoke.cmake        (also tries <file>.missing)
#   cmake -DGVC_BENCH=<gvc_bench> -DBASELINE=<a scale-1 bench report>
#         -DFIELD=scale -P bench_check_smoke.cmake

if(DEFINED FIELD)
    set(files ${BASELINE})
else()
    set(files ${BASELINE} ${BASELINE}.missing)
endif()

foreach(file ${files})
    execute_process(COMMAND ${GVC_BENCH} --check ${file} --scale 0.05
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
    foreach(name "'${file}'" ${FIELD})
        string(FIND "${err}" "${name}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "--check ${file}: error does not name "
                                "${name}: ${err}")
        endif()
    endforeach()
    message(STATUS "--check ${file}: ${err}")
endforeach()
