# CLI contract test: for every command in tests/cli_flags.txt, require
# `<command> --help` to name exactly the listed flags (read from the
# option column of the generated help), and an unknown flag to be a
# usage error: exit status 2, one line on stderr, nothing on stdout.
#
#   cmake -DTOOLS_DIR=<dir with the gvc_* binaries> -DFLAGS=<list>
#         -P cli_flags.cmake

file(STRINGS ${FLAGS} lines REGEX "^gvc_")
set(failed 0)
foreach(line IN LISTS lines)
    string(REGEX MATCH "^([^:]+): (.*)$" _ "${line}")
    set(command "${CMAKE_MATCH_1}")
    set(want "${CMAKE_MATCH_2}")
    separate_arguments(words UNIX_COMMAND "${command}")
    list(POP_FRONT words tool)
    set(exe ${TOOLS_DIR}/${tool}${CMAKE_EXECUTABLE_SUFFIX})

    execute_process(COMMAND ${exe} ${words} --help
                    RESULT_VARIABLE rc OUTPUT_VARIABLE help)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${command} --help exited ${rc}")
        set(failed 1)
    endif()
    # Option column: "  -w, --workloads LIST" or "      --scale F".
    string(REPLACE "\n" ";" help_lines "${help}")
    set(got)
    foreach(h IN LISTS help_lines)
        if(h MATCHES "^  (-[A-Za-z]), (--[a-z0-9-]+)")
            list(APPEND got ${CMAKE_MATCH_1} ${CMAKE_MATCH_2})
        elseif(h MATCHES "^      (--[a-z0-9-]+)")
            list(APPEND got ${CMAKE_MATCH_1})
        endif()
    endforeach()
    list(SORT got)
    list(JOIN got " " got)
    if(NOT got STREQUAL want)
        message(SEND_ERROR "${command} --help names\n  ${got}\n"
                           "but it must accept exactly\n  ${want}")
        set(failed 1)
    endif()

    execute_process(COMMAND ${exe} ${words} --no-such-flag
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    string(REGEX MATCHALL "\n" newlines "${err}")
    list(LENGTH newlines n)
    if(NOT rc EQUAL 2 OR NOT out STREQUAL "" OR NOT n EQUAL 1 OR
       NOT err MATCHES "--no-such-flag")
        message(SEND_ERROR "${command} --no-such-flag: exit ${rc}, "
                           "stderr '${err}', stdout '${out}'")
        set(failed 1)
    endif()
endforeach()

if(failed)
    message(FATAL_ERROR "command-line contract broken")
endif()
message(STATUS "every command accepts exactly its listed flags")
