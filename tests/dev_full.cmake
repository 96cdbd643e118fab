# Output-writer check: point each tool's writer at /dev/full, where
# every write fails with ENOSPC, and require a non-zero exit.  A writer
# that reports success there would also lose results on a full disk.
# Skipped (by printing SKIP) where /dev/full does not exist.
#
#   cmake -DTOOLS_DIR=<dir with the gvc_* binaries> -DWORK_DIR=<dir>
#         -P dev_full.cmake

if(NOT EXISTS /dev/full)
    message(STATUS "SKIP: no /dev/full on this host")
    return()
endif()

set(t ${TOOLS_DIR})
set(w ${WORK_DIR})
set(small "--scale 0.02 --quiet --no-table")

function(run_ok)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        string(JOIN " " cmd ${ARGN})
        message(FATAL_ERROR "setup command failed (${rc}): ${cmd}")
    endif()
endfunction()

run_ok(${t}/gvc_trace record -w hotspot --scale 0.02 -o ${w}/full.gvct)
run_ok(${t}/gvc_sweep -w hotspot -d ideal --scale 0.02 --quiet
       --no-table --json ${w}/full_shard.json)

set(cases
    "gvc_run -w hotspot -d ideal --scale 0.02 --json /dev/full"
    "gvc_trace replay ${w}/full.gvct -d ideal -q --json /dev/full"
    "gvc_sweep -w hotspot -d ideal ${small} --json /dev/full"
    "gvc_sweep -w hotspot -d ideal ${small} --csv /dev/full"
    "gvc_tenants -w hotspot -d ideal --rounds 1 --storm 0 ${small} --json /dev/full"
    "gvc_tenants -w hotspot -d ideal --rounds 1 --storm 0 ${small} --csv /dev/full"
    "gvc_merge ${w}/full_shard.json -o /dev/full"
    "gvc_bench --scale 0.02 --quiet --out /dev/full")
set(failed 0)
foreach(c IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${c}")
    list(POP_FRONT args tool)
    execute_process(COMMAND ${t}/${tool} ${args} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(SEND_ERROR "reported success writing to /dev/full: ${c}")
        set(failed 1)
    elseif(NOT err MATCHES "/dev/full")
        message(SEND_ERROR "failure does not name /dev/full: ${c}\n${err}")
        set(failed 1)
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "an output writer hides a failed write")
endif()
message(STATUS "every output writer reports a failed write")
