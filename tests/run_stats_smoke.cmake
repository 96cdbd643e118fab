# CLI smoke test for `gvc_run --stats` on one design per hierarchy:
# every run must print the statistics registry, and every design with
# an IOMMU must register the IOMMU's counters ahead of its own.

foreach(design ideal baseline512 vc-opt l1vc-32)
    execute_process(
        COMMAND ${GVC_RUN} -w bfs -d ${design} --scale 0.05 --stats
        RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "gvc_run --stats failed for ${design} (${rc})")
    endif()
    string(FIND "${out}" "statistics registry\n" registry_at)
    if(registry_at EQUAL -1)
        message(FATAL_ERROR "${design}: no statistics registry in:\n${out}")
    endif()
    string(FIND "${out}" "iommu.accesses = " iommu_at)
    if(design STREQUAL "ideal")
        if(NOT iommu_at EQUAL -1)
            message(FATAL_ERROR "ideal registered IOMMU counters")
        endif()
    elseif(iommu_at LESS registry_at)
        message(FATAL_ERROR "${design}: IOMMU counters not registered")
    endif()
endforeach()

message(STATUS "gvc_run --stats covers all four hierarchies")
