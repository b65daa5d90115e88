# Grid-independence check, run as a ctest via `cmake -P`.
#
#   cmake -DCLI=<cnsim> -DKIND=<l2 kind> -DARGS=<workload + budget args>
#         -DCACHE=<result cache dir> -DOUT=<output prefix>
#         -P grid_row_equal.cmake
#
# Runs the KIND cell alone, then inside the all-organization grid at
# --jobs 1, at --jobs 4, and at --jobs 2 through a cold and then a warm
# result cache, and fails unless the KIND row is byte-identical in all
# five tables: a cell's result depends only on (config, workload,
# seed), never on the grid it runs in or on how the grid is executed.

if(NOT DEFINED CLI OR NOT DEFINED KIND OR NOT DEFINED ARGS
   OR NOT DEFINED CACHE OR NOT DEFINED OUT)
    message(FATAL_ERROR
            "grid_row_equal: CLI, KIND, ARGS, CACHE, and OUT are required")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
# A stale cache would turn the cold run into cache reads.
file(REMOVE_RECURSE "${CACHE}")

set(runs solo jobs1 jobs4 cold warm)
set(solo_flags --l2 ${KIND})
set(jobs1_flags --l2 all --jobs 1)
set(jobs4_flags --l2 all --jobs 4)
set(cold_flags --l2 all --jobs 2 --cache-dir ${CACHE})
set(warm_flags ${cold_flags})

foreach(run IN LISTS runs)
    execute_process(
        COMMAND ${CLI} ${${run}_flags} ${args}
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "grid_row_equal: ${run} exited ${rc}\n${err}")
    endif()
    file(WRITE "${OUT}.${run}.out" "${out}")
    string(REGEX MATCH "\n${KIND} [^\n]*" row "${out}")
    if(row STREQUAL "")
        message(FATAL_ERROR "grid_row_equal: no ${KIND} row in ${run}")
    endif()
    set(${run}_row "${row}")
endforeach()

foreach(run jobs1 jobs4 cold warm)
    if(NOT ${run}_row STREQUAL solo_row)
        message(FATAL_ERROR
            "grid_row_equal: the ${KIND} row differs between the solo "
            "run and ${run}:\n  solo: ${solo_row}\n  ${run}: ${${run}_row}")
    endif()
endforeach()
