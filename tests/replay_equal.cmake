# Differential output check, run as a ctest via `cmake -P`.
#
#   cmake -DCMD1=<exe + args> -DCMD2=<exe + args>
#         [-DENVVARS=<K=V;K=V;...>] [-DFRESH=<dir>] [-DERR2=<regex>]
#         -DOUT1=<file> -DOUT2=<file> -P replay_equal.cmake
#
# Runs CMD1 then CMD2 with the given environment and fails unless
# their stdout is byte-identical. This pins the determinism contract:
# a sweep replaying the shared in-memory trace at any --jobs level,
# resuming from checkpoints, sampling or reading the result cache must
# reproduce the reference run's results exactly. FRESH names a
# directory (a result cache) removed before CMD1 runs; ERR2 is a regex
# CMD2's whole stderr must match.

if(NOT DEFINED CMD1 OR NOT DEFINED CMD2 OR NOT DEFINED OUT1
   OR NOT DEFINED OUT2)
    message(FATAL_ERROR
            "replay_equal: CMD1, CMD2, OUT1, and OUT2 are required")
endif()

if(DEFINED ENVVARS)
    foreach(kv IN LISTS ENVVARS)
        string(FIND "${kv}" "=" eq)
        string(SUBSTRING "${kv}" 0 ${eq} key)
        math(EXPR vstart "${eq} + 1")
        string(SUBSTRING "${kv}" ${vstart} -1 val)
        set(ENV{${key}} "${val}")
    endforeach()
endif()

if(DEFINED FRESH)
    file(REMOVE_RECURSE "${FRESH}")
endif()

foreach(side 1 2)
    separate_arguments(cmd_list UNIX_COMMAND "${CMD${side}}")
    execute_process(
        COMMAND ${cmd_list}
        OUTPUT_VARIABLE got${side}
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "replay_equal: '${CMD${side}}' exited ${rc}\n${err}")
    endif()
    file(WRITE "${OUT${side}}" "${got${side}}")
endforeach()

if(DEFINED ERR2 AND NOT err MATCHES "${ERR2}")
    message(FATAL_ERROR
            "replay_equal: stderr of '${CMD2}' does not match "
            "'${ERR2}':\n${err}")
endif()

if(NOT got1 STREQUAL got2)
    message(FATAL_ERROR
        "replay_equal: outputs differ\n"
        "  ${OUT1}\n  ${OUT2}\n"
        "The second run must reproduce the first exactly.")
endif()
