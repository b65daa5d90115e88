# User-error check, run as a ctest via `cmake -P`.
#
#   cmake -DCMD=<exe + args> [-DEXPECT=<regex>] -P expect_fatal.cmake
#
# Runs CMD and fails unless it exits nonzero with a clean "fatal:"
# diagnostic and no "panic:" -- a malformed command line is a user
# error, never a silently misread value or a simulator crash. With
# EXPECT, the diagnostic must also match that regex, so the command
# cannot pass by failing for some other reason.

if(NOT DEFINED CMD)
    message(FATAL_ERROR "expect_fatal: CMD is required")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(
    COMMAND ${cmd_list}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "expect_fatal: '${CMD}' exited 0\n${out}")
endif()
if(NOT err MATCHES "fatal:")
    message(FATAL_ERROR "expect_fatal: '${CMD}' printed no fatal:\n${err}")
endif()
if(DEFINED EXPECT AND NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR
        "expect_fatal: '${CMD}' did not mention '${EXPECT}':\n${err}")
endif()
if(err MATCHES "panic:")
    message(FATAL_ERROR "expect_fatal: '${CMD}' panicked\n${err}")
endif()
