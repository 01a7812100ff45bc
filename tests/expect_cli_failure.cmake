# Run one CLI invocation that must be refused:
#   cmake -DEXE=<binary> "-DARGS=<args>" -DEXPECT=<regex> -DREJECT=<regex>
#         -P expect_cli_failure.cmake
# Passes iff the exit status is nonzero, the combined stdout+stderr
# matches EXPECT, and nothing in it matches REJECT.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${EXE} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "expected a failing exit status, got 0:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
if(out MATCHES "${REJECT}")
    message(FATAL_ERROR "output unexpectedly matches '${REJECT}':\n${out}")
endif()
