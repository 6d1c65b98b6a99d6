# Runs `CMD ARG` and fails unless the process exits with status EXPECT and
# its stderr starts with STDERR_PREFIX. Usage:
#   cmake -DCMD=<exe> -DARG=<one argument> -DEXPECT=<status>
#         -DSTDERR_PREFIX=<text> -P expect_exit.cmake
execute_process(COMMAND "${CMD}" "${ARG}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR
    "${CMD} ${ARG}: exit status '${status}', expected ${EXPECT}\n${err}")
endif()
string(FIND "${err}" "${STDERR_PREFIX}" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR
    "${CMD} ${ARG}: stderr does not start with '${STDERR_PREFIX}':\n${err}")
endif()
