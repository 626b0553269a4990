# Runs robustd_stat against a Unix socket no daemon listens on: a runtime
# failure, which must exit 1 (exit 2 means a malformed command line).
#
# Usage: cmake -DROBUSTD_STAT=<binary> -DSOCKET=<path that does not exist>
#              -P robustd_stat_without_daemon.cmake

execute_process(COMMAND "${ROBUSTD_STAT}" --unix "${SOCKET}"
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
if(NOT code STREQUAL "1")
  message(SEND_ERROR
    "robustd_stat --unix ${SOCKET}\n  exit status: ${code}\n  stderr: ${err}")
endif()
