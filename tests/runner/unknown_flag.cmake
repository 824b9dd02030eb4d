# Runs BIN with a flag no binary defines and requires the loud refusal:
# exit code 2 and the flag named on stderr, before any work starts.
#   cmake -DBIN=<path to binary> -P unknown_flag.cmake
execute_process(COMMAND "${BIN}" --no-such-flag
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} --no-such-flag exited '${rc}', expected 2")
endif()
if(NOT err MATCHES "unknown flag --no-such-flag")
  message(FATAL_ERROR "${BIN} did not name the flag on stderr: ${err}")
endif()
