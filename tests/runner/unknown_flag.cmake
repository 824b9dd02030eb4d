# Runs BIN with a flag no binary defines, then with a malformed value for a
# flag every binary defines, and requires the loud refusal both times: exit
# code 2 and the flag (or value) named on stderr, before any work starts.
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

execute_process(COMMAND "${BIN}" --seed 1e3
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 20)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} --seed 1e3 exited '${rc}', expected 2")
endif()
if(NOT err MATCHES "bad value for --seed: '1e3'")
  message(FATAL_ERROR "${BIN} did not name the bad value on stderr: ${err}")
endif()
