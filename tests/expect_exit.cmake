# Runs PROGRAM with one argument ARG and fails unless it exits with EXPECTED.
# Used by ctest entries that pin a command-line tool's usage-error exit code:
#   cmake -DPROGRAM=path/to/tool -DARG=--flag=x -DEXPECTED=2 -P expect_exit.cmake
execute_process(COMMAND "${PROGRAM}" "${ARG}" RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL EXPECTED)
  message(FATAL_ERROR "${PROGRAM} ${ARG} exited with '${rc}', expected ${EXPECTED}")
endif()
