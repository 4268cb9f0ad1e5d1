# Runs the command after `--` and fails unless it exits with EXIT and its
# output (standard output and error together) matches REGEX.  ctest's
# PASS_REGULAR_EXPRESSION alone ignores the exit code, so a command that
# printed the right line but exited 0, or crashed after printing it,
# would pass.  An argument may not hold a `;`, CMake's list separator.
#
#   cmake -DEXIT=2 "-DREGEX=--retries is not a sweep flag"
#         -P tools/expect_run.cmake -- build/examples/fmmio sweep --retries 3
cmake_minimum_required(VERSION 3.25)
set(command)
set(after FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(after)
    list(APPEND command "${arg}")
  elseif(arg STREQUAL "--")
    set(after TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code STREQUAL "${EXIT}" OR NOT out MATCHES "${REGEX}")
  message(FATAL_ERROR
    "${command}: exit ${code}, want exit ${EXIT} and output matching "
    "'${REGEX}':\n${out}")
endif()
