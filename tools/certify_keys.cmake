# Runs `fmmio certify` on each KEY=VERDICT argument and fails unless it
# exits 0 and prints a verdict line matching the VERDICT regex.  With
# -DEVERY_KEY=ON it also fails when a key `fmmio list` prints has no
# argument.
#
#   cmake -DFMMIO=build/examples/fmmio -P tools/certify_keys.cmake --
#         "strassen-alt=Theorem 4.1 PASS" "classic=no theorem applies"
cmake_minimum_required(VERSION 3.25)
set(keys)
set(cases FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  set(arg "${CMAKE_ARGV${i}}")
  if(NOT cases)
    if(arg STREQUAL "--")
      set(cases TRUE)
    endif()
    continue()
  endif()
  string(FIND "${arg}" "=" eq)
  string(SUBSTRING "${arg}" 0 ${eq} key)
  math(EXPR eq "${eq} + 1")
  string(SUBSTRING "${arg}" ${eq} -1 verdict)
  list(APPEND keys "${key}")
  execute_process(COMMAND "${FMMIO}" certify "${key}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT code EQUAL 0 OR NOT out MATCHES "\n  Verdict: +${verdict}")
    message(FATAL_ERROR
      "fmmio certify ${key}: exit ${code}, want verdict '${verdict}':\n${out}")
  endif()
endforeach()

if(EVERY_KEY)
  execute_process(COMMAND "${FMMIO}" list OUTPUT_VARIABLE listing
    RESULT_VARIABLE code)
  string(REGEX MATCHALL "\n[^ \n-][^ \n]*" rows "${listing}")
  foreach(row IN LISTS rows)
    string(STRIP "${row}" key)
    if(NOT key IN_LIST keys)
      message(FATAL_ERROR "registry key '${key}' is not certified here")
    endif()
  endforeach()
endif()
