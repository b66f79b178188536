# Checks that a tool treats flags it does not declare as usage errors: each
# invocation in CASES must print the tool's usage text to stderr and exit 2
# without writing anything into its (empty) working directory.
#
#   cmake -DTOOL=<path to tool> -DWORK_DIR=<work dir> \
#         "-DCASES=--help|--bogus|--known=1 --bogus" -P usage_test.cmake
#
# CASES separates invocations with '|'; each invocation is a space-separated
# argument list.
if(NOT TOOL OR NOT WORK_DIR OR NOT CASES)
  message(FATAL_ERROR "set TOOL, WORK_DIR and CASES")
endif()
get_filename_component(tool_name "${TOOL}" NAME_WE)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

string(REPLACE "|" ";" cases "${CASES}")
foreach(case IN LISTS cases)
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND "${TOOL}" ${args}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${tool_name} ${case}: exit status ${status}, want 2")
  endif()
  if(NOT err MATCHES "usage: ${tool_name}")
    message(FATAL_ERROR "${tool_name} ${case}: no usage text on stderr")
  endif()
  file(GLOB written "${WORK_DIR}/*")
  if(written)
    message(FATAL_ERROR "${tool_name} ${case}: wrote ${written}")
  endif()
endforeach()
