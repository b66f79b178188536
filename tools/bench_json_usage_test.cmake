# Checks that bench_json treats flags it does not know as usage errors:
# each invocation below must print the usage text and exit 2 without
# writing anything into its (empty) working directory.
#
#   cmake -DBENCH_JSON=<path to bench_json> -DWORK_DIR=<work dir> -P bench_json_usage_test.cmake
if(NOT BENCH_JSON OR NOT WORK_DIR)
  message(FATAL_ERROR "set BENCH_JSON and WORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(args "--help" "--bogus" "--tuning;--help" "--fleet;--out=x.json" "a.json;b.json")
  execute_process(COMMAND "${BENCH_JSON}" ${args}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "bench_json ${args}: exit status ${status}, want 2")
  endif()
  if(NOT err MATCHES "usage: bench_json")
    message(FATAL_ERROR "bench_json ${args}: no usage text on stderr")
  endif()
  file(GLOB written "${WORK_DIR}/*")
  if(written)
    message(FATAL_ERROR "bench_json ${args}: wrote ${written}")
  endif()
endforeach()
