# Checks trace_vm's structured inline report against a recorded file: runs
# the tool with ARGS in an empty WORK_DIR and compares everything from the
# "inline report (" line onward with GOLDEN, byte for byte.
#
#   cmake -DTOOL=<path to trace_vm> -DWORK_DIR=<work dir> -DGOLDEN=<file> \
#         "-DARGS=--workload=compress --scenario=opt --inline-report" \
#         -P inline_report_golden_test.cmake
if(NOT TOOL OR NOT WORK_DIR OR NOT GOLDEN OR NOT ARGS)
  message(FATAL_ERROR "set TOOL, WORK_DIR, GOLDEN and ARGS")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "trace_vm ${ARGS}: exit status ${status}\n${err}")
endif()

string(FIND "${out}" "inline report (" start)
if(start EQUAL -1)
  message(FATAL_ERROR "trace_vm ${ARGS}: no inline report in the output")
endif()
string(SUBSTRING "${out}" ${start} -1 report)
file(READ "${GOLDEN}" want)
if(NOT report STREQUAL want)
  file(WRITE "${WORK_DIR}/report.txt" "${report}")
  message(FATAL_ERROR "trace_vm ${ARGS}: inline report differs from ${GOLDEN}; "
                      "the new report is in ${WORK_DIR}/report.txt")
endif()
