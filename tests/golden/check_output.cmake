# Runs a program with empty stdin and compares its stdout byte for byte
# with a committed golden file; on a mismatch the unified diff is the
# failure report.
#
#   cmake -DPROGRAM=<binary> -DGOLDEN=<expected output> \
#         -DACTUAL=<where to write the output> -P check_output.cmake
#
# When a change alters the output on purpose, review the diff and copy
# ACTUAL over GOLDEN in the same change.
foreach(var PROGRAM GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_output.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND "${PROGRAM}"
  INPUT_FILE /dev/null
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${exit_code}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
  RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "the output of ${PROGRAM} (${ACTUAL}) differs from "
                      "${GOLDEN}")
endif()
