# Golden-stdout check for one harness main (a GOLDEN-labelled ctest).
#
#   cmake -DMAIN=<binary> -DGOLDEN=<tests/golden/x.txt> -DACTUAL=<out.txt>
#         -P tests/check_golden.cmake
#
# Runs MAIN with no arguments, keeps its stdout (stderr carries progress
# notes and is dropped), writes it to ACTUAL and fails unless it equals
# GOLDEN byte for byte.  Refreshing a golden on purpose: docs/ci.md.
foreach(var MAIN GOLDEN ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND "${MAIN}"
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${MAIN} exited with ${status}:\n${stderr}")
endif()

file(WRITE "${ACTUAL}" "${stdout}")
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_TOOL diff)
  if(DIFF_TOOL)
    execute_process(COMMAND "${DIFF_TOOL}" -u "${GOLDEN}" "${ACTUAL}"
                    OUTPUT_VARIABLE delta)
  endif()
  message(FATAL_ERROR
          "stdout of ${MAIN} differs from ${GOLDEN} (actual: ${ACTUAL})\n"
          "${delta}")
endif()
