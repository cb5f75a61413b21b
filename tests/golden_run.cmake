# Run one CLI invocation and diff its normalized output against goldens.
#
#   cmake -DPROGRAM=<binary> -DARGS="a|b|c" -DNORM=<feather_report_norm>
#         -DOUT=<output prefix>
#         [-DCSV_GOLDEN=<file> -DJSON_GOLDEN=<file>]
#         [-DSTDOUT_GOLDEN=<file>] [-DTEXT_GOLDEN=<file>]
#         [-DEXIT_CODE=<n>]
#         -P golden_run.cmake
#
# ARGS separates the program's arguments with '|'. With CSV_GOLDEN and
# JSON_GOLDEN the run also writes --report-csv/--report-json, and both
# reports are compared after feather_report_norm zeroes their `*_wall_us`
# fields. With STDOUT_GOLDEN the program's stdout (JSON lines) is
# normalized and compared the same way. With TEXT_GOLDEN the raw stdout
# (listings, usage text) is compared byte for byte, unnormalized. The
# program must exit with EXIT_CODE (default 0).

foreach(var PROGRAM NORM OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_run.cmake: ${var} is required")
  endif()
endforeach()

if(NOT DEFINED EXIT_CODE)
  set(EXIT_CODE 0)
endif()

string(REPLACE "|" ";" args "${ARGS}")
if(DEFINED CSV_GOLDEN)
  list(APPEND args --report-csv "${OUT}.csv" --report-json "${OUT}.json")
endif()

execute_process(
  COMMAND "${PROGRAM}" ${args}
  OUTPUT_FILE "${OUT}.stdout"
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL EXIT_CODE)
  message(FATAL_ERROR
          "${PROGRAM} exited with ${rc}, not ${EXIT_CODE}:\n${err}")
endif()

# compare(<format> <raw file> <golden>): normalize, then byte-compare.
function(compare format raw golden)
  execute_process(
    COMMAND "${NORM}" ${format} "${raw}"
    OUTPUT_FILE "${raw}.norm"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "feather_report_norm failed on ${raw}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${raw}.norm" "${golden}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${raw}.norm differs from ${golden}")
  endif()
endfunction()

if(DEFINED CSV_GOLDEN)
  compare(csv "${OUT}.csv" "${CSV_GOLDEN}")
  compare(json "${OUT}.json" "${JSON_GOLDEN}")
endif()
if(DEFINED STDOUT_GOLDEN)
  compare(json "${OUT}.stdout" "${STDOUT_GOLDEN}")
endif()
if(DEFINED TEXT_GOLDEN)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}.stdout"
            "${TEXT_GOLDEN}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUT}.stdout differs from ${TEXT_GOLDEN}")
  endif()
endif()
