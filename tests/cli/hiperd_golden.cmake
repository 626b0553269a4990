# Runs the HiPer-D harnesses with their default arguments and compares each
# one's stdout byte for byte with the output recorded in tests/data/. The
# harnesses are deterministic for every worker count, so any difference is
# a change in what the HiPer-D derivation computes or prints.
#
# Usage: cmake -DBENCH_DIR=<dir> -DEXAMPLES_DIR=<dir> -DDATA_DIR=<dir>
#              -P hiperd_golden.cmake

# golden(<binary> <file under DATA_DIR>)
function(golden binary file)
  execute_process(COMMAND "${binary}"
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 120)
  file(READ "${DATA_DIR}/${file}" want)
  if(NOT code STREQUAL "0")
    message(SEND_ERROR "${binary}\n  exit status: ${code}\n  stderr: ${err}")
  elseif(NOT out STREQUAL want)
    message(SEND_ERROR
      "${binary}: stdout differs from ${file}\n--- got ---\n${out}")
  endif()
endfunction()

golden("${EXAMPLES_DIR}/hiperd_analysis" hiperd_analysis.golden.txt)
golden("${BENCH_DIR}/fig4_slack" fig4_slack.golden.txt)
golden("${BENCH_DIR}/table2_pair" table2_pair.golden.txt)
