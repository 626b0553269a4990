# Runs every bench and example harness that reads options through ArgParser
# with two malformed command lines: a stray positional token, and a
# non-numeric value for a numeric option the harness reads. Each run must
# exit 2 with one "<harness>: ..." diagnostic line on stderr, before any
# work starts.
#
# Usage: cmake -DBENCH_DIR=<dir> -DEXAMPLES_DIR=<dir>
#              -P malformed_command_lines.cmake

function(expect_usage_error name)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  if(NOT code STREQUAL "2" OR NOT err MATCHES "^${name}: [^\n]*\n$")
    string(REPLACE ";" " " command "${ARGN}")
    message(SEND_ERROR
      "${command}\n  exit status: ${code}\n  stderr: ${err}")
  endif()
endfunction()

# check(<dir> <harness> <numeric option> [arguments that come first])
function(check dir name option)
  expect_usage_error(${name} "${dir}/${name}" ${ARGN} 5)
  expect_usage_error(${name} "${dir}/${name}" ${ARGN} ${option} abc)
endfunction()

check("${BENCH_DIR}" ablation_discrete --mappings)
check("${BENCH_DIR}" ablation_error_models --tau)
check("${BENCH_DIR}" ablation_heterogeneity --mappings)
check("${BENCH_DIR}" ablation_mapping_search --random)
check("${BENCH_DIR}" ablation_norms --mappings)
check("${BENCH_DIR}" ablation_solvers --features)
check("${BENCH_DIR}" ablation_tau --mappings)
check("${BENCH_DIR}" baseline_heuristics --tau)
check("${BENCH_DIR}" degradation_curve --rows)
check("${BENCH_DIR}" etc_pack --dim gen)
check("${BENCH_DIR}" fig1_geometry --tau)
check("${BENCH_DIR}" fig2_dag --seed)
check("${BENCH_DIR}" fig3_makespan --mappings)
check("${BENCH_DIR}" fig4_slack --mappings)
check("${BENCH_DIR}" fuzz_roundtrip --etc)
check("${BENCH_DIR}" robustd_load --tenants)
check("${BENCH_DIR}" robustd_stat --port)
check("${BENCH_DIR}" stream_throughput --rows)
check("${BENCH_DIR}" table2_pair --mappings)
check("${EXAMPLES_DIR}" drift_reallocation --updates)
check("${EXAMPLES_DIR}" heuristic_tradeoffs --tau)
check("${EXAMPLES_DIR}" hiperd_analysis --seed)
check("${EXAMPLES_DIR}" operational_study --tau)
check("${EXAMPLES_DIR}" robustness_cli --tau --etc missing.csv)
