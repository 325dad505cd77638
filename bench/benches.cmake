# Paper-table benches are plain executables that print the table they
# regenerate; bench_micro_substrate uses google-benchmark.
function(nlidb_bench name src)
  add_executable(${name} bench/${src})
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  target_link_libraries(${name} PRIVATE
    nlidb_attack nlidb_eval nlidb_baselines nlidb_serving nlidb_core
    nlidb_data nlidb_sql nlidb_text nlidb_nn nlidb_tensor nlidb_common)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
endfunction()

nlidb_bench(bench_table1_mention_cases bench_table1_mention_cases.cc)
nlidb_bench(bench_table2_main bench_table2_main.cc)
nlidb_bench(bench_table2_3_variants bench_table2_3_variants.cc)
nlidb_bench(bench_table4_overnight bench_table4_overnight.cc)
nlidb_bench(bench_table4_paraphrase bench_table4_paraphrase.cc)
nlidb_bench(bench_fig5_gradients bench_fig5_gradients.cc)
nlidb_bench(bench_fig7_gradients bench_fig7_gradients.cc)
nlidb_bench(bench_mention_detection bench_mention_detection.cc)
nlidb_bench(bench_ablation_resolution bench_ablation_resolution.cc)
nlidb_bench(bench_schema_scale bench_schema_scale.cc)
nlidb_bench(bench_attack bench_attack.cc)

add_executable(bench_micro_substrate bench/bench_micro_substrate.cc)
set_target_properties(bench_micro_substrate PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_link_libraries(bench_micro_substrate PRIVATE
  nlidb_core nlidb_data nlidb_sql nlidb_text nlidb_nn nlidb_tensor
  nlidb_common benchmark::benchmark)
target_include_directories(bench_micro_substrate PRIVATE ${CMAKE_SOURCE_DIR})

# `cmake --build build --target bench_json` regenerates every committed
# BENCH_*.json file in one run from the source root, so all of them come
# from one commit and one machine. Each writer starts its file empty.
# bench_micro_substrate's google-benchmark suite feeds no file, so a
# filter that matches no benchmark skips it.
set(_bench_json_env ${CMAKE_COMMAND} -E env --unset=NLIDB_BENCH_JSON
    --unset=NLIDB_BENCH_SCHEMA_JSON --unset=NLIDB_BENCH_ATTACK_JSON)
add_custom_target(bench_json
  COMMAND ${_bench_json_env} $<TARGET_FILE:bench_micro_substrate>
          --benchmark_filter=^$
  COMMAND ${_bench_json_env} $<TARGET_FILE:bench_schema_scale>
  COMMAND ${_bench_json_env} $<TARGET_FILE:bench_attack>
  DEPENDS bench_micro_substrate bench_schema_scale bench_attack
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  USES_TERMINAL
  VERBATIM)
