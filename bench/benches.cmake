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
nlidb_bench(bench_table2_ablation bench_table2_ablation.cc)
nlidb_bench(bench_table3_recovery bench_table3_recovery.cc)
nlidb_bench(bench_table4_overnight bench_table4_overnight.cc)
nlidb_bench(bench_table4_paraphrase bench_table4_paraphrase.cc)
nlidb_bench(bench_fig5_gradients bench_fig5_gradients.cc)
nlidb_bench(bench_fig7_gradients bench_fig7_gradients.cc)
nlidb_bench(bench_mention_detection bench_mention_detection.cc)
nlidb_bench(bench_ablation_resolution bench_ablation_resolution.cc)
nlidb_bench(bench_decoder bench_decoder.cc)
nlidb_bench(bench_serving bench_serving.cc)
nlidb_bench(bench_schema_scale bench_schema_scale.cc)
nlidb_bench(bench_attack bench_attack.cc)

add_executable(bench_micro_substrate bench/bench_micro_substrate.cc)
set_target_properties(bench_micro_substrate PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
target_link_libraries(bench_micro_substrate PRIVATE
  nlidb_core nlidb_data nlidb_sql nlidb_text nlidb_nn nlidb_tensor
  nlidb_common benchmark::benchmark)
target_include_directories(bench_micro_substrate PRIVATE ${CMAKE_SOURCE_DIR})
