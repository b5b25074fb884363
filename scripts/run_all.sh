#!/bin/bash
# Regenerates every table/figure and stores raw outputs under results/:
# each bin at TIGR_SCALE (default 1/256) as results/<bin>.txt with its
# stderr in results/<bin>.log, then Figure 13 and Table 8 again at 1/64
# (results/fig13_speedups_s64.txt, fig13_s64.log, table8_s64.txt and
# table8_s64.log). Runs from the checkout it lives in, wherever that is.
set -u
cd "$(dirname "$0")/.."
BINS="profile_irregularity table1_properties table3_datasets table5_udt_space table6_virtual_space table7_transform_time fig13_speedups table8_sssp_detail ablation_k_sweep ablation_mapping ablation_simd_model ablation_partition_vs_split hardwired_comparison verify_correctness table4_comparison"
run() { # <bin> <scale> <stdout file> <stderr file>
  echo "=== $1 (1/$2) ==="
  TIGR_SCALE=$2 timeout 5400 cargo run --release -q -p tigr-bench --bin "$1" > "results/$3" 2> "results/$4"
  echo "exit: $?"
}
for b in $BINS; do
  run "$b" "${TIGR_SCALE:-256}" "$b.txt" "$b.log"
done
run fig13_speedups 64 fig13_speedups_s64.txt fig13_s64.log
run table8_sssp_detail 64 table8_s64.txt table8_s64.log
