#!/bin/bash
# Full verification gate: the tier-1 suite (ROADMAP.md), the cost guards
# on optimised code, every crate's own tests, the benchmark harness at
# smoke size, docs, lints and formatting. CI runs exactly this script;
# run it locally before pushing. Every step is a cargo command: what the
# system must do is asserted by tests, not by grepping a daemon's output.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== cost guards on optimised code =="
# Tier-1 runs each guard under the test profile; here the same tests run
# optimised, where most bounds are tighter. Each guard's doc comment
# names its bound and why. One test at a time, so no guard shares the
# cores with another test while it times.
cargo test -q --release \
    --test mutation_integration --test batch_equivalence --test host_vs_warpsim \
    --test rmat_reference --test rmat_lanes_cost --test artifact_cost \
    --test sim_replay_cost --test values_codec_cost --test split_cost -- \
    --exact --test-threads=1 --nocapture \
    dirty_sssp_with_removed_base_edges_costs_what_the_merged_csr_costs \
    streamed_merge_costs_under_half_the_builder_merge \
    lanes_are_the_plain_reference_run_at_no_more_than_1_5x_its_cost \
    host_pagerank_costs_what_a_plain_gather_costs \
    rmat_costs_under_0_6x_the_sequential_reference \
    rmat_lanes_cost_under_0_2x_the_sequential_reference \
    streaming_the_artifact_costs_under_0_75x_the_buffered_reference \
    replay_costs_under_0_75x_the_reference \
    values_codec_costs_under_0_6x_the_digit_loops \
    udt_split_costs_under_0_35x_the_sorting_reference

echo "== workspace tests =="
# The tier-1 step ran the root package's targets; these are the crates'.
cargo test -q --workspace --exclude tigr

echo "== benchmark quick =="
# The harness under benchmark/ is a workspace of its own that compiles
# against the public API of the crates and may not be edited by a change
# that claims a gain: build it with the exact command BENCHMARK.json
# names and run at smoke size the two workloads that live on the wire
# path and `paper_sim`, the only step that runs the simulator end to end
# with its re-run determinism check and its UDT projection check (every
# answer is still checked; a failed or wrong one exits non-zero), then
# its unit tests. A PR that breaks an item the harness uses, or a codec
# or simulator change that fails its checks, fails here.
mapfile -t bench_cmd < <(sed -n '/"command": \[/,/\]/p' BENCHMARK.json \
    | grep -o '"[^"]*"' | tr -d '"' | tail -n +2)
[ "${bench_cmd[0]}" = "cargo" ] \
    || { echo "benchmark quick: could not read the command from BENCHMARK.json"; exit 1; }
# Building the harness makes cargo prune unused shim entries from its
# frozen lock file; the file is put back afterwards, on failure too, and
# the step must leave nothing changed under benchmark/.
work="$(mktemp -d)"
cp benchmark/Cargo.lock "$work/benchmark.Cargo.lock"
trap 'cp "$work/benchmark.Cargo.lock" benchmark/Cargo.lock; rm -rf "$work"' EXIT
for workload in serve_hot mutate_dirty paper_sim; do
    "${bench_cmd[@]}" --workload "$workload" --quick --data-dir "$work/bench" | tail -n 1
done
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cp "$work/benchmark.Cargo.lock" benchmark/Cargo.lock
bench_changes="$(git status --porcelain -- benchmark/)"
[ -z "$bench_changes" ] \
    || { echo "benchmark quick: the step changed files under benchmark/"; echo "$bench_changes"; exit 1; }

echo "== docs (deny warnings) =="
# A doc link to a deleted or private name fails here, in the root crate
# and every crate under crates/. The shims stay out: the proptest shim's
# `vec` names both a function and a macro.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude tigr-cli
# tigr-cli's binary is named `tigr` like the root library, and one cargo
# invocation cannot write both doc trees, so it is documented on its own.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p tigr-cli

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all gates passed"
