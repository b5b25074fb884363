#!/bin/bash
# Full verification gate: the tier-1 suite (ROADMAP.md) plus lints and
# formatting. CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q

echo "== dirty/merged ratio on optimised code =="
# The tier-1 run above checks the wall-clock ratio of a dirty `sssp` (a
# delta that removes base edges) to the same query on the merged CSR in
# the test profile; the release profile is what serves.
cargo test -q --release --test mutation_integration \
    dirty_sssp_with_removed_base_edges_costs_what_the_merged_csr_costs

echo "== streamed merge / builder merge on optimised code =="
# And for compaction's merge: a walk over rows that are already sorted
# must cost under half of CsrBuilder over the merged edge list.
cargo test -q --release --test mutation_integration \
    streamed_merge_costs_under_half_the_builder_merge -- --nocapture

echo "== lane driver / plain reference loop on optimised code =="
# Same idea for the host push driver itself: tier-1 holds it to 2.0x a
# plain single-writer loop under the test profile's debug assertions; on
# optimised code the bound is 1.5x.
cargo test -q --release --test batch_equivalence \
    lanes_are_the_plain_reference_run_at_no_more_than_1_5x_its_cost -- --nocapture

echo "== host pr / plain reference gather on optimised code =="
# And for PageRank: a host push `pr` over a prepared transpose runs as the
# gather, and must cost what a plain gather loop costs — 1.5x under the
# test profile, 1.3x optimised.
cargo test -q --release --test host_vs_warpsim \
    host_pagerank_costs_what_a_plain_gather_costs -- --nocapture

echo "== chunked rmat / sequential reference generator on optimised code =="
# The R-MAT generator draws its edges in parallel chunks, each jumped
# ahead to its place in the one seeded stream: it must produce the
# sequential generator's bytes at no more than 0.6x its cost (0.75x
# under the test profile's overflow checks).
cargo test -q --release --test rmat_reference \
    rmat_costs_under_0_6x_the_sequential_reference -- --nocapture

echo "== streamed artifact / buffered reference encoder on optimised code =="
# The artifact writer streams every section from the views' own arrays
# and hashes the sections on every core: it must write the buffered
# encoder's bytes at no more than 0.75x its cost (one core reads ≈ 0.55).
cargo test -q --release --test artifact_cost \
    streaming_the_artifact_costs_under_0_75x_the_buffered_reference -- --nocapture

echo "== warp replay / all-lanes reference replay on optimised code =="
# The simulator replays a warp at the cost of its active lanes: it must
# produce the all-lanes replay's metrics at no more than 0.75x its cost on
# skewed and on balanced warps.
cargo test -q --release --test sim_replay_cost \
    replay_costs_under_0_75x_the_reference -- --nocapture

echo "== word-at-a-time values codec / digit loops on optimised code =="
# A 131 072-value reply's `values` are written and read eight digits per
# step: encoding and decoding must each cost no more than 0.6x the
# digit-at-a-time loops they replaced (0.8x under the test profile).
cargo test -q --release --test values_codec_cost \
    values_codec_costs_under_0_6x_the_digit_loops -- --nocapture

echo "== sort-free split assembly / sorting reference on optimised code =="
# A UDT split copies the rows it leaves whole and places the topology's
# edges by one counting pass over their sources: it must build the
# sorting assembly's CSR (index sort, then CsrBuilder's clone and sort)
# at no more than 0.35x its cost on rmat:15:16 (0.5x under the test
# profile's overflow checks).
cargo test -q --release --test split_cost \
    udt_split_costs_under_0_35x_the_sorting_reference -- --nocapture

echo "== workspace tests =="
cargo test -q --workspace

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== serve ablation smoke =="
# Also the compile check for the ablation_serve bin; asserts the
# result-cache hit speedup and cross-cell checksum agreement itself.
cargo run --release -p tigr-bench --bin ablation_serve -- --smoke

echo "== prepared-graph cache smoke =="
# A warmed cache must make the second run pure load: cache hit, zero
# transform/transpose/overlay construction.
cache_dir="$(mktemp -d)"
trap 'rm -rf "$cache_dir"' EXIT
graph_file="$cache_dir/smoke.bin"
cargo run --release -q -p tigr-cli --bin tigr -- generate er --nodes 2000 --edges 16000 --weighted \
    -o "$graph_file" > /dev/null
cargo run --release -q -p tigr-cli --bin tigr -- run sssp --graph "$graph_file" --direction auto \
    --virtual 8 --stats --cache-dir "$cache_dir" > /dev/null
warm="$(cargo run --release -q -p tigr-cli --bin tigr -- run sssp --graph "$graph_file" --direction auto \
    --virtual 8 --stats --cache-dir "$cache_dir")"
echo "$warm" | grep -q "cache           hit" \
    || { echo "cache smoke: second run did not hit"; echo "$warm"; exit 1; }
echo "$warm" | grep -q "prep work       0 transforms, 0 transposes, 0 overlays" \
    || { echo "cache smoke: second run rebuilt derived views"; echo "$warm"; exit 1; }
echo "cache smoke: warm run loaded every view from the artifact"

echo "== cpu pool smoke =="
# `tigr run --cpu` is the host executor (the CpuPool backend) on the same
# Engine/prepared path as every other run: all ten verbs in every
# direction must print the value summary (first line and checksum line)
# of the run without --cpu.
tigr_run() { cargo run --release -q -p tigr-cli --bin tigr -- run "$@"; }
summary() { echo "$1" | head -n 1; echo "$1" | grep "^checksum"; }
verb_args() {
    case "$1" in
        khop) echo "khop --limit 2" ;; paths) echo "paths --limit 40" ;;
        lp) echo "lp --limit 4" ;; *) echo "$1" ;;
    esac
}
for verb in bfs sssp sswp cc pr bc khop paths lp tc; do
    for dir in push pull auto; do
        # shellcheck disable=SC2046
        ref="$(tigr_run $(verb_args "$verb") --graph "$graph_file" --direction "$dir")"
        # shellcheck disable=SC2046
        got="$(tigr_run $(verb_args "$verb") --graph "$graph_file" --cpu --direction "$dir" --stats)"
        [ "$(summary "$ref")" = "$(summary "$got")" ] || {
            echo "cpu pool smoke: $verb --direction $dir diverged"
            diff <(summary "$ref") <(summary "$got")
            exit 1
        }
    done
done
echo "cpu pool smoke: all ten verbs x push/pull/auto on the host executor match the simulator"

echo "== serve smoke =="
# One query per served algorithm against an ephemeral-port daemon; the
# stats verb must account for exactly those five queries.
port_file="$cache_dir/port.txt"
cargo run --release -q -p tigr-cli --bin tigr -- serve --graph "$graph_file" --name smoke \
    --port 0 --port-file "$port_file" --workers 2 > /dev/null &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$cache_dir"' EXIT
for _ in $(seq 1 100); do [ -s "$port_file" ] && break; sleep 0.1; done
[ -s "$port_file" ] || { echo "serve smoke: port file never appeared"; exit 1; }
addr="$(cat "$port_file")"
tigr_query() { cargo run --release -q -p tigr-cli --bin tigr -- query "$@" --addr "$addr"; }
tigr_query bfs  --graph-name smoke --source 0 > /dev/null
tigr_query sssp --graph-name smoke --source 0 > /dev/null
tigr_query sswp --graph-name smoke --source 0 > /dev/null
tigr_query cc   --graph-name smoke > /dev/null
tigr_query pr   --graph-name smoke > /dev/null
stats="$(tigr_query stats)"
echo "$stats" | grep -q "5 received / 5 completed / 0 rejected / 0 failed" \
    || { echo "serve smoke: unexpected stats"; echo "$stats"; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
echo "serve smoke: five analytics served and accounted"

echo "== workload smoke =="
# The four operator-only workloads (plus single-source BC and PageRank)
# served over TCP, each answer pinned to a committed FNV-1a64 checksum:
# the results are deterministic functions of the seed graph (generate
# er, default seed), so any drift in the operator pipelines shows up
# here as a checksum mismatch. The bc and pr checksums were printed by
# commits that served both through the GPU simulator; the server now
# runs them as host loops, and these two lines are the on-every-run
# check that the host path is bit-identical to it. Runs against its own
# daemon so the serve smoke's pinned five-query stats line stays
# untouched.
w_port_file="$cache_dir/w_port.txt"
cargo run --release -q -p tigr-cli --bin tigr -- serve --graph "$graph_file" --name smoke \
    --port 0 --port-file "$w_port_file" --workers 2 > /dev/null &
w_pid=$!
trap 'kill "$w_pid" 2>/dev/null || true; rm -rf "$cache_dir"' EXIT
for _ in $(seq 1 100); do [ -s "$w_port_file" ] && break; sleep 0.1; done
[ -s "$w_port_file" ] || { echo "workload smoke: port file never appeared"; exit 1; }
w_addr="$(cat "$w_port_file")"
check_workload() {
    local label="$1" expect="$2"
    shift 2
    local out sum
    out="$(cargo run --release -q -p tigr-cli --bin tigr -- query "$@" \
        --graph-name smoke --addr "$w_addr")"
    sum="$(echo "$out" | grep "^checksum" | awk '{print $2}')"
    [ "$sum" = "$expect" ] || {
        echo "workload smoke: $label checksum ${sum:-<none>}, expected $expect"
        echo "$out"
        exit 1
    }
}
# `tigr run` prints the same checksum, on the simulator and with --cpu.
check_run() {
    local label="$1" expect="$2"
    shift 2
    local mode out sum
    for mode in "" --cpu; do
        # shellcheck disable=SC2086
        out="$(tigr_run "$@" --graph "$graph_file" $mode)"
        sum="$(echo "$out" | grep "^checksum" | awk '{print $2}')"
        [ "$sum" = "$expect" ] || {
            echo "workload smoke: tigr run $label ${mode:-(simulator)} checksum ${sum:-<none>}, expected $expect"
            echo "$out"
            exit 1
        }
    done
}
check_both() { check_workload "$@"; check_run "$@"; }
check_both "khop(k=2)"    c77b23437990f3a2 khop --source 0 --limit 2
check_both "paths(r=40)"  c702c9e40ec90731 paths --source 0 --limit 40
check_both "lp(rounds=4)" bae36c08b4cc2b9d lp --limit 4
check_both "tc"           ea33e45a1ecf79d6 tc
check_both "bc(src=0)"    0589ea599dc7bce9 bc --source 0
check_both "pr"           be68482511b3548a pr
w_stats="$(cargo run --release -q -p tigr-cli --bin tigr -- query stats --addr "$w_addr")"
for line in "algo khop       1 completed" "algo paths      1 completed" \
            "algo lp         1 completed" "algo tc         1 completed" \
            "algo bc         1 completed" "algo pr         1 completed"; do
    echo "$w_stats" | grep -qF "$line" \
        || { echo "workload smoke: missing stats line: $line"; echo "$w_stats"; exit 1; }
done
kill "$w_pid"
wait "$w_pid" 2>/dev/null || true
echo "workload smoke: khop/paths/lp/tc/bc/pr served and run (simulator and --cpu) with reference checksums"

echo "== batch smoke =="
# Byte-equality across the batch former: the same query cells answered
# by an unbatched daemon (--batch-max 1), by a batching daemon fed
# concurrently (--batch-max 8, generous linger so the in-flight burst
# fuses), and by a batching daemon that deals each batch's lanes across
# two threads (--kernel-threads 2) must print identical replies: the
# first line (which carries the iteration count) and the checksum line.
ub_port_file="$cache_dir/ub_port.txt"
b_port_file="$cache_dir/b_port.txt"
p_port_file="$cache_dir/p_port.txt"
cargo run --release -q -p tigr-cli --bin tigr -- serve --graph "$graph_file" --name smoke \
    --port 0 --port-file "$ub_port_file" --workers 1 --batch-max 1 > /dev/null &
ub_pid=$!
cargo run --release -q -p tigr-cli --bin tigr -- serve --graph "$graph_file" --name smoke \
    --port 0 --port-file "$b_port_file" --workers 1 --batch-max 8 --batch-wait-us 300000 \
    > /dev/null &
b_pid=$!
cargo run --release -q -p tigr-cli --bin tigr -- serve --graph "$graph_file" --name smoke \
    --port 0 --port-file "$p_port_file" --executors 1 --kernel-threads 2 --batch-max 8 \
    --batch-wait-us 300000 > /dev/null &
p_pid=$!
trap 'kill "$ub_pid" "$b_pid" "$p_pid" 2>/dev/null || true; rm -rf "$cache_dir"' EXIT
for f in "$ub_port_file" "$b_port_file" "$p_port_file"; do
    for _ in $(seq 1 100); do [ -s "$f" ] && break; sleep 0.1; done
    [ -s "$f" ] || { echo "batch smoke: port file never appeared"; exit 1; }
done
ub_addr="$(cat "$ub_port_file")"
b_addr="$(cat "$b_port_file")"
p_addr="$(cat "$p_port_file")"
cells="bfs:0 bfs:9 sssp:0 sssp:9 sswp:4 cc:-"
cell_args() { [ "$1" = "-" ] && echo "" || echo "--source $1"; }
# What must not depend on batching or threads: the first line (node and
# iteration counts) and the checksum line.
reply_lines() { awk 'NR == 1 || /^checksum/'; }
# Reference answers from the unbatched daemon, one at a time.
for cell in $cells; do
    algo="${cell%%:*}"; src="${cell##*:}"
    # shellcheck disable=SC2046
    cargo run --release -q -p tigr-cli --bin tigr -- query "$algo" --graph-name smoke \
        $(cell_args "$src") --no-cache --addr "$ub_addr" \
        | reply_lines > "$cache_dir/ref_${algo}_${src}.txt"
done
# The same cells against the sequential and the parallel batching
# daemons, all in flight at once so each single executor must answer
# them through fused batches.
for kind in got par; do
    case "$kind" in got) addr="$b_addr" ;; par) addr="$p_addr" ;; esac
    qpids=""
    for cell in $cells; do
        algo="${cell%%:*}"; src="${cell##*:}"
        # shellcheck disable=SC2046
        cargo run --release -q -p tigr-cli --bin tigr -- query "$algo" --graph-name smoke \
            $(cell_args "$src") --no-cache --addr "$addr" \
            | reply_lines > "$cache_dir/${kind}_${algo}_${src}.txt" &
        qpids="$qpids $!"
    done
    for p in $qpids; do
        wait "$p" || { echo "batch smoke: a concurrent query failed ($kind)"; exit 1; }
    done
    for cell in $cells; do
        algo="${cell%%:*}"; src="${cell##*:}"
        [ -s "$cache_dir/ref_${algo}_${src}.txt" ] && [ -s "$cache_dir/${kind}_${algo}_${src}.txt" ] \
            || { echo "batch smoke: missing reply for $algo source $src ($kind)"; exit 1; }
        [ "$(wc -l < "$cache_dir/${kind}_${algo}_${src}.txt")" -eq 2 ] \
            || { echo "batch smoke: reply lacks its checksum for $algo source $src ($kind)"; exit 1; }
        cmp -s "$cache_dir/ref_${algo}_${src}.txt" "$cache_dir/${kind}_${algo}_${src}.txt" || {
            echo "batch smoke: reply diverged for $algo source $src ($kind)"
            paste "$cache_dir/ref_${algo}_${src}.txt" "$cache_dir/${kind}_${algo}_${src}.txt"
            exit 1
        }
    done
done
b_stats="$(cargo run --release -q -p tigr-cli --bin tigr -- query stats --addr "$b_addr")"
echo "$b_stats" | grep -q "6 received / 6 completed / 0 rejected / 0 failed" \
    || { echo "batch smoke: unexpected stats"; echo "$b_stats"; exit 1; }
echo "$b_stats" | grep "^batches"
p_stats="$(cargo run --release -q -p tigr-cli --bin tigr -- query stats --addr "$p_addr")"
echo "$p_stats" | grep -q "6 received / 6 completed / 0 rejected / 0 failed" \
    || { echo "batch smoke: unexpected parallel-daemon stats"; echo "$p_stats"; exit 1; }
kill "$ub_pid" "$b_pid" "$p_pid"
wait "$ub_pid" "$b_pid" "$p_pid" 2>/dev/null || true
echo "batch smoke: batched answers (kernel-threads 1 and 2) equal the unbatched daemon's, iterations and checksums"

echo "== mutation smoke =="
# A --mutable daemon must serve the delta (the checksum moves off the
# freshly-prepared reference after a mutation), survive a forced
# compaction with byte-equal answers and a drained overlay, account
# for it all in `query stats`, and after a second compaction hold the
# original artifact plus exactly one compacted one in its cache dir.
mu_port_file="$cache_dir/mu_port.txt"
mu_cache="$cache_dir/mu_cache"
cargo run --release -q -p tigr-cli --bin tigr -- serve --graph "$graph_file" --name smoke \
    --port 0 --port-file "$mu_port_file" --workers 1 --mutable --cache-dir "$mu_cache" > /dev/null &
mu_pid=$!
trap 'kill "$mu_pid" 2>/dev/null || true; rm -rf "$cache_dir"' EXIT
for _ in $(seq 1 100); do [ -s "$mu_port_file" ] && break; sleep 0.1; done
[ -s "$mu_port_file" ] || { echo "mutation smoke: port file never appeared"; exit 1; }
mu_addr="$(cat "$mu_port_file")"
mu_query() { cargo run --release -q -p tigr-cli --bin tigr -- query "$@" --addr "$mu_addr"; }
mu_mutate() { cargo run --release -q -p tigr-cli --bin tigr -- mutate "$@" --addr "$mu_addr" --graph-name smoke; }
fresh_sum="$(mu_query bfs --graph-name smoke --source 0 --no-cache | grep '^checksum')"
mu_mutate add-node --nodes 2001 > /dev/null
mu_mutate add-edge --u 0 --v 2000 --w 1 > /dev/null
printf '2000 0 1\n0 2000 1\n' > "$cache_dir/delta_edges.txt"
ingest_out="$(cargo run --release -q -p tigr-cli --bin tigr -- ingest --file "$cache_dir/delta_edges.txt" \
    --addr "$mu_addr" --graph-name smoke)"
echo "$ingest_out" | grep -q "ingested 2 edges into smoke" \
    || { echo "mutation smoke: unexpected ingest output"; echo "$ingest_out"; exit 1; }
delta_sum="$(mu_query bfs --graph-name smoke --source 0 --no-cache | grep '^checksum')"
[ "$fresh_sum" != "$delta_sum" ] \
    || { echo "mutation smoke: mutation did not change the served answer"; exit 1; }
mu_stats="$(mu_query stats)"
echo "$mu_stats" | grep -qE "overlay         [1-9][0-9]* wal records / [1-9][0-9]* delta edges" \
    || { echo "mutation smoke: stats show no delta"; echo "$mu_stats"; exit 1; }
compact_out="$(mu_mutate compact)"
echo "$compact_out" | grep -q -- "-> 0" \
    || { echo "mutation smoke: compaction left delta edges"; echo "$compact_out"; exit 1; }
post_sum="$(mu_query bfs --graph-name smoke --source 0 --no-cache | grep '^checksum')"
[ "$delta_sum" = "$post_sum" ] \
    || { echo "mutation smoke: compaction changed answers"; echo "$delta_sum vs $post_sum"; exit 1; }
post_stats="$(mu_query stats)"
echo "$post_stats" | grep -q "overlay         0 wal records / 0 delta edges" \
    || { echo "mutation smoke: delta not drained"; echo "$post_stats"; exit 1; }
echo "$post_stats" | grep -q "compactions     1 (last" \
    || { echo "mutation smoke: compaction not counted"; echo "$post_stats"; exit 1; }
mu_mutate add-edge --u 1 --v 2000 --w 1 > /dev/null
mu_mutate compact > /dev/null
mu_artifacts="$(find "$mu_cache" -maxdepth 1 -name '*.tigr' | wc -l)"
[ "$mu_artifacts" -eq 2 ] \
    || { echo "mutation smoke: $mu_artifacts artifacts after two compactions, expected 2"; ls "$mu_cache"; exit 1; }
kill "$mu_pid"
wait "$mu_pid" 2>/dev/null || true
echo "mutation smoke: delta served, compactions preserved answers, drained the overlay and left one compacted artifact"

echo "== benchmark quick =="
# The harness under benchmark/ is a workspace of its own that compiles
# against the public API of the crates and may not be edited by a change
# that claims a gain: build it with the exact command BENCHMARK.json
# names and run the two workloads that live on the wire path at smoke
# size (every answer is still checked; a failed or wrong one exits
# non-zero), then its unit tests. A PR that breaks an item the harness
# uses, or a codec change that fails its checks, fails here.
mapfile -t bench_cmd < <(sed -n '/"command": \[/,/\]/p' BENCHMARK.json \
    | grep -o '"[^"]*"' | tr -d '"' | tail -n +2)
[ "${bench_cmd[0]}" = "cargo" ] \
    || { echo "benchmark quick: could not read the command from BENCHMARK.json"; exit 1; }
# Building the harness makes cargo prune unused shim entries from its
# frozen lock file; the file is put back afterwards, on failure too, and
# the step must leave nothing changed under benchmark/.
bench_lock="$cache_dir/benchmark.Cargo.lock"
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -rf "$cache_dir"' EXIT
bench_out="$cache_dir/bench"
for workload in serve_hot mutate_dirty; do
    "${bench_cmd[@]}" --workload "$workload" --quick --data-dir "$bench_out" | tail -n 1
done
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cp "$bench_lock" benchmark/Cargo.lock
trap 'rm -rf "$cache_dir"' EXIT
bench_changes="$(git status --porcelain -- benchmark/)"
[ -z "$bench_changes" ] \
    || { echo "benchmark quick: the step changed files under benchmark/"; echo "$bench_changes"; exit 1; }

echo "== docs (deny warnings) =="
# A doc link to a deleted or private name fails here, in the root crate
# and every crate under crates/. The shims stay out: the proptest shim's
# `vec` names both a function and a macro.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion --exclude tigr-cli
# tigr-cli's binary is named `tigr` like the root library, and one cargo
# invocation cannot write both doc trees, so it is documented on its own.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p tigr-cli

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt check =="
cargo fmt --check

echo "verify: all gates passed"
