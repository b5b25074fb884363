//! `mutate_dirty`: writes beside reads on one mutable graph.
//!
//! One client on a Unix socket repeats rounds of [`GROUPS_PER_ROUND`] ×
//! ([`MUTATES_PER_GROUP`] durable `mutate` batches of 512 ops back to
//! back, then [`QUERIES_PER_GROUP`] `sssp`/`bfs` queries with
//! `cache:false` on the dirty snapshot), then `compact`, then the last
//! group's sources re-queried on the clean graph. WAL + delta overlay on one side, the
//! solo `dyn GraphView` dirty path on the other; compaction is about a
//! third of the timed wall, so it moves `ops_per_s`.
//!
//! Checks: every batch applies all 512 ops; every compaction leaves an
//! empty delta; each clean re-query's checksum equals its dirty answer;
//! and at the end the compacted graph answers like
//! `GraphStore::materialize` of the final edge list.

use std::time::Instant;

use tigr_core::GraphStore;
use tigr_graph::CsrBuilder;
use tigr_server::{Algo, Client, QueryRequest};

use super::{server_counters, server_stats, timed_query, Ctx, ModeClock, Outcome, Section};
use crate::oracle;
use crate::rng::Rng;
use crate::setup::{serving_spec, timed_setup, Deployment, GRAPH, GRAPH_SEED};
use crate::streams::{uncached, MutationStream, SourcePool, BATCH_OPS};
use crate::trace::Tracer;

/// Groups of writes-then-reads between two compactions.
pub const GROUPS_PER_ROUND: usize = 6;
/// Mutate batches sent back to back in a group. The first one runs on
/// caches the preceding 50 MB graph sweeps left cold, and how much that
/// costs moves with the host (4 ms against 6 ms between two sets of
/// identical runs); with four in a row the median is a warm batch.
pub const MUTATES_PER_GROUP: usize = 4;
/// Dirty queries after each group's batches.
pub const QUERIES_PER_GROUP: usize = 4;

/// Loop state of the single client.
struct Round<'a> {
    client: Client,
    dep: &'a Deployment,
    pool: SourcePool,
    rng: Rng,
    stream: MutationStream,
    clock: ModeClock,
    next_id: u64,
    compact_ms: Vec<f64>,
    delta_at_compact: Vec<f64>,
}

impl Round<'_> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// One durable 512-op batch.
    fn mutate(&mut self, section: &Section, out: &mut Outcome, tracer: &mut Tracer) {
        let ops = self.stream.next_batch(self.dep.prepared.graph());
        let tracing = section.tracing();
        let id = self.id();
        out.attempted += 1;
        let started = Instant::now();
        let reply = self.client.mutate(GRAPH, ops);
        let ended = Instant::now();
        if tracing {
            tracer.record("alt:mutate", id, started, ended);
        }
        match reply {
            Ok(r) if r.applied == BATCH_OPS as u64 && r.skipped == 0 => {
                out.alt_ms
                    .push(ended.duration_since(started).as_secs_f64() * 1e3);
                out.ops += 1;
            }
            Ok(r) => out.fail(|| format!("mutate applied {} skipped {}", r.applied, r.skipped)),
            Err(e) => out.fail(|| format!("mutate: {e}")),
        }
    }

    /// One round; `section` decides per operation whether spans are on.
    fn run(&mut self, section: &Section, out: &mut Outcome, tracer: &mut Tracer) {
        let mut last: Vec<(QueryRequest, u64)> = Vec::new();
        for _ in 0..GROUPS_PER_ROUND {
            for _ in 0..MUTATES_PER_GROUP {
                self.mutate(section, out, tracer);
            }

            last.clear();
            for q in 0..QUERIES_PER_GROUP {
                let tracing = section.tracing();
                let top = Instant::now();
                let algo = [Algo::Sssp, Algo::Bfs][q % 2];
                let request = uncached(algo, self.pool.pick(&mut self.rng));
                let id = self.id();
                out.attempted += 1;
                let span = tracing.then_some((&mut *tracer, "query:dirty", id));
                let (ms, reply) = timed_query(&mut self.client, request.clone(), span);
                self.clock.add(tracing, top);
                match reply {
                    Ok(r) => {
                        out.query_ms.push(ms);
                        out.ops += 1;
                        last.push((request, r.checksum));
                    }
                    Err(e) => out.fail(|| format!("dirty {}: {e}", algo.label())),
                }
            }
        }

        let tracing = section.tracing();
        let id = self.id();
        out.attempted += 1;
        let started = Instant::now();
        let reply = self.client.compact(GRAPH);
        let ended = Instant::now();
        let ms = ended.duration_since(started).as_secs_f64() * 1e3;
        if tracing {
            tracer.record("compact", id, started, ended);
        }
        match reply {
            Ok(r) if r.delta_edges_before > 0 && r.delta_edges_after == 0 => {
                self.stream.compacted();
                out.ops += 1;
                self.compact_ms.push(ms);
                self.delta_at_compact.push(r.delta_edges_before as f64);
            }
            Ok(r) => out.fail(|| {
                format!(
                    "compact left delta {} -> {}",
                    r.delta_edges_before, r.delta_edges_after
                )
            }),
            Err(e) => out.fail(|| format!("compact: {e}")),
        }

        // The same sources on the clean graph: compaction must not
        // change a single answer.
        for (request, dirty_checksum) in last {
            let tracing = section.tracing();
            let id = self.id();
            out.attempted += 1;
            let span = tracing.then_some((&mut *tracer, "clean", id));
            let (_, reply) = timed_query(&mut self.client, request.clone(), span);
            match reply {
                Ok(r) if r.checksum == dirty_checksum => out.ops += 1,
                Ok(r) => out.fail(|| {
                    format!(
                        "{} from {:?}: clean {:016x} != dirty {dirty_checksum:016x}",
                        request.algo.label(),
                        request.source,
                        r.checksum
                    )
                }),
                Err(e) => out.fail(|| format!("clean {}: {e}", request.algo.label())),
            }
        }
    }
}

/// The compacted serving graph must answer exactly like a from-scratch
/// `GraphStore::materialize` of the edge list the stream expects.
fn check_final_graph(
    dep: &Deployment,
    stream: &MutationStream,
    pool: &SourcePool,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(), String> {
    let mutable = dep
        .core
        .mutable_graph(GRAPH)
        .ok_or("graph is not registered as mutable")?;
    let snapshot = mutable.snapshot();
    out.attempted += 1;
    if !snapshot.is_clean() {
        out.fail(|| "snapshot still dirty after the final compaction".into());
        return Ok(());
    }
    let original = dep.prepared.graph();
    let edges = stream.expected_edges(original);
    let mut builder = CsrBuilder::from_edges(original.num_nodes(), edges);
    builder.force_weighted(original.is_weighted());
    let csr = builder.build();
    let reference = GraphStore::disabled()
        .materialize(csr, mutable.plan())
        .map_err(|e| format!("materialize: {e}"))?;
    if snapshot.num_edges() != reference.graph().num_edges() {
        out.fail(|| {
            format!(
                "compacted graph has {} edges, the final edge list {}",
                snapshot.num_edges(),
                reference.graph().num_edges()
            )
        });
    }
    let source = pool.pick(rng);
    for (algo, source) in [
        (Algo::Sssp, Some(source)),
        (Algo::Sswp, Some(source)),
        (Algo::Cc, None),
    ] {
        out.attempted += 1;
        let served = oracle::expected(snapshot.base(), algo, source)?;
        let scratch = oracle::expected(&reference, algo, source)?;
        if served != scratch {
            out.fail(|| {
                format!(
                    "{}: compacted graph != materialized edge list",
                    algo.label()
                )
            });
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, _epoch: Instant) -> Result<Outcome, String> {
    let spec = serving_spec(ctx.sizes.serve_scale, GRAPH_SEED);
    let (dep, setup_s, setup_times) = timed_setup(ctx.dir, ctx.sizes.setup_reps, |d| {
        Deployment::start(d, &spec, true)
    })?;
    let mut outcome = Outcome {
        setup_s,
        setup_times,
        clients: 1,
        ..Outcome::default()
    };
    let mut round = Round {
        client: dep.connect_unix()?,
        dep: &dep,
        pool: SourcePool::of(dep.prepared.graph()),
        rng: Rng::new(ctx.seed, 0),
        stream: MutationStream::new(Rng::new(ctx.seed, 1)),
        clock: ModeClock::default(),
        next_id: 0,
        compact_ms: Vec::new(),
        delta_at_compact: Vec::new(),
    };

    // Warm-up: one whole untimed round, so the WAL, the dirty path, and
    // the compaction path have all run once before the clock starts.
    let mut warmup = Outcome::default();
    round.run(&Section::start(0.0, false), &mut warmup, tracer);
    outcome.attempted += warmup.attempted;
    outcome.failed += warmup.failed;
    outcome.failures.extend(warmup.failures);
    round.clock = ModeClock::default();
    round.compact_ms.clear();
    round.delta_at_compact.clear();

    let before = server_stats(&dep)?;
    let section = Section::start(ctx.sizes.seconds, ctx.trace);
    let started = Instant::now();
    let mut rounds = 0u32;
    while section.running() {
        round.run(&section, &mut outcome, tracer);
        rounds += 1;
    }
    outcome.wall_s = started.elapsed().as_secs_f64();
    outcome.ops_per_s = outcome.ops as f64 / outcome.wall_s;
    let after = server_stats(&dep)?;
    outcome.peak_rss_mb = crate::host::peak_rss_mb();

    check_final_graph(
        &dep,
        &round.stream,
        &round.pool,
        &mut round.rng,
        &mut outcome,
    )?;

    outcome.notes.insert("rounds", rounds.to_string());
    outcome.notes.insert(
        "compaction_share_of_wall",
        format!(
            "{:.3}",
            round.compact_ms.iter().sum::<f64>() / 1e3 / outcome.wall_s
        ),
    );
    if !round.compact_ms.is_empty() {
        outcome.notes.insert(
            "compact_p50_ms",
            format!("{:.1}", crate::stats::median(&round.compact_ms)),
        );
    }
    if ctx.trace {
        outcome.trace_overhead_ratio = round.clock.overhead_ratio();
        outcome.layer = server_counters(&before, &after);
    }
    drop(round);
    Ok(outcome)
}
