//! `serve_cold`: the engine-bound miss path behind a full, evicting
//! result cache.
//!
//! `min(2, nproc)` clients on Unix sockets each send `bfs`/`sssp`/`sswp`
//! in rotation from uniform random sources (131 072 possible keys
//! against 256 cache entries, so nearly every query runs the engine),
//! and one `pr` with `cache:false` after every [`PR_EVERY`] queries.
//! The engine sweep does most of the work; codec and wire almost none.

use std::time::Instant;

use tigr_server::{Algo, QueryRequest};

use super::{
    server_counters, server_stats, timed_query, Ctx, ModeClock, Outcome, Section, WARMUP_SHARE,
};
use crate::oracle::{self, Expected};
use crate::rng::Rng;
use crate::setup::{parallelism, serving_spec, timed_setup, Deployment, GRAPH_SEED};
use crate::streams::{cold_request, pagerank, SourcePool};
use crate::trace::Tracer;

/// Queries between two `pr` requests of one client. A `pr` takes about
/// 90 queries' time, so a cycle lasts about 3.5 s and a run collects
/// eight to ten `pr` samples — enough for a median — while at most
/// every other query runs beside one.
pub const PR_EVERY: u64 = 100;

/// Every n-th reply of a client is re-computed by the oracle.
const VERIFY_EVERY: u64 = 64;

/// A reply kept for checking after the clock stops.
struct Sample {
    request: QueryRequest,
    checksum: u64,
    nodes: u64,
}

/// What one client thread brings back.
struct ClientRun {
    outcome: Outcome,
    samples: Vec<Sample>,
    clock: ModeClock,
    tracer: Tracer,
}

/// One closed-loop client. `lane` separates its random stream and its
/// request ids from every other client's. After `warmup` untimed
/// queries (more for later clients, which keeps the clients' `pr`
/// requests out of step) the client starts its own clock and runs whole
/// cycles of [`PR_EVERY`] queries and one `pr`, so every run measures
/// the same mix wherever the deadline falls.
fn client_loop(
    dep: &Deployment,
    pool: &SourcePool,
    pr_expected: Expected,
    ctx: &Ctx<'_>,
    lane: u64,
    warmup: u64,
    epoch: Instant,
) -> Result<ClientRun, String> {
    let mut client = dep.connect_unix()?;
    let mut rng = Rng::new(ctx.seed, lane);
    for i in 0..warmup {
        client
            .query(cold_request(i, pool, &mut rng))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let section = Section::start(ctx.sizes.seconds, ctx.trace);
    let mut run = ClientRun {
        outcome: Outcome::default(),
        samples: Vec::new(),
        clock: ModeClock::default(),
        tracer: Tracer::new(epoch),
    };
    let started = Instant::now();
    let mut i = 0;
    while section.running() {
        for step in 0..=PR_EVERY {
            i += 1;
            let id = (lane << 32) | i;
            let tracing = section.tracing();
            let out = &mut run.outcome;
            out.attempted += 1;
            if step == PR_EVERY {
                let span = tracing.then_some((&mut run.tracer, "alt:pr", id));
                let (ms, reply) = timed_query(&mut client, pagerank(), span);
                match reply {
                    Ok(r) if (r.checksum, r.nodes) == (pr_expected.checksum, pr_expected.nodes) => {
                        out.alt_ms.push(ms);
                        out.ops += 1;
                    }
                    Ok(r) => out.fail(|| format!("pr checksum {:016x} != oracle", r.checksum)),
                    Err(e) => out.fail(|| format!("pr: {e}")),
                }
                continue;
            }
            let top = Instant::now();
            let request = cold_request(i, pool, &mut rng);
            let span = tracing.then_some((&mut run.tracer, "query:cold", id));
            let (ms, reply) = timed_query(&mut client, request.clone(), span);
            run.clock.add(tracing, top);
            match reply {
                Ok(r) => {
                    out.query_ms.push(ms);
                    out.ops += 1;
                    if i % VERIFY_EVERY == 0 {
                        run.samples.push(Sample {
                            request,
                            checksum: r.checksum,
                            nodes: r.nodes,
                        });
                    }
                }
                Err(e) => out.fail(|| format!("{}: {e}", request.algo.label())),
            }
        }
    }
    run.outcome.wall_s = started.elapsed().as_secs_f64();
    run.outcome.ops_per_s = run.outcome.ops as f64 / run.outcome.wall_s;
    Ok(run)
}

/// Runs every client and joins them.
fn run_clients(
    dep: &Deployment,
    pool: &SourcePool,
    pr_expected: Expected,
    ctx: &Ctx<'_>,
    epoch: Instant,
) -> Result<Vec<ClientRun>, String> {
    let clients = parallelism() as u64;
    let warmup_queries = (ctx.sizes.seconds * WARMUP_SHARE * 50.0) as u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let warmup = warmup_queries + c * PR_EVERY / clients;
                scope.spawn(move || client_loop(dep, pool, pr_expected, ctx, c, warmup, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect()
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, epoch: Instant) -> Result<Outcome, String> {
    let spec = serving_spec(ctx.sizes.serve_scale, GRAPH_SEED);
    let (dep, setup_s, setup_times) = timed_setup(ctx.dir, ctx.sizes.setup_reps, |d| {
        Deployment::start(d, &spec, false)
    })?;
    let pool = SourcePool::of(dep.prepared.graph());
    let pr_expected = oracle::expected(&dep.prepared, Algo::Pr, None)?;

    let before = server_stats(&dep)?;
    let runs = run_clients(&dep, &pool, pr_expected, ctx, epoch)?;
    let after = server_stats(&dep)?;
    let peak_rss_mb = crate::host::peak_rss_mb();

    let mut outcome = Outcome {
        setup_s,
        setup_times,
        clients: parallelism(),
        peak_rss_mb,
        ..Outcome::default()
    };
    let mut clock = ModeClock::default();
    let mut samples = Vec::new();
    for run in runs {
        outcome.merge(run.outcome);
        clock.merge(run.clock);
        samples.extend(run.samples);
        tracer.absorb(run.tracer);
    }

    // Sampled replies against a direct sequential Engine run.
    for s in &samples {
        let want = oracle::expected(&dep.prepared, s.request.algo, s.request.source)?;
        if (s.checksum, s.nodes) != (want.checksum, want.nodes) {
            outcome.fail(|| {
                format!(
                    "{} from {:?}: checksum {:016x} != oracle {:016x}",
                    s.request.algo.label(),
                    s.request.source,
                    s.checksum,
                    want.checksum
                )
            });
        }
    }
    outcome
        .notes
        .insert("verified_replies", samples.len().to_string());

    if ctx.trace {
        outcome.trace_overhead_ratio = clock.overhead_ratio();
        outcome.layer = server_counters(&before, &after);
    }
    Ok(outcome)
}
