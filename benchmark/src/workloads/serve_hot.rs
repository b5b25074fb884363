//! `serve_hot`: everything but the engine.
//!
//! One thread holds two connections and alternates two cache hits on
//! [`HOT_KEYS`] pre-warmed `sssp` keys (they fit the 256-entry cache):
//! a tiny reply (`values:false`) over TCP, the default transport, and a
//! bulk reply (`values:true`, one value per node, about 1 MB of JSON)
//! over the Unix socket. The engine does nothing here; wire, `json`,
//! `protocol`, and `cache.get` do everything — and the two operations
//! use that layer differently, so a codec gain that costs the
//! small-reply path shows. The bulk reply stays off TCP because it is
//! bimodal there (see the README's observations).

use std::time::Instant;

use tigr_server::{checksum, Algo, QueryRequest, QueryResult};

use super::{
    server_counters, server_stats, timed_query, Ctx, ModeClock, Outcome, Section, WARMUP_SHARE,
};
use crate::oracle;
use crate::rng::Rng;
use crate::setup::{serving_spec, timed_setup, Deployment, GRAPH_SEED};
use crate::streams::{query, SourcePool};
use crate::trace::Tracer;

/// Distinct pre-warmed keys.
pub const HOT_KEYS: usize = 64;

/// Every n-th warmed key is re-computed by the oracle.
const VERIFY_EVERY: usize = 8;

/// The bulk variant of a hot request.
fn with_values(request: QueryRequest) -> QueryRequest {
    QueryRequest {
        include_values: true,
        ..request
    }
}

/// Why `reply` is not the cache hit for a key warmed to `warmed`, if it
/// is not.
fn wrong_hit(reply: &QueryResult, warmed: u64, nodes: u64, bulk: bool) -> Option<String> {
    if !reply.cached {
        return Some("expected a cache hit, the engine ran".into());
    }
    if reply.checksum != warmed || reply.nodes != nodes {
        return Some(format!(
            "checksum {:016x} != warmed {warmed:016x}",
            reply.checksum
        ));
    }
    match (&reply.values, bulk) {
        (None, false) => None,
        (Some(values), true) if values.len() as u64 == nodes && checksum(values) == warmed => None,
        (Some(_), true) => Some("bulk values do not hash to the reply's checksum".into()),
        _ => Some("values present iff requested was violated".into()),
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, _epoch: Instant) -> Result<Outcome, String> {
    let spec = serving_spec(ctx.sizes.serve_scale, GRAPH_SEED);
    let (dep, setup_s, setup_times) = timed_setup(ctx.dir, ctx.sizes.setup_reps, |d| {
        Deployment::start(d, &spec, false)
    })?;
    let mut outcome = Outcome {
        setup_s,
        setup_times,
        clients: 1,
        ..Outcome::default()
    };
    let nodes = dep.prepared.graph().num_nodes() as u64;
    let mut rng = Rng::new(ctx.seed, 0);
    let keys = SourcePool::of(dep.prepared.graph()).pick_distinct(&mut rng, HOT_KEYS);
    let mut tcp = dep.connect_tcp()?;
    let mut unix = dep.connect_unix()?;

    // Pre-warm: one engine run per key fills the cache.
    let mut warmed = Vec::with_capacity(keys.len());
    for (i, &key) in keys.iter().enumerate() {
        outcome.attempted += 1;
        let reply = unix
            .query(query(Algo::Sssp, key))
            .map_err(|e| format!("pre-warm: {e}"))?;
        if i % VERIFY_EVERY == 0 {
            let want = oracle::expected(&dep.prepared, Algo::Sssp, Some(key))?;
            if (reply.checksum, reply.nodes) != (want.checksum, want.nodes) {
                outcome.fail(|| format!("sssp from {key}: warmed answer != oracle"));
            }
        }
        warmed.push(reply.checksum);
    }

    let warmup = Section::start(ctx.sizes.seconds * WARMUP_SHARE, false);
    while warmup.running() {
        let request = query(Algo::Sssp, keys[rng.below(keys.len())]);
        tcp.query(request.clone())
            .and_then(|_| unix.query(with_values(request)))
            .map_err(|e| format!("warm-up: {e}"))?;
    }

    let mut clock = ModeClock::default();
    let before = server_stats(&dep)?;
    let section = Section::start(ctx.sizes.seconds, ctx.trace);
    let started = Instant::now();
    let mut pair = 0u64;
    while section.running() {
        pair += 1;
        let tracing = section.tracing();
        let top = Instant::now();
        let slot = rng.below(keys.len());
        let request = query(Algo::Sssp, keys[slot]);

        let span = tracing.then_some((&mut *tracer, "query:hit_small_tcp", 2 * pair));
        let (small_ms, small) = timed_query(&mut tcp, request.clone(), span);
        let span = tracing.then_some((&mut *tracer, "alt:hit_values_unix", 2 * pair + 1));
        let (bulk_ms, bulk) = timed_query(&mut unix, with_values(request), span);
        clock.add(tracing, top);
        for (reply, is_bulk, ms) in [(small, false, small_ms), (bulk, true, bulk_ms)] {
            outcome.attempted += 1;
            let wrong = match &reply {
                Ok(r) => wrong_hit(r, warmed[slot], nodes, is_bulk),
                Err(e) => Some(e.clone()),
            };
            match wrong {
                Some(why) => outcome.fail(|| format!("hit on {}: {why}", keys[slot])),
                None => {
                    outcome.ops += 1;
                    if is_bulk {
                        outcome.alt_ms.push(ms);
                    } else {
                        outcome.query_ms.push(ms);
                    }
                }
            }
        }
    }
    outcome.wall_s = started.elapsed().as_secs_f64();
    outcome.ops_per_s = outcome.ops as f64 / outcome.wall_s;
    let after = server_stats(&dep)?;
    outcome.peak_rss_mb = crate::host::peak_rss_mb();
    if ctx.trace {
        outcome.trace_overhead_ratio = clock.overhead_ratio();
        outcome.layer = server_counters(&before, &after);
    }
    drop((tcp, unix));
    Ok(outcome)
}
