//! `paper_sim`: the paper's meter — simulated time of Tigr-V+ against
//! the untransformed baseline on the modelled GPU — and how fast the
//! host produces it.
//!
//! No server. `min(2, nproc)` host threads each run suites: the four
//! monotone analytics (`bfs`/`sssp`/`sswp`/`cc`) from one seeded source
//! on a sequential WarpSim of their own (`Engine::new`, deterministic
//! replay), once over Tigr-V+ (virtual `K = 10`, coalesced) and once
//! over the original CSR.
//! `query_p50_ms` and `alt_p50_ms` are **simulated** milliseconds of
//! the whole four-analytic suite on V+ and on the baseline (summing the
//! suite keeps the median inside one population instead of between
//! four); `alt / query` is the Fig. 13 speedup. `ops_per_s` counts
//! simulated kernel launches (BSP iterations, each a sweep over every
//! thread of the representation) per host second — runs per second
//! would depend on how many iterations a seed's sources happen to need —
//! so a simulator speed-up must move `ops_per_s` and leave both
//! latencies bit-identical.
//!
//! The simulated latencies are a function of the seed alone: each
//! thread's first [`LATENCY_SUITES`] suites, whatever the host's speed
//! or `--seconds` (the warm-up draws from a stream of its own).
//!
//! Checks: values equal across the two representations on every run;
//! the first [`RERUN_SUITES`] suites of each thread, re-run after the
//! clock stops, reproduce their cycle counts exactly; and `sssp` over
//! the physical UDT split (prepared in set-up, so `split.*` shows in
//! `setup_s`) projects back to the baseline's values.

use std::time::Instant;

use tigr_core::{DumbWeight, GraphStore, PrepareSpec, PreparedGraph, TransformKind};
use tigr_engine::{Engine, MonotoneProgram};
use tigr_graph::NodeId;
use tigr_sim::GpuConfig;

use super::{Ctx, ModeClock, Outcome, Section};
use crate::rng::Rng;
use crate::setup::{parallelism, timed_setup, DataDir, GRAPH_SEED, VIRTUAL_K};
use crate::streams::SourcePool;
use crate::trace::Tracer;

/// The rotation of one suite.
pub const SUITE: [MonotoneProgram; 4] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
];

/// Suites re-run for the determinism check (8 algorithm pairs).
const RERUN_SUITES: usize = 2;

/// Suites of each thread that enter the two simulated latencies: its
/// first twelve (of the ≈ 17 a thread completes in 15 s on the recorded
/// host). Simulated time must depend on nothing but the seed — not on
/// how fast the host is, nor on `--seconds` — so the sample is a fixed
/// prefix of the thread's seeded source stream, and a slower host runs
/// past `--seconds` until it has it.
const LATENCY_SUITES: usize = 12;

/// Lane offset of the warm-up's own random stream: the warm-up must not
/// draw from (and so shift) the stream the latency sample is a prefix of.
const WARMUP_LANE: u64 = 1 << 16;

/// The simulator graph before any view is requested.
pub fn base_spec(scale: u32) -> PrepareSpec {
    PrepareSpec::generated(format!("rmat:{scale}:16"), GRAPH_SEED)
        .with_uniform_weights(1, 64, GRAPH_SEED)
}

/// The three representations `paper_sim`'s set-up prepares.
pub struct SimGraphs {
    /// Original CSR.
    pub base: PreparedGraph,
    /// Tigr-V+: virtual split, coalesced edge layout.
    pub vplus: PreparedGraph,
    /// Physical UDT split (zero dumb weights).
    pub udt: PreparedGraph,
}

impl SimGraphs {
    /// Cold-prepares all three into `dir`.
    pub fn prepare(dir: &DataDir, scale: u32) -> Result<SimGraphs, String> {
        let store = GraphStore::new(Some(dir.path().join("cache")));
        let prepare = |spec: PrepareSpec| store.prepare(&spec).map_err(|e| format!("prepare: {e}"));
        Ok(SimGraphs {
            base: prepare(base_spec(scale))?,
            vplus: prepare(base_spec(scale).with_virtual(VIRTUAL_K, true))?,
            udt: prepare(base_spec(scale).with_transform(
                TransformKind::Udt,
                None,
                DumbWeight::Zero,
            ))?,
        })
    }
}

/// One simulated run: the values, the modelled cycle count, and the
/// kernel launches (BSP iterations) simulated.
pub fn simulate(
    engine: &Engine,
    graph: &PreparedGraph,
    prog: MonotoneProgram,
    source: u32,
) -> Result<(Vec<u32>, u64, u64), String> {
    let source = prog.needs_source().then(|| NodeId::new(source));
    let out = engine
        .run_prepared(graph, prog, source)
        .map_err(|e| format!("{}: {e}", prog.name))?;
    let cycles = out.report.total_cycles();
    Ok((out.values, cycles, out.report.num_iterations() as u64))
}

/// Cycle counts of one suite: `[V+; 4]` and `[baseline; 4]`.
type SuiteCycles = ([u64; 4], [u64; 4]);

/// Runs one suite from `source`, checking value equality per analytic.
fn run_suite(
    engine: &Engine,
    graphs: &SimGraphs,
    source: u32,
    out: &mut Outcome,
) -> Result<SuiteCycles, String> {
    let mut cycles = ([0; 4], [0; 4]);
    for (i, prog) in SUITE.into_iter().enumerate() {
        out.attempted += 1;
        let (v_values, v_cycles, v_launches) = simulate(engine, &graphs.vplus, prog, source)?;
        let (b_values, b_cycles, b_launches) = simulate(engine, &graphs.base, prog, source)?;
        if v_values == b_values {
            out.ops += v_launches + b_launches;
        } else {
            out.fail(|| {
                format!(
                    "{} from {source}: Tigr-V+ values != baseline values",
                    prog.name
                )
            });
        }
        cycles.0[i] = v_cycles;
        cycles.1[i] = b_cycles;
    }
    Ok(cycles)
}

/// What one host thread brings back.
struct ThreadRun {
    outcome: Outcome,
    suites: Vec<(u32, SuiteCycles)>,
    clock: ModeClock,
    tracer: Tracer,
}

/// One host thread: its own sequential simulator, its own seeded
/// sources, whole suites until the clock runs out.
fn host_thread(
    ctx: &Ctx<'_>,
    graphs: &SimGraphs,
    pool: &SourcePool,
    lane: u64,
    epoch: Instant,
) -> Result<ThreadRun, String> {
    let config = GpuConfig::default();
    let engine = Engine::new(config);
    let mut rng = Rng::new(ctx.seed, lane);
    let mut run = ThreadRun {
        outcome: Outcome::default(),
        suites: Vec::new(),
        clock: ModeClock::default(),
        tracer: Tracer::new(epoch),
    };
    // Warm-up: one whole untimed suite from a source of its own.
    let mut scratch = Outcome::default();
    let warmup_source = pool.pick(&mut Rng::new(ctx.seed, WARMUP_LANE + lane));
    run_suite(&engine, graphs, warmup_source, &mut scratch)?;

    let section = Section::start(ctx.sizes.seconds, ctx.trace);
    while section.running() || run.suites.len() < LATENCY_SUITES {
        let source = pool.pick(&mut rng);
        let tracing = section.tracing();
        let started = Instant::now();
        let cycles = run_suite(&engine, graphs, source, &mut run.outcome)?;
        let ended = Instant::now();
        if tracing {
            let id = (lane << 32) | run.suites.len() as u64;
            run.tracer.record("suite", id, started, ended);
        }
        run.clock.add(tracing, started);
        if run.suites.len() < LATENCY_SUITES {
            let ms = |c: [u64; 4]| config.cycles_to_ms(c.iter().sum());
            run.outcome.query_ms.push(ms(cycles.0));
            run.outcome.alt_ms.push(ms(cycles.1));
        }
        run.suites.push((source, cycles));
    }
    run.outcome.wall_s = section.elapsed_s();
    run.outcome.ops_per_s = run.outcome.ops as f64 / run.outcome.wall_s;

    // Determinism: the sequential simulator must reproduce its counts.
    // The physical UDT split must agree too, once projected back.
    for &(source, cycles) in &run.suites[..RERUN_SUITES] {
        run.outcome.attempted += 2;
        if run_suite(&engine, graphs, source, &mut scratch)? != cycles {
            run.outcome
                .fail(|| format!("suite from {source}: cycle counts changed on re-run"));
        }
        let (split, ..) = simulate(&engine, &graphs.udt, MonotoneProgram::SSSP, source)?;
        let (base, ..) = simulate(&engine, &graphs.base, MonotoneProgram::SSSP, source)?;
        let projected = graphs.udt.transformed().map(|t| t.project_values(&split));
        if projected != Some(base) {
            run.outcome
                .fail(|| format!("sssp from {source}: UDT values != baseline values"));
        }
    }
    run.outcome.failed += scratch.failed;
    Ok(run)
}

/// Runs the workload.
pub fn run(ctx: &Ctx<'_>, tracer: &mut Tracer, epoch: Instant) -> Result<Outcome, String> {
    let (graphs, setup_s, setup_times) = timed_setup(ctx.dir, ctx.sizes.setup_reps, |d| {
        SimGraphs::prepare(d, ctx.sizes.sim_scale)
    })?;
    let mut outcome = Outcome {
        setup_s,
        setup_times,
        clients: parallelism(),
        ..Outcome::default()
    };
    let pool = SourcePool::of(graphs.base.graph());
    let (graphs, pool) = (&graphs, &pool);
    let runs: Vec<Result<ThreadRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..parallelism() as u64)
            .map(|lane| scope.spawn(move || host_thread(ctx, graphs, pool, lane, epoch)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("host thread panicked".into()))
            })
            .collect()
    });
    outcome.peak_rss_mb = crate::host::peak_rss_mb();
    let mut clock = ModeClock::default();
    let mut suites = 0;
    for run in runs {
        let run = run?;
        outcome.merge(run.outcome);
        clock.merge(run.clock);
        suites += run.suites.len();
        tracer.absorb(run.tracer);
    }

    let speedup = crate::stats::median(&outcome.alt_ms) / crate::stats::median(&outcome.query_ms);
    outcome.notes.insert("suites", suites.to_string());
    outcome
        .notes
        .insert("speedup_vplus_over_base", format!("{speedup:.4}"));
    outcome.notes.insert(
        "latency_clock",
        "simulated ms on the modelled GPU (GpuConfig::default, 1.2 GHz), not host time".into(),
    );
    if ctx.trace {
        outcome.trace_overhead_ratio = clock.overhead_ratio();
    }
    Ok(outcome)
}
