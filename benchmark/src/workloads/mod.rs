//! The four workloads. Each is a closed loop (a client sends its next
//! request only after the previous reply) that runs for the requested
//! number of seconds, checks its answers, and returns raw samples.

pub mod mutate_dirty;
pub mod paper_sim;
pub mod serve_cold;
pub mod serve_hot;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tigr_server::{Client, QueryRequest, QueryResult, StatsSnapshot};

use crate::setup::{DataDir, Deployment, Sizes};
use crate::trace::Tracer;

/// Share of the timed section that runs first, untimed, so caches fill
/// and lazy set-up finishes before the clock starts.
pub const WARMUP_SHARE: f64 = 0.05;

/// Workload names, in the order `selfcheck` and the README use.
pub const NAMES: [&str; 4] = ["serve_cold", "serve_hot", "mutate_dirty", "paper_sim"];

/// What a workload run needs from the command line.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Seed of every generated input.
    pub seed: u64,
    /// Full or `--quick` sizes.
    pub sizes: Sizes,
    /// Record spans (and alternate traced/untraced quarters).
    pub trace: bool,
    /// Scratch directory for artifacts, WALs, and the Unix socket.
    pub dir: &'a DataDir,
}

/// Raw result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up time, seconds, and each repetition.
    pub setup_s: f64,
    /// The repetitions behind `setup_s`.
    pub setup_times: Vec<f64>,
    /// Load generators (client connections or host threads) used.
    pub clients: usize,
    /// Operations sent (timed and checked).
    pub attempted: u64,
    /// Operations refused, errored, or answered wrongly.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Timed operations completed.
    pub ops: u64,
    /// Wall time of the timed section, seconds.
    pub wall_s: f64,
    /// Timed operations per second of wall time: `ops / wall_s` for
    /// one client; with several, the sum of each client's own rate (a
    /// client stops at the end of its cycle, not at a common instant).
    pub ops_per_s: f64,
    /// `VmHWM` when the timed section ended, MiB — before the harness's
    /// own end-of-run checks (an oracle graph, a 2 M-entry edge list)
    /// can raise it.
    pub peak_rss_mb: f64,
    /// Latencies of the workload's query operation, ms.
    pub query_ms: Vec<f64>,
    /// Latencies of the workload's second operation, ms.
    pub alt_ms: Vec<f64>,
    /// Traced ÷ untraced throughput (traced runs only).
    pub trace_overhead_ratio: Option<f64>,
    /// Workload-side per-layer values (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form facts for the detail block (`name → text`).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records a failed operation, keeping the first few descriptions.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what());
        }
    }

    /// Folds a worker thread's outcome into this one.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.ops += other.ops;
        self.ops_per_s += other.ops_per_s;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.query_ms.extend(other.query_ms);
        self.alt_ms.extend(other.alt_ms);
    }
}

/// The clock of one timed section. In a traced run the section is cut
/// into four quarters — untraced, traced, traced, untraced — so both
/// modes see the same drift and their throughput ratio is the tracing
/// overhead.
#[derive(Clone, Copy, Debug)]
pub struct Section {
    start: Instant,
    length: Duration,
    trace: bool,
}

impl Section {
    /// A section of `seconds` starting now.
    pub fn start(seconds: f64, trace: bool) -> Section {
        Section {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
            trace,
        }
    }

    /// Whether another operation may start.
    pub fn running(&self) -> bool {
        self.start.elapsed() < self.length
    }

    /// Whether an operation starting now records spans.
    pub fn tracing(&self) -> bool {
        if !self.trace {
            return false;
        }
        let quarter = (4.0 * self.start.elapsed().as_secs_f64() / self.length.as_secs_f64()) as u32;
        quarter == 1 || quarter == 2
    }

    /// Seconds since the section started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Loop time and completions of one client's *query* operations in each
/// tracing mode. An operation's loop time runs from the top of its loop
/// iteration (before the request is built) until its span has been
/// recorded, so whatever tracing costs lies inside the traced interval.
/// Only the query operation is clocked: the rarer, longer operations
/// (a `pr`, a compaction) fall into the quarters unevenly and would make
/// the ratio a statement about the mix, not about tracing.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeClock {
    ops: [u64; 2],
    loop_s: [f64; 2],
}

impl ModeClock {
    /// Accounts one operation whose loop iteration began at `top` and
    /// ends now.
    pub fn add(&mut self, traced: bool, top: Instant) {
        self.ops[traced as usize] += 1;
        self.loop_s[traced as usize] += top.elapsed().as_secs_f64();
    }

    /// Sums another client's clock into this one.
    pub fn merge(&mut self, other: ModeClock) {
        for m in 0..2 {
            self.ops[m] += other.ops[m];
            self.loop_s[m] += other.loop_s[m];
        }
    }

    /// Traced ÷ untraced operations per second of loop time.
    pub fn overhead_ratio(&self) -> Option<f64> {
        let rate = |m: usize| (self.loop_s[m] > 0.0).then(|| self.ops[m] as f64 / self.loop_s[m]);
        Some(rate(1)? / rate(0)?)
    }
}

/// Sends `request`, times the round trip, and records a span when
/// `tracer` is given. A transport error or typed rejection is `Err`.
pub fn timed_query(
    client: &mut Client,
    request: QueryRequest,
    span: Option<(&mut Tracer, &'static str, u64)>,
) -> (f64, Result<QueryResult, String>) {
    let started = Instant::now();
    let reply = client.query(request).map_err(|e| e.to_string());
    let ended = Instant::now();
    if let Some((tracer, name, id)) = span {
        tracer.record(name, id, started, ended);
    }
    (ended.duration_since(started).as_secs_f64() * 1e3, reply)
}

/// The daemon's counters now (in-process, so the read costs no wire).
pub fn server_stats(dep: &Deployment) -> Result<StatsSnapshot, String> {
    dep.connect_local()
        .stats()
        .map_err(|e| format!("stats: {e}"))
}

/// Server-side per-layer counts of one timed section, as deltas of two
/// `StatsSnapshot`s taken at its boundaries.
pub fn server_counters(
    before: &StatsSnapshot,
    after: &StatsSnapshot,
) -> BTreeMap<&'static str, f64> {
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + (after.cache_misses - before.cache_misses);
    let batches = (after.batches - before.batches).max(1) as f64;
    BTreeMap::from([
        ("cache.hit_ratio", hits as f64 / lookups.max(1) as f64),
        (
            "server.batch_occupancy",
            (after.batched_queries - before.batched_queries) as f64 / batches,
        ),
        (
            "server.formation_wait_us",
            (after.formation_wait_us - before.formation_wait_us) as f64 / batches,
        ),
        ("server.rejected", (after.rejected - before.rejected) as f64),
    ])
}
