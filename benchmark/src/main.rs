//! `tigr-benchmark`: one repeatable benchmark for the Tigr reproduction.
//!
//! ```text
//! tigr-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--data-dir DIR]
//! tigr-benchmark selfcheck [--seed N] [--data-dir DIR]
//! ```
//!
//! A run sets the system up from an empty data directory, drives one
//! workload for `--seconds`, checks every answer, and prints every
//! metric by name with its unit; the last line of standard output is the
//! one-object summary the benchmark contract specifies. The harness
//! measures from outside only: sockets, `Client`, and the public
//! functions of each crate.

mod host;
mod metrics;
mod oracle;
mod probes;
mod report;
mod rng;
mod selfcheck;
mod setup;
mod stats;
mod streams;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Metric;
use setup::{DataDir, Sizes};
use workloads::{Ctx, Outcome};

/// Timed seconds of a run when `--seconds` is absent (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage:
  tigr-benchmark --workload <serve_cold|serve_hot|mutate_dirty|paper_sim>
                 [--seed N] [--seconds S] [--trace 0|1] [--quick] [--data-dir DIR]
  tigr-benchmark selfcheck [--seed N] [--data-dir DIR]";

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The `selfcheck` subcommand (otherwise a workload run).
    pub selfcheck: bool,
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed` (default 1).
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--data-dir`.
    pub data_dir: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        selfcheck: false,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        data_dir: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_owned())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--quick" => args.quick = true,
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where run output (scratch data, spans, result files) goes when
/// `--data-dir` is absent: `benchmark/out` from the repository root,
/// `out` from inside `benchmark/`. Relative on purpose — it keeps the
/// Unix socket path short and every write inside the checkout.
fn default_out_root() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

fn run_workload(
    name: &str,
    ctx: &Ctx<'_>,
    tracer: &mut trace::Tracer,
    epoch: Instant,
) -> Result<Outcome, String> {
    match name {
        "serve_cold" => workloads::serve_cold::run(ctx, tracer, epoch),
        "serve_hot" => workloads::serve_hot::run(ctx, tracer, epoch),
        "mutate_dirty" => workloads::mutate_dirty::run(ctx, tracer, epoch),
        "paper_sim" => workloads::paper_sim::run(ctx, tracer, epoch),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            workloads::NAMES.join(", ")
        )),
    }
}

/// The five end-to-end metrics of an untraced run.
fn end_to_end(outcome: &Outcome) -> Result<Vec<Metric>, String> {
    if outcome.query_ms.is_empty() || outcome.alt_ms.is_empty() || outcome.wall_s <= 0.0 {
        return Err("the timed section completed no operation of one kind".into());
    }
    let values = [
        outcome.setup_s,
        outcome.peak_rss_mb,
        outcome.ops_per_s,
        stats::median(&outcome.query_ms),
        stats::median(&outcome.alt_ms),
    ];
    Ok(metrics::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect())
}

/// Every per-layer metric of a traced run: the workload's own counters,
/// then the layer probes.
fn per_layer(
    ctx: &Ctx<'_>,
    outcome: &Outcome,
    tracer: &mut trace::Tracer,
) -> Result<Vec<Metric>, String> {
    // A served workload's own counters describe its traffic; the
    // probes' stand in on the server-less workload.
    let served = !outcome.layer.is_empty();
    let mut values = probes::run_all(ctx, served, tracer)?;
    values.extend(outcome.layer.iter().map(|(k, v)| (*k, *v)));
    if let Some(ratio) = outcome.trace_overhead_ratio {
        values.insert("trace.overhead_ratio", ratio);
    }
    if served {
        values.insert(
            "server.query_tail_ms",
            stats::summarize(&outcome.query_ms).tail,
        );
    }
    metrics::PER_LAYER
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            Ok(Metric {
                name: m.name,
                unit: m.unit,
                value,
            })
        })
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let sizes = if args.quick {
        Sizes::quick()
    } else {
        Sizes::full(args.seconds)
    };
    let out_root = args.data_dir.clone().unwrap_or_else(default_out_root);
    std::fs::create_dir_all(&out_root).map_err(|e| format!("{}: {e}", out_root.display()))?;
    let dir = DataDir::create(&out_root).map_err(|e| format!("data dir: {e}"))?;
    let host = host::Host::probe(dir.path());
    let ctx = Ctx {
        seed: args.seed,
        sizes,
        trace: args.trace,
        dir: &dir,
    };

    let epoch = Instant::now();
    let mut tracer = trace::Tracer::new(epoch);
    let outcome = run_workload(name, &ctx, &mut tracer, epoch)?;
    let metrics = if args.trace {
        per_layer(&ctx, &outcome, &mut tracer)?
    } else {
        end_to_end(&outcome)?
    };
    let correct = outcome.failed == 0;

    // Only full-size runs of the length `BENCHMARK.json` names compare.
    let comparable = !sizes.quick && args.seconds == DEFAULT_SECONDS;
    println!(
        "# {name}  seed {}  {:.1} s timed  trace {}{}",
        args.seed,
        outcome.wall_s,
        args.trace as u8,
        if comparable {
            ""
        } else {
            "  NOT COMPARABLE (--quick or a --seconds other than run_seconds)"
        }
    );
    for m in &metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let query = stats::summarize(&outcome.query_ms);
    let alt = stats::summarize(&outcome.alt_ms);
    for (label, s) in [("query", &query), ("alt", &alt)] {
        println!(
            "{label:<36} n={} p50={:.4} ms  p{}={:.4} ms",
            s.count,
            s.p50,
            s.tail_pct.unwrap_or(50.0),
            s.tail
        );
    }
    println!(
        "attempted {}  failed {}  correct {correct}",
        outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }

    let detail = report::jobj(&[
        ("workload", report::jstr(name)),
        ("quick", sizes.quick.to_string()),
        ("comparable", comparable.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", report::jnum(sizes.seconds)),
        ("timed_wall_s", report::jnum(outcome.wall_s)),
        (
            "host",
            report::host_json(&host, args.seed, outcome.clients, setup::parallelism()),
        ),
        ("data_dir", report::jstr(&dir.path().display().to_string())),
        (
            "setup_times_s",
            report::jarr(outcome.setup_times.iter().map(|t| report::jnum(*t))),
        ),
        ("query", report::summary_json(&query)),
        ("alt", report::summary_json(&alt)),
        ("timed_ops", outcome.ops.to_string()),
        ("attempted", outcome.attempted.to_string()),
        ("failed", outcome.failed.to_string()),
        (
            "failures",
            report::jarr(outcome.failures.iter().map(|f| report::jstr(f))),
        ),
        ("notes", report::notes_json(&outcome.notes)),
        (
            "span_self_time_us",
            report::self_times_json(&trace::self_time_by_name(tracer.spans())),
        ),
        ("metrics", report::metrics_json(&metrics)),
    ]);
    let kind = if args.trace { "trace" } else { "result" };
    let path = out_root.join(format!("{name}.{kind}.json"));
    std::fs::write(&path, format!("{detail}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{detail}");
    if args.trace {
        let path = out_root.join(format!("{name}.trace.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        report::contract_line(correct, outcome.attempted.max(1), outcome.failed, &metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tigr-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.selfcheck {
        selfcheck::run(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tigr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
