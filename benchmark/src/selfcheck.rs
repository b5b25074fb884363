//! `selfcheck`: does identical code repeat within the benchmark's own
//! bounds on this host?
//!
//! Runs every workload four times on the same build and seed, in
//! A, B, B, A order, as child processes (so `peak_rss_mb` is each
//! run's own). For every (workload, end-to-end metric) pair it prints
//! how much worse set B's mean is than set A's, beside the bound, and
//! fails if any pair exceeds its bound — the test a noisy benchmark
//! fails, runnable before submitting. `paper_sim`'s two simulated
//! latencies are a function of the seed alone, so all four runs must
//! report them bit for bit equal.

use std::process::Command;

use tigr_server::json::{parse, Json};

use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;
use crate::{Args, DEFAULT_SECONDS};

/// Metrics that must repeat exactly: simulated time on the modelled GPU.
const EXACT: [(&str, &str); 2] = [("paper_sim", "query_p50_ms"), ("paper_sim", "alt_p50_ms")];

/// One child run's end-to-end metrics, in table order.
fn child_run(args: &Args, workload: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &DEFAULT_SECONDS.to_string()]);
    if let Some(dir) = &args.data_dir {
        command.arg("--data-dir").arg(dir);
    }
    let output = command
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let doc = parse(last).map_err(|e| format!("child result: {}", e.message))?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} reported incorrect answers"));
    }
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|metric| metric.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload} did not report {}", m.name))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Runs the self-check; `Ok(false)` when a pair exceeded its bound.
pub fn run(args: &Args) -> Result<bool, String> {
    if args.quick || args.seconds != DEFAULT_SECONDS {
        return Err(
            "selfcheck refuses --quick and --seconds: only full-size runs of run_seconds compare"
                .into(),
        );
    }
    let mut within = true;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    for workload in NAMES {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for set in [0, 1, 1, 0] {
            eprintln!("selfcheck: {workload} run for set {}", ["A", "B"][set]);
            sets[set].push(child_run(args, workload)?);
        }
        for (i, m) in END_TO_END.iter().enumerate() {
            let mean = |set: &[Vec<f64>]| set.iter().map(|run| run[i]).sum::<f64>() / 2.0;
            let (a, b) = (mean(&sets[0]), mean(&sets[1]));
            // Either set may be "the change": the bound holds both ways.
            let worse = worsening(m.better, a, b).max(worsening(m.better, b, a));
            let exact = EXACT.contains(&(workload, m.name));
            let repeats = sets.iter().flatten().all(|run| run[i] == sets[0][0][i]);
            let ok = worse <= m.bound && (repeats || !exact);
            within &= ok;
            println!(
                "{workload:<14} {:<14} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.0}%{}",
                m.name,
                100.0 * worse,
                100.0 * m.bound,
                match (ok, exact) {
                    (true, true) => "  exact",
                    (true, false) => "",
                    (false, true) if !repeats => "  NOT EXACT",
                    (false, _) => "  EXCEEDED",
                }
            );
        }
    }
    println!(
        "selfcheck: {}",
        if within {
            "every pair within its bound"
        } else {
            "FAILED — identical code disagreed by more than a bound, or a simulated time moved"
        }
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }
}
