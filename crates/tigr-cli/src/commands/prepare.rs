//! `tigr prepare --graph <file>` — warm the prepared-graph artifact
//! cache.
//!
//! Resolves the same [`tigr_core::PrepareSpec`] a later `tigr run` will
//! build (load → optional physical/virtual transform → optional
//! transpose) and writes the `TIGRCSR2` artifact, so the run itself
//! starts with a cache hit and zero derivation work. With no cache
//! directory configured this degenerates to a dry build that reports
//! what a run would derive.

use tigr_core::{CancelToken, DumbWeight, PrepareSpec, TransformKind};
use tigr_engine::Direction;
use tigr_graph::GraphError;

use crate::args::Args;
use crate::commands::{format_prepare_report, store_from_args, timeout_message, CmdResult};

/// Runs the `prepare` command.
pub fn run(args: &Args) -> CmdResult {
    args.reject_unknown(FLAGS)
        .map_err(|e| format!("{e}\n{USAGE}"))?;
    let path: String = args.require("graph").map_err(|_| USAGE.to_string())?;
    // --direction mirrors `tigr run`: pull and auto need the transpose
    // views, push does not. Default auto so the artifact serves every
    // direction.
    let direction = match args.flag("direction") {
        Some(s) => Direction::parse(s).ok_or(format!(
            "invalid --direction `{s}` (expected push, pull, or auto)"
        ))?,
        None => Direction::Auto,
    };
    let mut spec = PrepareSpec::from_file(&path).with_transpose(direction != Direction::Push);
    if let Some(k) = args.flag("virtual") {
        let k: u32 = k.parse().map_err(|_| "invalid --virtual K".to_string())?;
        spec = spec.with_virtual(k, args.switch("coalesced"));
    }
    if let Some(topology) = args.flag("transform") {
        let kind = TransformKind::parse(topology)
            .ok_or(format!("unknown topology `{topology}`\n{USAGE}"))?;
        let k = args
            .flag("k")
            .map(|v| v.parse().map_err(|_| "invalid --k".to_string()))
            .transpose()?;
        let dumb = match args.flag("dumb").unwrap_or("zero") {
            "zero" => DumbWeight::Zero,
            "inf" | "infinity" => DumbWeight::Infinity,
            "none" | "unweighted" => DumbWeight::Unweighted,
            other => return Err(format!("unknown dumb-weight policy `{other}`")),
        };
        spec = spec.with_transform(kind, k, dumb);
    }

    // --deadline-ms bounds the whole preparation (load + transforms +
    // transposes) with the cooperative-cancellation hook; expiry exits
    // with the distinct timeout code.
    let cancel = match args.flag("deadline-ms") {
        Some(ms) => {
            let ms: u64 = ms
                .parse()
                .map_err(|_| "invalid --deadline-ms".to_string())?;
            CancelToken::with_deadline(std::time::Duration::from_millis(ms))
        }
        None => CancelToken::never(),
    };
    let store = store_from_args(args)?;
    let prepared = store
        .prepare_cancellable(&spec, &cancel)
        .map_err(|e| match e {
            GraphError::Cancelled => {
                timeout_message(format!("preparation of {path} hit --deadline-ms"))
            }
            other => format!("cannot prepare {path}: {other}"),
        })?;

    let mut views = Vec::new();
    if prepared.transpose().is_some() {
        views.push("transpose".to_string());
    }
    if let Some(ov) = prepared.overlay() {
        views.push(format!(
            "virtual K={}{}",
            ov.k(),
            if ov.is_coalesced() {
                " (coalesced)"
            } else {
                ""
            }
        ));
    }
    if prepared.rev_overlay().is_some() {
        views.push("reverse overlay".to_string());
    }
    if let Some(t) = prepared.transformed() {
        views.push(format!("{} transform K={}", t.topology(), t.k()));
    }
    Ok(format!(
        "prepared {path}: {} nodes, {} edges\nviews           {}\n{}",
        prepared.graph().num_nodes(),
        prepared.graph().num_edges(),
        if views.is_empty() {
            "none".to_string()
        } else {
            views.join(", ")
        },
        format_prepare_report(&prepared),
    ))
}

/// Every flag and switch `tigr prepare` reads; anything else is refused.
const FLAGS: &[&str] = &[
    "graph",
    "direction",
    "virtual",
    "coalesced",
    "transform",
    "k",
    "dumb",
    "deadline-ms",
    "cache-dir",
    "verify",
];

const USAGE: &str = "usage: tigr prepare --graph <file> [--virtual K [--coalesced]] \
[--transform udt|star|recursive-star|circular|clique [--k K] [--dumb zero|inf|none]] \
[--direction push|pull|auto] [--deadline-ms MS] [--cache-dir DIR] \
[--verify eager|lazy]";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io_util::save_graph;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    fn fixture(dir_name: &str) -> (String, String) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin").to_str().unwrap().to_string();
        let cache = dir.join("cache").to_str().unwrap().to_string();
        let g =
            tigr_graph::generators::rmat(&tigr_graph::generators::RmatConfig::graph500(7, 6), 3);
        save_graph(&g, &path).unwrap();
        (path, cache)
    }

    #[test]
    fn warms_cache_for_a_following_run() {
        let (path, cache) = fixture("tigr_cli_prepare_test");
        let out = run(&parse(&format!(
            "--graph {path} --virtual 8 --coalesced --cache-dir {cache}"
        )))
        .unwrap();
        assert!(out.contains("cache           miss"), "{out}");
        assert!(out.contains("transpose"), "{out}");
        assert!(out.contains("virtual K=8 (coalesced)"), "{out}");
        assert!(out.contains("reverse overlay"), "{out}");
        // The very run it warms up: cache hit, zero derivation work.
        let out = crate::commands::run::run(&parse(&format!(
            "bfs --graph {path} --virtual 8 --coalesced --direction auto --stats --cache-dir {cache}"
        )))
        .unwrap();
        assert!(out.contains("cache           hit"), "{out}");
        assert!(
            out.contains("prep work       0 transforms, 0 transposes, 0 overlays"),
            "{out}"
        );
    }

    #[test]
    fn a_view_prepare_reuses_the_prepared_base() {
        let (path, cache) = fixture("tigr_cli_prepare_base_test");
        let out = run(&parse(&format!(
            "--graph {path} --virtual 8 --cache-dir {cache}"
        )))
        .unwrap();
        assert!(out.contains("cache base      not reused"), "{out}");
        let base = run(&parse(&format!(
            "--graph {path} --cache-dir {cache} --direction push"
        )))
        .unwrap();
        assert!(base.contains("views           none"), "{base}");
        assert!(base.contains("cache base      not reused"), "{base}");
        let out = run(&parse(&format!(
            "--graph {path} --transform udt --k 4 --cache-dir {cache}"
        )))
        .unwrap();
        assert!(out.contains("cache           miss"), "{out}");
        assert!(out.contains("cache base      reused"), "{out}");
    }

    #[test]
    fn prepares_physical_transforms() {
        let (path, cache) = fixture("tigr_cli_prepare_transform_test");
        let out = run(&parse(&format!(
            "--graph {path} --transform udt --k 4 --cache-dir {cache} --direction push"
        )))
        .unwrap();
        assert!(out.contains("udt transform K=4"), "{out}");
        let views = out.lines().find(|l| l.starts_with("views")).unwrap();
        assert!(!views.contains("transpose"), "{out}");
        let out = run(&parse(&format!(
            "--graph {path} --transform udt --k 4 --cache-dir {cache} --direction push"
        )))
        .unwrap();
        assert!(out.contains("cache           hit"), "{out}");
    }

    #[test]
    fn without_cache_reports_dry_build() {
        if std::env::var_os("TIGR_CACHE_DIR").is_some() {
            return;
        }
        let (path, _) = fixture("tigr_cli_prepare_dry_test");
        let out = run(&parse(&format!("--graph {path}"))).unwrap();
        assert!(out.contains("cache           off"), "{out}");
        assert!(out.contains("caching disabled"), "{out}");
    }

    #[test]
    fn stats_lines_include_artifact_path_and_key() {
        let (path, cache) = fixture("tigr_cli_prepare_artifact_test");
        let out = run(&parse(&format!("--graph {path} --cache-dir {cache}"))).unwrap();
        let artifact = out.lines().find(|l| l.starts_with("artifact")).unwrap();
        assert!(artifact.contains(&cache), "{out}");
        let key = out
            .lines()
            .find(|l| l.starts_with("cache"))
            .and_then(|l| l.split("key ").nth(1))
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap()
            .to_string();
        // The key is the artifact file stem: operators can pre-warm a
        // server cache and know exactly which file serves which spec.
        assert!(artifact.contains(&key), "{out}");
    }

    #[test]
    fn zero_deadline_times_out_with_marker() {
        let (path, _) = fixture("tigr_cli_prepare_deadline_test");
        let err = run(&parse(&format!("--graph {path} --deadline-ms 0"))).unwrap_err();
        assert!(err.starts_with(crate::commands::TIMEOUT_PREFIX), "{err}");
    }

    #[test]
    fn unknown_flags_are_refused_with_the_usage() {
        let (path, cache) = fixture("tigr_cli_prepare_unknown_flag_test");
        let err = run(&parse(&format!(
            "--graph {path} --cache-dir {cache} --mmap off --bogus 1"
        )))
        .unwrap_err();
        assert!(err.starts_with("unknown flag --"), "{err}");
        assert!(err.contains("usage: tigr prepare"), "{err}");
        // No artifact was written: the flag is refused before any work.
        assert!(std::fs::read_dir(&cache).map_or(true, |mut d| d.next().is_none()));
    }

    #[test]
    fn rejects_bad_flags() {
        let (path, cache) = fixture("tigr_cli_prepare_err_test");
        let err = run(&parse("--virtual 8")).unwrap_err();
        assert!(err.contains("usage:"), "{err}");
        let err = run(&parse(&format!(
            "--graph {path} --transform spiral --cache-dir {cache}"
        )))
        .unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
        let err = run(&parse(&format!(
            "--graph {path} --transform udt --dumb heavy --cache-dir {cache}"
        )))
        .unwrap_err();
        assert!(err.contains("unknown dumb-weight"), "{err}");
        let err = run(&parse(&format!("--graph {path} --direction sideways"))).unwrap_err();
        assert!(err.contains("invalid --direction"), "{err}");
    }
}
