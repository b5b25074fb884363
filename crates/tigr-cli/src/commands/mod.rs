//! The CLI subcommands. Each returns its output as a `String` so the
//! commands are unit-testable without spawning processes.

use tigr_core::GraphStore;
use tigr_graph::io::VerifyMode;

use crate::args::Args;

pub mod analyze;
pub mod generate;
pub mod ingest;
pub mod mutate;
pub mod prepare;
pub mod query;
pub mod run;
pub mod serve;
pub mod stats;
pub mod transform;

/// Result alias: rendered output or an error message for stderr.
pub type CmdResult = Result<String, String>;

/// Exit code for deadline expiry (`--deadline-ms`), distinct from the
/// generic error code 2 so scripts can tell a timeout from a failure.
pub const EXIT_TIMEOUT: i32 = 3;

/// Prefix marking an error message as a deadline expiry; `main`
/// translates it into [`EXIT_TIMEOUT`].
pub const TIMEOUT_PREFIX: &str = "deadline exceeded";

/// Builds the error message for an expired `--deadline-ms`.
pub fn timeout_message(detail: impl std::fmt::Display) -> String {
    format!("{TIMEOUT_PREFIX}: {detail}")
}

/// The artifact store every graph-consuming command resolves inputs
/// through: `--cache-dir DIR` wins, then the `TIGR_CACHE_DIR`
/// environment variable; with neither, caching is off. `--verify
/// eager|lazy` sets the artifact verification level (over
/// `TIGR_VERIFY`).
///
/// # Errors
///
/// Returns a message for an unrecognized `--verify` value.
pub fn store_from_args(args: &Args) -> Result<GraphStore, String> {
    let mut store = match args.flag("cache-dir") {
        Some(dir) => {
            // An explicit cache dir still honours the environment's
            // verify policy as the baseline.
            GraphStore::from_env().with_cache_dir(Some(dir.into()))
        }
        None => GraphStore::from_env(),
    };
    if let Some(v) = args.flag("verify") {
        let mode = VerifyMode::parse(v)
            .ok_or_else(|| format!("invalid value `{v}` for --verify (expected eager|lazy)"))?;
        store = store.with_verify(mode);
    }
    Ok(store)
}

/// Renders the cache/prep-work report lines appended under `--stats`:
/// cache outcome, the cache key, how the artifact was opened
/// (mapped/decoded/built, verify level, wall time, mapped-vs-heap byte
/// split), the resolved artifact path, and the derivation-work counters
/// — everything an operator needs to pre-warm a server's cache
/// deterministically.
///
/// Every line that can differ between a cold and a warm run of the same
/// spec starts with `cache` or `prep work`, so byte-equality checks can
/// strip them by prefix.
pub fn format_prepare_report(prepared: &tigr_core::PreparedGraph) -> String {
    let report = prepared.report();
    let open = prepared.open_info();
    let artifact = match &report.artifact {
        Some(path) => path.display().to_string(),
        None => "none (caching disabled; set --cache-dir or TIGR_CACHE_DIR)".to_string(),
    };
    format!(
        "cache           {} (key {})\ncache open      {} (verify {}) in {} us\ncache bytes     {} mapped, {} heap\nartifact        {artifact}\nprep work       {} transforms, {} transposes, {} overlays\n",
        report.cache.label(),
        report.key,
        open.mode.label(),
        open.verify.label(),
        open.open_us,
        open.mapped_bytes,
        open.heap_bytes,
        report.transforms_built,
        report.transposes_built,
        report.overlays_built,
    )
}
