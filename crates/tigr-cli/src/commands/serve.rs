//! `tigr serve --graph <file>` — the long-lived query daemon.
//!
//! Loads the graph through the same [`tigr_core::GraphStore`] artifact
//! layer as `tigr run` (so a pre-warmed cache makes startup zero-work),
//! registers it with a [`tigr_server::ServerCore`], and listens on TCP
//! (`--port`, default ephemeral) or a Unix socket (`--socket`). The
//! resolved address is printed on startup and optionally written to
//! `--port-file` so scripts driving an ephemeral port can find it.
//!
//! The daemon runs until killed, or for `--duration` seconds when
//! given (used by tests).

use std::io::Write as _;
use std::sync::Arc;

use tigr_core::{MutableGraph, PrepareSpec};
use tigr_server::{Server, ServerAddr, ServerConfig, ServerCore};

use crate::args::Args;
use crate::commands::{store_from_args, CmdResult};

/// Runs the `serve` command.
pub fn run(args: &Args) -> CmdResult {
    args.reject_unknown(FLAGS)
        .map_err(|e| format!("{e}\n{USAGE}"))?;
    let path: String = args.require("graph").map_err(|_| USAGE.to_string())?;
    let name = match args.flag("name") {
        Some(n) => n.to_string(),
        None => std::path::Path::new(&path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("graph")
            .to_string(),
    };
    let config = ServerConfig {
        workers: args.flag_or("workers", ServerConfig::default().workers)?,
        kernel_threads: args.flag_or("kernel-threads", ServerConfig::default().kernel_threads)?,
        queue_capacity: args.flag_or("queue", ServerConfig::default().queue_capacity)?,
        cache_capacity: args.flag_or("cache-capacity", ServerConfig::default().cache_capacity)?,
        default_deadline_ms: args
            .flag("default-deadline-ms")
            .map(|v| v.parse().map_err(|_| "invalid --default-deadline-ms"))
            .transpose()?,
        batch_max: args.flag_or("batch-max", ServerConfig::default().batch_max)?,
        batch_wait_us: args.flag_or("batch-wait-us", ServerConfig::default().batch_wait_us)?,
        compact_threshold: args.flag_or(
            "compact-threshold",
            ServerConfig::default().compact_threshold,
        )?,
    };
    let mutable = args.switch("mutable");
    if config.compact_threshold > 0 && !mutable {
        return Err("--compact-threshold requires --mutable".into());
    }
    if config.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    if config.batch_max == 0 {
        return Err("--batch-max must be at least 1 (1 disables batching)".into());
    }
    if config.kernel_threads == 0 {
        return Err(
            "--kernel-threads must be at least 1 (1 runs every lane on its executor)".into(),
        );
    }

    let mut spec = PrepareSpec::from_file(&path);
    if let Some(k) = args.flag("virtual") {
        let k: u32 = k.parse().map_err(|_| "invalid --virtual K".to_string())?;
        spec = spec.with_virtual(k, args.switch("coalesced"));
    }
    let store = store_from_args(args)?;
    let prepared = store
        .prepare(&spec)
        .map_err(|e| format!("cannot load {path}: {e}"))?;
    let nodes = prepared.graph().num_nodes();
    let edges = prepared.graph().num_edges();

    let core = ServerCore::new(config);
    if mutable {
        let graph = MutableGraph::open(store, prepared)
            .map_err(|e| format!("cannot open {name} for mutation: {e}"))?;
        core.add_mutable_graph(&name, Arc::new(graph));
    } else {
        core.add_graph(&name, Arc::new(prepared));
    }

    let server = match args.flag("socket") {
        Some(socket_path) => Server::bind_unix(Arc::clone(&core), socket_path)
            .map_err(|e| format!("cannot bind {socket_path}: {e}"))?,
        None => {
            let port: u16 = args.flag_or("port", 0)?;
            Server::bind_tcp(Arc::clone(&core), ("127.0.0.1", port))
                .map_err(|e| format!("cannot bind 127.0.0.1:{port}: {e}"))?
        }
    };
    let addr_text = match server.addr() {
        ServerAddr::Tcp(addr) => addr.to_string(),
        ServerAddr::Unix(p) => p.display().to_string(),
    };
    if let Some(port_file) = args.flag("port-file") {
        std::fs::write(port_file, format!("{addr_text}\n"))
            .map_err(|e| format!("cannot write --port-file {port_file}: {e}"))?;
    }

    // Announce readiness immediately: the command blocks from here on,
    // so the startup banner cannot wait for the returned CmdResult.
    let mode = if mutable { " [mutable]" } else { "" };
    println!(
        "serving {name} ({nodes} nodes, {edges} edges){mode} on {addr_text}\n\
         executors {} x {} kernel threads | queue {} | cache {} entries | batch {} (wait {} us)",
        config.executor_count(),
        config.kernel_threads,
        config.queue_capacity,
        config.cache_capacity,
        config.batch_max,
        config.batch_wait_us
    );
    let _ = std::io::stdout().flush();

    match args.flag("duration") {
        Some(secs) => {
            let secs: f64 = secs.parse().map_err(|_| "invalid --duration".to_string())?;
            std::thread::sleep(std::time::Duration::from_secs_f64(secs.max(0.0)));
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
    let served = core.submit(tigr_server::Request::Stats);
    server.shutdown();
    let summary = match served {
        tigr_server::Response::Stats(s) => format!(
            "served {} queries ({} rejected, {} failed)\n",
            s.completed, s.rejected, s.failed
        ),
        _ => String::new(),
    };
    Ok(summary)
}

/// Every flag and switch `tigr serve` reads; anything else is refused.
const FLAGS: &[&str] = &[
    "graph",
    "name",
    "port",
    "socket",
    "port-file",
    "workers",
    "kernel-threads",
    "queue",
    "cache-capacity",
    "default-deadline-ms",
    "batch-max",
    "batch-wait-us",
    "mutable",
    "compact-threshold",
    "virtual",
    "coalesced",
    "duration",
    "cache-dir",
    "verify",
];

const USAGE: &str = "usage: tigr serve --graph <file> [--name N] \
[--port P | --socket PATH] [--port-file PATH] [--workers N] \
[--kernel-threads N] [--queue N] \
[--cache-capacity N] [--default-deadline-ms MS] \
[--batch-max N] [--batch-wait-us US] \
[--mutable [--compact-threshold N]] \
[--virtual K [--coalesced]] [--duration SECS] [--cache-dir DIR] \
[--verify eager|lazy]
  --workers N         query thread budget (default 4): it runs N / kernel-threads
                      batch executors (at least 1)
  --kernel-threads N  threads each executor deals a fused batch's lanes across (default 1);
                      every answer is byte-identical whatever N is";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>()).unwrap()
    }

    fn fixture(dir_name: &str) -> (String, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(dir_name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin").to_str().unwrap().to_string();
        let g =
            tigr_graph::generators::rmat(&tigr_graph::generators::RmatConfig::graph500(7, 6), 3);
        crate::io_util::save_graph(&g, &path).unwrap();
        (path, dir)
    }

    #[test]
    fn requires_graph_and_validates_flags() {
        assert!(run(&parse("")).unwrap_err().contains("usage:"));
        let (path, _) = fixture("tigr_cli_serve_flags_test");
        let err = run(&parse(&format!("--graph {path} --workers 0"))).unwrap_err();
        assert!(err.contains("--workers"));
        let err = run(&parse(&format!("--graph {path} --duration never"))).unwrap_err();
        assert!(err.contains("invalid --duration"));
        let err = run(&parse(&format!("--graph {path} --batch-max 0"))).unwrap_err();
        assert!(err.contains("--batch-max"));
        let err = run(&parse(&format!("--graph {path} --kernel-threads 0"))).unwrap_err();
        assert!(err.contains("--kernel-threads"));
        let err = run(&parse(&format!("--graph {path} --compact-threshold 4"))).unwrap_err();
        assert!(err.contains("--mutable"));
    }

    #[test]
    fn unknown_flags_are_refused_with_the_usage() {
        let (path, _) = fixture("tigr_cli_serve_unknown_flag_test");
        // Refused before the daemon binds or blocks. There is no
        // executor-count flag: the count is derived from --workers.
        for flag in ["threads", "executors"] {
            let err = run(&parse(&format!("--graph {path} --duration 0 --{flag} 2"))).unwrap_err();
            assert!(err.starts_with(&format!("unknown flag --{flag}")), "{err}");
            assert!(err.contains("usage: tigr serve"), "{err}");
        }
    }

    #[test]
    fn mutable_daemon_accepts_mutations() {
        let (path, dir) = fixture("tigr_cli_serve_mutable_test");
        let port_file = dir.join("port.txt");
        let pf = port_file.to_str().unwrap().to_string();
        let serve_args = parse(&format!(
            "--graph {path} --name demo --mutable --duration 0.5 --port-file {pf}"
        ));
        let handle = std::thread::spawn(move || run(&serve_args));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut client = tigr_server::Client::connect_tcp(&addr).unwrap();
        let applied = client
            .mutate(
                "demo",
                vec![tigr_server::MutationOp::AddNode { nodes: 129 }],
            )
            .unwrap();
        assert_eq!(applied.applied, 1);
        assert!(applied.epoch >= 1);
        let result = client
            .query(tigr_server::QueryRequest::new(
                "demo",
                tigr_server::Algo::Bfs,
                Some(0),
            ))
            .unwrap();
        assert!(result.checksum != 0);
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn parallel_daemon_serves_queries() {
        let (path, dir) = fixture("tigr_cli_serve_parallel_test");
        let port_file = dir.join("port.txt");
        let pf = port_file.to_str().unwrap().to_string();
        let serve_args = parse(&format!(
            "--graph {path} --name demo --duration 0.4 --port-file {pf} \
             --workers 4 --kernel-threads 2"
        ));
        let handle = std::thread::spawn(move || run(&serve_args));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut client = tigr_server::Client::connect_tcp(&addr).unwrap();
        let result = client
            .query(tigr_server::QueryRequest::new(
                "demo",
                tigr_server::Algo::Sssp,
                Some(0),
            ))
            .unwrap();
        assert!(result.checksum != 0);
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("served 1 queries"), "{out}");
    }

    #[test]
    fn serves_for_a_bounded_duration_and_writes_port_file() {
        let (path, dir) = fixture("tigr_cli_serve_run_test");
        let port_file = dir.join("port.txt");
        let pf = port_file.to_str().unwrap().to_string();
        let serve_args = parse(&format!(
            "--graph {path} --name demo --duration 0.4 --port-file {pf} --workers 2"
        ));
        let handle = std::thread::spawn(move || run(&serve_args));
        // Wait for the daemon to publish its ephemeral address.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                let text = text.trim().to_string();
                if !text.is_empty() {
                    break text;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "port file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut client = tigr_server::Client::connect_tcp(&addr).unwrap();
        client.ping().unwrap();
        let result = client
            .query(tigr_server::QueryRequest::new(
                "demo",
                tigr_server::Algo::Bfs,
                Some(0),
            ))
            .unwrap();
        assert!(!result.cached);
        let out = handle.join().unwrap().unwrap();
        assert!(out.contains("served 1 queries"), "{out}");
    }
}
