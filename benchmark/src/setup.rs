//! Set-up: from an empty data directory to a daemon that answers.
//!
//! `setup_s` is the median of [`Sizes::setup_reps`] repetitions of
//! *empty data dir → `GraphStore::prepare` of every graph the workload
//! needs (a cold miss: generate, weights, transpose, overlay, artifact
//! write) → `ServerCore` + both sockets up → first `ping` answered*.
//! The last repetition's deployment serves the run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use tigr_core::{GraphStore, MutableGraph, PrepareSpec, PreparedGraph};
use tigr_server::{Client, Server, ServerAddr, ServerConfig, ServerCore};

use crate::host;

/// Virtual-split degree bound the paper recommends (Tigr-V / Tigr-V+).
pub const VIRTUAL_K: u32 = 10;

/// Generator seed of every graph. The graph is the same for every
/// `--seed`: the seed drives sources, keys, and mutation ops, but a new
/// graph per seed moved the medians by several percent, which a
/// comparison across seeds would read as run-to-run spread.
pub const GRAPH_SEED: u64 = 1;

/// Name every served graph is registered under.
pub const GRAPH: &str = "g";

/// Everything that differs between a full run and `--quick`.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `--quick`: a smoke run, never comparable.
    pub quick: bool,
    /// R-MAT scale of the serving graph (`G17`).
    pub serve_scale: u32,
    /// R-MAT scale of the simulator graph (`G16`).
    pub sim_scale: u32,
    /// Set-up repetitions behind `setup_s`.
    pub setup_reps: usize,
    /// Seconds of timed section.
    pub seconds: f64,
}

impl Sizes {
    /// Full-size run measuring for `seconds`.
    pub fn full(seconds: f64) -> Sizes {
        Sizes {
            quick: false,
            serve_scale: 17,
            sim_scale: 16,
            setup_reps: 5,
            seconds,
        }
    }

    /// Smoke-size run: scale 12, about a second of measurement.
    pub fn quick() -> Sizes {
        Sizes {
            quick: true,
            serve_scale: 12,
            sim_scale: 10,
            setup_reps: 2,
            seconds: 1.0,
        }
    }
}

/// Load generators and server workers actually used: `min(2, nproc)`.
/// With one core the run proceeds with one client rather than
/// oversubscribing, and the host block says so.
pub fn parallelism() -> usize {
    host::nproc().min(2)
}

/// The serving graph: weighted R-MAT with Tigr-V+ overlay and transpose.
pub fn serving_spec(scale: u32, seed: u64) -> PrepareSpec {
    PrepareSpec::generated(format!("rmat:{scale}:16"), seed)
        .with_uniform_weights(1, 64, seed)
        .with_virtual(VIRTUAL_K, true)
        .with_transpose(true)
}

/// A per-run scratch directory, emptied between set-up repetitions and
/// removed on drop.
#[derive(Debug)]
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// Creates `<root>/run-<pid>` (a short relative path keeps the Unix
    /// socket inside `sun_path`'s 108 bytes).
    pub fn create(root: &Path) -> std::io::Result<DataDir> {
        let path = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Removes everything inside, so the next prepare is a cold miss.
    pub fn clear(&self) -> std::io::Result<()> {
        std::fs::remove_dir_all(&self.path)?;
        std::fs::create_dir_all(&self.path)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A running daemon: core, both socket front-ends, and the graph behind
/// them (for the oracle and the probes).
pub struct Deployment {
    /// The serving core (in-process clients, stats).
    pub core: Arc<ServerCore>,
    /// Base graph as prepared (for mutable graphs: the epoch-0 base).
    pub prepared: Arc<PreparedGraph>,
    tcp: Server,
    unix: Server,
}

impl Deployment {
    /// Store + prepare + core + sockets + first ping. `mutable` opens
    /// the graph through `MutableGraph` (WAL under the data dir).
    pub fn start(dir: &DataDir, spec: &PrepareSpec, mutable: bool) -> Result<Deployment, String> {
        let store = GraphStore::new(Some(dir.path().join("cache")));
        Deployment::start_in(dir, store, spec, mutable)
    }

    /// [`Deployment::start`] over an existing store (whose cache may
    /// already hold the artifact).
    pub fn start_in(
        dir: &DataDir,
        store: GraphStore,
        spec: &PrepareSpec,
        mutable: bool,
    ) -> Result<Deployment, String> {
        let prepared = store.prepare(spec).map_err(|e| format!("prepare: {e}"))?;
        let core = ServerCore::new(ServerConfig {
            workers: parallelism(),
            kernel_threads: 1,
            compact_threshold: 0,
            ..ServerConfig::default()
        });
        let prepared = if mutable {
            // `open` consumes the prepared graph; the epoch-0 base is
            // read back from the snapshot.
            let graph = MutableGraph::open(store, prepared).map_err(|e| format!("open: {e}"))?;
            let base = Arc::clone(graph.snapshot().base());
            core.add_mutable_graph(GRAPH, Arc::new(graph));
            base
        } else {
            let prepared = Arc::new(prepared);
            core.add_graph(GRAPH, Arc::clone(&prepared));
            prepared
        };
        let tcp = Server::bind_tcp(Arc::clone(&core), "127.0.0.1:0")
            .map_err(|e| format!("bind tcp: {e}"))?;
        let unix = Server::bind_unix(Arc::clone(&core), dir.path().join("s.sock"))
            .map_err(|e| format!("bind unix: {e}"))?;
        let deployment = Deployment {
            core,
            prepared,
            tcp,
            unix,
        };
        deployment
            .connect_unix()?
            .ping()
            .map_err(|e| format!("first ping: {e}"))?;
        Ok(deployment)
    }

    /// A fresh TCP connection to the daemon.
    pub fn connect_tcp(&self) -> Result<Client, String> {
        match self.tcp.addr() {
            ServerAddr::Tcp(addr) => {
                Client::connect_tcp(addr).map_err(|e| format!("connect tcp: {e}"))
            }
            ServerAddr::Unix(_) => unreachable!("bound with bind_tcp"),
        }
    }

    /// A fresh Unix-socket connection to the daemon.
    pub fn connect_unix(&self) -> Result<Client, String> {
        match self.unix.addr() {
            ServerAddr::Unix(path) => {
                Client::connect_unix(path).map_err(|e| format!("connect unix: {e}"))
            }
            ServerAddr::Tcp(_) => unreachable!("bound with bind_unix"),
        }
    }

    /// An in-process client (no wire, no codec): the control the wire
    /// cost is subtracted against.
    pub fn connect_local(&self) -> Client {
        Client::local(Arc::clone(&self.core))
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        // Joins the workers; the accept loops stop when the `Server`
        // fields drop right after. Every client must already be gone:
        // connection threads only exit on EOF.
        self.core.shutdown();
    }
}

/// Runs `start` `reps` times over an emptied data dir, timing each, and
/// returns the last result with the median set-up time in seconds.
pub fn timed_setup<T>(
    dir: &DataDir,
    reps: usize,
    mut start: impl FnMut(&DataDir) -> Result<T, String>,
) -> Result<(T, f64, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous repetition first: its memory and its
        // listeners must not overlap the next one.
        drop(last.take());
        dir.clear().map_err(|e| format!("clear data dir: {e}"))?;
        let started = Instant::now();
        let value = start(dir)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("setup_reps must be at least 1")?;
    Ok((value, crate::stats::median(&times), times))
}
