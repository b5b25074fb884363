//! The engine facade: a builder assembling an [`ExecutionPlan`],
//! device-memory checks, and one-call runs of each analytic.

use std::cell::OnceCell;
use std::error::Error as StdError;
use std::fmt;

use tigr_core::{CancelToken, PreparedGraph};
use tigr_graph::NodeId;
use tigr_sim::{DeviceMemory, GpuConfig, GpuSimulator, OutOfMemory, SimReport};

use crate::algorithms::{bc, pr};
use crate::batch::{
    chunk_len, deal, run_batch_push, run_solo_sequential_push, BatchArena, BatchOutput,
    BatchProgram,
};
use crate::frontier::FrontierMode;
use crate::kernel::HostLoop;
use crate::monotone::{pull_view, run_monotone, MonotoneOutput, PullSide};
use crate::operators::{
    predecessors, triangle_counts, ComputeStep, Pipeline, PipelineBody, PipelineOutput,
};
use crate::plan::{
    check_source, check_split_invariance, BackendKind, CpuOptions, Direction, ExecutionPlan,
    PlanError,
};
use crate::program::MonotoneProgram;
use crate::push::{PushOptions, SyncMode};
use crate::representation::Representation;

/// Errors an engine run can produce.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// The representation does not fit the configured device memory —
    /// the `OOM` entries of Table 4.
    OutOfMemory(OutOfMemory),
    /// The plan combination is not licensed by the paper's theorems
    /// (e.g. pull over a non-associative program on a virtual view).
    InvalidPlan(PlanError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::OutOfMemory(e) => write!(f, "device {e}"),
            EngineError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
        }
    }
}

impl StdError for EngineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            EngineError::OutOfMemory(e) => Some(e),
            EngineError::InvalidPlan(e) => Some(e),
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::InvalidPlan(e)
    }
}

/// The Tigr graph-processing engine: assembles an [`ExecutionPlan`] via
/// builder knobs and runs it on the configured backend (the warp
/// simulator by default).
///
/// # Example
///
/// ```
/// use tigr_engine::{Engine, Pipeline, Representation};
/// use tigr_graph::{CsrBuilder, NodeId};
///
/// let g = CsrBuilder::new(3).weighted_edge(0, 1, 2).weighted_edge(1, 2, 2).build();
/// let engine = Engine::default();
/// let rep = Representation::Original(&g);
/// let out = engine.run_pipeline(&rep, &Pipeline::sssp(), Some(NodeId::new(0)))?;
/// assert_eq!(out.values, vec![0, 2, 4]);
/// assert_eq!(out.report.num_iterations() as u64, out.iterations);
/// # Ok::<(), tigr_engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    sim: GpuSimulator,
    plan: ExecutionPlan,
    device_memory: Option<u64>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(GpuConfig::default())
    }
}

impl Engine {
    /// Creates an engine over a sequential (deterministic) simulator.
    pub fn new(config: GpuConfig) -> Self {
        Engine {
            sim: GpuSimulator::new(config),
            plan: ExecutionPlan::default(),
            device_memory: None,
        }
    }

    /// Creates an engine whose simulator replays warps on all host cores:
    /// faster wall clock, identical values. The counters equal the
    /// sequential replay's only for kernels free of cross-thread races
    /// (`tigr_sim`'s executor tests pin that); the relax kernels race on
    /// first-claim enqueues, so cycles may drift by a few per mille.
    pub fn parallel(config: GpuConfig) -> Self {
        Engine {
            sim: GpuSimulator::new_parallel(config),
            plan: ExecutionPlan::default(),
            device_memory: None,
        }
    }

    /// Replaces the whole execution plan.
    pub fn with_plan(mut self, plan: ExecutionPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Selects the traversal direction (push, pull, or the
    /// direction-optimizing auto switch).
    pub fn with_direction(mut self, direction: Direction) -> Self {
        self.plan.direction = direction;
        self
    }

    /// Selects which executor runs the plan — monotone programs,
    /// PageRank and betweenness alike.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.plan.backend = backend;
        self
    }

    /// Overrides the push options (worklist, sync mode, iteration cap).
    pub fn with_options(mut self, options: PushOptions) -> Self {
        self.plan.push = options;
        self
    }

    /// Enables worklist execution with the given frontier scheduling
    /// policy (shorthand for setting `worklist` + `frontier` on the push
    /// options).
    pub fn with_frontier(mut self, mode: FrontierMode) -> Self {
        self.plan.push.worklist = true;
        self.plan.push.frontier = mode;
        self
    }

    /// Enforces a device-memory budget in bytes; representations whose
    /// footprint exceeds it fail with [`EngineError::OutOfMemory`].
    pub fn with_device_memory(mut self, bytes: u64) -> Self {
        self.device_memory = Some(bytes);
        self
    }

    /// Overrides the [`BackendKind::CpuPool`] options (how many workers
    /// a batch's lanes are dealt across).
    pub fn with_cpu_options(mut self, options: CpuOptions) -> Self {
        self.plan.cpu = options;
        self
    }

    /// Installs a cooperative cancellation token, polled by every run at
    /// iteration boundaries. Arm it with a deadline
    /// ([`CancelToken::with_deadline`]) for per-request latency budgets,
    /// or keep a clone and call [`CancelToken::cancel`] to abort from
    /// another thread; a cancelled run returns with `cancelled = true`
    /// and a consistent monotone value prefix.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.plan.cancel = cancel;
        self
    }

    /// The underlying simulator.
    pub fn sim(&self) -> &GpuSimulator {
        &self.sim
    }

    /// The assembled execution plan.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Checks `rep` against the configured device budget.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when it does not fit.
    pub fn check_footprint(&self, rep: &Representation<'_>) -> Result<(), EngineError> {
        if let Some(capacity) = self.device_memory {
            let mut mem = DeviceMemory::new(capacity);
            mem.alloc(rep.device_footprint_bytes())
                .map_err(EngineError::OutOfMemory)?;
        }
        Ok(())
    }

    /// The one backend dispatch every single-run monotone entry point —
    /// [`Engine::run_prepared`], operator pipelines and fixed-round
    /// schedules alike — funnels through. A prepared transpose feeds
    /// every pull sweep. Both host backends run a solo run alike: it is
    /// one lane, and a lane is what `CpuPool` deals across its workers.
    fn dispatch_monotone(
        &self,
        rep: &Representation<'_>,
        pull: Option<PullSide<'_>>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        Ok(match plan.backend {
            BackendKind::WarpSim => run_monotone(&self.sim, rep, pull, prog, source, plan)?,
            _ if plan.direction == Direction::Pull => {
                run_monotone(&HostLoop, rep, pull, prog, source, plan)?
            }
            // Auto's fixpoint equals push's; the host keeps the simpler
            // schedule. A solo push run is the lane driver's K = 1 case,
            // over the representation's CSR (virtual overlays share the
            // fixpoint and are ignored; physical splits use their split
            // CSR and slots).
            _ => {
                run_solo_sequential_push(rep.graph(), prog, source, plan.cancel.clone(), &plan.push)
            }
        })
    }

    /// Runs a monotone program over a [`PreparedGraph`]: the
    /// representation is derived from the prepared views
    /// ([`Representation::from_prepared`]), and a prepared transpose
    /// (plus mirrored overlay, on the simulator) feeds the pull/auto
    /// drivers directly, so a cache-warm run performs no transpose or
    /// overlay construction at all. Values and meter equal
    /// `run_prepared_pipeline(prepared, &prog.pipeline(), source)`'s;
    /// this entry returns the driver's own [`MonotoneOutput`].
    ///
    /// # Errors
    ///
    /// See [`Engine::run_pipeline`].
    pub fn run_prepared(
        &self,
        prepared: &PreparedGraph,
        prog: MonotoneProgram,
        source: Option<NodeId>,
    ) -> Result<MonotoneOutput, EngineError> {
        let rep = Representation::from_prepared(prepared);
        self.admit(&rep, &prog.pipeline(), source)?;
        self.dispatch_monotone(&rep, PullSide::of(prepared), prog, source, &self.plan)
    }

    /// Runs an operator [`Pipeline`] under the assembled plan: the one
    /// entry point of every analytic. Monotone pipelines run the
    /// monotone driver ([`crate::run_monotone`], or the host lane
    /// driver's one-lane case for a host push); PR/BC pipelines run
    /// their drivers on the plan's launcher — the simulator meters
    /// them, both host backends run them as plain loops with the same
    /// bits — with results reinterpreted as bit patterns; compute-only
    /// pipelines (triangle counting) never traverse at all. The output
    /// carries the run's meter: the simulator report, edges touched and
    /// per-sweep directions.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] on budget overflow, or
    /// [`EngineError::InvalidPlan`] when the pipeline's typed
    /// capabilities reject the representation/plan combination or the
    /// source is out of range (see
    /// [`crate::ExecutionPlan::validate_pipeline`]).
    pub fn run_pipeline(
        &self,
        rep: &Representation<'_>,
        pipeline: &Pipeline,
        source: Option<NodeId>,
    ) -> Result<PipelineOutput, EngineError> {
        self.admit(rep, pipeline, source)?;
        self.run_pipeline_validated(rep, None, pipeline, source)
    }

    /// Runs an operator [`Pipeline`] over a [`PreparedGraph`]; prepared
    /// transpose/overlay views feed the pull and auto paths directly
    /// (see [`Engine::run_prepared`]), and a host push PageRank gathers
    /// over a prepared transpose.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_pipeline`].
    pub fn run_prepared_pipeline(
        &self,
        prepared: &PreparedGraph,
        pipeline: &Pipeline,
        source: Option<NodeId>,
    ) -> Result<PipelineOutput, EngineError> {
        let rep = Representation::from_prepared(prepared);
        self.admit(&rep, pipeline, source)?;
        self.run_pipeline_validated(&rep, PullSide::of(prepared), pipeline, source)
    }

    /// The checks every single-run entry makes before anything runs:
    /// the device budget, the source's range over `rep`, and the plan
    /// gate ([`ExecutionPlan::validate_pipeline`]).
    fn admit(
        &self,
        rep: &Representation<'_>,
        pipeline: &Pipeline,
        source: Option<NodeId>,
    ) -> Result<(), EngineError> {
        self.check_footprint(rep)?;
        check_source(rep, source)?;
        Ok(self.plan.validate_pipeline(rep, pipeline, source)?)
    }

    fn run_pipeline_validated(
        &self,
        rep: &Representation<'_>,
        pull: Option<PullSide<'_>>,
        pipeline: &Pipeline,
        source: Option<NodeId>,
    ) -> Result<PipelineOutput, EngineError> {
        match &pipeline.body {
            PipelineBody::Monotone { prog, rounds, post } => {
                let out = match rounds {
                    None => self.dispatch_monotone(rep, pull, *prog, source, &self.plan)?,
                    Some(rounds) => self.run_rounds(rep, *prog, source, *rounds)?,
                };
                let mut values = out.values;
                pipeline.apply_lane_post(&mut values);
                if *post == Some(ComputeStep::Predecessors) {
                    let src = source.expect("validated: paths requires a source");
                    let preds = predecessors(rep.graph(), prog.edge_op, &values, src);
                    values.extend_from_slice(&preds);
                }
                Ok(PipelineOutput {
                    values,
                    iterations: out.directions.len() as u64,
                    converged: out.converged,
                    cancelled: out.cancelled,
                    report: out.report,
                    edges_touched: out.edges_touched,
                    directions: out.directions,
                })
            }
            // Neither float driver sweeps a monotone frontier.
            PipelineBody::PageRank(options) => {
                let out = self.pagerank_over(rep, pull, options);
                Ok(PipelineOutput {
                    values: float_bits(out.ranks),
                    iterations: out.iterations as u64,
                    converged: out.converged,
                    cancelled: out.cancelled,
                    report: out.report,
                    edges_touched: 0,
                    directions: Vec::new(),
                })
            }
            PipelineBody::Betweenness => {
                let src = source.expect("validated: bc requires a source");
                let cancel = &self.plan.cancel;
                let out = match self.plan.backend {
                    BackendKind::WarpSim => bc::run_cancellable(&self.sim, rep, src, cancel),
                    _ => bc::run_cancellable(&HostLoop, rep, src, cancel),
                };
                Ok(PipelineOutput {
                    values: float_bits(out.centrality),
                    iterations: out.iterations as u64,
                    converged: !out.cancelled,
                    cancelled: out.cancelled,
                    report: out.report,
                    edges_touched: 0,
                    directions: Vec::new(),
                })
            }
            PipelineBody::ComputeOnly(ComputeStep::TriangleCount) => Ok(PipelineOutput {
                values: triangle_counts(rep.graph()),
                iterations: 0,
                converged: true,
                cancelled: false,
                report: SimReport::new(),
                edges_touched: 0,
                directions: Vec::new(),
            }),
            PipelineBody::ComputeOnly(step) => {
                unreachable!("{step:?} is not a standalone pipeline")
            }
        }
    }

    /// Runs a monotone program for exactly `rounds` synchronous (BSP)
    /// full sweeps — the label-propagation schedule. The pipeline pins
    /// push + BSP + no worklist so the per-round state is the classic
    /// Jacobi iteration on every backend.
    fn run_rounds(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        rounds: usize,
    ) -> Result<MonotoneOutput, EngineError> {
        let mut plan = self.plan.clone();
        plan.direction = Direction::Push;
        plan.push.worklist = false;
        plan.push.sync = SyncMode::Bsp;
        plan.push.max_iterations = rounds;
        self.dispatch_monotone(rep, None, prog, source, &plan)
    }

    /// Runs a batched multi-source monotone program: every lane of
    /// `batch` advances through one fused sequence of sweeps over
    /// `rep`, sharing each node's adjacency walk across lanes (see
    /// [`crate::batch`]). Per-lane cancellation comes from the lanes
    /// themselves, not the engine's plan token.
    ///
    /// Every backend runs the host lane driver (the simulator has no
    /// batched path). Push and auto (whose fixpoint equals push's) run
    /// [`run_batch_push`]; a forced pull runs each lane as its solo
    /// pull run. [`BackendKind::CpuPool`] deals the lanes in contiguous
    /// chunks across its [`CpuOptions::threads`] workers; every other
    /// backend runs them on the calling thread. Either way every lane's
    /// output is **byte**-equal to its solo run, whatever the thread
    /// count or the batchmates.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_pipeline`].
    pub fn run_batch(
        &self,
        rep: &Representation<'_>,
        batch: &BatchProgram,
        arena: &mut BatchArena,
    ) -> Result<BatchOutput, EngineError> {
        self.run_batch_inner(rep, None, batch, arena)
    }

    /// Runs a batched multi-source monotone program over a
    /// [`PreparedGraph`] (see [`Engine::run_batch`]); a prepared
    /// transpose feeds every pull sweep directly.
    ///
    /// # Errors
    ///
    /// See [`Engine::run_pipeline`].
    pub fn run_prepared_batch(
        &self,
        prepared: &PreparedGraph,
        batch: &BatchProgram,
        arena: &mut BatchArena,
    ) -> Result<BatchOutput, EngineError> {
        let rep = Representation::from_prepared(prepared);
        self.run_batch_inner(&rep, PullSide::of(prepared), batch, arena)
    }

    fn run_batch_inner(
        &self,
        rep: &Representation<'_>,
        pull: Option<PullSide<'_>>,
        batch: &BatchProgram,
        arena: &mut BatchArena,
    ) -> Result<BatchOutput, EngineError> {
        self.check_footprint(rep)?;
        let plan = &self.plan;
        let prog = &batch.prog;
        check_split_invariance(rep, prog.edge_op.split_invariant(), prog.name)?;
        plan.validate(rep, prog)?;
        for lane in &batch.lanes {
            check_source(rep, lane.source)?;
        }
        let threads = match plan.backend {
            BackendKind::CpuPool => plan.cpu.threads,
            _ => 1,
        };
        if plan.direction != Direction::Pull {
            return Ok(run_batch_push(
                rep.graph(),
                batch,
                &plan.push,
                threads,
                arena,
            ));
        }
        // No fused gather: each lane is its own solo pull run under its
        // own token.
        let chunks = deal(
            batch.lanes.chunks(chunk_len(batch.lanes.len(), threads)),
            |lanes| {
                lanes
                    .iter()
                    .map(|lane| {
                        let lane_plan = ExecutionPlan {
                            cancel: lane.cancel.clone(),
                            ..plan.clone()
                        };
                        run_monotone(&HostLoop, rep, pull, batch.prog, lane.source, &lane_plan)
                    })
                    .collect::<Result<Vec<_>, _>>()
            },
        );
        let mut lanes = Vec::with_capacity(batch.lanes.len());
        for chunk in chunks {
            lanes.extend(chunk?);
        }
        let sweeps = lanes.iter().map(|l| l.directions.len()).max().unwrap_or(0);
        Ok(BatchOutput { lanes, sweeps })
    }

    /// The one PageRank dispatch, over the forward view `rep` and
    /// whatever transpose side the caller holds. Pull gathers over `rep`
    /// mirrored onto the transpose, building what `pull` lacks. A push
    /// on a host backend with a transpose at hand runs as the gather
    /// over the plain transpose — the same terms in the same order, so
    /// the same bits (see [`pr::PrMode::Push`]). The simulator always
    /// scatters: that is the paper's meter.
    fn pagerank_over(
        &self,
        rep: &Representation<'_>,
        pull: Option<PullSide<'_>>,
        options: &pr::PrOptions,
    ) -> pr::PrOutput {
        let degrees = pr::out_degrees(rep.graph());
        let run = |view: &Representation<'_>, options: &pr::PrOptions| {
            let cancel = &self.plan.cancel;
            match self.plan.backend {
                BackendKind::WarpSim => {
                    pr::run_cancellable(&self.sim, view, &degrees, options, cancel)
                }
                _ => pr::run_cancellable(&HostLoop, view, &degrees, options, cancel),
            }
        };
        match (options.mode, pull) {
            (pr::PrMode::Push, Some(side)) if self.plan.backend != BackendKind::WarpSim => {
                let gather = pr::PrOptions {
                    mode: pr::PrMode::Pull,
                    ..*options
                };
                run(&Representation::Original(side.reverse), &gather)
            }
            (pr::PrMode::Push, _) => run(rep, options),
            (pr::PrMode::Pull, _) => {
                let (built, built_overlay) = (OnceCell::new(), OnceCell::new());
                run(&pull_view(rep, pull, &built, &built_overlay), options)
            }
        }
    }
}

/// Reinterprets `f32` results as `u32` bit patterns in their own
/// buffer: PR/BC travel the same wire format as the monotone analytics.
fn float_bits(values: Vec<f32>) -> Vec<u32> {
    values.into_iter().map(f32::to_bits).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::star_graph;

    #[test]
    fn facade_runs_sssp() {
        let g = star_graph(10);
        let engine = Engine::new(GpuConfig::tiny());
        let out = engine
            .run_pipeline(
                &Representation::Original(&g),
                &Pipeline::sssp(),
                Some(NodeId::new(0)),
            )
            .unwrap();
        assert_eq!(out.values[1], 1);
    }

    #[test]
    fn oom_when_budget_too_small() {
        let g = star_graph(1000);
        let engine = Engine::new(GpuConfig::tiny()).with_device_memory(64);
        let err = engine
            .run_pipeline(
                &Representation::Original(&g),
                &Pipeline::sssp(),
                Some(NodeId::new(0)),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory(_)));
        assert!(err.to_string().contains("out of device memory"));
    }

    #[test]
    fn budget_large_enough_passes() {
        let g = star_graph(100);
        let ov = VirtualGraph::new(&g, 10);
        let engine = Engine::new(GpuConfig::tiny()).with_device_memory(1 << 20);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        assert!(engine.check_footprint(&rep).is_ok());
        assert!(engine
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .is_ok());
    }

    #[test]
    fn with_frontier_matches_full_sweep_with_fewer_relaxations() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let full = Engine::new(GpuConfig::tiny()).with_options(PushOptions {
            worklist: false,
            ..PushOptions::default()
        });
        let rep = Representation::Original(&g);
        let a = full
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        for mode in [
            FrontierMode::Auto,
            FrontierMode::Dense,
            FrontierMode::Sparse,
        ] {
            let engine = Engine::new(GpuConfig::tiny()).with_frontier(mode);
            assert!(engine.plan().push.worklist);
            let b = engine
                .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert_eq!(a.values, b.values, "mode={}", mode.label());
            assert!(
                b.edges_touched < a.edges_touched,
                "mode={}: {} vs {}",
                mode.label(),
                b.edges_touched,
                a.edges_touched
            );
        }
    }

    #[test]
    fn cpu_pool_matches_the_simulator_at_every_thread_count() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let rep = Representation::Original(&g);
        let sim = Engine::new(GpuConfig::tiny())
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        for threads in [1, 2, 3] {
            let engine = Engine::new(GpuConfig::tiny())
                .with_backend(BackendKind::CpuPool)
                .with_cpu_options(CpuOptions { threads });
            assert_eq!(engine.plan().cpu.threads, threads);
            let out = engine
                .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert_eq!(out.values, sim.values, "threads={threads}");
            assert!(out.converged && !out.cancelled, "threads={threads}");
        }
    }

    /// Push, pull and auto on the pool all stop at the plan's cap.
    #[test]
    fn cpu_pool_honours_the_iteration_cap_in_every_direction() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let rep = Representation::Original(&g);
        for direction in Direction::ALL {
            let out = Engine::new(GpuConfig::tiny())
                .with_backend(BackendKind::CpuPool)
                .with_direction(direction)
                .with_cpu_options(CpuOptions { threads: 2 })
                .with_options(PushOptions {
                    max_iterations: 1,
                    ..PushOptions::default()
                })
                .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert!(!out.converged, "{}", direction.label());
            assert!(!out.cancelled, "{}", direction.label());
            assert_eq!(out.directions.len(), 1, "{}", direction.label());
        }
    }

    /// A prepared transpose reaches every backend's pull sweeps: a
    /// prepared run builds none, where the same query over the bare CSR
    /// builds its own — once for a forced pull, at most once for auto
    /// (only if the density switch ever gathers).
    #[test]
    fn prepared_runs_reuse_the_prepared_transpose_on_every_backend() {
        use crate::batch::tests::TRANSPOSES_BUILT;
        let built = || TRANSPOSES_BUILT.with(|c| c.get());
        let store = tigr_core::GraphStore::disabled();
        for virtual_k in [None, Some(4)] {
            let mut spec = tigr_core::PrepareSpec::generated("rmat:8:6", 5)
                .with_uniform_weights(1, 9, 2)
                .with_transpose(true);
            if let Some(k) = virtual_k {
                spec = spec.with_virtual(k, true);
            }
            let prepared = store.prepare(&spec).unwrap();
            let bare = Representation::from_prepared(&prepared);
            let src = Some(NodeId::new(0));
            for backend in [
                BackendKind::WarpSim,
                BackendKind::Sequential,
                BackendKind::CpuPool,
            ] {
                for direction in [Direction::Pull, Direction::Auto] {
                    let label = format!("{}/{}/{virtual_k:?}", backend.label(), direction.label());
                    let engine = Engine::new(GpuConfig::tiny())
                        .with_backend(backend)
                        .with_direction(direction)
                        .with_cpu_options(CpuOptions { threads: 2 });
                    let before = built();
                    let prep = engine
                        .run_prepared(&prepared, MonotoneProgram::SSSP, src)
                        .unwrap();
                    let pipe = engine
                        .run_prepared_pipeline(&prepared, &crate::operators::Pipeline::sssp(), src)
                        .unwrap();
                    assert_eq!(
                        built(),
                        before,
                        "{label}: a prepared run rebuilt the transpose"
                    );
                    let raw = engine.run_pipeline(&bare, &Pipeline::sssp(), src).unwrap();
                    let gathered = raw.directions.contains(&Direction::Pull);
                    assert_eq!(built(), before + usize::from(gathered), "{label}");
                    if direction == Direction::Pull {
                        assert!(gathered, "{label}");
                    }
                    assert_eq!(prep.values, raw.values, "{label}");
                    assert_eq!(pipe.values, raw.values, "{label}");
                }
            }
        }
    }

    #[test]
    fn parallel_engine_matches_sequential_results() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let seq = Engine::new(GpuConfig::default());
        let par = Engine::parallel(GpuConfig::default());
        let a = seq
            .run_pipeline(
                &Representation::Original(&g),
                &Pipeline::bfs(),
                Some(NodeId::new(0)),
            )
            .unwrap();
        let b = par
            .run_pipeline(
                &Representation::Original(&g),
                &Pipeline::bfs(),
                Some(NodeId::new(0)),
            )
            .unwrap();
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn every_direction_runs_through_the_facade() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let rep = Representation::Original(&g);
        let reference = Engine::new(GpuConfig::tiny())
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        for direction in crate::plan::Direction::ALL {
            let engine = Engine::new(GpuConfig::tiny()).with_direction(direction);
            let out = engine
                .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert_eq!(out.values, reference.values, "{}", direction.label());
        }
    }

    #[test]
    fn invalid_plan_surfaces_as_typed_engine_error() {
        let g = star_graph(64);
        let t = tigr_core::udt_transform(&g, 8, tigr_core::DumbWeight::Zero);
        let engine = Engine::new(GpuConfig::tiny()).with_direction(Direction::Pull);
        let err = engine
            .run_pipeline(
                &Representation::Physical(&t),
                &Pipeline::bfs(),
                Some(NodeId::new(0)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            EngineError::InvalidPlan(PlanError::PullOverPhysical)
        ));
        assert!(err.to_string().contains("invalid plan"));
    }

    #[test]
    fn run_prepared_matches_adhoc_plumbing_every_direction() {
        let store = tigr_core::GraphStore::disabled();
        let spec = tigr_core::PrepareSpec::generated("rmat:8:6", 3)
            .with_virtual(8, true)
            .with_transpose(true);
        let prepared = store.prepare(&spec).unwrap();
        assert!(prepared.transpose().is_some());
        assert!(prepared.rev_overlay().is_some());

        let g = prepared.graph().clone();
        let ov = VirtualGraph::coalesced(&g, 8);
        let adhoc_rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        for direction in crate::plan::Direction::ALL {
            let engine = Engine::new(GpuConfig::tiny()).with_direction(direction);
            let prep = engine
                .run_prepared(&prepared, MonotoneProgram::BFS, Some(NodeId::new(0)))
                .unwrap();
            let adhoc = engine
                .run_pipeline(&adhoc_rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert_eq!(prep.values, adhoc.values, "{}", direction.label());
        }
    }

    #[test]
    fn run_prepared_agrees_across_backends() {
        let store = tigr_core::GraphStore::disabled();
        let spec = tigr_core::PrepareSpec::generated("rmat:8:6", 5)
            .with_uniform_weights(1, 9, 2)
            .with_transpose(true);
        let prepared = store.prepare(&spec).unwrap();
        let reference = Engine::new(GpuConfig::tiny())
            .run_prepared(&prepared, MonotoneProgram::SSSP, Some(NodeId::new(0)))
            .unwrap();
        for backend in [BackendKind::CpuPool, BackendKind::Sequential] {
            let out = Engine::new(GpuConfig::tiny())
                .with_backend(backend)
                .run_prepared(&prepared, MonotoneProgram::SSSP, Some(NodeId::new(0)))
                .unwrap();
            assert_eq!(out.values, reference.values, "{}", backend.label());
        }
    }

    #[test]
    fn prepared_transform_runs_as_physical() {
        let store = tigr_core::GraphStore::disabled();
        let spec = tigr_core::PrepareSpec::generated("star:64", 0).with_transform(
            tigr_core::TransformKind::Udt,
            Some(8),
            tigr_core::DumbWeight::Zero,
        );
        let prepared = store.prepare(&spec).unwrap();
        let rep = Representation::from_prepared(&prepared);
        assert_eq!(rep.label(), "physical");
        let engine = Engine::new(GpuConfig::tiny());
        let out = engine
            .run_prepared(&prepared, MonotoneProgram::BFS, Some(NodeId::new(0)))
            .unwrap();
        let projected = prepared.transformed().unwrap().project_values(&out.values);
        // Every leaf of the star is reachable despite the split.
        assert!(projected[1..].iter().all(|&v| v != u32::MAX));
    }

    #[test]
    fn pull_pagerank_uses_the_prepared_transpose() {
        let store = tigr_core::GraphStore::disabled();
        let spec = tigr_core::PrepareSpec::generated("rmat:8:6", 3)
            .with_virtual(8, false)
            .with_transpose(true);
        let prepared = store.prepare(&spec).unwrap();
        let options = pr::PrOptions {
            mode: pr::PrMode::Pull,
            ..pr::PrOptions::default()
        };
        let engine = Engine::new(GpuConfig::tiny());
        let pipeline = Pipeline::pagerank(options);
        let with_views = engine
            .run_prepared_pipeline(&prepared, &pipeline, None)
            .unwrap();

        // Same spec without prepared pull views: built on the fly.
        let bare = store
            .prepare(&tigr_core::PrepareSpec::generated("rmat:8:6", 3).with_virtual(8, false))
            .unwrap();
        let without_views = engine
            .run_prepared_pipeline(&bare, &pipeline, None)
            .unwrap();
        assert_eq!(with_views.values, without_views.values);
    }

    /// A host push `pr` over a prepared transpose gathers over it and
    /// builds none; over a prepared graph without one it scatters, and
    /// builds none either. Every backend returns the simulator's bits.
    #[test]
    fn host_push_pagerank_gathers_over_the_prepared_transpose() {
        use crate::batch::tests::TRANSPOSES_BUILT;
        let built = || TRANSPOSES_BUILT.with(|c| c.get());
        let store = tigr_core::GraphStore::disabled();
        let pipeline = Pipeline::pagerank(pr::PrOptions::default());
        for transpose in [true, false] {
            let spec = tigr_core::PrepareSpec::generated("rmat:8:6", 5)
                .with_virtual(4, true)
                .with_transpose(transpose);
            let prepared = store.prepare(&spec).unwrap();
            let warp = Engine::new(GpuConfig::tiny())
                .run_prepared_pipeline(&prepared, &pipeline, None)
                .unwrap();
            assert_eq!(warp.iterations, warp.report.num_iterations() as u64);
            for backend in [BackendKind::Sequential, BackendKind::CpuPool] {
                let label = format!("{}/transpose={transpose}", backend.label());
                let engine = Engine::new(GpuConfig::tiny()).with_backend(backend);
                let before = built();
                let host = engine
                    .run_prepared_pipeline(&prepared, &pipeline, None)
                    .unwrap();
                assert_eq!(built(), before, "{label}: built a transpose");
                assert_eq!(host.values, warp.values, "{label}");
                assert_eq!(host.iterations, warp.iterations, "{label}");
                assert_eq!(host.report.num_iterations(), 0, "{label}");
            }
        }
    }

    /// UDT changes the out-degrees PageRank divides by: over a physically
    /// split prepared graph every backend and mode refuses, as the
    /// pipeline entry point does.
    #[test]
    fn pagerank_over_a_physical_split_is_an_invalid_plan() {
        let store = tigr_core::GraphStore::disabled();
        let spec = tigr_core::PrepareSpec::generated("rmat:8:6", 3)
            .with_transform(
                tigr_core::TransformKind::Udt,
                Some(4),
                tigr_core::DumbWeight::Unweighted,
            )
            .with_transpose(true);
        let prepared = store.prepare(&spec).unwrap();
        let refused = |err: EngineError| {
            matches!(
                err,
                EngineError::InvalidPlan(PlanError::NotSplitInvariant { pipeline: "pr" })
            )
        };
        for backend in [
            BackendKind::WarpSim,
            BackendKind::Sequential,
            BackendKind::CpuPool,
        ] {
            let engine = Engine::new(GpuConfig::tiny()).with_backend(backend);
            for mode in [pr::PrMode::Push, pr::PrMode::Pull] {
                let options = pr::PrOptions {
                    mode,
                    ..pr::PrOptions::default()
                };
                let label = format!("{}/{mode:?}", backend.label());
                let err = engine
                    .run_prepared_pipeline(&prepared, &Pipeline::pagerank(options), None)
                    .unwrap_err();
                assert!(refused(err), "{label}");
            }
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_backend_at_iteration_zero() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let rep = Representation::Original(&g);
        let token = CancelToken::new();
        token.cancel();
        let cells = [BackendKind::WarpSim, BackendKind::Sequential]
            .map(|backend| (backend, Direction::Push))
            .into_iter()
            .chain(Direction::ALL.map(|d| (BackendKind::CpuPool, d)));
        for (backend, direction) in cells {
            let label = format!("{}/{}", backend.label(), direction.label());
            let engine = Engine::new(GpuConfig::tiny())
                .with_backend(backend)
                .with_direction(direction)
                .with_cancel(token.clone());
            let out = engine
                .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert!(out.cancelled, "{label}");
            assert!(!out.converged, "{label}");
            assert!(out.directions.is_empty(), "{label}");
            // Cancellation at iteration zero leaves the initial values:
            // the source is 0, everything else unreached.
            assert_eq!(out.values[0], 0, "{label}");
            assert!(out.values[1..].iter().all(|&v| v == u32::MAX), "{label}");
        }
    }

    #[test]
    fn cancelled_runs_cover_every_direction_and_pagerank() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let rep = Representation::Original(&g);
        let token = CancelToken::new();
        token.cancel();
        for direction in crate::plan::Direction::ALL {
            let engine = Engine::new(GpuConfig::tiny())
                .with_direction(direction)
                .with_cancel(token.clone());
            let out = engine
                .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
                .unwrap();
            assert!(out.cancelled && !out.converged, "{}", direction.label());
        }
        let pagerank = Pipeline::pagerank(pr::PrOptions::default());
        let engine = Engine::new(GpuConfig::tiny()).with_cancel(token.clone());
        let pr_out = engine.run_pipeline(&rep, &pagerank, None).unwrap();
        assert!(pr_out.cancelled && !pr_out.converged);
        let pool = Engine::new(GpuConfig::tiny())
            .with_backend(BackendKind::CpuPool)
            .with_cancel(token);
        let pool_pr = pool.run_pipeline(&rep, &pagerank, None).unwrap();
        assert!(pool_pr.cancelled && !pool_pr.converged);
        let bc = pool
            .run_pipeline(&rep, &Pipeline::betweenness(), Some(NodeId::new(0)))
            .unwrap();
        assert!(bc.cancelled);
    }

    #[test]
    fn inert_token_changes_nothing() {
        let g = tigr_graph::generators::grid_2d(8, 8);
        let rep = Representation::Original(&g);
        let plain = Engine::new(GpuConfig::tiny())
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        let inert = Engine::new(GpuConfig::tiny())
            .with_cancel(CancelToken::new())
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        assert!(!inert.cancelled);
        assert!(inert.converged);
        assert_eq!(plain.values, inert.values);
    }

    #[test]
    fn pagerank_and_betweenness_dispatch_on_the_backend() {
        let g =
            tigr_graph::generators::rmat(&tigr_graph::generators::RmatConfig::graph500(7, 6), 9);
        let ov = VirtualGraph::coalesced(&g, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        let pagerank = Pipeline::pagerank(pr::PrOptions::default());
        let (bc, src) = (Pipeline::betweenness(), Some(NodeId::new(1)));
        let warp = Engine::new(GpuConfig::tiny());
        let warp_pr = warp.run_pipeline(&rep, &pagerank, None).unwrap();
        let warp_bc = warp.run_pipeline(&rep, &bc, src).unwrap();
        assert_eq!(warp_pr.iterations, warp_pr.report.num_iterations() as u64);
        assert_eq!(warp_bc.iterations, warp_bc.report.num_iterations() as u64);
        for backend in [BackendKind::CpuPool, BackendKind::Sequential] {
            let host = Engine::new(GpuConfig::tiny()).with_backend(backend);
            let host_pr = host.run_pipeline(&rep, &pagerank, None).unwrap();
            assert_eq!(host_pr.values, warp_pr.values);
            assert_eq!(host_pr.iterations, warp_pr.iterations);
            assert_eq!(host_pr.report.num_iterations(), 0, "no simulator ran");
            let host_bc = host.run_pipeline(&rep, &bc, src).unwrap();
            assert_eq!(host_bc.values, warp_bc.values);
            assert_eq!(host_bc.iterations, warp_bc.iterations);
            assert_eq!(host_bc.report.num_iterations(), 0, "no simulator ran");
        }
    }

    #[test]
    fn sequential_backend_through_facade() {
        let g = tigr_graph::generators::grid_2d(6, 6);
        let rep = Representation::Original(&g);
        let warp = Engine::new(GpuConfig::tiny())
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        let seq = Engine::new(GpuConfig::tiny())
            .with_backend(BackendKind::Sequential)
            .run_pipeline(&rep, &Pipeline::bfs(), Some(NodeId::new(0)))
            .unwrap();
        assert_eq!(warp.values, seq.values);
        assert_eq!(seq.report.num_iterations(), 0, "no simulator accounting");
    }
}
