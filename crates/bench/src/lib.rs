//! Shared harness code for the evaluation reproduction: figure sweeps
//! (Figures 5 and 6), the Table I check and the ablation experiments. Both
//! the `repro` binary and the Criterion benches call into this crate.

use p2pdc::{
    derive_row, run_on, BackendExtras, ChurnPlan, ComputeModel, FigureRow, RunConfig, RuntimeKind,
    Scheme, WorkloadKind,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Peer counts used by the paper's experiments.
pub const PAPER_PEER_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// Configuration of a figure sweep. The paper's figures run the obstacle
/// workload (membrane instance); the sweep itself goes through the
/// workload-generic experiment driver.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureConfig {
    /// Grid size actually simulated.
    pub n: usize,
    /// Grid size of the paper experiment this sweep reproduces (96 or 144).
    pub paper_n: usize,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Peer counts to sweep.
    pub peer_counts: Vec<usize>,
}

impl FigureConfig {
    /// Figure 5 (96³). By default the grid is scaled down to `n = 32` for
    /// speed; pass `full = true` to run the paper's actual 96³ size.
    pub fn figure5(full: bool) -> Self {
        Self {
            n: if full { 96 } else { 32 },
            paper_n: 96,
            tolerance: 1e-4,
            peer_counts: PAPER_PEER_COUNTS.to_vec(),
        }
    }

    /// Figure 6 (144³), scaled to `n = 48` unless `full` is set.
    pub fn figure6(full: bool) -> Self {
        Self {
            n: if full { 144 } else { 48 },
            paper_n: 144,
            tolerance: 1e-4,
            peer_counts: PAPER_PEER_COUNTS.to_vec(),
        }
    }

    /// The compute model used for this sweep.
    ///
    /// When the grid is scaled down from the paper's size, the per-point cost
    /// is scaled **up** by the cube of the ratio, so each peer's relaxation
    /// takes the same *virtual* time as it would at full size. This preserves
    /// the computation/communication granularity — the quantity that decides
    /// where synchronous schemes collapse and asynchronous schemes keep their
    /// efficiency — while keeping the real (wall-clock) kernel cost small.
    pub fn compute_model(&self) -> ComputeModel {
        let base = ComputeModel::nicta_1ghz();
        let ratio = self.paper_n as f64 / self.n as f64;
        ComputeModel::calibrated(base.ns_per_point * ratio * ratio * ratio)
    }
}

/// A complete figure: one row per (scheme, topology, peer count).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureResult {
    /// Title (e.g. "Figure 5 (96x96x96)").
    pub title: String,
    /// Sweep configuration.
    pub config: FigureConfig,
    /// All rows.
    pub rows: Vec<FigureRow>,
}

/// Run a full figure sweep: every scheme × topology × peer count.
pub fn run_figure(title: &str, config: &FigureConfig) -> FigureResult {
    run_figure_filtered(title, config, |_, _, _| true)
}

/// Run a figure sweep restricted to the configurations accepted by `keep`
/// (scheme, clusters, peers). Used by the Criterion benches to time a subset.
pub fn run_figure_filtered<F>(title: &str, config: &FigureConfig, keep: F) -> FigureResult
where
    F: Fn(Scheme, usize, usize) -> bool,
{
    let compute = config.compute_model();
    // Single-peer reference (the speedup baseline of the paper's figures).
    let reference = run_single(config, compute, Scheme::Synchronous, 1, 1);
    let reference_elapsed = reference.elapsed;

    let mut rows = Vec::new();
    for &clusters in &[1usize, 2] {
        for &scheme in &[Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
            for &peers in &config.peer_counts {
                if peers == 1 {
                    // A single peer has no communication; the reference row
                    // already covers it (the paper's figures likewise have a
                    // single 1-machine bar).
                    continue;
                }
                if clusters == 2 && peers < 2 {
                    continue;
                }
                if !keep(scheme, clusters, peers) {
                    continue;
                }
                let measurement = run_single(config, compute, scheme, peers, clusters);
                rows.push(derive_row(
                    &scheme.to_string(),
                    if clusters == 1 {
                        "1 cluster"
                    } else {
                        "2 clusters"
                    },
                    reference_elapsed,
                    &measurement,
                ));
            }
        }
    }
    // Reference row first.
    let mut all_rows = vec![derive_row(
        "synchronous",
        "1 cluster",
        reference_elapsed,
        &reference,
    )];
    all_rows.extend(rows);
    FigureResult {
        title: title.to_string(),
        config: config.clone(),
        rows: all_rows,
    }
}

fn run_single(
    config: &FigureConfig,
    compute: ComputeModel,
    scheme: Scheme,
    peers: usize,
    clusters: usize,
) -> p2pdc::RunMeasurement {
    let workload = WorkloadKind::Obstacle.build(config.n, peers);
    let mut run = RunConfig::clustered(scheme, peers, clusters);
    run.tolerance = config.tolerance;
    run.compute = compute;
    run_on(workload.as_ref(), &run, RuntimeKind::Sim).measurement
}

/// One row of the (workload × scheme × runtime) matrix: one scenario run on
/// one of the backends, with the harness wall time alongside the
/// runtime's own elapsed metric (virtual for the simulated backend,
/// wall-clock for the others). This is the machine-readable shape CI
/// uploads as `BENCH_runtimes.json`, seeding the perf trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeBenchRow {
    /// Workload label ("obstacle", "heat", "pagerank").
    pub workload: String,
    /// Backend label ("sim", "loopback", "reactor").
    pub runtime: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Problem size (grid points per dimension for the PDE workloads,
    /// vertices for PageRank).
    pub size: usize,
    /// Number of peers.
    pub peers: usize,
    /// Real time the whole run took on the bench machine, in seconds.
    pub wall_time_s: f64,
    /// The elapsed time the runtime itself reported, in seconds.
    pub reported_elapsed_s: f64,
    /// Relaxations performed by each peer.
    pub relaxations_per_peer: Vec<u64>,
    /// Total relaxations across all peers.
    pub total_relaxations: u64,
    /// Whether the run converged.
    pub converged: bool,
    /// Residual of the assembled solution under the workload's metric.
    pub residual: f64,
}

/// One scenario of the runtime matrix: a workload at a fixed size, peer
/// count, tolerance and seed, shared by every backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeMatrixScenario {
    /// The workload to run.
    pub workload: WorkloadKind,
    /// Problem size (the workload's natural size knob).
    pub size: usize,
    /// Number of peers.
    pub peers: usize,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Seed shared by all backends.
    pub seed: u64,
}

impl RuntimeMatrixScenario {
    /// The CI bench-smoke scenario of one workload: small enough for
    /// seconds-scale runs, large enough to be meaningful (the obstacle
    /// boundary planes at n = 14 span multiple UDP datagrams and exercise
    /// reassembly; PageRank's tighter tolerance matches its ~1/n rank
    /// magnitudes). The sizes are bounded by the asynchronous × reactor cells:
    /// a free-running peer relaxes hundreds of times per real-socket round
    /// trip, so slowly-converging workloads at tight tolerances burn
    /// minutes of wall clock there.
    pub fn for_workload(workload: WorkloadKind) -> Self {
        let (size, tolerance) = match workload {
            WorkloadKind::Obstacle => (14, 1e-4),
            WorkloadKind::Heat => (12, 1e-3),
            WorkloadKind::PageRank => (240, 1e-6),
        };
        Self {
            workload,
            size,
            peers: 4,
            tolerance,
            seed: 42,
        }
    }

    /// The default CI scenario of every workload.
    pub fn all_workloads() -> Vec<Self> {
        WorkloadKind::ALL.map(Self::for_workload).to_vec()
    }

    /// Smaller-than-CI scenario of one workload, shared by the criterion
    /// bench and the test suite so both measure the same configuration.
    pub fn quick(workload: WorkloadKind) -> Self {
        let (size, tolerance) = match workload {
            WorkloadKind::Obstacle => (8, 1e-3),
            WorkloadKind::Heat => (12, 1e-3),
            WorkloadKind::PageRank => (60, 1e-6),
        };
        Self {
            workload,
            size,
            peers: 2,
            tolerance,
            seed: 42,
        }
    }
}

/// A complete (workload × scheme × runtime) matrix: the scenarios plus one
/// row per (workload, backend, scheme).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeMatrixResult {
    /// Artifact schema version (bump when the row shape changes).
    pub schema_version: u32,
    /// The scenarios the rows ran (one per workload).
    pub scenarios: Vec<RuntimeMatrixScenario>,
    /// All rows.
    pub rows: Vec<RuntimeBenchRow>,
    /// Peer-scaling curve on the reactor backend (empty when the matrix ran
    /// without the scale sweep; absent in pre-v3 artifacts).
    #[serde(default)]
    pub scale: Vec<ScaleBenchRow>,
}

/// Run one scenario on one backend and measure it, through the
/// workload-generic experiment driver.
pub fn run_runtime_once(
    scenario: &RuntimeMatrixScenario,
    runtime: RuntimeKind,
    scheme: Scheme,
) -> RuntimeBenchRow {
    let workload = scenario.workload.build(scenario.size, scenario.peers);
    let mut config = RunConfig::single_cluster(scheme, scenario.peers);
    config.tolerance = scenario.tolerance;
    config.seed = scenario.seed;
    let started = Instant::now();
    let result = run_on(workload.as_ref(), &config, runtime);
    let wall = started.elapsed();
    RuntimeBenchRow {
        workload: scenario.workload.label().to_string(),
        runtime: runtime.label().to_string(),
        scheme: scheme.to_string(),
        size: scenario.size,
        peers: scenario.peers,
        wall_time_s: wall.as_secs_f64(),
        reported_elapsed_s: result.measurement.elapsed.as_secs_f64(),
        relaxations_per_peer: result.measurement.relaxations_per_peer.clone(),
        total_relaxations: result.measurement.total_relaxations(),
        converged: result.measurement.converged,
        residual: result.measurement.residual,
    }
}

/// Run the full grid over the given scenarios: every workload × every
/// backend × the synchronous and asynchronous schemes.
pub fn run_runtime_matrix_for(scenarios: &[RuntimeMatrixScenario]) -> RuntimeMatrixResult {
    let mut rows = Vec::new();
    for scenario in scenarios {
        for runtime in RuntimeKind::ALL {
            for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
                rows.push(run_runtime_once(scenario, runtime, scheme));
            }
        }
    }
    RuntimeMatrixResult {
        schema_version: 3,
        scenarios: scenarios.to_vec(),
        rows,
        scale: Vec::new(),
    }
}

/// Run the default CI grid: all three workloads on every backend.
pub fn run_runtime_matrix() -> RuntimeMatrixResult {
    run_runtime_matrix_for(&RuntimeMatrixScenario::all_workloads())
}

/// Render the runtime matrix as text.
pub fn format_runtime_matrix(result: &RuntimeMatrixResult) -> String {
    let mut out = String::from("== Workload x runtime matrix ==\n");
    for s in &result.scenarios {
        out.push_str(&format!(
            "scenario: {} size={} peers={} tolerance={:e} seed={}\n",
            s.workload.label(),
            s.size,
            s.peers,
            s.tolerance,
            s.seed
        ));
    }
    out.push_str(&format!(
        "{:<10} {:<10} {:<14} {:>13} {:>15} {:>13} {:>10}\n",
        "workload", "runtime", "scheme", "wall [s]", "reported [s]", "relaxations", "converged"
    ));
    for r in &result.rows {
        out.push_str(&format!(
            "{:<10} {:<10} {:<14} {:>13.3} {:>15.3} {:>13} {:>10}\n",
            r.workload,
            r.runtime,
            r.scheme,
            r.wall_time_s,
            r.reported_elapsed_s,
            r.total_relaxations,
            r.converged
        ));
    }
    out
}

/// One row of the peer-scaling curve: the reactor backend multiplexing
/// `peers` engines over nonblocking localhost sockets on a handful of event
/// loops — the regime where one OS thread per peer stops scaling.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBenchRow {
    /// Backend label (always "reactor" today).
    pub runtime: String,
    /// Workload label (the curve runs PageRank: its vertex count scales
    /// linearly with the peer count, keeping per-peer work constant).
    pub workload: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Number of peers multiplexed onto the event loops.
    pub peers: usize,
    /// Problem size (PageRank vertices = 4 × peers).
    pub size: usize,
    /// Event loops the run was multiplexed onto.
    pub event_loops: usize,
    /// Whether the run included one seeded crash + recovery.
    pub churn: bool,
    /// Real time the whole run took on the bench machine, in seconds.
    pub wall_time_s: f64,
    /// The elapsed time the runtime itself reported, in seconds.
    pub reported_elapsed_s: f64,
    /// Total relaxations across all peers.
    pub total_relaxations: u64,
    /// Whether the run converged.
    pub converged: bool,
    /// Residual of the assembled solution under the workload's metric.
    pub residual: f64,
    /// Crashes injected (0 on fault-free rows).
    pub crashes: u64,
    /// Recoveries completed (must equal `crashes` on a healthy run).
    pub recoveries: u64,
}

/// Run one cell of the peer-scaling curve: PageRank with 4 vertices per
/// peer, asynchronous scheme, on the reactor backend; optionally with one
/// seeded mid-run crash (checkpointed, detected, recovered live).
pub fn run_scale_once(peers: usize, churn: bool) -> ScaleBenchRow {
    let size = peers * 4;
    let workload = WorkloadKind::PageRank.build(size, peers);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers).with_extras(
        BackendExtras::Reactor {
            event_loops: 0, // auto: one per core
            loss_probability: 0.0,
            reorder_probability: 0.0,
        },
    );
    config.tolerance = 1e-6;
    if churn {
        config = config.with_churn(ChurnPlan::kill(peers / 2, 12).with_checkpoint_interval(5));
    }
    let event_loops = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, peers);
    let started = Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let wall = started.elapsed();
    ScaleBenchRow {
        runtime: RuntimeKind::Reactor.label().to_string(),
        workload: WorkloadKind::PageRank.label().to_string(),
        scheme: Scheme::Asynchronous.to_string(),
        peers,
        size,
        event_loops,
        churn,
        wall_time_s: wall.as_secs_f64(),
        reported_elapsed_s: result.measurement.elapsed.as_secs_f64(),
        total_relaxations: result.measurement.total_relaxations(),
        converged: result.measurement.converged,
        residual: result.measurement.residual,
        crashes: result.measurement.crashes,
        recoveries: result.measurement.recoveries,
    }
}

/// Run the peer-scaling curve. The CI smoke sweep stops at 256 peers; the
/// full (local/nightly) sweep adds the 1024-peer point and a 1024-peer run
/// with one seeded crash + recovery.
pub fn run_scale_curve(full: bool) -> Vec<ScaleBenchRow> {
    let mut rows = vec![run_scale_once(64, false), run_scale_once(256, false)];
    if full {
        rows.push(run_scale_once(1024, false));
        rows.push(run_scale_once(1024, true));
    }
    rows
}

/// Render the peer-scaling curve as text.
pub fn format_scale_curve(rows: &[ScaleBenchRow]) -> String {
    let mut out = String::from("== Reactor peer-scaling curve ==\n");
    out.push_str(&format!(
        "{:<8} {:<8} {:<7} {:>10} {:>13} {:>13} {:>8} {:>10}\n",
        "peers", "loops", "churn", "wall [s]", "relaxations", "crash/rec", "conv", "residual"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<8} {:<7} {:>10.3} {:>13} {:>13} {:>8} {:>10.2e}\n",
            r.peers,
            r.event_loops,
            r.churn,
            r.wall_time_s,
            r.total_relaxations,
            format!("{}/{}", r.crashes, r.recoveries),
            r.converged,
            r.residual
        ));
    }
    out
}

/// One row of the churn grid: one (workload, scheme, runtime, churn level)
/// cell, with the volatility counters and the overhead against the
/// fault-free baseline of the same cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnBenchRow {
    /// Workload label ("obstacle", "heat", "pagerank").
    pub workload: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Backend label ("sim", "loopback", "reactor").
    pub runtime: String,
    /// Churn level: "none" (fault-free baseline), "crash1" (one seeded
    /// mid-run crash, original blocks restored), "crash1+repart" (same crash
    /// with live repartitioning applied at recovery), "crash1+join" (the
    /// crash plus a new peer joining mid-run and taking a share of the work
    /// via the same re-slice). Heterogeneous-capacity cells (one slow peer)
    /// carry a "hetero-" prefix.
    pub churn: String,
    /// Problem size.
    pub size: usize,
    /// Number of peers.
    pub peers: usize,
    /// Whether the run converged.
    pub converged: bool,
    /// Crash events injected.
    pub crashes: u64,
    /// Completed recoveries.
    pub recoveries: u64,
    /// Synchronous rollback broadcasts.
    pub rollbacks: u64,
    /// Total peer downtime in seconds of the backend's clock.
    pub downtime_s: f64,
    /// Peers that joined mid-run.
    pub joins: u64,
    /// Live repartitions applied (at recovery and at joins).
    pub repartitions: u64,
    /// Grid points whose owning rank changed across the repartitions.
    pub moved_points: u64,
    /// Real time the whole run took on the bench machine, in seconds.
    pub wall_time_s: f64,
    /// Total relaxations across all peers (final task counters — a
    /// checkpoint restore rewinds them, so this understates faulty work).
    pub total_relaxations: u64,
    /// Total grid points actually relaxed across all peers — every executed
    /// sweep counts, including the ones a restore or rollback redid.
    pub total_points: u64,
    /// Residual of the assembled solution under the workload's metric.
    pub residual: f64,
    /// Work overhead vs the fault-free baseline of the same cell, in
    /// percent of total points relaxed (0 for the baseline rows themselves).
    pub overhead_work_pct: f64,
}

/// The full churn grid: (workload × scheme × runtime × churn level).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnGridResult {
    /// Artifact schema version (bump when the row shape changes).
    pub schema_version: u32,
    /// The churn plan template applied to the crash cells, per workload
    /// label (crash iterations depend on each cell's baseline progress).
    pub plans: Vec<(String, ChurnPlan)>,
    /// All rows.
    pub rows: Vec<ChurnBenchRow>,
}

fn churn_row(
    scenario: &RuntimeMatrixScenario,
    runtime: RuntimeKind,
    scheme: Scheme,
    churn: &str,
    config: &RunConfig,
    baseline_points: Option<u64>,
) -> ChurnBenchRow {
    let workload = scenario.workload.build(scenario.size, scenario.peers);
    let started = Instant::now();
    let result = run_on(workload.as_ref(), config, runtime);
    let wall = started.elapsed();
    let total_points = result.measurement.total_points_relaxed();
    let overhead = baseline_points
        .filter(|&b| b > 0)
        .map(|b| (total_points as f64 / b as f64 - 1.0) * 100.0)
        .unwrap_or(0.0);
    ChurnBenchRow {
        workload: scenario.workload.label().to_string(),
        scheme: scheme.to_string(),
        runtime: runtime.label().to_string(),
        churn: churn.to_string(),
        size: scenario.size,
        peers: scenario.peers,
        converged: result.measurement.converged,
        crashes: result.measurement.crashes,
        recoveries: result.measurement.recoveries,
        rollbacks: result.measurement.rollbacks,
        downtime_s: result.measurement.downtime_s,
        joins: result.measurement.joins,
        repartitions: result.measurement.repartitions,
        moved_points: result.measurement.moved_points,
        wall_time_s: wall.as_secs_f64(),
        total_relaxations: result.measurement.total_relaxations(),
        total_points,
        residual: result.measurement.residual,
        overhead_work_pct: overhead,
    }
}

/// Run the churn grid over the given scenarios and runtimes: for every
/// (workload, scheme, runtime) cell, a fault-free baseline plus a run with
/// one seeded crash at ~30% of the baseline's convergence iteration —
/// recovery counts and overhead land in the rows.
pub fn run_churn_grid_for(
    scenarios: &[RuntimeMatrixScenario],
    runtimes: &[RuntimeKind],
) -> ChurnGridResult {
    let mut rows = Vec::new();
    let mut plans = Vec::new();
    for scenario in scenarios {
        for &runtime in runtimes {
            for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
                let mut config = RunConfig::single_cluster(scheme, scenario.peers);
                config.tolerance = scenario.tolerance;
                config.seed = scenario.seed;
                let baseline = churn_row(scenario, runtime, scheme, "none", &config, None);
                let baseline_points = baseline.total_points;
                // Crash the middle rank at ~10% of the baseline's per-peer
                // progress, checkpointing twice before the crash point; the
                // join (where scheduled) fires at ~20% on rank 0's clock.
                // Early triggers matter on the wall-clock asynchronous
                // cells: relaxation counts there depend on scheduling, and
                // a churn-armed run (heartbeats, detection threads) can
                // converge in fewer sweeps than the fault-free baseline —
                // a trigger calibrated deep into the baseline's horizon
                // would never fire.
                let per_peer = baseline.total_relaxations / scenario.peers as u64;
                let crash_at = (per_peer / 10).max(2);
                let join_at = (per_peer / 5).max(crash_at + 1);
                let plan = ChurnPlan::kill(scenario.peers / 2, crash_at)
                    .with_checkpoint_interval((crash_at / 2).max(1));
                rows.push(baseline);
                for (label, plan) in [
                    ("crash1", plan.clone()),
                    ("crash1+repart", plan.clone().with_repartition(true)),
                    (
                        "crash1+join",
                        plan.clone().with_repartition(true).with_join(0, join_at),
                    ),
                ] {
                    let faulty_config = config.clone().with_churn(plan);
                    rows.push(churn_row(
                        scenario,
                        runtime,
                        scheme,
                        label,
                        &faulty_config,
                        Some(baseline_points),
                    ));
                }
                if runtime == runtimes[0] && scheme == Scheme::Synchronous {
                    plans.push((scenario.workload.label().to_string(), plan));
                }
            }
        }
    }
    ChurnGridResult {
        schema_version: 2,
        plans,
        rows,
    }
}

/// The heterogeneous-capacity cells: the obstacle workload on the simulated
/// backend with one peer at 40% CPU speed, one seeded crash, with and
/// without live repartitioning. These are the cells where applying the
/// capacity-weighted shares pays: the re-slice moves planes off the slow
/// peer, so the repartitioned recovery's executed-work overhead is no worse
/// than restoring the original (mis-sized) blocks.
pub fn run_churn_hetero_cells() -> Vec<ChurnBenchRow> {
    let scenario = RuntimeMatrixScenario::quick(WorkloadKind::Obstacle);
    let slow_rank = 0usize;
    let victim = scenario.peers / 2;
    let mut rows = Vec::new();
    for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
        let mut config = RunConfig::single_cluster(scheme, scenario.peers);
        config.tolerance = scenario.tolerance;
        config.seed = scenario.seed;
        config
            .topology
            .set_cpu_speed(netsim::NodeId(slow_rank), 0.4);
        let baseline = churn_row(
            &scenario,
            RuntimeKind::Sim,
            scheme,
            "hetero-none",
            &config,
            None,
        );
        let baseline_points = baseline.total_points;
        let per_peer = baseline.total_relaxations / scenario.peers as u64;
        let crash_at = (per_peer * 3 / 10).max(2);
        let plan =
            ChurnPlan::kill(victim, crash_at).with_checkpoint_interval((crash_at / 2).max(1));
        rows.push(baseline);
        for (label, plan) in [
            ("hetero-crash1", plan.clone()),
            ("hetero-crash1+repart", plan.with_repartition(true)),
        ] {
            rows.push(churn_row(
                &scenario,
                RuntimeKind::Sim,
                scheme,
                label,
                &config.clone().with_churn(plan),
                Some(baseline_points),
            ));
        }
    }
    rows
}

/// Run the default CI churn grid: all three workloads on every backend
/// (fault-free, crash, crash+repartition, crash+join per cell), plus the
/// heterogeneous-capacity repartition-on/off cells.
pub fn run_churn_grid() -> ChurnGridResult {
    let mut result = run_churn_grid_for(
        &RuntimeMatrixScenario::all_workloads()
            .iter()
            .map(|s| RuntimeMatrixScenario::quick(s.workload))
            .collect::<Vec<_>>(),
        &RuntimeKind::ALL,
    );
    result.rows.extend(run_churn_hetero_cells());
    result
}

/// Render the churn grid as text.
pub fn format_churn_grid(result: &ChurnGridResult) -> String {
    let mut out = String::from("== Churn grid: volatility x scheme x runtime ==\n");
    out.push_str(&format!(
        "{:<10} {:<14} {:<10} {:<20} {:>9} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>12} {:>13} {:>12}\n",
        "workload",
        "scheme",
        "runtime",
        "churn",
        "converged",
        "crash",
        "recov",
        "rollbk",
        "joins",
        "repart",
        "moved",
        "downtime[s]",
        "relaxations",
        "overhead[%]"
    ));
    for r in &result.rows {
        out.push_str(&format!(
            "{:<10} {:<14} {:<10} {:<20} {:>9} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>12.4} {:>13} {:>12.1}\n",
            r.workload,
            r.scheme,
            r.runtime,
            r.churn,
            r.converged,
            r.crashes,
            r.recoveries,
            r.rollbacks,
            r.joins,
            r.repartitions,
            r.moved_points,
            r.downtime_s,
            r.total_relaxations,
            r.overhead_work_pct
        ));
    }
    out
}

/// The Table I verification: for every (scheme, connection) cell, the
/// controller's decision compared to the paper's table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Scheme of computation.
    pub scheme: String,
    /// Connection type.
    pub connection: String,
    /// Communication mode the controller selected.
    pub mode: String,
    /// Reliability the controller selected.
    pub reliability: String,
    /// Congestion control the controller selected.
    pub congestion: String,
    /// The paper's expected (mode, reliability) for that cell.
    pub paper_expected: String,
    /// Whether the decision matches the paper.
    pub matches_paper: bool,
}

/// Evaluate all six cells of Table I against the paper.
pub fn run_table1() -> Vec<Table1Row> {
    use netsim::ConnectionType;
    use p2psap::{CommunicationMode, Controller, Reliability};
    let controller = Controller::with_table1_rules();
    let expectations = [
        (
            Scheme::Synchronous,
            ConnectionType::IntraCluster,
            "synchronous reliable",
        ),
        (
            Scheme::Synchronous,
            ConnectionType::InterCluster,
            "synchronous reliable",
        ),
        (
            Scheme::Asynchronous,
            ConnectionType::IntraCluster,
            "asynchronous reliable",
        ),
        (
            Scheme::Asynchronous,
            ConnectionType::InterCluster,
            "asynchronous unreliable",
        ),
        (
            Scheme::Hybrid,
            ConnectionType::IntraCluster,
            "synchronous reliable",
        ),
        (
            Scheme::Hybrid,
            ConnectionType::InterCluster,
            "asynchronous unreliable",
        ),
    ];
    expectations
        .iter()
        .map(|(scheme, connection, expected)| {
            let cfg = controller.decide_for(*scheme, *connection);
            let mode = match cfg.mode {
                CommunicationMode::Synchronous => "synchronous",
                CommunicationMode::Asynchronous => "asynchronous",
            };
            let reliability = match cfg.reliability {
                Reliability::Reliable => "reliable",
                Reliability::Unreliable => "unreliable",
            };
            let decided = format!("{mode} {reliability}");
            Table1Row {
                scheme: scheme.to_string(),
                connection: match connection {
                    ConnectionType::IntraCluster => "intra-cluster".to_string(),
                    ConnectionType::InterCluster => "inter-cluster".to_string(),
                },
                mode: mode.to_string(),
                reliability: reliability.to_string(),
                congestion: format!("{:?}", cfg.congestion),
                paper_expected: expected.to_string(),
                matches_paper: decided == *expected,
            }
        })
        .collect()
}

/// Render the Table I verification as text.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("== Table I: communication adaptation rules ==\n");
    out.push_str(&format!(
        "{:<14} {:<14} {:<14} {:<12} {:<10} {:<24} {}\n",
        "scheme", "connection", "mode", "reliability", "congestion", "paper expects", "match"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<14} {:<14} {:<12} {:<10} {:<24} {}\n",
            r.scheme,
            r.connection,
            r.mode,
            r.reliability,
            r.congestion,
            r.paper_expected,
            r.matches_paper
        ));
    }
    out
}

/// One ablation comparison: the effect of pinning a data-channel design
/// choice away from the Table I decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Description of the variant.
    pub variant: String,
    /// Synchronous-send completion latency in milliseconds (mean).
    pub sync_send_latency_ms: f64,
    /// Number of data segments put on the wire for 100 application sends.
    pub wire_segments: u64,
}

/// Session-level ablation: compare reliable vs unreliable and New-Reno vs
/// H-TCP channels on an emulated lossy inter-cluster path by replaying a
/// fixed exchange of 100 sends with a given loss pattern.
pub fn run_ablation() -> Vec<AblationRow> {
    use bytes::Bytes;
    use p2psap::{ChannelConfig, Session};
    let mut rows = Vec::new();
    for (label, cfg, loss_every) in [
        (
            "async unreliable (Table I inter-cluster choice)",
            ChannelConfig::asynchronous_unreliable(),
            10usize,
        ),
        (
            "async reliable (ablation: keep reliability on the WAN)",
            ChannelConfig::asynchronous_reliable(),
            10usize,
        ),
        (
            "sync reliable (ablation: force synchronous on the WAN)",
            ChannelConfig::synchronous_reliable(),
            10usize,
        ),
    ] {
        let mut tx = Session::new(cfg);
        let mut rx = Session::new(cfg);
        let mut wire_segments = 0u64;
        let mut completion_delays = Vec::new();
        let rtt_ns: u64 = 200_000_000; // 100 ms each way
        let mut now: u64 = 0;
        for i in 0..100usize {
            now += 1_000_000;
            let (seq, out) = tx.send(Bytes::from(vec![0u8; 1024]), now);
            let mut acks = Vec::new();
            for (k, seg) in out.wire.iter().enumerate() {
                wire_segments += 1;
                let dropped = loss_every > 0 && (i + k) % loss_every == 0;
                if dropped {
                    continue;
                }
                let deliver_time = now + rtt_ns / 2;
                let rx_out = rx.on_wire(seg.clone(), deliver_time);
                for back in rx_out.wire {
                    acks.push((back, deliver_time + rtt_ns / 2));
                }
            }
            let mut completed_at = None;
            for (ack, at) in acks {
                let tx_out = tx.on_wire(ack, at);
                if tx_out.completions.contains(&seq) {
                    completed_at = Some(at);
                }
            }
            if let Some(at) = completed_at {
                completion_delays.push((at - now) as f64 / 1e6);
            } else if cfg.mode == p2psap::CommunicationMode::Asynchronous {
                completion_delays.push(0.0);
            }
        }
        let mean = if completion_delays.is_empty() {
            f64::NAN
        } else {
            completion_delays.iter().sum::<f64>() / completion_delays.len() as f64
        };
        rows.push(AblationRow {
            variant: label.to_string(),
            sync_send_latency_ms: mean,
            wire_segments,
        });
    }
    rows
}

/// Render the ablation rows as text.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let mut out =
        String::from("== Ablation: data-channel configuration on a lossy 100 ms path ==\n");
    out.push_str(&format!(
        "{:<55} {:>22} {:>15}\n",
        "variant", "send latency [ms]", "wire segments"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<55} {:>22.2} {:>15}\n",
            r.variant, r.sync_send_latency_ms, r.wire_segments
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Hot-path benchmark (BENCH_hotpath.json)

/// One kernel cell of the hot-path grid: one relaxation-kernel flavour on a
/// single-peer obstacle block (the workload whose scalar reference kernel is
/// kept for exactly this comparison).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathKernelRow {
    /// Workload label.
    pub workload: String,
    /// Grid points per dimension.
    pub n: usize,
    /// Kernel flavour: "blocked" (the shipping cache-blocked, branch-free
    /// kernel) or "scalar" (the per-point reference).
    pub kernel: String,
    /// Nanoseconds per relaxed grid point.
    pub sweep_ns_per_point: f64,
    /// Grid points relaxed per second.
    pub points_per_sec: f64,
}

/// One encode cell: per-exchange cost of one rank's ghost-update
/// serialization, legacy chain vs zero-copy sink.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathEncodeRow {
    /// Workload label.
    pub workload: String,
    /// "legacy" (fresh `outgoing()` payload `Vec`s plus the engine's old
    /// generation-tag re-wrap) or "zero_copy" (`encode_outgoing` into a warm
    /// `FrameSink`).
    pub path: String,
    /// Nanoseconds per exchange (all of one rank's outgoing frames).
    pub ns_per_exchange: f64,
    /// Heap allocation events per exchange. Real values only when the
    /// process installed [`p2pdc::allocs::CountingAllocator`] (the `repro`
    /// binary does); zero otherwise.
    pub allocs_per_exchange: f64,
    /// Heap bytes requested per exchange (same caveat).
    pub alloc_bytes_per_exchange: f64,
}

/// One end-to-end cell: a loopback run at a fixed relaxation budget
/// (compute-bound scenario; the run never converges early, so every cell
/// executes the same sweep budget).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathRunRow {
    /// Workload label.
    pub workload: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Backend label (always "loopback": in-process, no sleep/backoff noise,
    /// so the hot path itself dominates).
    pub runtime: String,
    /// Problem size (grid points per dimension / vertices).
    pub size: usize,
    /// Number of peers.
    pub peers: usize,
    /// Total relaxations executed across all peers.
    pub relaxations: u64,
    /// Grid points relaxed per wall-clock second, whole run.
    pub points_per_sec: f64,
    /// Wall nanoseconds per relaxed point (engine + wire overhead included
    /// — this is the end-to-end figure, not the bare kernel).
    pub sweep_ns_per_point: f64,
    /// Heap allocation events per relaxation (one relaxation = one publish
    /// round). Real values only under the counting allocator.
    pub allocs_per_relaxation: f64,
    /// Heap bytes requested per relaxation (same caveat).
    pub alloc_bytes_per_relaxation: f64,
}

/// The complete hot-path artifact (`BENCH_hotpath.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HotpathResult {
    /// Artifact schema version (bump when the row shapes change).
    pub schema_version: u32,
    /// Blocked-vs-scalar kernel cells.
    pub kernel: Vec<HotpathKernelRow>,
    /// Legacy-vs-zero-copy encode cells.
    pub encode: Vec<HotpathEncodeRow>,
    /// End-to-end loopback cells.
    pub runs: Vec<HotpathRunRow>,
}

/// Shape of a hot-path measurement: which cells to run and how hard.
#[derive(Debug, Clone)]
pub struct HotpathConfig {
    /// Obstacle grid sizes for the kernel cells.
    pub kernel_sizes: Vec<usize>,
    /// Timed sweeps per kernel cell (after 4 warmup sweeps — the first
    /// cell otherwise absorbs the process's CPU-frequency ramp).
    pub kernel_sweeps: u32,
    /// Timed exchanges per encode cell (after 2 warmup exchanges).
    pub encode_rounds: u32,
    /// Per-peer relaxation budget of the end-to-end cells.
    pub run_budget: u64,
    /// End-to-end scenarios: (workload, size, peers).
    pub run_scenarios: Vec<(WorkloadKind, usize, usize)>,
}

impl HotpathConfig {
    /// The CI grid: compute-bound sizes (the obstacle boundary planes at
    /// n = 64 are 32 KiB — real serialization work), seconds-scale total.
    pub fn ci() -> Self {
        Self {
            kernel_sizes: vec![64, 96],
            kernel_sweeps: 12,
            encode_rounds: 256,
            run_budget: 24,
            run_scenarios: vec![
                (WorkloadKind::Obstacle, 64, 4),
                (WorkloadKind::Heat, 512, 4),
                (WorkloadKind::PageRank, 120_000, 4),
            ],
        }
    }

    /// Milliseconds-scale shape for the test suite.
    pub fn quick() -> Self {
        Self {
            kernel_sizes: vec![16],
            kernel_sweeps: 2,
            encode_rounds: 16,
            run_budget: 6,
            run_scenarios: vec![
                (WorkloadKind::Obstacle, 12, 2),
                (WorkloadKind::Heat, 24, 2),
                (WorkloadKind::PageRank, 200, 2),
            ],
        }
    }
}

/// Grid points one global sweep of the workload relaxes.
fn points_per_global_sweep(kind: WorkloadKind, size: usize) -> f64 {
    match kind {
        WorkloadKind::Obstacle => (size * size * size) as f64,
        WorkloadKind::Heat => ((size - 2) * (size - 2)) as f64,
        WorkloadKind::PageRank => size as f64,
    }
}

fn hotpath_kernel_rows(sizes: &[usize], sweeps: u32) -> Vec<HotpathKernelRow> {
    use obstacle::{BlockDecomposition, NodeState, ObstacleProblem};
    let mut rows = Vec::new();
    for &n in sizes {
        let problem = ObstacleProblem::membrane(n);
        let decomp = BlockDecomposition::balanced(n, 1);
        let delta = problem.optimal_delta();
        for kernel in ["blocked", "scalar"] {
            let mut state = NodeState::new(&problem, &decomp, 0);
            let run = |state: &mut NodeState| match kernel {
                "blocked" => state.sweep(&problem, delta),
                _ => state.sweep_scalar(&problem, delta),
            };
            for _ in 0..4 {
                std::hint::black_box(run(&mut state));
            }
            let started = Instant::now();
            for _ in 0..sweeps {
                std::hint::black_box(run(&mut state));
            }
            let ns =
                started.elapsed().as_nanos() as f64 / (sweeps as f64 * state.local_len() as f64);
            rows.push(HotpathKernelRow {
                workload: "obstacle".to_string(),
                n,
                kernel: kernel.to_string(),
                sweep_ns_per_point: ns,
                points_per_sec: 1e9 / ns,
            });
        }
    }
    rows
}

fn hotpath_encode_rows(
    kind: WorkloadKind,
    size: usize,
    peers: usize,
    rounds: u32,
) -> Vec<HotpathEncodeRow> {
    use p2pdc::app::FrameSink;
    let workload = kind.build(size, peers);
    // An interior rank: two neighbours for the PDE workloads.
    let rank = peers / 2;
    let mut task = workload.task(rank);
    task.relax();
    let mut rows = Vec::new();
    for path in ["legacy", "zero_copy"] {
        let mut sink = FrameSink::new();
        let mut exchange = |task: &mut dyn p2pdc::IterativeTask, generation: u32| match path {
            "legacy" => {
                // What the engine used to do per publish: fresh payload
                // `Vec`s from `outgoing()`, then a fresh wire `Vec` per
                // frame to prefix the generation tag.
                for (dst, payload) in task.outgoing() {
                    let mut wire = Vec::with_capacity(4 + payload.len());
                    wire.extend_from_slice(&generation.to_le_bytes());
                    wire.extend_from_slice(&payload);
                    std::hint::black_box((dst, wire.len()));
                }
            }
            _ => {
                sink.begin(generation);
                task.encode_outgoing(&mut sink);
                std::hint::black_box(sink.len());
            }
        };
        for generation in 0..2 {
            exchange(task.as_mut(), generation);
        }
        let alloc_before = p2pdc::allocs::counters();
        let started = Instant::now();
        for generation in 2..2 + rounds {
            exchange(task.as_mut(), generation);
        }
        let elapsed_ns = started.elapsed().as_nanos() as f64;
        let alloc = p2pdc::allocs::counters().since(alloc_before);
        rows.push(HotpathEncodeRow {
            workload: kind.label().to_string(),
            path: path.to_string(),
            ns_per_exchange: elapsed_ns / rounds as f64,
            allocs_per_exchange: alloc.allocations as f64 / rounds as f64,
            alloc_bytes_per_exchange: alloc.bytes as f64 / rounds as f64,
        });
    }
    rows
}

fn hotpath_run_row(
    kind: WorkloadKind,
    size: usize,
    peers: usize,
    scheme: Scheme,
    budget: u64,
) -> HotpathRunRow {
    let workload = kind.build(size, peers);
    let mut config = RunConfig::single_cluster(scheme, peers);
    // Unreachable tolerance: the run always executes the full budget, so
    // every cell measures the same amount of work.
    config.tolerance = 1e-300;
    config.seed = 42;
    config.max_relaxations = budget;
    let alloc_before = p2pdc::allocs::counters();
    let started = Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    let wall_s = started.elapsed().as_secs_f64();
    let alloc = p2pdc::allocs::counters().since(alloc_before);
    let relaxations = result.measurement.total_relaxations();
    let points = relaxations as f64 * points_per_global_sweep(kind, size) / peers as f64;
    HotpathRunRow {
        workload: kind.label().to_string(),
        scheme: scheme.to_string(),
        runtime: RuntimeKind::Loopback.label().to_string(),
        size,
        peers,
        relaxations,
        points_per_sec: points / wall_s,
        sweep_ns_per_point: wall_s * 1e9 / points,
        allocs_per_relaxation: alloc.allocations as f64 / relaxations as f64,
        alloc_bytes_per_relaxation: alloc.bytes as f64 / relaxations as f64,
    }
}

/// Run the hot-path grid: kernel cells, encode cells and end-to-end
/// loopback cells, per the config.
pub fn run_hotpath_for(config: &HotpathConfig) -> HotpathResult {
    let kernel = hotpath_kernel_rows(&config.kernel_sizes, config.kernel_sweeps);
    let mut encode = Vec::new();
    let mut runs = Vec::new();
    for &(kind, size, peers) in &config.run_scenarios {
        encode.extend(hotpath_encode_rows(kind, size, peers, config.encode_rounds));
        for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
            runs.push(hotpath_run_row(
                kind,
                size,
                peers,
                scheme,
                config.run_budget,
            ));
        }
    }
    HotpathResult {
        schema_version: 1,
        kernel,
        encode,
        runs,
    }
}

/// Run the CI hot-path grid.
pub fn run_hotpath() -> HotpathResult {
    run_hotpath_for(&HotpathConfig::ci())
}

/// Render the hot-path result as text.
pub fn format_hotpath(result: &HotpathResult) -> String {
    let mut out = String::from("== Hot path: kernel (blocked vs scalar) ==\n");
    out.push_str(&format!(
        "{:<10} {:>5} {:<8} {:>14} {:>16}\n",
        "workload", "n", "kernel", "ns/point", "points/sec"
    ));
    for r in &result.kernel {
        out.push_str(&format!(
            "{:<10} {:>5} {:<8} {:>14.3} {:>16.0}\n",
            r.workload, r.n, r.kernel, r.sweep_ns_per_point, r.points_per_sec
        ));
    }
    out.push_str("== Hot path: encode (legacy vs zero-copy) ==\n");
    out.push_str(&format!(
        "{:<10} {:<10} {:>14} {:>16} {:>18}\n",
        "workload", "path", "ns/exchange", "allocs/exchange", "bytes/exchange"
    ));
    for r in &result.encode {
        out.push_str(&format!(
            "{:<10} {:<10} {:>14.1} {:>16.2} {:>18.1}\n",
            r.workload,
            r.path,
            r.ns_per_exchange,
            r.allocs_per_exchange,
            r.alloc_bytes_per_exchange
        ));
    }
    out.push_str("== Hot path: end-to-end (loopback, fixed budget) ==\n");
    out.push_str(&format!(
        "{:<10} {:<14} {:>8} {:>12} {:>16} {:>12} {:>14}\n",
        "workload", "scheme", "size", "relaxations", "points/sec", "ns/point", "allocs/relax"
    ));
    for r in &result.runs {
        out.push_str(&format!(
            "{:<10} {:<14} {:>8} {:>12} {:>16.0} {:>12.3} {:>14.2}\n",
            r.workload,
            r.scheme,
            r.size,
            r.relaxations,
            r.points_per_sec,
            r.sweep_ns_per_point,
            r.allocs_per_relaxation
        ));
    }
    out
}

/// The hot-sweep cell of the contention artifact: a run shaped so *every*
/// sweep is the common case (dirty report, no armed event, no checkpoint
/// boundary), with the instrumented lock counters read afterwards. The
/// smoke assertion is that the per-sweep paths acquired zero mutexes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentionHotSweep {
    /// Backend label (loopback: in-process, so the counters measure the
    /// control plane and nothing else).
    pub runtime: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Number of peers.
    pub peers: usize,
    /// Total relaxations executed (every one a hot sweep).
    pub relaxations: u64,
    /// Detector-mutex acquisitions from any entry point (start/stop
    /// bookkeeping is allowed to lock; the per-sweep path is not).
    pub detector_locks: u64,
    /// Detector-mutex acquisitions from the per-sweep report path. Must be
    /// zero: every report here is dirty and goes through its report cell.
    pub detector_report_locks: u64,
    /// Volatility-mutex acquisitions from the per-sweep gates. Must be
    /// zero: the plan's only event and the checkpoint cadence both sit far
    /// beyond the relaxation budget.
    pub volatility_sweep_locks: u64,
}

/// One row of the contention grid: the reactor backend at `peers`, with
/// throughput and the instrumented lock counters normalized per relaxation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentionBenchRow {
    /// Backend label (always "reactor").
    pub runtime: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Number of peers multiplexed onto the event loops.
    pub peers: usize,
    /// Whether the run included one seeded crash + recovery (exercises the
    /// heartbeat/eviction path, so `topology_locks_per_relaxation` is real).
    pub churn: bool,
    /// Whether measured loop rebalancing was enabled.
    pub rebalance: bool,
    /// Real time the whole run took on the bench machine, in seconds.
    pub wall_time_s: f64,
    /// Grid points relaxed per wall-clock second.
    pub points_per_sec: f64,
    /// Total relaxations across all peers.
    pub total_relaxations: u64,
    /// Whether the run converged.
    pub converged: bool,
    /// Detector-mutex acquisitions per relaxation (all entry points).
    pub detector_locks_per_relaxation: f64,
    /// Detector-mutex acquisitions per relaxation from the per-sweep report
    /// path (reports at or below tolerance — peers near convergence).
    pub detector_report_locks_per_relaxation: f64,
    /// Volatility-mutex acquisitions per relaxation from the per-sweep
    /// gates (checkpoint boundaries and due events only).
    pub volatility_sweep_locks_per_relaxation: f64,
    /// Topology-manager acquisitions per relaxation (batched heartbeats,
    /// eviction sweeps; zero on fault-free rows, which run no detector).
    pub topology_locks_per_relaxation: f64,
    /// Peers migrated between event loops by the rebalancer.
    pub migrations: u64,
}

/// The complete contention artifact (`BENCH_contention.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContentionResult {
    /// Artifact schema version (bump when the row shapes change).
    pub schema_version: u32,
    /// The instrumented hot-sweep cell with its zero-lock assertion inputs.
    pub hot_sweep: ContentionHotSweep,
    /// Reactor scaling rows with per-relaxation lock counters.
    pub rows: Vec<ContentionBenchRow>,
}

/// Run the instrumented hot-sweep cell: 64 synchronous loopback peers, a
/// tolerance no diff can reach (every report dirty), a churn plan attached
/// but with its event and checkpoint cadence beyond the relaxation budget
/// (the volatility gates are evaluated every sweep yet never due). The
/// process-global counters mean this is only meaningful single-threaded —
/// the `repro` binary, not the parallel test harness.
pub fn run_contention_hot_sweep() -> ContentionHotSweep {
    use p2pdc::runtime::report_cell::contention;
    let peers = 64;
    let size = peers * 4;
    let budget = 50;
    let workload = WorkloadKind::PageRank.build(size, peers);
    let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
    // Negative tolerance: diffs are nonnegative, so no sweep ever reads as
    // converged and every report takes the dirty path.
    config.tolerance = -1.0;
    config.max_relaxations = budget;
    config = config
        .with_churn(ChurnPlan::kill(0, budget * 1000).with_checkpoint_interval(budget * 1000));
    contention::reset();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    let counters = contention::snapshot();
    ContentionHotSweep {
        runtime: RuntimeKind::Loopback.label().to_string(),
        scheme: Scheme::Synchronous.to_string(),
        peers,
        relaxations: result.measurement.total_relaxations(),
        detector_locks: counters.detector_locks,
        detector_report_locks: counters.detector_report_locks,
        volatility_sweep_locks: counters.volatility_sweep_locks,
    }
}

/// Run one reactor cell of the contention grid (same shape as the scale
/// curve: PageRank, 4 vertices per peer, asynchronous).
pub fn run_contention_once(peers: usize, churn: bool, rebalance: bool) -> ContentionBenchRow {
    use p2pdc::runtime::{reactor, report_cell::contention};
    let size = peers * 4;
    let workload = WorkloadKind::PageRank.build(size, peers);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers).with_extras(
        BackendExtras::Reactor {
            event_loops: 0, // auto: one per core
            loss_probability: 0.0,
            reorder_probability: 0.0,
        },
    );
    config.tolerance = 1e-6;
    if churn {
        config = config.with_churn(ChurnPlan::kill(peers / 2, 12).with_checkpoint_interval(5));
    }
    reactor::set_rebalance_enabled(rebalance);
    contention::reset();
    let started = Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let wall = started.elapsed().as_secs_f64();
    let counters = contention::snapshot();
    reactor::set_rebalance_enabled(true);
    let relaxations = result.measurement.total_relaxations();
    let per_relax = relaxations.max(1) as f64;
    let points =
        relaxations as f64 * points_per_global_sweep(WorkloadKind::PageRank, size) / peers as f64;
    ContentionBenchRow {
        runtime: RuntimeKind::Reactor.label().to_string(),
        scheme: Scheme::Asynchronous.to_string(),
        peers,
        churn,
        rebalance,
        wall_time_s: wall,
        points_per_sec: points / wall,
        total_relaxations: relaxations,
        converged: result.measurement.converged,
        detector_locks_per_relaxation: counters.detector_locks as f64 / per_relax,
        detector_report_locks_per_relaxation: counters.detector_report_locks as f64 / per_relax,
        volatility_sweep_locks_per_relaxation: counters.volatility_sweep_locks as f64 / per_relax,
        topology_locks_per_relaxation: counters.topology_locks as f64 / per_relax,
        migrations: reactor::last_loop_stats()
            .map(|s| s.migrations)
            .unwrap_or(0),
    }
}

/// Run the contention grid: the hot-sweep cell plus reactor rows at
/// 4/64/256 peers (1024 with `full`). The 64-peer point runs fault-free and
/// with churn (the churn row measures the batched heartbeat's topology
/// locking); the 256-peer point runs with rebalancing off and on (the
/// regression guard for loop migration).
pub fn run_contention(full: bool) -> ContentionResult {
    let hot_sweep = run_contention_hot_sweep();
    let mut rows = vec![
        run_contention_once(4, false, true),
        run_contention_once(64, false, true),
        run_contention_once(64, true, true),
        run_contention_once(256, false, false),
        run_contention_once(256, false, true),
    ];
    if full {
        rows.push(run_contention_once(1024, false, true));
    }
    ContentionResult {
        schema_version: 1,
        hot_sweep,
        rows,
    }
}

/// Render the contention result as text.
pub fn format_contention(result: &ContentionResult) -> String {
    let h = &result.hot_sweep;
    let mut out = String::from("== Contention: instrumented hot sweep (loopback) ==\n");
    out.push_str(&format!(
        "{} peers {} | relaxations {} | detector locks {} | \
         report-path locks {} | volatility sweep locks {}\n",
        h.peers,
        h.scheme,
        h.relaxations,
        h.detector_locks,
        h.detector_report_locks,
        h.volatility_sweep_locks
    ));
    out.push_str("== Contention: reactor grid (locks per relaxation) ==\n");
    out.push_str(&format!(
        "{:<7} {:<6} {:<10} {:>10} {:>14} {:>10} {:>10} {:>10} {:>10} {:>6}\n",
        "peers",
        "churn",
        "rebalance",
        "wall [s]",
        "points/sec",
        "det/rel",
        "rep/rel",
        "vol/rel",
        "topo/rel",
        "migr"
    ));
    for r in &result.rows {
        out.push_str(&format!(
            "{:<7} {:<6} {:<10} {:>10.3} {:>14.0} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>6}\n",
            r.peers,
            r.churn,
            r.rebalance,
            r.wall_time_s,
            r.points_per_sec,
            r.detector_locks_per_relaxation,
            r.detector_report_locks_per_relaxation,
            r.volatility_sweep_locks_per_relaxation,
            r.topology_locks_per_relaxation,
            r.migrations
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Gossip control-plane benchmark (BENCH_gossip.json)
// ---------------------------------------------------------------------------

/// One cell of the gossip grid: a run under one control plane, with the
/// gossip traffic counters and the decision lag against its paired
/// centralized run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GossipBenchRow {
    /// Workload label.
    pub workload: String,
    /// Backend label.
    pub runtime: String,
    /// Scheme of computation.
    pub scheme: String,
    /// Control plane: "centralized" or "gossip".
    pub control: String,
    /// Gossip fanout (0 on centralized rows).
    pub fanout: usize,
    /// Number of peers.
    pub peers: usize,
    /// Whether the run included one seeded crash + recovery.
    pub churn: bool,
    /// Real time the whole run took on the bench machine, in seconds.
    pub wall_time_s: f64,
    /// The elapsed time the runtime itself reported, in seconds.
    pub reported_elapsed_s: f64,
    /// Total relaxations across all peers.
    pub total_relaxations: u64,
    /// Minimum relaxations of any peer (what a late stop inflates first).
    pub min_relaxations: u64,
    /// Whether the run converged.
    pub converged: bool,
    /// Crashes injected / recoveries completed.
    pub crashes: u64,
    pub recoveries: u64,
    /// Crash-to-recovery latency (downtime) in seconds; the failure
    /// *detection* latency comparison on churn rows (0 on fault-free rows).
    pub detection_latency_s: f64,
    /// Gossip traffic counters of this cell (all zero on centralized rows).
    pub probes_sent: u64,
    pub indirect_probes: u64,
    pub rumors_sent: u64,
    pub rumors_received: u64,
    pub row_merges: u64,
    pub death_verdicts: u64,
    /// Digest pushes sent outside the probe cycle (schema v2; absent, so
    /// 0, in v1 artifacts).
    #[serde(default)]
    pub pushes_sent: u64,
    /// `min_relaxations` minus the paired centralized run's — the decision
    /// lag the digest pays for decentralization (0 on centralized rows).
    pub decision_lag_relaxations: i64,
}

/// The complete gossip artifact (`BENCH_gossip.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GossipGridResult {
    /// Artifact schema version (bump when the row shape changes).
    pub schema_version: u32,
    /// All rows: each gossip row directly follows its centralized pair.
    pub rows: Vec<GossipBenchRow>,
}

/// Run one cell: PageRank with 4 vertices per peer under the given control
/// plane. `fanout == 0` means centralized.
pub fn run_gossip_once(
    runtime: RuntimeKind,
    scheme: Scheme,
    fanout: usize,
    peers: usize,
    churn: bool,
) -> GossipBenchRow {
    let size = peers * 4;
    let workload = WorkloadKind::PageRank.build(size, peers);
    let mut config = RunConfig::single_cluster(scheme, peers);
    // Looser than the runtime-matrix cells: under churn the gossip stop
    // decision needs digest agreement across a recovery rollback, and at
    // 1e-6 that multiplies the redone work into minutes per cell.
    config.tolerance = 1e-4;
    if fanout > 0 {
        config = config.with_gossip(fanout);
    }
    if churn {
        // Halfway through the ~12 sweeps a cell runs: a later crash can fall
        // after a fast stop decision, and the cell then detects nothing.
        config = config.with_churn(ChurnPlan::kill(peers / 2, 6).with_checkpoint_interval(5));
    }
    p2pdc::gossip::stats::reset();
    let started = Instant::now();
    let result = run_on(workload.as_ref(), &config, runtime);
    let wall = started.elapsed();
    let counters = p2pdc::gossip::stats::snapshot();
    GossipBenchRow {
        workload: WorkloadKind::PageRank.label().to_string(),
        runtime: runtime.label().to_string(),
        scheme: scheme.to_string(),
        control: if fanout > 0 { "gossip" } else { "centralized" }.to_string(),
        fanout,
        peers,
        churn,
        wall_time_s: wall.as_secs_f64(),
        reported_elapsed_s: result.measurement.elapsed.as_secs_f64(),
        total_relaxations: result.measurement.total_relaxations(),
        min_relaxations: result.measurement.min_relaxations(),
        converged: result.measurement.converged,
        crashes: result.measurement.crashes,
        recoveries: result.measurement.recoveries,
        detection_latency_s: result.measurement.downtime_s,
        probes_sent: counters.probes_sent,
        indirect_probes: counters.indirect_probes,
        rumors_sent: counters.rumors_sent,
        rumors_received: counters.rumors_received,
        row_merges: counters.row_merges,
        death_verdicts: counters.death_verdicts,
        pushes_sent: counters.pushes_sent,
        decision_lag_relaxations: 0,
    }
}

/// Run the gossip grid: every (scheme × runtime × fanout) cell at 8 peers,
/// each gossip run paired with a centralized run on the same seed, plus a
/// 64-peer reactor crash + recovery cell comparing the SWIM detection
/// latency against the centralized ping sweep.
pub fn run_gossip_grid() -> GossipGridResult {
    let mut rows = Vec::new();
    let pair = |runtime: RuntimeKind,
                scheme: Scheme,
                fanouts: &[usize],
                peers: usize,
                churn: bool,
                rows: &mut Vec<GossipBenchRow>| {
        let centralized = run_gossip_once(runtime, scheme, 0, peers, churn);
        let base = centralized.min_relaxations as i64;
        rows.push(centralized);
        for &fanout in fanouts {
            let mut row = run_gossip_once(runtime, scheme, fanout, peers, churn);
            row.decision_lag_relaxations = row.min_relaxations as i64 - base;
            rows.push(row);
        }
    };
    for runtime in [
        RuntimeKind::Loopback,
        RuntimeKind::Sim,
        RuntimeKind::Reactor,
    ] {
        for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
            pair(runtime, scheme, &[2, 3], 8, false, &mut rows);
        }
    }
    // Detection-latency cell: one seeded crash; SWIM suspicion vs the
    // centralized missed-ping sweep. The reactor multiplexes the 64 peers
    // onto a few event loops.
    pair(
        RuntimeKind::Reactor,
        Scheme::Asynchronous,
        &[3],
        64,
        true,
        &mut rows,
    );
    GossipGridResult {
        schema_version: 2,
        rows,
    }
}

/// Render the gossip grid as text.
pub fn format_gossip(result: &GossipGridResult) -> String {
    let mut out = String::from("== Gossip control plane: scheme x runtime x fanout grid ==\n");
    out.push_str(&format!(
        "{:<10} {:<14} {:<12} {:<7} {:<6} {:<6} {:>10} {:>11} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9} {:>6}\n",
        "runtime",
        "scheme",
        "control",
        "fanout",
        "peers",
        "churn",
        "wall [s]",
        "relax(min)",
        "lag",
        "probes",
        "pushes",
        "rumors",
        "merges",
        "detect[s]",
        "conv"
    ));
    for r in &result.rows {
        out.push_str(&format!(
            "{:<10} {:<14} {:<12} {:<7} {:<6} {:<6} {:>10.3} {:>11} {:>8} {:>8} {:>8} {:>8} {:>7} {:>9.3} {:>6}\n",
            r.runtime,
            r.scheme,
            r.control,
            r.fanout,
            r.peers,
            r.churn,
            r.wall_time_s,
            r.min_relaxations,
            r.decision_lag_relaxations,
            r.probes_sent,
            r.pushes_sent,
            r.rumors_sent,
            r.row_merges,
            r.detection_latency_s,
            r.converged
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gossip_grid_rows_round_trip_through_serde() {
        // One cheap deterministic pair (loopback, 4 peers) rather than the
        // full grid: this test pins the artifact schema, not the numbers.
        let centralized = run_gossip_once(RuntimeKind::Loopback, Scheme::Asynchronous, 0, 4, false);
        let mut gossip = run_gossip_once(RuntimeKind::Loopback, Scheme::Asynchronous, 2, 4, false);
        gossip.decision_lag_relaxations =
            gossip.min_relaxations as i64 - centralized.min_relaxations as i64;
        assert!(centralized.converged && gossip.converged);
        assert_eq!(centralized.probes_sent, 0, "centralized runs never probe");
        assert!(gossip.probes_sent > 0, "gossip runs must probe");
        assert!(
            gossip.decision_lag_relaxations >= 0,
            "gossip stopped on weaker evidence than the central fold"
        );
        let result = GossipGridResult {
            schema_version: 2,
            rows: vec![centralized, gossip],
        };
        let json = serde_json::to_string(&result).unwrap();
        let back: GossipGridResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, 2);
        assert_eq!(back.rows.len(), 2);
        assert_eq!(back.rows[1].control, "gossip");
        assert_eq!(back.rows[1].fanout, 2);
        assert_eq!(back.rows[1].min_relaxations, result.rows[1].min_relaxations);
    }

    #[test]
    fn table1_matches_the_paper_in_all_six_cells() {
        let rows = run_table1();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.matches_paper));
    }

    #[test]
    fn compute_model_scaling_preserves_granularity() {
        let scaled = FigureConfig::figure5(false);
        let full = FigureConfig::figure5(true);
        // Per-sweep virtual cost of the whole grid must match between the
        // scaled and full configurations.
        let scaled_cost = scaled.compute_model().ns_per_point * (scaled.n as f64).powi(3);
        let full_cost = full.compute_model().ns_per_point * (full.n as f64).powi(3);
        assert!((scaled_cost - full_cost).abs() / full_cost < 1e-12);
    }

    #[test]
    fn ablation_produces_three_variants() {
        let rows = run_ablation();
        assert_eq!(rows.len(), 3);
        // The synchronous variant has a real (positive) completion latency.
        assert!(rows[2].sync_send_latency_ms > 100.0);
        // Reliable variants put more segments on the wire than the unreliable one.
        assert!(rows[1].wire_segments >= rows[0].wire_segments);
    }

    #[test]
    fn runtime_matrix_covers_all_workloads_and_backends() {
        let scenarios: Vec<RuntimeMatrixScenario> =
            WorkloadKind::ALL.map(RuntimeMatrixScenario::quick).to_vec();
        let result = run_runtime_matrix_for(&scenarios);
        assert_eq!(
            result.rows.len(),
            WorkloadKind::ALL.len() * RuntimeKind::ALL.len() * 2
        );
        for row in &result.rows {
            assert!(
                row.converged,
                "{}/{}/{} did not converge",
                row.workload, row.runtime, row.scheme
            );
            assert!(row.wall_time_s > 0.0);
            assert_eq!(row.relaxations_per_peer.len(), 2);
            // Synchronous termination leaves a residual on the order of the
            // tolerance; asynchronous termination accepts boundary staleness
            // (see the obstacle staleness-bound test), so its cap is looser.
            let cap = if row.scheme == "synchronous" {
                let scenario = scenarios
                    .iter()
                    .find(|s| s.workload.label() == row.workload)
                    .unwrap();
                scenario.tolerance * 10.0
            } else {
                5e-2
            };
            assert!(
                row.residual < cap,
                "{}/{}/{}: residual {}",
                row.workload,
                row.runtime,
                row.scheme,
                row.residual
            );
        }
        // Every workload appears on every backend.
        for workload in WorkloadKind::ALL {
            for runtime in RuntimeKind::ALL {
                assert!(
                    result
                        .rows
                        .iter()
                        .any(|r| r.workload == workload.label() && r.runtime == runtime.label()),
                    "missing {workload}/{runtime} row"
                );
            }
        }
        // The matrix serializes for the BENCH_runtimes.json artifact.
        let json = serde_json::to_string(&result).expect("serializes");
        assert!(json.contains("\"reactor\"") && json.contains("schema_version"));
        assert!(json.contains("\"pagerank\"") && json.contains("\"heat\""));
    }

    #[test]
    fn scale_cell_runs_and_serializes() {
        // A miniature cell keeps the test fast; the 64/256-peer sweep runs
        // in CI's bench-smoke job and the 1024-peer points run nightly.
        let row = run_scale_once(8, false);
        assert!(row.converged, "8-peer reactor cell did not converge");
        assert_eq!(row.runtime, "reactor");
        assert_eq!(row.size, 32);
        assert_eq!(row.crashes, 0);
        assert!(row.event_loops >= 1);
        assert!(row.wall_time_s > 0.0);
        // The curve travels inside the BENCH_runtimes.json artifact; pre-v3
        // artifacts without a `scale` field must still deserialize.
        let mut result = run_runtime_matrix_for(&[]);
        result.scale = vec![row];
        let json = serde_json::to_string(&result).expect("serializes");
        assert!(json.contains("\"scale\"") && json.contains("\"event_loops\""));
        let legacy: RuntimeMatrixResult =
            serde_json::from_str(r#"{"schema_version":2,"scenarios":[],"rows":[]}"#)
                .expect("pre-v3 artifact still parses");
        assert!(legacy.scale.is_empty());
    }

    #[test]
    fn churn_grid_reports_recoveries_and_overhead() {
        // Loopback-only keeps the test fast; the full four-runtime grid is
        // exercised by `repro churn` in the bench-smoke CI job.
        let scenarios: Vec<RuntimeMatrixScenario> =
            WorkloadKind::ALL.map(RuntimeMatrixScenario::quick).to_vec();
        let result = run_churn_grid_for(&scenarios, &[RuntimeKind::Loopback]);
        // One baseline + three churn rows per (workload, scheme).
        assert_eq!(result.rows.len(), WorkloadKind::ALL.len() * 2 * 4);
        for row in &result.rows {
            assert!(
                row.converged,
                "{}/{}/{}/{} did not converge",
                row.workload, row.scheme, row.runtime, row.churn
            );
            match row.churn.as_str() {
                "none" => {
                    assert_eq!(row.crashes, 0);
                    assert_eq!(row.recoveries, 0);
                    assert_eq!(row.overhead_work_pct, 0.0);
                    assert_eq!(row.repartitions, 0);
                }
                churn @ ("crash1" | "crash1+repart" | "crash1+join") => {
                    assert_eq!(row.crashes, 1, "{}/{}", row.workload, row.scheme);
                    assert_eq!(row.recoveries, 1);
                    assert!(row.total_points > 0);
                    // Asynchronous survivors free-run during the downtime,
                    // so the points-based overhead must register the crash
                    // as extra executed work. (Synchronous cells stall
                    // instead, and with a tight checkpoint interval the
                    // redone work can vanish inside the ±1 stop-race sweep.)
                    if row.scheme == "asynchronous" && churn == "crash1" {
                        assert!(
                            row.overhead_work_pct > 0.0,
                            "{}/{}: overhead {}",
                            row.workload,
                            row.scheme,
                            row.overhead_work_pct
                        );
                    }
                    if row.scheme == "synchronous" {
                        assert!(
                            row.rollbacks >= 1,
                            "{}/{churn}: synchronous recovery must roll back",
                            row.workload
                        );
                    }
                    if churn == "crash1" {
                        assert_eq!(row.repartitions, 0);
                        assert_eq!(row.joins, 0);
                    } else {
                        assert!(
                            row.repartitions >= 1,
                            "{}/{}/{churn}: the re-slice must be applied",
                            row.workload,
                            row.scheme
                        );
                        assert!(row.moved_points > 0, "{}/{churn}", row.workload);
                    }
                    if churn == "crash1+join" {
                        assert_eq!(row.joins, 1, "{}/{}", row.workload, row.scheme);
                    } else {
                        assert_eq!(row.joins, 0);
                    }
                }
                other => panic!("unexpected churn level {other}"),
            }
        }
        // The artifact serializes with its plans.
        let json = serde_json::to_string(&result).expect("serializes");
        assert!(json.contains("crash1") && json.contains("checkpoint_interval"));
        assert!(json.contains("repartitions") && json.contains("moved_points"));
    }

    #[test]
    fn hetero_cells_show_repartition_overhead_no_worse_than_restoring_old_blocks() {
        let rows = run_churn_hetero_cells();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.converged,
                "{}/{} did not converge",
                row.scheme, row.churn
            );
        }
        // The acceptance criterion of the elastic-membership PR: for at
        // least one heterogeneous-capacity cell, applying the
        // capacity-weighted shares at recovery costs no more executed work
        // than restoring the original blocks.
        let pairs: Vec<(&ChurnBenchRow, &ChurnBenchRow)> = ["synchronous", "asynchronous"]
            .iter()
            .map(|scheme| {
                let find = |churn: &str| {
                    rows.iter()
                        .find(|r| r.scheme == *scheme && r.churn == churn)
                        .expect("cell present")
                };
                (find("hetero-crash1"), find("hetero-crash1+repart"))
            })
            .collect();
        assert!(
            pairs
                .iter()
                .any(|(without, with)| with.overhead_work_pct <= without.overhead_work_pct),
            "repartitioning must pay off in at least one heterogeneous cell: {:?}",
            pairs
                .iter()
                .map(|(a, b)| (a.scheme.clone(), a.overhead_work_pct, b.overhead_work_pct))
                .collect::<Vec<_>>()
        );
        // And the repartitioned cells really moved work off the slow peer.
        assert!(pairs.iter().all(|(_, with)| with.repartitions >= 1));
    }

    #[test]
    fn tiny_figure_sweep_produces_consistent_rows() {
        let config = FigureConfig {
            n: 8,
            paper_n: 8,
            tolerance: 1e-3,
            peer_counts: vec![1, 2, 4],
        };
        let result = run_figure_filtered("tiny", &config, |_, clusters, _| clusters == 1);
        assert!(result.rows.len() >= 7);
        for row in &result.rows {
            assert!(row.converged, "row {row:?} did not converge");
            assert!(row.time_s > 0.0);
            assert!(row.speedup > 0.0);
        }
        // The single-peer reference has speedup exactly 1.
        assert!((result.rows[0].speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quick_hotpath_grid_is_well_formed() {
        let config = HotpathConfig::quick();
        let result = run_hotpath_for(&config);
        assert_eq!(result.schema_version, 1);
        // One blocked + one scalar cell per kernel size.
        assert_eq!(result.kernel.len(), 2 * config.kernel_sizes.len());
        // One legacy + one zero-copy cell per scenario.
        assert_eq!(result.encode.len(), 2 * config.run_scenarios.len());
        // One sync + one async cell per scenario.
        assert_eq!(result.runs.len(), 2 * config.run_scenarios.len());
        for r in &result.kernel {
            assert!(r.sweep_ns_per_point > 0.0 && r.points_per_sec > 0.0);
        }
        for r in &result.encode {
            assert!(r.ns_per_exchange > 0.0);
        }
        for r in &result.runs {
            // The tolerance is unreachable, so at least one peer must have
            // burned the full relaxation budget before broadcasting stop.
            assert!(
                r.relaxations >= config.run_budget,
                "cell did not exhaust its budget: {r:?}"
            );
            assert!(r.points_per_sec > 0.0);
        }
        // The artifact must round-trip through serde.
        let json = serde_json::to_string(&result).expect("serialize");
        let back: HotpathResult = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.runs.len(), result.runs.len());
        // And the text rendering mentions every section.
        let text = format_hotpath(&result);
        assert!(text.contains("kernel") && text.contains("encode") && text.contains("loopback"));
    }
}
