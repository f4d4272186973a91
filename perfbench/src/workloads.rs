//! The four named workloads and the checks every solve must pass.

use p2pdc::{
    BackendExtras, ChurnPlan, RunConfig, RunMeasurement, RuntimeExperimentResult, RuntimeKind,
    Scheme, WorkloadKind,
};

/// What a correct solve's relaxation counts look like.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Deterministic fault-free run: exactly these counts, per peer.
    Exact(&'static [u64]),
    /// Synchronous run on a wall-clock backend: the earliest peer stops at
    /// the problem-determined count and the latest fewer than one relaxation
    /// per peer past it (the stop signal races the sweeps along the line of
    /// peers; the repository's e2e tests pin the same rule).
    Sync(u64),
    /// Churn run: exactly this many crashes and completed recoveries.
    Churn {
        /// Injected crashes.
        crashes: u64,
        /// Completed recoveries.
        recoveries: u64,
    },
}

/// One benchmark workload: a problem, a backend and the expected outcome.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    /// The problem.
    pub kind: WorkloadKind,
    /// `WorkloadKind::build` size (grid points per dimension, or vertices).
    pub size: usize,
    /// Peers.
    pub peers: usize,
    /// Backend.
    pub runtime: RuntimeKind,
    /// Scheme of computation.
    pub scheme: Scheme,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Two clusters joined by the paper's 100 ms WAN link (else one).
    pub two_clusters: bool,
    /// Reactor event loops (reactor backend only).
    pub event_loops: usize,
    /// Gossip control plane fanout (`None`: centralized).
    pub gossip_fanout: Option<usize>,
    /// `(rank, at relaxation, checkpoint interval)` of the crash to inject.
    pub crash: Option<(usize, u64, u64)>,
    /// Expected relaxation counts or churn outcome.
    pub expect: Expect,
}

/// Every workload, in report order.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "obstacle-loopback",
        kind: WorkloadKind::Obstacle,
        size: 48,
        peers: 4,
        runtime: RuntimeKind::Loopback,
        scheme: Scheme::Synchronous,
        tolerance: 1e-6,
        two_clusters: false,
        event_loops: 0,
        gossip_fanout: None,
        crash: None,
        expect: Expect::Exact(&[1015, 1015, 1015, 1015]),
    },
    Spec {
        name: "pagerank-loopback",
        kind: WorkloadKind::PageRank,
        size: 120_000,
        peers: 4,
        runtime: RuntimeKind::Loopback,
        scheme: Scheme::Asynchronous,
        tolerance: 1e-12,
        two_clusters: false,
        event_loops: 0,
        gossip_fanout: None,
        crash: None,
        expect: Expect::Exact(&[72, 71, 71, 71]),
    },
    Spec {
        name: "obstacle-reactor",
        kind: WorkloadKind::Obstacle,
        size: 14,
        peers: 4,
        runtime: RuntimeKind::Reactor,
        scheme: Scheme::Synchronous,
        tolerance: 1e-4,
        two_clusters: false,
        event_loops: 2,
        gossip_fanout: None,
        crash: None,
        expect: Expect::Sync(OBSTACLE_14_SYNC_COUNT),
    },
    Spec {
        name: "obstacle-churn-sim",
        kind: WorkloadKind::Obstacle,
        size: 32,
        peers: 8,
        runtime: RuntimeKind::Sim,
        scheme: Scheme::Synchronous,
        tolerance: 1e-6,
        two_clusters: true,
        event_loops: 0,
        gossip_fanout: Some(2),
        crash: Some((4, 150, 10)),
        expect: Expect::Churn {
            crashes: 1,
            recoveries: 1,
        },
    },
];

/// Synchronous relaxations of the 14³ membrane at tolerance 1e-4 on four
/// peers; the problem fixes it, so every backend agrees (the loopback run
/// in the tests pins it).
pub const OBSTACLE_14_SYNC_COUNT: u64 = 56;

impl Spec {
    /// Look a workload up by name.
    pub fn named(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The run configuration for `seed`.
    pub fn config(&self, seed: u64) -> RunConfig {
        let mut config = if self.two_clusters {
            RunConfig::two_clusters(self.scheme, self.peers)
        } else {
            RunConfig::single_cluster(self.scheme, self.peers)
        };
        config.tolerance = self.tolerance;
        config.seed = seed;
        if self.runtime == RuntimeKind::Reactor {
            config = config.with_extras(BackendExtras::Reactor {
                event_loops: self.event_loops,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        }
        if let Some(fanout) = self.gossip_fanout {
            config = config.with_gossip(fanout);
        }
        if let Some((rank, at, interval)) = self.crash {
            config =
                config.with_churn(ChurnPlan::kill(rank, at).with_checkpoint_interval(interval));
        }
        config
    }

    /// Whether a same-seed solve replays bit-identically (every backend but
    /// the wall-clock reactor).
    pub fn deterministic(&self) -> bool {
        self.runtime != RuntimeKind::Reactor
    }

    /// Threads that drive the peers: the reactor's event loops, else the
    /// single calling thread.
    pub fn driving_threads(&self) -> usize {
        if self.runtime == RuntimeKind::Reactor {
            self.event_loops
        } else {
            1
        }
    }

    /// The workload parameters, as `(key, value)` pairs for the run stamp.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("problem", self.kind.label().to_string()),
            ("size", self.size.to_string()),
            ("peers", self.peers.to_string()),
            ("backend", self.runtime.to_string()),
            ("scheme", format!("{:?}", self.scheme).to_lowercase()),
            ("tolerance", format!("{:e}", self.tolerance)),
            (
                "clusters",
                if self.two_clusters { "2" } else { "1" }.to_string(),
            ),
            (
                "control_plane",
                match self.gossip_fanout {
                    Some(f) => format!("gossip fanout {f}"),
                    None => "centralized".to_string(),
                },
            ),
        ];
        if self.runtime == RuntimeKind::Reactor {
            out.push(("event_loops", self.event_loops.to_string()));
        }
        if let Some((rank, at, interval)) = self.crash {
            out.push((
                "churn",
                format!("kill rank {rank} at relaxation {at}, checkpoint every {interval}"),
            ));
        }
        out
    }
}

/// Why a solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// The run hit its caps without converging.
    NotConverged,
    /// The assembled solution's residual exceeds twice the tolerance.
    Residual,
    /// Relaxation counts (or churn outcome) differ from the expected ones.
    CountMismatch,
    /// A deterministic solve's solution differs from the first solve's.
    SolutionMismatch,
    /// `run_on` panicked.
    Panic,
}

impl Failure {
    /// Every failure type, in histogram order.
    pub const ALL: [Failure; 5] = [
        Failure::NotConverged,
        Failure::Residual,
        Failure::CountMismatch,
        Failure::SolutionMismatch,
        Failure::Panic,
    ];

    /// Histogram label.
    pub fn label(self) -> &'static str {
        match self {
            Failure::NotConverged => "not_converged",
            Failure::Residual => "residual",
            Failure::CountMismatch => "count_mismatch",
            Failure::SolutionMismatch => "solution_mismatch",
            Failure::Panic => "panic",
        }
    }
}

/// FNV-1a over the solution's bit patterns.
pub fn solution_hash(solution: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in solution {
        for b in v.to_bits().to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// What the first solve of a run produced; later solves of a deterministic
/// workload must reproduce it exactly.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Per-peer relaxation counts.
    pub counts: Vec<u64>,
    /// [`solution_hash`] of the solution.
    pub hash: u64,
}

/// Check one solve against the workload's expectations, returning the
/// first failure found.
pub fn check(
    spec: &Spec,
    result: &RuntimeExperimentResult,
    hash: u64,
    reference: Option<&Reference>,
) -> Option<Failure> {
    let m = &result.measurement;
    if !m.converged {
        return Some(Failure::NotConverged);
    }
    if m.residual.is_nan() || m.residual > 2.0 * spec.tolerance {
        return Some(Failure::Residual);
    }
    if !counts_match(spec.expect, m) {
        return Some(Failure::CountMismatch);
    }
    if spec.deterministic() {
        if let Some(r) = reference {
            if r.counts != m.relaxations_per_peer {
                return Some(Failure::CountMismatch);
            }
            if r.hash != hash {
                return Some(Failure::SolutionMismatch);
            }
        }
    }
    None
}

fn counts_match(expect: Expect, m: &RunMeasurement) -> bool {
    match expect {
        Expect::Exact(counts) => m.relaxations_per_peer == counts,
        Expect::Sync(count) => {
            m.min_relaxations() == count && m.max_relaxations() < count + m.peers as u64
        }
        Expect::Churn {
            crashes,
            recoveries,
        } => m.crashes == crashes && m.recoveries == recoveries,
    }
}
