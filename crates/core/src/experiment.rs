//! End-to-end experiment driver: run *any* workload for one (scheme,
//! topology) configuration on any registered runtime backend and collect
//! the paper's metrics.
//!
//! This layer is deliberately workload-agnostic AND backend-agnostic:
//! [`run_on`] takes a [`Workload`] trait object and a shared [`RunConfig`],
//! resolves the chosen [`RuntimeKind`] through the
//! [`driver registry`](crate::runtime::driver), assembles the solution and
//! fills in the workload's residual metric. No application-specific type and
//! no per-backend dispatch arm appears here — backends plug in by
//! registering a [`crate::runtime::RuntimeDriver`], and the obstacle
//! wrappers the evaluation harness uses
//! ([`crate::obstacle_app::run_obstacle_experiment`] /
//! [`crate::obstacle_app::run_obstacle_on`]) live with the obstacle
//! application and delegate to this generic path.

use crate::metrics::RunMeasurement;
use crate::runtime::{driver_for, RunConfig};
use crate::workload::Workload;
use netsim::NetStats;

pub use crate::runtime::RuntimeKind;

/// Outcome shape shared by every runtime backend: the measurement, the
/// assembled solution and its residual, plus the network statistics when the
/// backend models them (the simulated runtime only).
#[derive(Debug, Clone)]
pub struct RuntimeExperimentResult {
    /// The backend that produced this result.
    pub runtime: RuntimeKind,
    /// Measurement with the workload's residual filled in.
    pub measurement: RunMeasurement,
    /// Assembled global solution.
    pub solution: Vec<f64>,
    /// Network statistics (`Some` on the simulated backend, which models the
    /// fabric; wall-clock backends use the real network stack).
    pub net: Option<NetStats>,
    /// Datagrams dropped by the loss shim (socket backends running with
    /// [`crate::BackendExtras`] impairment armed; zero everywhere else).
    pub datagrams_dropped: u64,
}

/// Run one workload on the chosen runtime backend.
///
/// The config's `seed` drives the deterministic backends (simulated fabric,
/// loss-shim randomness), its `compute` model charges virtual time on the
/// simulated backend (the wall-clock backend runs the kernel for real), and
/// its [`crate::BackendExtras`] carry the per-backend knobs (sim deadline,
/// socket impairment, reactor event-loop count).
pub fn run_on(
    workload: &dyn Workload,
    config: &RunConfig,
    runtime: RuntimeKind,
) -> RuntimeExperimentResult {
    assert_eq!(
        workload.peers(),
        config.peers(),
        "workload decomposition and topology disagree on the peer count"
    );
    // Churn-armed runs get the workload's live-repartitioning handle so
    // recovery can apply the capacity-weighted shares and join events can
    // grow the run (see crate::churn). Fault-free runs never consult it.
    let mut config = config.clone();
    if config.churn.is_some() && config.repartitioner.is_none() {
        if let Some(rep) = workload.repartitioner() {
            config.repartitioner = Some(crate::workload::ReslicerHandle(rep));
        }
    }
    let outcome = driver_for(runtime).run(&config, &|rank| workload.task(rank));
    let solution = workload.assemble(&outcome.results);
    let mut measurement = outcome.measurement;
    measurement.residual = workload.residual(&solution);
    RuntimeExperimentResult {
        runtime,
        measurement,
        solution,
        net: outcome.net,
        datagrams_dropped: outcome.datagrams_dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;
    use p2psap::Scheme;

    #[test]
    fn every_workload_runs_on_the_deterministic_backends() {
        // The full (workload × backend) grid including the wall-clock
        // runtimes is covered by the bench crate and the e2e tests; here the
        // dispatch layer itself is exercised on the two in-process backends.
        for kind in WorkloadKind::ALL {
            let (size, tolerance) = match kind {
                WorkloadKind::Obstacle => (8, 1e-3),
                WorkloadKind::Heat => (10, 1e-3),
                WorkloadKind::PageRank => (24, 1e-8),
            };
            let workload = kind.build(size, 2);
            let mut config = RunConfig::single_cluster(Scheme::Synchronous, 2);
            config.tolerance = tolerance;
            let sim = run_on(workload.as_ref(), &config, RuntimeKind::Sim);
            let loopback = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
            for result in [&sim, &loopback] {
                assert!(result.measurement.converged, "{kind}/{}", result.runtime);
                assert!(
                    result.measurement.residual < tolerance * 2.0,
                    "{kind}/{}: residual {}",
                    result.runtime,
                    result.measurement.residual
                );
            }
            assert!(sim.net.is_some() && loopback.net.is_none());
            // Synchronous relaxation counts are problem-determined, so the
            // backends agree on the convergence iteration.
            let min = |m: &RunMeasurement| m.relaxations_per_peer.iter().min().copied().unwrap();
            assert_eq!(
                min(&sim.measurement),
                min(&loopback.measurement),
                "{kind}: sim {:?} vs loopback {:?}",
                sim.measurement.relaxations_per_peer,
                loopback.measurement.relaxations_per_peer
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagree on the peer count")]
    fn mismatched_peer_counts_are_rejected() {
        let workload = WorkloadKind::Heat.build(10, 2);
        let config = RunConfig::single_cluster(Scheme::Synchronous, 3);
        run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    }
}
