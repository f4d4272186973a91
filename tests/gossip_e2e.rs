//! End-to-end tests of the decentralized control plane: SWIM gossip
//! membership plus distributed convergence detection, checked against the
//! centralized detector on every backend.
//!
//! The invariant under test is *losslessness*: the digest decision may lag
//! the central fold (peers keep relaxing while rumors spread — the decision
//! lag `repro gossip` measures), but it can never fire on evidence the
//! central fold would have rejected, so the per-run minimum relaxation
//! count under gossip is at least the centralized one.

use p2pdc::{run_on, ChurnPlan, RunConfig, RunMeasurement, RuntimeKind, Scheme, WorkloadKind};

/// The convergence iteration of a run: the peer that decides stops at
/// exactly that iteration, so the per-run minimum is the invariant
/// (wall-clock peers may overshoot by the propagation delay).
fn min_relaxations(m: &RunMeasurement) -> u64 {
    m.relaxations_per_peer.iter().copied().min().unwrap_or(0)
}

/// Gossip vs centralized on the synchronous scheme, for all three workloads
/// on every backend: both converge, and the gossip stop never fires
/// earlier than the centralized one (with a bounded decision lag).
#[test]
fn gossip_sync_decision_is_lossless_on_every_backend_and_workload() {
    for (kind, size, tolerance) in [
        (WorkloadKind::Obstacle, 10, 1e-4),
        (WorkloadKind::Heat, 16, 1e-4),
        (WorkloadKind::PageRank, 120, 1e-8),
    ] {
        let peers = 4;
        let workload = kind.build(size, peers);
        let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
        config.tolerance = tolerance;
        for runtime in [
            RuntimeKind::Loopback,
            RuntimeKind::Sim,
            RuntimeKind::Reactor,
        ] {
            let centralized = run_on(workload.as_ref(), &config, runtime);
            let gossip = run_on(workload.as_ref(), &config.clone().with_gossip(2), runtime);
            let label = format!("{} / {}", kind.label(), runtime.label());
            assert!(
                centralized.measurement.converged,
                "{label}: centralized run did not converge"
            );
            assert!(
                gossip.measurement.converged,
                "{label}: gossip run did not converge"
            );
            let min_c = min_relaxations(&centralized.measurement);
            let min_g = min_relaxations(&gossip.measurement);
            assert!(
                min_g >= min_c,
                "{label}: gossip stopped at {min_g} < centralized {min_c} — \
                 the digest fired on evidence the central fold rejects"
            );
            assert!(
                min_g <= min_c + 150,
                "{label}: gossip decision lag {} exceeds the propagation bound \
                 (centralized {min_c}, gossip {min_g})",
                min_g - min_c
            );
            // The decentralized stop still yields a valid solution.
            assert!(
                gossip.measurement.residual < tolerance * 10.0,
                "{label}: gossip residual {}",
                gossip.measurement.residual
            );
        }
    }
}

/// A mid-run crash on the wall-clock backend with the ping server retired:
/// the victim's recovery can only be granted through SWIM death verdicts
/// (there is no monitor thread under gossip), so a completed recovery
/// proves gossip-only eviction end to end.
#[test]
fn gossip_only_eviction_recovers_a_crashed_peer_on_wall_clock_backends() {
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let mut config = RunConfig::quick(Scheme::Asynchronous, peers).with_gossip(2);
    config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let m = &result.measurement;
    assert!(m.converged, "faulty gossip run did not converge");
    assert_eq!(m.crashes, 1, "crash count");
    assert_eq!(
        m.recoveries, 1,
        "the victim was not revived — SWIM eviction never granted recovery"
    );
    assert!(m.downtime_s > 0.0, "downtime not measured");
    assert!(
        m.residual < config.tolerance * 10.0,
        "residual {} exceeds the async staleness bound",
        m.residual
    );
}

/// The seeded backends stay bit-for-bit deterministic under gossip: same
/// seed, same probe targets, same rumor exchanges, same decision — twice.
#[test]
fn gossip_runs_are_deterministic_on_seeded_backends() {
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let mut config = RunConfig::quick(Scheme::Asynchronous, peers).with_gossip(2);
    config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
    for runtime in [RuntimeKind::Loopback, RuntimeKind::Sim] {
        let a = run_on(workload.as_ref(), &config, runtime);
        let b = run_on(workload.as_ref(), &config, runtime);
        let label = runtime.label();
        assert!(a.measurement.converged, "{label}: run did not converge");
        assert_eq!(a.measurement.crashes, 1, "{label}: crash count");
        assert_eq!(a.measurement.recoveries, 1, "{label}: recovery count");
        assert_eq!(
            a.measurement.relaxations_per_peer, b.measurement.relaxations_per_peer,
            "{label}: same seed diverged on relaxation counts"
        );
        assert_eq!(
            a.solution, b.solution,
            "{label}: same seed diverged on the assembled solution"
        );
    }
}
