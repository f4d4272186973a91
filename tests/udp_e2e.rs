//! End-to-end tests of the real-socket wire: the obstacle application
//! running on the reactor over localhost UDP, checked for agreement with the
//! in-process backends. These are the tests CI's `socket-e2e` job runs with
//! a hard timeout (a hung handshake must fail fast, not stall the workflow).

use p2pdc::{
    run_obstacle_on, run_on, BackendExtras, ObstacleExperiment, ObstacleInstance, ObstacleParams,
    ObstacleWorkload, RunConfig, RuntimeKind, Scheme, WorkloadKind,
};
use p2psap::data::ReliabilityMicro;
use std::time::{Duration, Instant};

/// Fixed-seed cross-runtime agreement: the synchronous scheme converges at
/// a problem-determined iteration, so loopback and the reactor must agree on
/// it. The peer that *detects* convergence stops at exactly that iteration,
/// making the per-run **minimum** relaxation count the runtime-independent
/// invariant. Individual wall-clock peers may overshoot it: a peer only
/// waits on its direct neighbours, so before the stop broadcast lands it can
/// run ahead of the slowest peer by up to the topology diameter (observed +2
/// on a loaded 4-peer line). The reactor runs one event loop per peer here:
/// every peer on its own OS thread and socket.
#[test]
fn udp_and_loopback_agree_on_synchronous_relaxation_counts() {
    let exp = ObstacleExperiment::new(10, Scheme::Synchronous, 4, 1);
    let loopback = run_obstacle_on(&exp, RuntimeKind::Loopback);
    let (workload, config) = exp.workload_and_config();
    let config = config.with_extras(BackendExtras::Reactor {
        event_loops: exp.peers,
        loss_probability: 0.0,
        reorder_probability: 0.0,
    });
    let udp = run_on(&workload, &config, RuntimeKind::Reactor);
    assert!(loopback.measurement.converged && udp.measurement.converged);
    let min = |m: &p2pdc::RunMeasurement| m.relaxations_per_peer.iter().copied().min().unwrap_or(0);
    assert_eq!(
        min(&loopback.measurement),
        min(&udp.measurement),
        "the convergence iteration differs: loopback {:?} vs reactor {:?}",
        loopback.measurement.relaxations_per_peer,
        udp.measurement.relaxations_per_peer
    );
    // Overshoot past the convergence iteration is bounded by the diameter.
    let peers = exp.peers as u64;
    assert!(
        udp.measurement.max_relaxations() < min(&udp.measurement) + peers,
        "reactor overshoot beyond the topology diameter: {:?}",
        udp.measurement.relaxations_per_peer
    );
    // Both backends assemble a solution satisfying the fixed-point equation.
    assert!(loopback.measurement.residual < exp.tolerance * 2.0);
    assert!(
        udp.measurement.residual < exp.tolerance * 2.0,
        "reactor residual {}",
        udp.measurement.residual
    );
}

/// Back-to-back lossless synchronous solves on the reactor never idle on a
/// retransmission timer. Every solve (obstacle n = 14, 4 peers on 2 event
/// loops) must finish well inside the reliable channel's initial RTO and
/// stop at loopback's convergence iteration. A ghost dropped because it
/// reached a peer still waiting for its bootstrap table would leave its
/// sender waiting for the retransmission, one full RTO. On a 2-vCPU host
/// a debug build solves in about 40 ms (p95 under 120 ms with both cores
/// saturated by other work), so only a timer wait reaches the RTO.
#[test]
fn lossless_synchronous_solves_never_wait_on_the_initial_rto() {
    let solves = 20;
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(14, peers);
    let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
    config.tolerance = 1e-4;
    let min = |m: &p2pdc::RunMeasurement| m.relaxations_per_peer.iter().copied().min().unwrap_or(0);
    let loopback = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    assert!(loopback.measurement.converged);
    let convergence = min(&loopback.measurement);
    assert_eq!(convergence, 56, "loopback convergence iteration");
    let config = config.with_extras(BackendExtras::Reactor {
        event_loops: 2,
        loss_probability: 0.0,
        reorder_probability: 0.0,
    });
    let rto = Duration::from_nanos(ReliabilityMicro::DEFAULT_RTO_NS);
    let mut times = Vec::with_capacity(solves);
    for solve in 0..solves {
        let started = Instant::now();
        let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
        let elapsed = started.elapsed();
        assert!(
            result.measurement.converged,
            "solve {solve} did not converge"
        );
        assert_eq!(
            min(&result.measurement),
            convergence,
            "solve {solve}: convergence iteration differs from loopback: {:?}",
            result.measurement.relaxations_per_peer
        );
        assert!(
            elapsed < rto,
            "solve {solve} took {elapsed:?}, at least one initial RTO ({rto:?}): \
             it waited on a retransmission"
        );
        times.push(elapsed);
    }
    times.sort_unstable();
    let median = times[solves / 2];
    let p95 = times[(solves * 95).div_ceil(100) - 1];
    eprintln!(
        "reactor solves: median {median:?}, p95 {p95:?}, p95/median {:.2}",
        p95.as_secs_f64() / median.as_secs_f64()
    );
}

/// At n = 16 a boundary plane is 16²·8 + 16 = 2064 bytes — above the
/// 1200-byte fragment cap — so every P2P_Send crosses the socket as
/// multiple datagrams and the run exercises reassembly end to end.
#[test]
fn multi_fragment_boundary_planes_reassemble_end_to_end() {
    let exp = ObstacleExperiment::new(16, Scheme::Synchronous, 2, 1);
    let loopback = run_obstacle_on(&exp, RuntimeKind::Loopback);
    let udp = run_obstacle_on(&exp, RuntimeKind::Reactor);
    assert!(udp.measurement.converged);
    assert!(
        (udp.measurement.max_relaxations() as i64 - loopback.measurement.max_relaxations() as i64)
            .abs()
            <= 1,
        "fragmented run diverged: reactor {:?} vs loopback {:?}",
        udp.measurement.relaxations_per_peer,
        loopback.measurement.relaxations_per_peer
    );
    assert!(udp.measurement.residual < exp.tolerance * 2.0);
}

/// The asynchronous scheme across two clusters selects the unreliable
/// inter-cluster channel (Table I), which tolerates genuine datagram loss:
/// with the shim dropping 5% of traffic the run still converges to an
/// accurate solution, using the freshest updates that do arrive.
#[test]
fn asynchronous_two_cluster_run_tolerates_real_datagram_loss() {
    let n = 10usize;
    let peers = 2usize;
    let workload = ObstacleWorkload::new(ObstacleParams {
        n,
        peers,
        scheme: Scheme::Asynchronous,
        instance: ObstacleInstance::Membrane,
    });
    let config = RunConfig::quick_two_clusters(Scheme::Asynchronous, peers).with_extras(
        BackendExtras::Reactor {
            event_loops: 0,
            loss_probability: 0.05,
            reorder_probability: 0.05,
        },
    );
    let result = run_on(&workload, &config, RuntimeKind::Reactor);
    assert!(result.measurement.converged, "lossy run did not converge");
    assert!(
        result.datagrams_dropped > 0,
        "the loss shim never fired — the scenario is not exercising loss"
    );
    assert!(
        result.measurement.residual < 1e-2,
        "residual {} beyond the asynchronous staleness bound",
        result.measurement.residual
    );
}

/// The hybrid scheme over UDP: intra-cluster neighbours stay reliable and
/// waited-for, the cross-cluster link runs asynchronously — on real sockets.
#[test]
fn hybrid_scheme_converges_over_udp_across_two_clusters() {
    let exp = ObstacleExperiment::new(10, Scheme::Hybrid, 4, 2);
    let result = run_obstacle_on(&exp, RuntimeKind::Reactor);
    assert!(result.measurement.converged);
    assert_eq!(result.measurement.peers, 4);
    assert!(
        result.measurement.residual < 1e-2,
        "residual {}",
        result.measurement.residual
    );
}
