//! Crash and recover a peer mid-run on the reactor backend.
//!
//! Peers on real localhost UDP sockets solve the obstacle problem
//! asynchronously; a seeded churn plan kills one peer partway through. The
//! dead peer's socket closes, it stops pinging the run's topology manager,
//! is evicted after three missed ping periods, and the recovery path
//! restarts its block from the latest live checkpoint — the run still
//! converges to the fault-free residual quality.
//!
//! ```text
//! cargo run --release -p apps --example churn
//! ```

use p2pdc::{run_on, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn main() {
    let peers = 3;
    let size = 10;
    let workload = WorkloadKind::Obstacle.build(size, peers);

    // Fault-free baseline: how many relaxations does the solve take?
    let clean = RunConfig::quick(Scheme::Asynchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Reactor);
    let baseline_iters = baseline
        .measurement
        .relaxations_per_peer
        .iter()
        .min()
        .copied()
        .unwrap_or(0);
    println!(
        "fault-free: converged={} relaxations={:?} residual={:.3e}",
        baseline.measurement.converged,
        baseline.measurement.relaxations_per_peer,
        baseline.measurement.residual,
    );

    // Kill peer 1 early in the run. Wall-clock relaxation counts vary
    // with the scheduler, so the crash point is clamped well below any
    // plausible convergence iteration — the victim must actually reach it,
    // or no crash fires.
    let crash_at = (baseline_iters * 3 / 10).clamp(2, 200);
    let faulty = clean
        .clone()
        .with_churn(ChurnPlan::kill(1, crash_at).with_checkpoint_interval((crash_at / 2).max(1)));
    println!("\ninjecting: crash of rank 1 after {crash_at} relaxations ...");
    let result = run_on(workload.as_ref(), &faulty, RuntimeKind::Reactor);
    println!(
        "with churn: converged={} crashes={} recoveries={} rollbacks={} downtime={:.1}ms",
        result.measurement.converged,
        result.measurement.crashes,
        result.measurement.recoveries,
        result.measurement.rollbacks,
        result.measurement.downtime_s * 1e3,
    );
    println!(
        "            relaxations={:?} residual={:.3e}",
        result.measurement.relaxations_per_peer, result.measurement.residual,
    );
    println!(
        "            per-peer throughput [points/s]: {:?}",
        result
            .measurement
            .points_per_sec
            .iter()
            .map(|t| *t as u64)
            .collect::<Vec<_>>(),
    );
    assert!(result.measurement.converged, "the faulty run must converge");
    assert_eq!(result.measurement.recoveries, 1);
    println!("\nthe asynchronous scheme absorbed the crash: same residual tolerance, one recovery");
}
