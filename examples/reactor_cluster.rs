//! 256 peers on one machine: the reactor backend multiplexes every peer's
//! nonblocking UDP socket onto a few event loops, so a peer population two
//! orders of magnitude beyond one OS thread per peer still runs as a
//! handful of OS threads.
//!
//! The run solves the obstacle problem asynchronously and survives a seeded
//! mid-run crash: the victim is evicted through missed pings, its block is
//! restored from the latest live checkpoint, and a fresh peer joins the run
//! afterwards, triggering a live repartition of the planes.
//!
//! ```text
//! cargo run --release -p apps --example reactor_cluster [n] [peers]
//! ```
//!
//! The default 256-peer run moves half-megabyte ghost planes per exchange
//! and takes a couple of minutes on a small box; try `64 64` for a
//! seconds-long tour of the same machinery.

use p2pdc::{run_on, BackendExtras, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_arg: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let peers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    // The obstacle decomposition hands each peer at least one grid plane,
    // and the joiner needs a plane of its own too.
    let n = n_arg.max(peers + 1);
    let workload = WorkloadKind::Obstacle.build(n, peers);
    println!("obstacle problem {n}^3, {peers} peers multiplexed on the reactor backend\n");

    // Crash the middle peer early, recover it from the live checkpoints,
    // then grow the run by one joining peer once the recovery has settled.
    // A ghost plane is n^2 values, so at n = 257 every exchange moves half
    // a megabyte; the tolerance is coarsened with the population to keep
    // the demo's total data volume in check, and the churn events sit at
    // the very start of the run so they fire at any tolerance.
    let tolerance = if peers > 64 { 1e-3 } else { 1e-4 };
    let crash_at = 3;
    let join_at = 8;
    let plan = ChurnPlan::kill(peers / 2, crash_at)
        .with_checkpoint_interval(2)
        .with_repartition(true)
        .with_join(0, join_at);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers)
        .with_churn(plan)
        .with_extras(BackendExtras::Reactor {
            // 0 = one event loop per available core.
            event_loops: 0,
            loss_probability: 0.0,
            reorder_probability: 0.0,
        });
    config.tolerance = tolerance;

    let start = std::time::Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let wall = start.elapsed().as_secs_f64();

    let m = &result.measurement;
    println!(
        "converged={} wall={wall:.2}s crashes={} recoveries={} joins={} rollbacks={}",
        m.converged, m.crashes, m.recoveries, m.joins, m.rollbacks,
    );
    println!(
        "final population={} residual={:.3e} min/max relaxations={}/{}",
        m.relaxations_per_peer.len(),
        m.residual,
        m.relaxations_per_peer.iter().min().copied().unwrap_or(0),
        m.relaxations_per_peer.iter().max().copied().unwrap_or(0),
    );

    assert!(m.converged, "the churned 256-peer run must converge");
    assert_eq!(m.crashes, 1, "exactly one seeded crash");
    assert_eq!(m.recoveries, 1, "the victim must recover");
    assert!(m.joins >= 1, "the seeded join must fire");

    // The measured loop rebalance at work: per-loop busy-time shares over
    // the first rebalance period (the imbalance the first migration
    // decision saw) against the whole run, plus the migrations performed.
    if let Some(stats) = p2pdc::runtime::reactor::last_loop_stats() {
        let shares = |busy: &[u64]| -> String {
            let total: u64 = busy.iter().sum::<u64>().max(1);
            busy.iter()
                .map(|&ns| format!("{:.0}%", ns as f64 * 100.0 / total as f64))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "\nper-loop busy shares: first period [{}] -> whole run [{}] ({} migrations)",
            shares(&stats.busy_ns_first_period),
            shares(&stats.busy_ns_final),
            stats.migrations,
        );
    }
    println!("\n{peers} peers, one crash, one join - absorbed on a couple of event loops");
}
