//! Heat cluster: solve the 2-D steady-state heat equation with P2PDC on the
//! reactor runtime (real localhost UDP sockets, peers multiplexed onto
//! event-loop threads) through the workload-generic experiment driver, and
//! compare the distributed temperature field with the sequential Jacobi
//! baseline.
//!
//! ```text
//! cargo run --release --example heat_cluster
//! ```

use p2pdc::{run_on, solve_heat_sequential, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn main() {
    let n = 24;
    let peers = 4;
    println!("P2PDC heat cluster: {n}x{n} plate on {peers} peers (reactor runtime)");

    // The workload abstraction packages the application's three functions —
    // problem definition, per-peer Calculate(), results aggregation — so the
    // same run_on call works for any workload on any backend.
    let workload = WorkloadKind::Heat.build(n, peers);
    let config = RunConfig::quick(Scheme::Synchronous, peers);
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);

    println!(
        "converged: {} after {} relaxations/peer (max), wall {:.3} s",
        result.measurement.converged,
        result.measurement.max_relaxations(),
        result.measurement.elapsed.as_secs_f64()
    );
    println!("fixed-point residual: {:.3e}", result.measurement.residual);

    // Sequential baseline: the synchronous scheme reproduces its iterates.
    let (reference, iterations) = solve_heat_sequential(n, config.tolerance, 1_000_000);
    let max_err = result
        .solution
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("sequential Jacobi: {iterations} sweeps; max deviation {max_err:.3e}");

    // Temperature profile down the centre of the plate: 1.0 at the heated
    // edge, decaying towards the cold edges.
    let mid = n / 2;
    print!("centre-column temperatures: ");
    for i in (0..n).step_by(4) {
        print!("{:.3} ", result.solution[i * n + mid]);
    }
    println!();
}
