//! `repro` — regenerate the paper's evaluation artifacts.
//!
//! Usage:
//!
//! ```text
//! repro table1                 # Table I: adaptation rules
//! repro fig5 [--full]          # Figure 5: 96³ obstacle problem (default: scaled 32³)
//! repro fig6 [--full]          # Figure 6: 144³ obstacle problem (default: scaled 48³)
//! repro ablation               # data-channel design-choice ablation
//! repro runtimes               # (workload x scheme x runtime) matrix -> BENCH_runtimes.json
//! repro scale [--full]         # matrix + reactor peer-scaling curve (64/256; --full adds 1024
//!                              # and a 1024-peer crash+recovery run) -> BENCH_runtimes.json
//! repro churn                  # churn grid (crash + recovery per cell) -> BENCH_churn.json
//! repro hotpath                # kernel/encode/end-to-end grid -> BENCH_hotpath.json
//! repro contention             # control-plane lock grid (--full adds the 1024-peer row)
//!                              # -> BENCH_contention.json
//! repro gossip                 # gossip control-plane grid (scheme x runtime x fanout x peers,
//!                              # paired centralized runs) -> BENCH_gossip.json
//! repro fuzz [--seed-batch ci | --seed N] [--count N]
//!                              # scenario fuzzer: seeded random churn plans over random
//!                              # (workload x scheme x control plane) configs, run on sim +
//!                              # loopback and checked against the invariant oracles; failing
//!                              # plans shrink to minimal repros under results/fuzz_repros/
//! repro fuzz --replay <file>   # re-run one saved minimal repro and compare its violations
//! repro all [--full]           # everything above
//! ```
//!
//! Results are printed as text tables and also written as JSON under
//! `results/` for EXPERIMENTS.md. `repro runtimes` additionally writes the
//! machine-readable `BENCH_runtimes.json` into the working directory; CI
//! uploads it as a workflow artifact on every PR (the perf trajectory).
//! `repro hotpath` likewise writes `BENCH_hotpath.json` and fails (exit 1)
//! when the blocked kernel falls below the scalar reference on the n = 64
//! obstacle cell — the CI smoke assertion for the hot-path overhaul.

use bench_suite::{
    format_ablation, format_churn_grid, format_contention, format_gossip, format_hotpath,
    format_runtime_matrix, format_scale_curve, format_table1, run_ablation, run_churn_grid,
    run_contention, run_figure, run_gossip_grid, run_hotpath, run_runtime_matrix, run_scale_curve,
    run_table1, FigureConfig,
};
use p2pdc::format_table;

// Counting the hot path's heap traffic requires owning the process's global
// allocator; with it installed, the allocs/bytes columns of `repro hotpath`
// are real measurements instead of zeros.
#[global_allocator]
static COUNTING: p2pdc::allocs::CountingAllocator = p2pdc::allocs::CountingAllocator;

fn write_json_to(path: &str, value: &impl serde::Serialize) {
    match serde_json::to_string_pretty(value) {
        Ok(body) => match std::fs::write(path, body) {
            Ok(()) => eprintln!("(wrote {path})"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        },
        Err(e) => eprintln!("could not serialize {path}: {e}"),
    }
}

fn write_json(name: &str, value: &impl serde::Serialize) {
    let _ = std::fs::create_dir_all("results");
    write_json_to(&format!("results/{name}.json"), value);
}

fn run_fig(which: u8, full: bool) {
    let (config, paper_label) = match which {
        5 => (FigureConfig::figure5(full), "96x96x96"),
        _ => (FigureConfig::figure6(full), "144x144x144"),
    };
    let title = format!(
        "Figure {which}: obstacle problem {paper_label} (simulated at {n}^3, granularity-preserving compute model)",
        n = config.n
    );
    eprintln!("running {title} ...");
    let result = run_figure(&title, &config);
    println!("{}", format_table(&result.title, &result.rows));
    write_json(
        &format!("fig{which}{}", if full { "_full" } else { "" }),
        &result,
    );
}

fn run_runtimes_with_scale(scale: bool, full: bool) {
    eprintln!("running the (workload x scheme x runtime) matrix ...");
    let mut result = run_runtime_matrix();
    println!("{}", format_runtime_matrix(&result));
    if scale {
        eprintln!(
            "running the reactor peer-scaling curve ({}) ...",
            if full {
                "64/256/1024 + churn"
            } else {
                "64/256"
            }
        );
        result.scale = run_scale_curve(full);
        println!("{}", format_scale_curve(&result.scale));
    }
    write_json("runtimes", &result);
    // The perf-trajectory artifact CI uploads on every PR.
    write_json_to("BENCH_runtimes.json", &result);
    if !result.rows.iter().all(|r| r.converged) {
        eprintln!("WARNING: a (workload, runtime) cell failed to converge");
        std::process::exit(1);
    }
    if !result.scale.iter().all(|r| r.converged) {
        eprintln!("WARNING: a peer-scaling cell failed to converge");
        std::process::exit(1);
    }
}

fn run_churn() {
    eprintln!("running the churn grid (workload x scheme x runtime x churn level) ...");
    let result = run_churn_grid();
    println!("{}", format_churn_grid(&result));
    write_json("churn", &result);
    // Uploaded alongside BENCH_runtimes.json as a perf-trajectory artifact.
    write_json_to("BENCH_churn.json", &result);
    if !result.rows.iter().all(|r| r.converged) {
        eprintln!("WARNING: a churn cell failed to converge");
        std::process::exit(1);
    }
}

fn run_hotpath_grid() {
    eprintln!("running the hot-path grid (kernel / encode / end-to-end) ...");
    let result = run_hotpath();
    println!("{}", format_hotpath(&result));
    write_json("hotpath", &result);
    // Uploaded alongside BENCH_runtimes.json as a perf-trajectory artifact.
    write_json_to("BENCH_hotpath.json", &result);
    // Smoke assertion: the blocked kernel must not lose to the scalar
    // reference on the n = 64 obstacle cell.
    let points = |kernel: &str| {
        result
            .kernel
            .iter()
            .find(|r| r.n == 64 && r.kernel == kernel)
            .map(|r| r.points_per_sec)
    };
    if let (Some(blocked), Some(scalar)) = (points("blocked"), points("scalar")) {
        if blocked < scalar {
            eprintln!(
                "WARNING: blocked kernel slower than scalar at n=64 \
                 ({blocked:.0} vs {scalar:.0} points/sec)"
            );
            std::process::exit(1);
        }
    }
}

fn run_contention_grid(full: bool) {
    eprintln!("running the control-plane contention grid (instrumented lock counters) ...");
    let result = run_contention(full);
    println!("{}", format_contention(&result));
    write_json("contention", &result);
    // Uploaded alongside BENCH_runtimes.json as a perf-trajectory artifact.
    write_json_to("BENCH_contention.json", &result);
    // Smoke assertion 1: the instrumented hot sweep must never touch the
    // detector or volatility mutex on its per-sweep paths.
    let h = &result.hot_sweep;
    if h.detector_report_locks != 0 || h.volatility_sweep_locks != 0 {
        eprintln!(
            "WARNING: hot sweep acquired per-sweep locks \
             (report path {}, volatility gates {}) over {} relaxations",
            h.detector_report_locks, h.volatility_sweep_locks, h.relaxations
        );
        std::process::exit(1);
    }
    // Smoke assertion 2: loop rebalancing must not regress the 256-peer
    // point against its own static-shard baseline.
    let pps = |rebalance: bool| {
        result
            .rows
            .iter()
            .find(|r| r.peers == 256 && !r.churn && r.rebalance == rebalance)
            .map(|r| r.points_per_sec)
    };
    if let (Some(on), Some(off)) = (pps(true), pps(false)) {
        if on < 0.8 * off {
            eprintln!(
                "WARNING: loop rebalancing regresses the 256-peer reactor row \
                 ({on:.0} vs {off:.0} points/sec)"
            );
            std::process::exit(1);
        }
    }
    if !result.rows.iter().all(|r| r.converged) {
        eprintln!("WARNING: a contention cell failed to converge");
        std::process::exit(1);
    }
}

fn run_gossip() {
    eprintln!("running the gossip control-plane grid (scheme x runtime x fanout x peers) ...");
    let result = run_gossip_grid();
    println!("{}", format_gossip(&result));
    write_json("gossip", &result);
    // Uploaded alongside BENCH_runtimes.json as a perf-trajectory artifact.
    write_json_to("BENCH_gossip.json", &result);
    if !result.rows.iter().all(|r| r.converged) {
        eprintln!("WARNING: a gossip cell failed to converge");
        std::process::exit(1);
    }
    // A churn cell that stops before its seeded crash leaves the detection
    // gate below nothing to compare.
    if let Some(r) = result
        .rows
        .iter()
        .find(|r| r.churn && (r.crashes, r.recoveries) != (1, 1))
    {
        eprintln!(
            "WARNING: the {} churn cell on {} at {} peers saw {} crashes and {} recoveries, \
             expected one of each",
            r.control, r.runtime, r.peers, r.crashes, r.recoveries
        );
        std::process::exit(1);
    }
    // Smoke assertion: SWIM failure detection must stay within 5x of the
    // centralized missed-ping sweep on every paired churn cell. Latencies
    // under the protocol's own escalation floor are exempt: suspicion takes
    // two ack windows plus the suspicion timeout by design (~100 ms under
    // the wall-clock timings), so at toy cell sizes — where one 10 ms ping
    // sweep catches the crash centrally — the ratio alone would flag the
    // ladder working exactly as specified.
    const SWIM_FLOOR_S: f64 = 0.25;
    for gossip in result
        .rows
        .iter()
        .filter(|r| r.control == "gossip" && r.churn && r.detection_latency_s > SWIM_FLOOR_S)
    {
        let centralized = result.rows.iter().find(|r| {
            r.control == "centralized"
                && r.churn
                && r.peers == gossip.peers
                && r.runtime == gossip.runtime
                && r.scheme == gossip.scheme
        });
        if let Some(c) = centralized {
            if c.detection_latency_s > 0.0
                && gossip.detection_latency_s > 5.0 * c.detection_latency_s
            {
                eprintln!(
                    "WARNING: gossip detection latency on {} at {} peers is {:.3}s \
                     vs centralized {:.3}s (> 5x)",
                    gossip.runtime, gossip.peers, gossip.detection_latency_s, c.detection_latency_s
                );
                std::process::exit(1);
            }
        }
    }
}

/// The pinned master seed and batch size of `repro fuzz --seed-batch ci`
/// (the CI fuzz-smoke job): ≥ 40 plans covering the full
/// (workload × scheme × control plane) grid at least twice.
const CI_FUZZ_SEED: u64 = 42;
const CI_FUZZ_COUNT: usize = 40;

fn run_fuzz(args: &[String]) {
    use p2pdc::scenario::{check_case, fuzz};

    // --replay <file>: re-run one saved minimal repro.
    if let Some(at) = args.iter().position(|a| a == "--replay") {
        let Some(path) = args.get(at + 1) else {
            eprintln!("--replay needs a file path");
            std::process::exit(2);
        };
        let repro = match fuzz::load_repro(std::path::Path::new(path)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        eprintln!("replaying {} ({})", path, repro.case.label());
        let violations = check_case(&repro.case);
        for v in &violations {
            println!("[{}] {}", v.oracle, v.detail);
        }
        if violations == repro.violations {
            eprintln!("replay reproduced the saved violations exactly");
            std::process::exit(if violations.is_empty() { 0 } else { 1 });
        }
        eprintln!(
            "replay DIVERGED from the saved violations (saved {:?})",
            repro.violations
        );
        std::process::exit(1);
    }

    let seed = if args.iter().any(|a| a == "--seed-batch") {
        CI_FUZZ_SEED
    } else {
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|at| args.get(at + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(CI_FUZZ_SEED)
    };

    // --only <index>: debug one generated case with per-backend timing and
    // the raw measurements (the batch only prints oracle verdicts).
    if let Some(at) = args.iter().position(|a| a == "--only") {
        let Some(index) = args.get(at + 1).and_then(|s| s.parse().ok()) else {
            eprintln!("--only needs a case index");
            std::process::exit(2);
        };
        let case = fuzz::generate_case(seed, index);
        eprintln!("case {index:03} {}", case.label());
        eprintln!("{}", serde_json::to_string_pretty(&case).unwrap());
        let workload = case.workload.build(case.size, case.peers);
        let config = case.config();
        for kind in [p2pdc::RuntimeKind::Sim, p2pdc::RuntimeKind::Loopback] {
            let start = std::time::Instant::now();
            let result = p2pdc::run_on(workload.as_ref(), &config, kind);
            let m = &result.measurement;
            eprintln!(
                "  {kind:?}: {:.2?} wall, converged={} residual={:.3e} relax={:?} crashes={} recoveries={} joins={} repartitions={}",
                start.elapsed(),
                m.converged,
                m.residual,
                m.relaxations_per_peer,
                m.crashes,
                m.recoveries,
                m.joins,
                m.repartitions,
            );
        }
        let mut counter = config.clone();
        counter.control_plane = case.counterpart_control();
        let start = std::time::Instant::now();
        let result = p2pdc::run_on(workload.as_ref(), &counter, p2pdc::RuntimeKind::Loopback);
        let m = &result.measurement;
        eprintln!(
            "  Loopback/{:?}: {:.2?} wall, converged={} residual={:.3e} relax={:?} crashes={} recoveries={} joins={} repartitions={}",
            counter.control_plane,
            start.elapsed(),
            m.converged,
            m.residual,
            m.relaxations_per_peer,
            m.crashes,
            m.recoveries,
            m.joins,
            m.repartitions,
        );
        let violations = check_case(&case);
        for v in &violations {
            println!("[{}] {}", v.oracle, v.detail);
        }
        if !violations.is_empty() && args.iter().any(|a| a == "--shrink") {
            let start = std::time::Instant::now();
            let shrunk = fuzz::shrink(&case);
            eprintln!(
                "  shrink: {:.2?} wall, {} -> {} events",
                start.elapsed(),
                case.plan.events.len(),
                shrunk.plan.events.len()
            );
            eprintln!("{}", serde_json::to_string_pretty(&shrunk.plan).unwrap());
        }
        std::process::exit(if violations.is_empty() { 0 } else { 1 });
    }
    let count = args
        .iter()
        .position(|a| a == "--count")
        .and_then(|at| args.get(at + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(CI_FUZZ_COUNT);

    eprintln!("fuzzing {count} scenario plans from master seed {seed} (sim + loopback) ...");
    let outcome = fuzz::run_batch(seed, count, &mut |index, case, violations| {
        if violations.is_empty() {
            eprintln!("  case {index:03} ok       {}", case.label());
        } else {
            eprintln!("  case {index:03} FAILED   {}", case.label());
            for v in violations {
                eprintln!("           [{}] {}", v.oracle, v.detail);
            }
        }
    });
    write_json("fuzz", &outcome);
    if outcome.failures.is_empty() {
        eprintln!("all {count} plans hold every oracle");
        return;
    }
    let dir = std::path::Path::new("results/fuzz_repros");
    for failure in &outcome.failures {
        eprintln!(
            "case {:03} shrank from {} to {} events; violations: {}",
            failure.index,
            failure.case.plan.events.len(),
            failure.shrunk.plan.events.len(),
            failure
                .shrunk_violations
                .iter()
                .map(|v| v.oracle.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        match fuzz::save_repro(dir, failure) {
            Ok(path) => eprintln!("  minimal repro saved to {}", path.display()),
            Err(e) => eprintln!("  could not save the repro: {e}"),
        }
    }
    eprintln!(
        "WARNING: {} of {count} plans violated an oracle",
        outcome.failures.len()
    );
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(|s| s.as_str()).unwrap_or("all");
    let full = args.iter().any(|a| a == "--full");

    match command {
        "table1" => {
            let rows = run_table1();
            println!("{}", format_table1(&rows));
            write_json("table1", &rows);
            if !rows.iter().all(|r| r.matches_paper) {
                eprintln!("WARNING: controller decisions deviate from the paper's Table I");
                std::process::exit(1);
            }
        }
        "fig5" => run_fig(5, full),
        "fig6" => run_fig(6, full),
        "ablation" => {
            let rows = run_ablation();
            println!("{}", format_ablation(&rows));
            write_json("ablation", &rows);
        }
        "runtimes" => run_runtimes_with_scale(false, false),
        "scale" => run_runtimes_with_scale(true, full),
        "churn" => run_churn(),
        "hotpath" => run_hotpath_grid(),
        "contention" => run_contention_grid(full),
        "gossip" => run_gossip(),
        "fuzz" => run_fuzz(&args[1..]),
        "all" => {
            let rows = run_table1();
            println!("{}", format_table1(&rows));
            write_json("table1", &rows);
            run_fig(5, full);
            run_fig(6, full);
            let ablation = run_ablation();
            println!("{}", format_ablation(&ablation));
            write_json("ablation", &ablation);
            run_runtimes_with_scale(true, full);
            run_churn();
            run_hotpath_grid();
            run_contention_grid(full);
            run_gossip();
        }
        other => {
            eprintln!(
                "unknown command '{other}'; expected table1 | fig5 | fig6 | ablation | runtimes | scale | churn | hotpath | contention | gossip | fuzz | all"
            );
            std::process::exit(2);
        }
    }
}
