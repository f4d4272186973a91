//! `perfbench`: the solve-to-tolerance benchmark of the p2pdc runtimes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload obstacle-loopback --seed 42 --seconds 30 --trace 0
//! ```
//!
//! One client in one process issues solves back to back (a closed loop:
//! each `run_on` call waits for the previous one to finish) for
//! `--seconds`, after one untimed warm-up solve. Every solve is checked
//! (converged, residual within twice the tolerance, expected relaxation
//! counts, bit-identical replay on the deterministic backends). With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced solves and reports the per-layer metrics
//! of the traced ones plus the tracing overhead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--workload all` runs every workload in turn. The exit code is nonzero
//! on any failed solve. A report and the spans of the traced solves are
//! written under `perfbench/out/`.

mod alloc;
mod stats;
mod sys;
mod trace;
mod workloads;

use p2pdc::{run_on, RunConfig, RunMeasurement, RuntimeExperimentResult, RuntimeKind, Workload};
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use sys::UdpCounters;
use trace::{Layer, Span, TracedWorkload};
use workloads::{check, solution_hash, Failure, Reference, Spec, SPECS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fewest timed untraced solves a run makes, so the tail percentile has
/// ten solves beyond it.
const MIN_UNTRACED: usize = stats::TAIL_BEYOND + 1;
/// Fewest traced solves a `--trace 1` run makes.
const MIN_TRACED: usize = 3;
/// `WorkloadKind::build` is timed this many times before the warm-up...
const SETUP_MIN_BUILDS: usize = 5;
/// ...and then in a burst of at least this many builds...
const SETUP_BURST_BUILDS: usize = 2;
/// ...and this long before every timed solve. `setup_s` is the fastest of
/// all these builds. A build is a short, memory-bound loop, and the cores
/// of a shared host switch between a fast speed and one up to 1.8× slower
/// for it every few hundred milliseconds; the share of slow builds, and so
/// their median, follows the neighbours' load, while the fastest build of
/// bursts spread over the run is the build's own cost.
const SETUP_BURST: Duration = Duration::from_millis(10);
/// Spans written to the trace file per run (later spans are aggregated
/// but not written).
const MAX_WRITTEN_SPANS: usize = 100_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: RunConfig::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && Spec::named(&args.workload).is_none() {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        return Err(format!(
            "--workload must be one of {} or all",
            names.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(args)
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// One solve's measurements.
struct Sample {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    /// Peak heap the solve added above what was live when it began (the
    /// workload's problem data and the benchmark's own records excluded).
    heap_peak_bytes: usize,
    allocs: u64,
    udp: Option<UdpCounters>,
    /// `None` when `run_on` panicked; the solution is dropped after hashing.
    result: Option<RuntimeExperimentResult>,
    hash: u64,
    failure: Option<Failure>,
}

impl Sample {
    fn measurement(&self) -> Option<&RunMeasurement> {
        self.result.as_ref().map(|r| &r.measurement)
    }
}

fn solve_once(
    spec: &Spec,
    workload: &dyn Workload,
    config: &RunConfig,
    traced: bool,
    solve_id: u64,
    reference: Option<&Reference>,
) -> Sample {
    let udp_before = UdpCounters::read();
    let allocs_before = alloc::total_allocs();
    let heap_base = alloc::reset_peak();
    let cpu_before = sys::process_cpu_s();
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if traced {
            let traced = TracedWorkload::new(workload);
            trace::solve(solve_id, || run_on(&traced, config, spec.runtime))
        } else {
            run_on(workload, config, spec.runtime)
        }
    }));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu_before;
    let heap_peak_bytes = alloc::peak_bytes().saturating_sub(heap_base);
    let allocs = alloc::total_allocs() - allocs_before;
    let udp = match (UdpCounters::read(), udp_before) {
        (Some(after), Some(before)) => Some(after.since(&before)),
        _ => None,
    };
    let mut sample = Sample {
        traced,
        wall_s,
        cpu_s,
        heap_peak_bytes,
        allocs,
        udp,
        result: None,
        hash: 0,
        failure: Some(Failure::Panic),
    };
    if let Ok(mut result) = outcome {
        sample.hash = solution_hash(&result.solution);
        sample.failure = check(spec, &result, sample.hash, reference);
        result.solution = Vec::new();
        sample.result = Some(result);
    }
    sample
}

/// Per-solve totals of one layer's spans.
#[derive(Debug, Default, Clone, Copy)]
struct LayerTotals {
    calls: u64,
    busy_s: f64,
    allocs: u64,
    bytes: u64,
    points: u64,
}

/// The per-layer metrics of one traced solve.
fn layer_metrics(spec: &Spec, sample: &Sample, spans: &[Span]) -> Vec<Metric> {
    let totals = |layer: Layer| {
        let mut t = LayerTotals::default();
        for s in spans.iter().filter(|s| s.layer == layer) {
            t.calls += 1;
            t.busy_s += s.busy_ns() as f64 * 1e-9;
            t.allocs += s.allocs;
            t.bytes += s.bytes;
            t.points += s.points;
        }
        t
    };
    let kernel = totals(Layer::Kernel);
    let encode = totals(Layer::Encode);
    let decode = totals(Layer::Decode);
    let checkpoint = totals(Layer::Checkpoint);
    let restore = totals(Layer::Restore);
    let reslice = totals(Layer::Reslice);
    let task = totals(Layer::Task);
    let assemble = totals(Layer::Assemble);
    let residual = totals(Layer::Residual);
    let root = spans
        .iter()
        .find(|s| s.layer == Layer::Solve)
        .map_or(0, |s| s.id);
    // Application-layer spans directly under the solve; nested ones are
    // already inside their parent's time and allocations.
    let (app_busy_s, app_allocs) = spans
        .iter()
        .filter(|s| s.parent == root && s.layer != Layer::Solve)
        .fold((0.0, 0u64), |(busy, allocs), s| {
            (busy + s.busy_ns() as f64 * 1e-9, allocs + s.allocs)
        });
    let wall = sample.wall_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = sample
        .measurement()
        .expect("only solves that returned are aggregated");
    let relaxations = m.total_relaxations() as f64;
    let net = sample.result.as_ref().and_then(|r| r.net.as_ref());
    let (intra, inter) = net.map_or(Default::default(), |n| (n.intra, n.inter));
    let udp = sample.udp.unwrap_or_default();
    let sim_time_s = if spec.runtime == RuntimeKind::Sim {
        m.elapsed.as_secs_f64()
    } else {
        0.0
    };
    let self_cpu_s = sample.cpu_s - app_busy_s;
    vec![
        metric("kernel.calls", kernel.calls as f64, "count"),
        metric("kernel.busy_s", kernel.busy_s, "s"),
        metric("kernel.share", ratio(kernel.busy_s, wall), "ratio"),
        metric(
            "kernel.points_per_s",
            ratio(kernel.points as f64, kernel.busy_s),
            "points/s",
        ),
        metric("kernel.allocs", kernel.allocs as f64, "count"),
        metric("encode.calls", encode.calls as f64, "count"),
        metric("encode.busy_s", encode.busy_s, "s"),
        metric("encode.bytes", encode.bytes as f64, "B"),
        metric("encode.allocs", encode.allocs as f64, "count"),
        metric("decode.calls", decode.calls as f64, "count"),
        metric("decode.busy_s", decode.busy_s, "s"),
        metric("decode.bytes", decode.bytes as f64, "B"),
        metric("decode.allocs", decode.allocs as f64, "count"),
        metric("checkpoint.calls", checkpoint.calls as f64, "count"),
        metric("checkpoint.busy_s", checkpoint.busy_s, "s"),
        metric("checkpoint.bytes", checkpoint.bytes as f64, "B"),
        metric("restore.calls", restore.calls as f64, "count"),
        metric("reslice.calls", reslice.calls as f64, "count"),
        metric("reslice.busy_s", reslice.busy_s, "s"),
        metric("workload.task_s", task.busy_s, "s"),
        metric(
            "workload.assemble_s",
            assemble.busy_s + residual.busy_s,
            "s",
        ),
        metric("runtime.self_cpu_s", self_cpu_s, "s"),
        metric(
            "runtime.idle_s",
            wall - sample.cpu_s / spec.driving_threads() as f64,
            "s",
        ),
        metric("runtime.share", ratio(self_cpu_s, wall), "ratio"),
        metric(
            "runtime.allocs_per_relax",
            ratio(
                sample.allocs.saturating_sub(app_allocs) as f64,
                kernel.calls as f64,
            ),
            "count",
        ),
        metric("engine.relaxations", relaxations, "count"),
        metric(
            "engine.stop_skew",
            (m.max_relaxations() - m.min_relaxations()) as f64,
            "count",
        ),
        metric(
            "engine.points_relaxed",
            m.total_points_relaxed() as f64,
            "count",
        ),
        metric("churn.downtime_s", m.downtime_s, "s"),
        metric("churn.recoveries", m.recoveries as f64, "count"),
        metric("churn.rollbacks", m.rollbacks as f64, "count"),
        metric("churn.moved_points", m.moved_points as f64, "count"),
        metric(
            "churn.redo_ratio",
            ratio(kernel.calls as f64, relaxations) - 1.0,
            "ratio",
        ),
        metric(
            "netsim.packets_sent",
            (intra.packets_sent + inter.packets_sent) as f64,
            "count",
        ),
        metric(
            "netsim.packets_lost",
            (intra.packets_dropped + inter.packets_dropped) as f64,
            "count",
        ),
        metric("netsim.bytes_intra", intra.bytes_delivered as f64, "B"),
        metric("netsim.bytes_inter", inter.bytes_delivered as f64, "B"),
        metric("udp.datagrams_out", udp.out_datagrams as f64, "count"),
        metric(
            "udp.datagrams_unreceived",
            (udp.out_datagrams - udp.in_datagrams) as f64,
            "count",
        ),
        metric("udp.rcvbuf_errors", udp.rcvbuf_errors as f64, "count"),
        metric("sim_time_s", sim_time_s, "s"),
    ]
}

/// Everything one workload run produced.
struct RunReport {
    spec: &'static Spec,
    metrics: Vec<Metric>,
    attempted: usize,
    failures: Vec<(Failure, usize)>,
    /// Report lines (stamp, sample counts, notes) for the human summary.
    notes: Vec<(String, String)>,
}

impl RunReport {
    fn failed(&self) -> usize {
        self.failures.iter().map(|(_, n)| n).sum()
    }
}

/// Time `WorkloadKind::build` at least `min_builds` times and for at least
/// `budget`, appending each build's seconds to `samples`; returns the last
/// build.
fn timed_builds(
    spec: &Spec,
    samples: &mut Vec<f64>,
    min_builds: usize,
    budget: Duration,
) -> Box<dyn Workload> {
    let started = Instant::now();
    let mut last = None;
    for n in 1.. {
        let t = Instant::now();
        let built = spec.kind.build(spec.size, spec.peers);
        samples.push(t.elapsed().as_secs_f64());
        // The previous build is dropped here, outside the timed span.
        last = Some(built);
        if n >= min_builds && started.elapsed() >= budget {
            break;
        }
    }
    last.expect("at least one build")
}

fn run_workload(spec: &'static Spec, args: &Args, out_dir: &Path) -> RunReport {
    let mut notes: Vec<(String, String)> = vec![
        ("workload".into(), spec.name.into()),
        (
            "commit".into(),
            sys::commit(Path::new(env!("CARGO_MANIFEST_DIR"))),
        ),
        ("seed".into(), args.seed.to_string()),
        ("nproc".into(), sys::nproc().to_string()),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("trace".into(), u8::from(args.trace).to_string()),
        (
            "loop".into(),
            "closed: one client, one solve in flight".into(),
        ),
    ];
    for (k, v) in spec.params() {
        notes.push((format!("param.{k}"), v));
    }
    if spec.runtime == RuntimeKind::Reactor {
        notes.push((
            "note.udp".into(),
            "UDP traffic crossed the loopback interface; udp.* are system-wide \
             /proc/net/snmp deltas"
                .into(),
        ));
    }

    let mut setup_samples = Vec::new();
    let workload = timed_builds(spec, &mut setup_samples, SETUP_MIN_BUILDS, Duration::ZERO);
    let config = spec.config(args.seed);

    let warmup = solve_once(spec, workload.as_ref(), &config, false, 0, None);
    notes.push(("warmup_solve_s".into(), warmup.wall_s.to_string()));
    if let Some(m) = warmup.measurement() {
        notes.push((
            "warmup_outcome".into(),
            format!(
                "relaxations {:?}, crashes {}, recoveries {}, residual {:e}",
                m.relaxations_per_peer, m.crashes, m.recoveries, m.residual
            ),
        ));
    }
    let reference = match (warmup.measurement(), warmup.failure) {
        (Some(m), None) => Some(Reference {
            counts: m.relaxations_per_peer.clone(),
            hash: warmup.hash,
        }),
        _ => None,
    };

    let mut samples = vec![];
    let mut per_layer: Vec<Vec<Metric>> = vec![];
    let mut written_spans: Vec<Span> = vec![];
    let budget = Duration::from_secs_f64(args.seconds);
    let (min_untraced, min_traced) = if args.trace {
        (MIN_TRACED, MIN_TRACED)
    } else {
        (MIN_UNTRACED, 0)
    };
    let started = Instant::now();
    for solve_id in 1u64.. {
        let traced = args.trace && solve_id % 2 == 0;
        if !args.trace {
            drop(timed_builds(
                spec,
                &mut setup_samples,
                SETUP_BURST_BUILDS,
                SETUP_BURST,
            ));
        }
        let sample = solve_once(
            spec,
            workload.as_ref(),
            &config,
            traced,
            solve_id,
            reference.as_ref(),
        );
        if traced {
            let spans = trace::drain();
            if sample.result.is_some() {
                per_layer.push(layer_metrics(spec, &sample, &spans));
            }
            let room = MAX_WRITTEN_SPANS.saturating_sub(written_spans.len());
            written_spans.extend(spans.into_iter().take(room));
        }
        samples.push(sample);
        let untraced = samples.iter().filter(|s| !s.traced).count();
        let traced_n = samples.len() - untraced;
        if started.elapsed() >= budget && untraced >= min_untraced && traced_n >= min_traced {
            break;
        }
    }

    let walls = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.traced == traced)
            .map(|s| s.wall_s)
            .collect()
    };
    let untraced_walls = walls(false);
    let mut metrics = vec![];
    if args.trace {
        let traced_walls = walls(true);
        if let Some(first) = per_layer.first() {
            for (i, m) in first.iter().enumerate() {
                let values: Vec<f64> = per_layer.iter().map(|row| row[i].value).collect();
                metrics.push(metric(&m.name, stats::median(&values), m.unit));
            }
        }
        metrics.push(metric(
            "trace.overhead",
            stats::median(&traced_walls) / stats::median(&untraced_walls) - 1.0,
            "ratio",
        ));
        notes.push((
            "samples".into(),
            format!(
                "{} traced, {} untraced solves; per-layer values are medians per traced solve",
                traced_walls.len(),
                untraced_walls.len()
            ),
        ));
    } else {
        let tail = stats::tail(&untraced_walls);
        let heaps: Vec<f64> = samples
            .iter()
            .map(|s| s.heap_peak_bytes as f64 * 1e-6)
            .collect();
        metrics.push(metric("solve_s.p50", stats::median(&untraced_walls), "s"));
        metrics.push(metric("solve_s.tail", tail.value, "s"));
        metrics.push(metric("setup_s", stats::min(&setup_samples), "s"));
        metrics.push(metric("heap_peak_mb", stats::median(&heaps), "MB"));
        notes.push((
            "solve_s.tail".into(),
            format!(
                "p{:.1} of n={} solves ({} beyond it)",
                tail.percentile,
                tail.samples,
                stats::TAIL_BEYOND
            ),
        ));
        notes.push(("solve_s.p50".into(), format!("n={}", untraced_walls.len())));
        notes.push((
            "setup_s".into(),
            format!(
                "fastest of n={} WorkloadKind::build calls, in bursts between solves",
                setup_samples.len()
            ),
        ));
        notes.push((
            "heap_peak_mb".into(),
            format!(
                "median over n={} solves of the peak heap a solve adds",
                samples.len()
            ),
        ));
        if let Some(m) = samples.iter().find_map(Sample::measurement) {
            if spec.runtime == RuntimeKind::Sim {
                notes.push(("sim_time_s".into(), m.elapsed.as_secs_f64().to_string()));
            }
        }
    }

    let all = std::iter::once(&warmup).chain(samples.iter());
    let attempted = samples.len() + 1;
    let failures: Vec<(Failure, usize)> = Failure::ALL
        .iter()
        .map(|&f| (f, all.clone().filter(|s| s.failure == Some(f)).count()))
        .filter(|&(_, n)| n > 0)
        .collect();
    let report = RunReport {
        spec,
        metrics,
        attempted,
        failures,
        notes,
    };
    if let Err(e) = write_artifacts(&report, args, out_dir, &samples, &written_spans) {
        eprintln!("perfbench: could not write artifacts: {e}");
    }
    report
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
            .collect(),
    )
}

fn failures_json(failures: &[(Failure, usize)]) -> Value {
    Value::Map(
        Failure::ALL
            .iter()
            .map(|f| {
                let n = failures.iter().find(|(g, _)| g == f).map_or(0, |(_, n)| *n);
                (f.label().to_string(), json!(n))
            })
            .collect(),
    )
}

fn to_json(value: &Value, pretty: bool) -> String {
    let text = if pretty {
        serde_json::to_string_pretty(value)
    } else {
        serde_json::to_string(value)
    };
    text.expect("a Value always renders as JSON")
}

fn write_artifacts(
    report: &RunReport,
    args: &Args,
    out_dir: &Path,
    samples: &[Sample],
    spans: &[Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let stamp = Value::Map(
        report
            .notes
            .iter()
            .map(|(k, v)| (k.clone(), json!(v)))
            .collect(),
    );
    let solves: Vec<Value> = samples
        .iter()
        .map(|s| {
            json!({
                "traced": s.traced,
                "wall_s": s.wall_s,
                "cpu_s": s.cpu_s,
                "relaxations": s.measurement().map_or(vec![], |m| m.relaxations_per_peer.clone()),
                "failure": s.failure.map(Failure::label),
            })
        })
        .collect();
    let body = json!({
        "stamp": stamp,
        "attempted": report.attempted,
        "failed": report.failed(),
        "fail_rate": report.failed() as f64 / report.attempted as f64,
        "failure_histogram": failures_json(&report.failures),
        "metrics": metrics_json(&report.metrics),
        "solves": solves,
    });
    let tag = if args.trace { 1 } else { 0 };
    std::fs::write(
        out_dir.join(format!("{}-trace{tag}.json", report.spec.name)),
        to_json(&body, true),
    )?;
    if args.trace {
        let mut lines = String::new();
        for s in spans {
            let span = json!({
                "id": s.id,
                "parent": s.parent,
                "solve": s.solve,
                "name": s.layer.name(),
                "start_ns": s.start_ns,
                "end_ns": s.end_ns,
                "allocs": s.allocs,
                "bytes": s.bytes,
                "points": s.points,
            });
            lines.push_str(&to_json(&span, false));
            lines.push('\n');
        }
        std::fs::write(
            out_dir.join(format!("{}.spans.jsonl", report.spec.name)),
            lines,
        )?;
    }
    Ok(())
}

fn print_report(report: &RunReport) {
    println!("== {}", report.spec.name);
    for (k, v) in &report.notes {
        println!("  {k}: {v}");
    }
    for m in &report.metrics {
        println!("  {:<28} {:>16} {}", m.name, m.value, m.unit);
    }
    println!(
        "  fail_rate: {}/{} solves failed {}",
        report.failed(),
        report.attempted,
        to_json(&failures_json(&report.failures), false)
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let specs: Vec<&'static Spec> = if args.workload == "all" {
        SPECS.iter().collect()
    } else {
        vec![Spec::named(&args.workload).expect("validated by parse_args")]
    };
    let reports: Vec<RunReport> = specs
        .into_iter()
        .map(|spec| {
            let report = run_workload(spec, &args, &out_dir);
            print_report(&report);
            report
        })
        .collect();
    let attempted: usize = reports.iter().map(|r| r.attempted).sum();
    let failed: usize = reports.iter().map(RunReport::failed).sum();
    let metrics: Vec<Metric> = if let [only] = reports.as_slice() {
        only.metrics.clone()
    } else {
        reports
            .iter()
            .flat_map(|r| {
                r.metrics.iter().map(|m| Metric {
                    name: format!("{}.{}", r.spec.name, m.name),
                    ..m.clone()
                })
            })
            .collect()
    };
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    let last = json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json(&metrics),
    });
    println!("{}", to_json(&last, false));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing must not change what the runtime computes: on every
    /// deterministic workload a traced solve reproduces the untraced solve's
    /// relaxation counts and solution bit for bit, and its spans cover the
    /// layers the workload exercises.
    #[test]
    fn traced_and_untraced_solves_agree() {
        for spec in SPECS.iter().filter(|s| s.deterministic()) {
            let workload = spec.kind.build(spec.size, spec.peers);
            let config = spec.config(RunConfig::DEFAULT_SEED);
            let plain = solve_once(spec, workload.as_ref(), &config, false, 0, None);
            assert_eq!(plain.failure, None, "{}: untraced solve failed", spec.name);
            let counts = plain
                .measurement()
                .expect("returned")
                .relaxations_per_peer
                .clone();
            let reference = Reference {
                counts: counts.clone(),
                hash: plain.hash,
            };
            let traced = solve_once(spec, workload.as_ref(), &config, true, 1, Some(&reference));
            let spans = trace::drain();
            assert_eq!(traced.failure, None, "{}: traced solve differs", spec.name);
            assert_eq!(traced.hash, plain.hash, "{}", spec.name);
            assert_eq!(
                traced.measurement().expect("returned").relaxations_per_peer,
                counts,
                "{}",
                spec.name
            );
            let seen = |layer: Layer| spans.iter().any(|s| s.layer == layer);
            let mut layers = vec![Layer::Solve, Layer::Task, Layer::Kernel, Layer::Encode];
            layers.extend([Layer::Decode, Layer::Assemble, Layer::Residual]);
            if spec.crash.is_some() {
                layers.extend([Layer::Checkpoint, Layer::Restore]);
            }
            for layer in layers {
                assert!(seen(layer), "{}: no {} span", spec.name, layer.name());
            }
        }
    }

    /// The reactor workload's expected count is the problem-determined
    /// synchronous count, which the deterministic loopback backend gives.
    #[test]
    fn reactor_expectation_is_the_loopback_sync_count() {
        let spec = Spec::named("obstacle-reactor").expect("workload exists");
        let workload = spec.kind.build(spec.size, spec.peers);
        let mut config = spec.config(RunConfig::DEFAULT_SEED);
        config.extras = p2pdc::BackendExtras::Default;
        let result = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
        assert_eq!(
            result.measurement.min_relaxations(),
            workloads::OBSTACLE_14_SYNC_COUNT
        );
    }
}
