//! Bench: every workload timed on each runtime backend (sim, loopback,
//! reactor) under the synchronous scheme. The interesting quantity is the
//! harness overhead each substrate adds around the identical `PeerEngine`
//! work — loopback is the floor, the reactor shows the real kernel socket
//! cost — and how it scales across communication patterns (ghost
//! planes, ghost rows, rank-mass vectors).

use bench_suite::{run_runtime_once, RuntimeMatrixScenario};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2pdc::{RuntimeKind, Scheme, WorkloadKind};

fn bench_runtime_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_matrix");
    group.sample_size(10);
    for workload in WorkloadKind::ALL {
        // Bench-sized scenario, smaller than the CI artifact run.
        let scenario = RuntimeMatrixScenario::quick(workload);
        for runtime in RuntimeKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("sync_{}", workload.label()), runtime.label()),
                &runtime,
                |b, &runtime| {
                    b.iter(|| run_runtime_once(&scenario, runtime, Scheme::Synchronous));
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_matrix);
criterion_main!(benches);
