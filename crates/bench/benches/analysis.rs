//! `Analysis` construction benchmarks: the word-level kernelized path
//! against the bit-at-a-time scalar reference, on the `team-counter:5`-class
//! instances the hierarchy-atlas campaign grinds through.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcn_decide::Analysis;
use rcn_spec::zoo::{CompareAndSwap, TeamCounter};
use rcn_spec::{ObjectType, OpId, ValueId};

/// The dominant instance shape of a `team-counter:5` level-`n` search:
/// every process increments for its team (the all-`mut_0` multiset has the
/// largest reachable lattice).
fn team_counter_instance(n: usize) -> (TeamCounter, ValueId, Vec<OpId>) {
    (TeamCounter::new(5), ValueId::new(0), vec![OpId::new(0); n])
}

/// Kernelized vs scalar construction across levels.
fn kernel_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_new_teamcounter5");
    group.sample_size(10);
    for n in [4usize, 6, 8] {
        let (ty, u, ops) = team_counter_instance(n);
        group.bench_with_input(BenchmarkId::new("kernel", n), &n, |b, _| {
            b.iter(|| Analysis::new(&ty, u, &ops));
        });
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| Analysis::new_scalar(&ty, u, &ops));
        });
    }
    group.finish();
}

/// Same comparison on a type with a larger value/response alphabet, where
/// each shifted-word OR replaces more single-bit inserts.
fn kernel_vs_scalar_cas(c: &mut Criterion) {
    let ty = CompareAndSwap::new(4);
    let u = ValueId::new(0);
    let read = OpId::new(ty.num_ops() as u16 - 1);
    let mut group = c.benchmark_group("analysis_new_cas4");
    group.sample_size(10);
    for n in [4usize, 6] {
        let mut ops = vec![OpId::new(1); n - 1];
        ops.push(read);
        ops.sort();
        group.bench_with_input(BenchmarkId::new("kernel", n), &n, |b, _| {
            b.iter(|| Analysis::new(&ty, u, &ops));
        });
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| Analysis::new_scalar(&ty, u, &ops));
        });
    }
    group.finish();
}

criterion_group!(analysis, kernel_vs_scalar, kernel_vs_scalar_cas);
criterion_main!(analysis);
