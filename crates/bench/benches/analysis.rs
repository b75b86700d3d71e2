//! `Analysis` construction benchmarks: the word-level kernelized path
//! against the bit-at-a-time scalar reference, on the `team-counter:5`-class
//! instances the hierarchy-atlas campaign grinds through.
//!
//! Besides the usual stdout report, this bench emits a machine-readable
//! `BENCH_analysis_kernels.json` trajectory file (under `$RCN_BENCH_DIR`,
//! default `bench-out/`) so the speedup is tracked across PRs instead of
//! living in prose. EXPERIMENTS.md E14 reads its curves from here.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcn_decide::{Analysis, BenchRecord, BenchRecorder};
use rcn_spec::zoo::{CompareAndSwap, TeamCounter};
use rcn_spec::{ObjectType, OpId, ValueId};
use std::time::Instant;

/// The dominant instance shape of a `team-counter:5` level-`n` search:
/// every process increments for its team (the all-`mut_0` multiset has the
/// largest reachable lattice).
fn team_counter_instance(n: usize) -> (TeamCounter, ValueId, Vec<OpId>) {
    (TeamCounter::new(5), ValueId::new(0), vec![OpId::new(0); n])
}

/// Times `runs` calls of `f` and returns seconds per call.
fn time_per_call<T>(runs: u64, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..runs {
        criterion::black_box(f());
    }
    start.elapsed().as_secs_f64() / runs as f64
}

/// Kernelized vs scalar construction across levels; records both curves.
fn kernel_vs_scalar(c: &mut Criterion, recorder: &mut BenchRecorder) {
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
        let runs = 20;
        let kernel = time_per_call(runs, || Analysis::new(&ty, u, &ops));
        let scalar = time_per_call(runs, || Analysis::new_scalar(&ty, u, &ops));
        recorder.record(BenchRecord::from_timing(
            format!("analysis_new/team-counter:5/n={n}/kernel"),
            1,
            kernel,
            1,
        ));
        recorder.record(BenchRecord::from_timing(
            format!("analysis_new/team-counter:5/n={n}/scalar"),
            1,
            scalar,
            1,
        ));
    }
    group.finish();
}

/// Same comparison on a type with a larger value/response alphabet, where
/// each shifted-word OR replaces more single-bit inserts.
fn kernel_vs_scalar_cas(c: &mut Criterion, recorder: &mut BenchRecorder) {
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
        let runs = 10;
        let kernel = time_per_call(runs, || Analysis::new(&ty, u, &ops));
        let scalar = time_per_call(runs, || Analysis::new_scalar(&ty, u, &ops));
        recorder.record(BenchRecord::from_timing(
            format!("analysis_new/cas:4/n={n}/kernel"),
            1,
            kernel,
            1,
        ));
        recorder.record(BenchRecord::from_timing(
            format!("analysis_new/cas:4/n={n}/scalar"),
            1,
            scalar,
            1,
        ));
    }
    group.finish();
}

fn all(c: &mut Criterion) {
    let mut recorder = BenchRecorder::new("analysis_kernels");
    kernel_vs_scalar(c, &mut recorder);
    kernel_vs_scalar_cas(c, &mut recorder);
    let dir = std::env::var("RCN_BENCH_DIR").unwrap_or_else(|_| "bench-out".into());
    let path = std::path::Path::new(&dir).join(recorder.file_name());
    match recorder.write_to(&path) {
        Ok(()) => println!("bench records written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

criterion_group!(analysis, all);
criterion_main!(analysis);
