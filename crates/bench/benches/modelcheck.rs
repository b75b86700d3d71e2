//! Model-checker benchmarks: the cost of exhaustively verifying the §4
//! protocols (experiment E3's measurement component) and of the budgeted
//! valency exploration (E4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcn_protocols::{TnnRecoverable, TournamentConsensus};
use rcn_spec::zoo::StickyBit;
use rcn_valency::{check_consensus, BudgetedGraph};
use std::sync::Arc;

/// E3: verifying `TnnRecoverable` at its legal process count.
fn modelcheck_tnn(c: &mut Criterion) {
    let mut group = c.benchmark_group("modelcheck_tnn_recoverable");
    for n_prime in [1usize, 2, 3] {
        let inputs: Vec<u32> = (0..n_prime.max(1) as u32).map(|i| i % 2).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(n_prime),
            &n_prime,
            |b, &n_prime| {
                b.iter(|| {
                    let sys = TnnRecoverable::system(n_prime + 2, n_prime, inputs.clone());
                    let report = check_consensus(&sys, 10_000_000).unwrap();
                    assert!(report.verdict.is_correct());
                    report.configs
                });
            },
        );
    }
    group.finish();
}

/// E3 (impossibility half): finding the violation at n' + 1 processes.
fn modelcheck_tnn_violation(c: &mut Criterion) {
    c.bench_function("modelcheck_tnn_5_2_at_3procs", |b| {
        b.iter(|| {
            let sys = TnnRecoverable::system(5, 2, vec![0, 1, 1]);
            let report = check_consensus(&sys, 10_000_000).unwrap();
            assert!(!report.verdict.is_correct());
            report.configs
        });
    });
}

/// Tournament verification cost by process count.
fn modelcheck_tournament(c: &mut Criterion) {
    let mut group = c.benchmark_group("modelcheck_tournament_sticky");
    group.sample_size(10);
    for n in [2usize, 3] {
        let inputs: Vec<u32> = (0..n as u32).map(|i| i % 2).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), inputs.clone())
                    .unwrap();
                let report = check_consensus(&sys, 10_000_000).unwrap();
                assert!(report.verdict.is_correct());
                report.configs
            });
        });
    }
    group.finish();
}

/// E4: budgeted (`E_z*`) exploration + critical-execution search.
fn critical_search(c: &mut Criterion) {
    c.bench_function("critical_search_sticky_2proc", |b| {
        b.iter(|| {
            let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![0, 1]).unwrap();
            let graph = BudgetedGraph::explore(&sys, 1, 6, 1_000_000).unwrap();
            let critical = graph.find_critical().expect("critical exists");
            graph.analyze_critical(critical).schedule.len()
        });
    });
}

/// E4 at three processes: the 3-process sticky tournament's `E_1*` graph
/// at clamp 1 (16,907 budgeted states), the largest graph the valency
/// machinery builds routinely.
fn budgeted_sticky_3proc(c: &mut Criterion) {
    let mut group = c.benchmark_group("budgeted_sticky_3proc");
    group.sample_size(10);
    group.bench_function("z1_clamp1", |b| {
        let sys = TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0, 1]).unwrap();
        b.iter(|| {
            let graph = BudgetedGraph::explore(&sys, 1, 1, 1_000_000).unwrap();
            graph.find_critical().expect("critical exists")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    modelcheck_tnn,
    modelcheck_tnn_violation,
    modelcheck_tournament,
    critical_search,
    budgeted_sticky_3proc
);
criterion_main!(benches);
