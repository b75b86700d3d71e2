//! Benchmarks for the independent BFS model checker (`rcn-mc`) against
//! the memoized DFS explorer (`rcn-faults`) on the same protocols and
//! budgets — the differential pair the `RCN200` cross-check compares.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcn_faults::{crashtest, CrashtestConfig};
use rcn_mc::{model_check, McConfig};
use rcn_model::System;
use rcn_protocols::{TasConsensus, TnnRecoverable, TournamentConsensus};
use rcn_spec::zoo::StickyBit;
use std::sync::Arc;

fn protocols() -> Vec<(&'static str, System)> {
    vec![
        ("tas", TasConsensus::system(vec![0, 1])),
        (
            "tnn-recoverable:5,2",
            TnnRecoverable::system(5, 2, vec![0, 1]),
        ),
        (
            "tournament:sticky",
            TournamentConsensus::try_new(Arc::new(StickyBit::new()), vec![1, 0]).unwrap(),
        ),
    ]
}

/// BFS checker vs DFS explorer at the default budget.
fn bfs_vs_dfs(c: &mut Criterion) {
    let mc_config = McConfig::default();
    let dfs_config = CrashtestConfig {
        max_crashes: mc_config.max_crashes,
        max_depth: mc_config.max_depth,
        max_states: mc_config.max_states,
        ..Default::default()
    };
    let mut group = c.benchmark_group("mc_check");
    group.sample_size(20);
    for (name, sys) in protocols() {
        group.bench_with_input(BenchmarkId::new("bfs", name), &sys, |b, sys| {
            b.iter(|| model_check(sys, mc_config));
        });
        group.bench_with_input(BenchmarkId::new("dfs", name), &sys, |b, sys| {
            b.iter(|| crashtest(sys, dfs_config));
        });
    }
    group.finish();
}

/// Raw BFS throughput at a deeper budget (more states, same protocols).
fn bfs_throughput(c: &mut Criterion) {
    let config = McConfig {
        max_crashes: 2,
        max_depth: 20,
        max_states: 500_000,
        ..Default::default()
    };
    let mut group = c.benchmark_group("mc_throughput_depth20");
    group.sample_size(10);
    for (name, sys) in protocols() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &sys, |b, sys| {
            b.iter(|| model_check(sys, config));
        });
    }
    group.finish();
}

criterion_group!(mc, bfs_vs_dfs, bfs_throughput);
criterion_main!(mc);
