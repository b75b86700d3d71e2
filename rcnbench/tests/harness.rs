//! What the benchmark promises: per-job median times, the percentile
//! rule, seeded job lists, clean smoke runs of every workload,
//! traced/untraced verdict identity, the `compare` calls, and
//! `BENCHMARK.json` staying in sync.

use rcnbench::compare::{judge, Call};
use rcnbench::harness::{requests, run, Options, RunResult};
use rcnbench::metrics::{manifest, parse_json, END_TO_END, PER_LAYER};
use rcnbench::plan::{listing, plan, Workload};
use rcnbench::stats::{median_by_key, percentile, quartiles};
use std::path::PathBuf;

#[test]
fn p99_needs_a_thousand_samples() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    assert_eq!(percentile(&samples(999), 0.99), None);
    assert_eq!(percentile(&samples(1000), 0.99), Some(990.0));
    assert_eq!(percentile(&samples(999), 0.50), Some(500.0));
    assert_eq!(percentile(&samples(19), 0.50), None);
}

#[test]
fn each_request_is_timed_by_its_median_execution() {
    // Requests 0 and 2 ran three times, request 1 twice (an even count
    // takes the mean of the middle two).
    let keys = [0, 1, 2, 0, 1, 2, 0, 2];
    let ms = [5.0, 9.0, 2.0, 6.0, 7.0, 3.0, 4.0, 2.5];
    let medians: Vec<(usize, f64)> = median_by_key(&keys, &ms).into_iter().collect();
    assert_eq!(medians, vec![(0, 5.0), (1, 8.0), (2, 2.5)]);
}

#[test]
fn identical_jobs_share_one_request() {
    for workload in Workload::ALL {
        let blocks = plan(workload, 5);
        let jobs: Vec<_> = blocks.iter().flatten().collect();
        let ids = requests(blocks.iter().flatten());
        assert_eq!(ids.len(), jobs.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(jobs[id].kind, jobs[i].kind, "{}", workload.name());
            assert!(id <= i && ids[id] == id, "{}", workload.name());
        }
    }
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
}

#[test]
fn job_lists_are_seeded_and_class_counts_are_fixed() {
    for workload in Workload::ALL {
        let listed = listing(&plan(workload, 7));
        assert_eq!(listed, listing(&plan(workload, 7)), "{}", workload.name());
        assert_ne!(listed, listing(&plan(workload, 8)), "{}", workload.name());
        let counts = workload.class_counts();
        assert_eq!(
            counts.iter().map(|(_, n)| n).sum::<usize>(),
            workload.block_len()
        );
        for seed in [1, 2, 99] {
            let blocks = plan(workload, seed);
            assert_eq!(blocks.len(), workload.blocks_per_pass());
            for block in blocks {
                for (class, n) in &counts {
                    let got = block.iter().filter(|j| j.class == *class).count();
                    assert_eq!(got, *n, "{class} under seed {seed}");
                }
            }
        }
        assert!(workload.jobs_per_pass() >= 1000, "{}", workload.name());
    }
}

fn smoke(workload: Workload, traced: bool) -> RunResult {
    let mut options = Options::new(workload, 3);
    options.scratch = PathBuf::from(".rcnbench-tmp").join(format!(
        "test-{}-{traced}-{}",
        workload.name(),
        std::process::id()
    ));
    options.traced = traced;
    options.job_limit = Some(24);
    run(&options).expect("the smoke run completes")
}

#[test]
fn every_workload_smoke_runs_without_a_wrong_verdict() {
    for workload in Workload::ALL {
        let result = smoke(workload, false);
        assert_eq!(result.samples.len(), 24, "{}", workload.name());
        assert!(result.correct(), "{}: {:?}", workload.name(), result.errors);
        let error_rate = result.metrics.iter().find(|m| m.0 == "verdict_error_rate");
        assert_eq!(error_rate.map(|m| m.1), Some(0.0));
    }
}

#[test]
fn traced_and_untraced_runs_reach_identical_verdicts() {
    for workload in [Workload::Classify, Workload::Crashtest, Workload::Warm] {
        let plain = smoke(workload, false);
        let traced = smoke(workload, true);
        assert!(traced.correct(), "{}: {:?}", workload.name(), traced.errors);
        assert_eq!(plain.verdicts, traced.verdicts, "{}", workload.name());
        assert!(traced.spans.keys().any(|name| name.starts_with("bench.")));
        assert_eq!(traced.metrics.len(), PER_LAYER.len(), "{}", workload.name());
    }
}

#[test]
fn compare_calls_follow_the_rule() {
    let throughput = END_TO_END[1];
    let a = [100.0, 101.0, 99.0, 100.5, 99.5];
    // B wins every pair by far more than A's spread: a gain.
    let b = [110.0, 111.0, 109.0, 110.5, 109.5];
    assert_eq!(judge(&throughput, &a, &b).0, Call::Gain);
    // B is 30% slower: a regression beyond the 10% bound.
    let b = [70.0, 71.0, 69.0, 70.5, 69.5];
    assert_eq!(judge(&throughput, &a, &b).0, Call::Regression);
    // Same numbers: within bound.
    assert_eq!(judge(&throughput, &a, &a).0, Call::WithinBound);
    // Wide spread on both sides, no side winning every pair: unresolved.
    let wide_a = [60.0, 140.0, 100.0, 70.0, 130.0];
    let wide_b = [130.0, 70.0, 100.0, 140.0, 60.0];
    assert_eq!(judge(&throughput, &wide_a, &wide_b).0, Call::Unresolved);
    // A 40 ms set-up may drift by its 0.02 s floor, beyond its 10% share.
    let setup = END_TO_END[0];
    let a = [0.040, 0.041, 0.039, 0.040, 0.040];
    let b = [0.055, 0.056, 0.054, 0.045, 0.050];
    assert_eq!(judge(&setup, &a, &b).0, Call::WithinBound);
    let b = [0.065, 0.066, 0.064, 0.060, 0.062];
    assert_eq!(judge(&setup, &a, &b).0, Call::Regression);
}

#[test]
fn benchmark_json_is_the_manifest() {
    let text = std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
    let on_disk = parse_json(&text).expect("BENCHMARK.json parses");
    assert_eq!(on_disk, manifest(), "regenerate with `rcnbench manifest`");
}
