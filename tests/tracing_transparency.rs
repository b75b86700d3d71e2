//! Tracing transparency: observability must never perturb results.
//!
//! The tracer only *reads* the computations it watches, so every verdict —
//! classification levels, witnesses, crashtest counterexamples — must be
//! bit-identical with tracing on and off. These tests pin that across the
//! curated zoo, random readable tables (proptest), and every sink kind
//! (disabled, metrics-only, ring, JSONL), and check the JSONL schema
//! itself: every emitted line parses back via serde and span opens and
//! closes balance exactly.

mod common;

use proptest::prelude::*;
use rcn::decide::{synthesis, SearchEngine};
use rcn::faults::{crashtest, crashtest_traced, CrashtestConfig};
use rcn::obs::{parse_jsonl, TraceEvent, Tracer, KIND_CLOSE, KIND_OPEN};
use rcn::protocols::{TasConsensus, TnnRecoverable, TnnWaitFree};
use rcn::spec::zoo::{FetchAndAdd, StickyBit, TeamCounter, TestAndSet};
use rcn::spec::ObjectType;
use std::collections::HashMap;

fn trace_dir() -> std::path::PathBuf {
    let dir = common::scratch("transparency");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Every span open must have exactly one close with the same id and name,
/// and no close may appear before its open.
fn assert_spans_balance(events: &[TraceEvent]) {
    let mut open: HashMap<u64, &str> = HashMap::new();
    for e in events {
        match e.kind.as_str() {
            k if k == KIND_OPEN => {
                assert!(
                    open.insert(e.id, &e.name).is_none(),
                    "span id {} opened twice",
                    e.id
                );
            }
            k if k == KIND_CLOSE => {
                let name = open
                    .remove(&e.id)
                    .unwrap_or_else(|| panic!("close without open: {e:?}"));
                assert_eq!(name, e.name, "close renames span {}", e.id);
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed spans at end of trace: {open:?}");
}

#[test]
fn zoo_classifications_are_identical_under_every_sink() {
    let dir = trace_dir();
    let types: Vec<(&str, Box<dyn ObjectType + Sync>)> = vec![
        ("tas", Box::new(TestAndSet::new())),
        ("sticky", Box::new(StickyBit::new())),
        ("faa", Box::new(FetchAndAdd::new(6))),
        ("team-counter", Box::new(TeamCounter::new(4))),
    ];
    for (name, ty) in &types {
        let baseline = SearchEngine::sequential()
            .classify(ty.as_ref(), 4)
            .expect("cap in range");
        for sink in ["metrics", "ring", "jsonl"] {
            let tracer = match sink {
                "metrics" => Tracer::metrics_only(),
                "ring" => Tracer::ring(1 << 16),
                _ => Tracer::to_jsonl(dir.join(format!("{name}.jsonl"))).expect("open trace"),
            };
            let traced = SearchEngine::sequential()
                .with_tracer(tracer.clone())
                .classify(ty.as_ref(), 4)
                .expect("cap in range");
            assert_eq!(
                traced, baseline,
                "{name}: classification differs under the {sink} sink"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crashtest_verdicts_are_identical_with_tracing_on() {
    let systems = [
        TasConsensus::system(vec![0, 1]),
        TnnWaitFree::system(2, 1, vec![0, 1]),
        TnnRecoverable::system(5, 2, vec![0, 1]),
    ];
    let config = CrashtestConfig {
        max_crashes: 1,
        max_depth: 8,
        ..Default::default()
    };
    for sys in &systems {
        let plain = crashtest(sys, config);
        let tracer = Tracer::ring(1 << 14);
        let traced = crashtest_traced(sys, config, &tracer);
        assert_eq!(traced, plain, "tracing perturbed a crashtest verdict");
        assert_spans_balance(&tracer.ring_events());
    }
}

#[test]
fn jsonl_traces_parse_and_balance() {
    let dir = trace_dir();
    let path = dir.join("schema.jsonl");
    {
        let tracer = Tracer::to_jsonl(&path).expect("open trace");
        let engine = SearchEngine::sequential().with_tracer(tracer.clone());
        engine
            .classify(&TeamCounter::new(5), 4)
            .expect("cap in range");
        crashtest_traced(
            &TasConsensus::system(vec![0, 1]),
            CrashtestConfig::default(),
            &tracer,
        );
        tracer.flush().expect("flush");
    }
    let text = std::fs::read_to_string(&path).expect("read trace");
    let events = parse_jsonl(&text).expect("every line is a valid TraceEvent");
    assert!(!events.is_empty());
    assert_spans_balance(&events);
    // The flat schema: ids are unique and positive, timestamps monotone
    // per thread.
    let mut seen = std::collections::HashSet::new();
    let mut last_t: HashMap<u64, u64> = HashMap::new();
    for e in &events {
        assert!(e.id > 0, "row ids start at 1: {e:?}");
        if e.kind != KIND_CLOSE {
            assert!(seen.insert(e.id), "duplicate row id {}", e.id);
        }
        let last = last_t.entry(e.thread).or_insert(0);
        assert!(
            e.t_ns >= *last,
            "timestamps must be monotone per thread: {e:?}"
        );
        *last = e.t_ns;
    }
    // Both subsystems landed in one trace.
    assert!(events.iter().any(|e| e.name == "engine.level"));
    assert!(events.iter().any(|e| e.name == "crashtest.explore"));
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Classification of random readable tables is bit-identical with the
    /// tracer attached — across the full verdict, including witnesses.
    #[test]
    fn random_table_classification_is_tracing_invariant(seed in 0u64..400) {
        let mut rng = synthesis::rng(seed);
        let t = synthesis::random_readable_table(&mut rng, 4, 2);
        let plain = SearchEngine::sequential().classify(&t, 3).expect("cap in range");
        let traced = SearchEngine::sequential()
            .with_tracer(Tracer::ring(1 << 14))
            .classify(&t, 3)
            .expect("cap in range");
        prop_assert_eq!(traced, plain);
    }

    /// Crashtest verdicts on T&S stay identical under tracing for every
    /// small budget (the DFS path, memoization, and verdict must not
    /// depend on the instruments).
    #[test]
    fn crashtest_budget_sweep_is_tracing_invariant(
        max_crashes in 0usize..3,
        max_depth in 2usize..9,
    ) {
        let sys = TasConsensus::system(vec![0, 1]);
        let config = CrashtestConfig { max_crashes, max_depth, ..Default::default() };
        let plain = crashtest(&sys, config);
        let traced = crashtest_traced(&sys, config, &Tracer::metrics_only());
        prop_assert_eq!(traced, plain);
    }
}
