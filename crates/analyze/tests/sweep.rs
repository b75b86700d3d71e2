//! Empirical sweep: the shipped zoo and the recoverable protocols must
//! lint clean (no errors; warnings only where pinned below).

use rcn_analyze::{ExploreConfig, Registry, Severity};
use rcn_spec::zoo;

fn report_for(ty: &dyn rcn_spec::ObjectType) -> rcn_analyze::Report {
    Registry::with_defaults().lint_type(ty)
}

#[test]
fn zoo_types_lint_clean() {
    let types: Vec<(&str, Box<dyn rcn_spec::ObjectType>)> = vec![
        ("sticky", Box::new(zoo::StickyBit::new())),
        ("consensus", Box::new(zoo::ConsensusObject::new())),
        ("tas", Box::new(zoo::TestAndSet::new())),
        ("register:3", Box::new(zoo::Register::new(3))),
        ("faa:4", Box::new(zoo::FetchAndAdd::new(4))),
        ("swap:3", Box::new(zoo::Swap::new(3))),
        ("cas:3", Box::new(zoo::CompareAndSwap::new(3))),
        ("queue:2,2", Box::new(zoo::BoundedQueue::new(2, 2))),
        ("stack:2,2", Box::new(zoo::BoundedStack::new(2, 2))),
        ("multi:3", Box::new(zoo::MultiConsensus::new(3))),
        ("team:3", Box::new(zoo::TeamCounter::new(3))),
        (
            "xn:4",
            Box::new(rcn_core::shipped_xn(4).expect("shipped X_4")),
        ),
        ("tnn:5,2", Box::new(zoo::Tnn::new(5, 2))),
        (
            "tas+read",
            Box::new(zoo::WithRead::new(zoo::TestAndSet::new())),
        ),
    ];
    for (name, ty) in &types {
        let report = report_for(ty.as_ref());
        println!("=== {name} ===");
        print!("{}", report.render_text());
        assert_eq!(report.errors(), 0, "{name} has lint errors");
        assert_eq!(report.warnings(), 0, "{name} has lint warnings");
    }
}

#[test]
fn recoverable_protocols_lint_clean() {
    use rcn_protocols::{TnnRecoverable, TournamentConsensus};
    use std::sync::Arc;

    let reg = Registry::with_defaults();
    let cfg = ExploreConfig::default();

    let sys = TnnRecoverable::system(5, 2, vec![0, 1]);
    let report = reg.lint_system(&sys, &cfg);
    println!("=== tnn-recoverable ===");
    print!("{}", report.render_text());
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 0);

    let sys = TournamentConsensus::try_new(Arc::new(zoo::StickyBit::new()), vec![1, 0, 1]).unwrap();
    let report = reg.lint_system(&sys, &cfg);
    println!("=== tournament/sticky ===");
    print!("{}", report.render_text());
    assert_eq!(report.errors(), 0);
    assert_eq!(report.warnings(), 0);
    assert!(
        report.diagnostics.iter().all(|d| d.code != "RCN104"),
        "the 3-process sticky tournament must not diverge under crashes"
    );
}

#[test]
fn broken_baselines_diverge_under_crashes() {
    use rcn_protocols::{TasConsensus, TnnWaitFree};

    let reg = Registry::with_defaults();
    let cfg = ExploreConfig::default();

    // T_{2,1}: the smallest family member, where two crashes already burn
    // the counter to s_⊥ (larger n needs a crash budget of about n). With
    // three processes, T_{5,2} burns it with one crash of each process:
    // `p1 p0 p2 c0 p0 c1 p1 c2 p2`.
    for (name, sys) in [
        ("tas-consensus", TasConsensus::system(vec![0, 1])),
        ("tnn-wait-free", TnnWaitFree::system(2, 1, vec![0, 1])),
        (
            "tnn-wait-free:5,2",
            TnnWaitFree::system(5, 2, vec![0, 1, 1]),
        ),
    ] {
        let report = reg.lint_system(&sys, &cfg);
        println!("=== {name} ===");
        print!("{}", report.render_text());
        assert_eq!(report.errors(), 0, "{name}");
        assert!(
            report.diagnostics.iter().any(|d| d.code == "RCN104"
                && d.severity == Severity::Warn
                && d.message.contains("outputs")),
            "{name} should exhibit solo crash divergence"
        );
    }
}
