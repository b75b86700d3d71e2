//! Pins what the deciders report for 19 types at cap 5: both levels, the
//! cap flags, the witnesses, and the search counters of a sequential
//! engine (analyses computed, cache hits, partitions tested, instances
//! visited). A one-worker engine visits instances and partitions in a
//! fixed order, so any change to how `Analysis` is stored or how a
//! partition is tested must leave every line below bit-identical.
//!
//! The types are the catalogue entries at their default parameters plus
//! `queue+read`, `stack+read`, `tnn:4,2`, `team-counter:5`, `register:3`
//! and `cas:4` (the `+read` forms are built as the CLI builds them, through
//! the table normal form).

use rcn::decide::{LevelResult, SearchEngine};
use rcn::shipped_xn;
use rcn::spec::zoo::{
    BoundedQueue, BoundedStack, CompareAndSwap, ConsensusObject, FetchAndAdd, MultiConsensus,
    Register, StickyBit, Swap, TeamCounter, TestAndSet, Tnn, WithRead,
};
use rcn::spec::{ObjectType, TableType};

const CAP: usize = 5;

type Dyn = Box<dyn ObjectType + Send + Sync>;

fn plus_read(base: &dyn ObjectType) -> Dyn {
    Box::new(WithRead::new(TableType::from_type(base)))
}

fn types() -> Vec<(&'static str, Dyn)> {
    vec![
        ("register", Box::new(Register::new(2))),
        ("tas", Box::new(TestAndSet::new())),
        ("faa", Box::new(FetchAndAdd::new(4))),
        ("swap", Box::new(Swap::new(2))),
        ("cas", Box::new(CompareAndSwap::new(3))),
        ("sticky", Box::new(StickyBit::new())),
        ("consensus", Box::new(ConsensusObject::new())),
        ("mconsensus", Box::new(MultiConsensus::new(2))),
        ("queue", Box::new(BoundedQueue::new(2, 2))),
        ("stack", Box::new(BoundedStack::new(2, 2))),
        ("tnn", Box::new(Tnn::new(5, 2))),
        ("team-counter", Box::new(TeamCounter::new(4))),
        ("xn", Box::new(shipped_xn(4).expect("X_4 ships"))),
        ("queue+read", plus_read(&BoundedQueue::new(2, 2))),
        ("stack+read", plus_read(&BoundedStack::new(2, 2))),
        ("tnn:4,2", Box::new(Tnn::new(4, 2))),
        ("team-counter:5", Box::new(TeamCounter::new(5))),
        ("register:3", Box::new(Register::new(3))),
        ("cas:4", Box::new(CompareAndSwap::new(4))),
    ]
}

fn level(r: &LevelResult) -> String {
    let witness = r
        .witness
        .as_ref()
        .map_or_else(|| "-".to_string(), ToString::to_string);
    format!("{} {}", r.display_level(), witness)
}

/// One line per type: `spec | discerning | recording | analyses computed,
/// cache hits, partitions tested, instances visited`.
fn fingerprint(spec: &str, ty: &Dyn) -> String {
    let engine = SearchEngine::sequential();
    let c = engine.classify(&**ty, CAP).expect("cap in range");
    let s = engine.stats();
    format!(
        "{spec} | D {} | R {} | {} {} {} {}",
        level(&c.discerning),
        level(&c.recording),
        s.analyses_computed,
        s.cache_hits,
        s.partitions_tested,
        s.instances_visited,
    )
}

const EXPECTED: &[&str] = &[
    "register | D 1 - | R 1 - | 12 12 24 24",
    "tas | D 2 u=v0 teams=[T0,T1] ops=[op0,op0] | R 1 - | 14 1 31 15",
    "faa | D 2 u=v0 teams=[T0,T1] ops=[op0,op0] | R 1 - | 28 1 61 29",
    "swap | D 2 u=v0 teams=[T0,T1] ops=[op1,op1] | R 1 - | 32 4 76 36",
    "cas | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op1,op1,op1,op1,op2] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op1,op1,op1,op1,op2] | 722 721 17529 1443",
    "sticky | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "consensus | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "mconsensus | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "queue | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "stack | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "tnn | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R 4 u=v0 teams=[T0,T0,T0,T1] ops=[op0,op0,op0,op1] | 216 8 3209 224",
    "team-counter | D 4 u=v0 teams=[T0,T0,T0,T1] ops=[op0,op0,op0,op1] | R 3 u=v0 teams=[T0,T0,T1] ops=[op0,op0,op1] | 292 6 3385 298",
    "xn | D 4 u=v7 teams=[T0,T0,T1,T1] ops=[op0,op0,op1,op1] | R 2 u=v1 teams=[T0,T1] ops=[op0,op1] | 365 15 3573 380",
    "queue+read | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "stack+read | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | 8 8 82 16",
    "tnn:4,2 | D 4 u=v0 teams=[T0,T0,T0,T1] ops=[op0,op0,op0,op1] | R 3 u=v0 teams=[T0,T0,T1] ops=[op0,op0,op1] | 292 6 3385 298",
    "team-counter:5 | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op0,op0,op0,op0,op1] | R 4 u=v0 teams=[T0,T0,T0,T1] ops=[op0,op0,op0,op1] | 216 8 3209 224",
    "register:3 | D 1 - | R 1 - | 30 30 60 60",
    "cas:4 | D ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op1,op1,op1,op1,op2] | R ≥5 u=v0 teams=[T0,T0,T0,T0,T1] ops=[op1,op1,op1,op1,op2] | 4852 4851 128633 9703",
];

#[test]
fn decider_verdicts_witnesses_and_counters_are_pinned() {
    let actual: Vec<String> = types()
        .iter()
        .map(|(spec, ty)| fingerprint(spec, ty))
        .collect();
    assert_eq!(actual.len(), EXPECTED.len(), "one line per type");
    for (got, want) in actual.iter().zip(EXPECTED) {
        assert_eq!(got, want);
    }
}
