//! Differential tests: the parallel search engine must agree with the
//! sequential deciders on every membership question and every computed
//! level, for the whole readable zoo — and parallel runs must be
//! level-deterministic (witnesses may differ; levels may not). A
//! one-worker engine visits instances in the sequential deciders' order,
//! so its witnesses must be theirs exactly.

use rcn::decide::{
    check_discerning, check_recording, discerning_number, find_discerning_witness,
    find_recording_witness, recording_number, Analysis, SearchEngine, Team, Witness,
};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn::spec::{ObjectType, OpId, Outcome, Response, TableType, ValueId};

const CAP: usize = 4;

fn zoo() -> Vec<Box<dyn ObjectType + Send + Sync>> {
    vec![
        Box::new(Register::new(2)),
        Box::new(TestAndSet::new()),
        Box::new(FetchAndAdd::new(4)),
        Box::new(Swap::new(2)),
        Box::new(CompareAndSwap::new(3)),
        Box::new(StickyBit::new()),
        Box::new(ConsensusObject::new()),
        Box::new(Tnn::new(4, 2)),
        Box::new(TeamCounter::new(4)),
    ]
}

#[test]
fn engine_membership_matches_sequential_for_whole_zoo() {
    for threads in [1usize, 4] {
        let engine = SearchEngine::new(threads);
        for ty in zoo() {
            for n in 2..=CAP {
                let seq = find_recording_witness(&*ty, n);
                let par = engine
                    .find_recording_witness(&*ty, n)
                    .expect("level in range");
                assert_eq!(
                    par.is_some(),
                    seq.is_some(),
                    "{} (threads={threads}): is_n_recording({n})",
                    ty.name()
                );
                if threads == 1 {
                    assert_eq!(par, seq, "{}: recording witness at n={n}", ty.name());
                }
                let seq = find_discerning_witness(&*ty, n);
                let par = engine
                    .find_discerning_witness(&*ty, n)
                    .expect("level in range");
                assert_eq!(
                    par.is_some(),
                    seq.is_some(),
                    "{} (threads={threads}): is_n_discerning({n})",
                    ty.name()
                );
                if threads == 1 {
                    assert_eq!(par, seq, "{}: discerning witness at n={n}", ty.name());
                }
            }
        }
    }
}

#[test]
fn engine_levels_match_sequential_for_whole_zoo() {
    for threads in [1usize, 4] {
        let engine = SearchEngine::new(threads);
        for ty in zoo() {
            let seq = recording_number(&*ty, CAP);
            let par = engine.recording_number(&*ty, CAP).expect("cap in range");
            assert_eq!(par.level, seq.level, "{}: recording level", ty.name());
            assert_eq!(par.capped, seq.capped, "{}: recording capped", ty.name());

            let seq = discerning_number(&*ty, CAP);
            let par = engine.discerning_number(&*ty, CAP).expect("cap in range");
            assert_eq!(par.level, seq.level, "{}: discerning level", ty.name());
            assert_eq!(par.capped, seq.capped, "{}: discerning capped", ty.name());
        }
    }
}

#[test]
fn engine_witnesses_are_valid_certificates() {
    // Witnesses from a parallel search may differ from the sequential ones
    // (and between runs); each must still replay through the independent
    // checkers.
    let engine = SearchEngine::new(4);
    for ty in zoo() {
        let rec = engine.recording_number(&*ty, CAP).expect("cap in range");
        if let Some(w) = &rec.witness {
            assert_eq!(
                check_recording(&*ty, w),
                Ok(true),
                "{}: recording witness replays",
                ty.name()
            );
        }
        let dis = engine.discerning_number(&*ty, CAP).expect("cap in range");
        if let Some(w) = &dis.witness {
            assert_eq!(
                check_discerning(&*ty, w),
                Ok(true),
                "{}: discerning witness replays",
                ty.name()
            );
        }
    }
}

#[test]
fn parallel_runs_are_level_deterministic() {
    let ty = Tnn::new(4, 1);
    let reference = SearchEngine::new(4)
        .classify(&ty, CAP)
        .expect("cap in range");
    for round in 0..5 {
        let again = SearchEngine::new(4)
            .classify(&ty, CAP)
            .expect("cap in range");
        assert_eq!(
            again.recording.level, reference.recording.level,
            "round {round}: recording level"
        );
        assert_eq!(
            again.discerning.level, reference.discerning.level,
            "round {round}: discerning level"
        );
        assert_eq!(again.consensus_number, reference.consensus_number);
        assert_eq!(
            again.recoverable_consensus_number,
            reference.recoverable_consensus_number
        );
    }
}

/// All non-decreasing `n`-element op sequences over `num_ops` operations —
/// exactly the sorted multisets the search space enumerates.
fn op_multisets(num_ops: usize, n: usize) -> Vec<Vec<OpId>> {
    fn go(num_ops: usize, n: usize, min: usize, prefix: &mut Vec<OpId>, out: &mut Vec<Vec<OpId>>) {
        if prefix.len() == n {
            out.push(prefix.clone());
            return;
        }
        for op in min..num_ops {
            prefix.push(OpId::new(op as u16));
            go(num_ops, n, op, prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    go(num_ops, n, 0, &mut Vec::new(), &mut out);
    out
}

#[test]
fn analysis_construction_paths_are_bit_identical_across_zoo() {
    // The kernelized path and the bit-at-a-time scalar reference are two
    // implementations of the same function. Sweep every instance of the
    // zoo up to the differential cap and require full structural equality
    // (value sets and pair sets compared by Eq) — not just equal verdicts
    // downstream.
    for ty in zoo() {
        for n in 2..=CAP {
            for ops in op_multisets(ty.num_ops(), n) {
                for u in 0..ty.num_values() {
                    let u = ValueId::new(u as u16);
                    assert_eq!(
                        Analysis::new(&*ty, u, &ops),
                        Analysis::new_scalar(&*ty, u, &ops),
                        "{} u={} ops={:?}",
                        ty.name(),
                        u.index(),
                        ops
                    );
                }
            }
        }
    }
}

#[test]
fn classify_reports_cache_hits() {
    // `classify` runs both deciders over the same instance space; the
    // second scan must be served (partly) from the shared analysis cache.
    for threads in [1usize, 4] {
        let engine = SearchEngine::new(threads);
        engine
            .classify(&TestAndSet::new(), CAP)
            .expect("cap in range");
        let stats = engine.stats();
        assert!(
            stats.cache_hits > 0,
            "threads={threads}: expected cache hits, got {stats}"
        );
        assert!(stats.analyses_computed > 0);
        assert!(stats.instances_visited >= stats.analyses_computed);
    }
}

/// A type on which the recording condition's hiding clause decides: with
/// ops `[a, a, b]` from value 0, the schedules starting with `b` reach
/// {1, 2, 0} (`b a a` returns to 0) and those starting with an `a` reach
/// {3, …, 7}. The value sets are disjoint, but `u ∈ U_1` while `|T_0| = 2`,
/// so the partition `{a, a} | {b}` is not a recording witness.
fn hiding_table() -> TableType {
    let (a, b) = (0, 1);
    let mut t = TableType::builder("hiding", 8, 2, 1);
    for v in 0..8u16 {
        for op in [a, b] {
            t.set(v, op, Outcome::new(Response::new(0), ValueId::new(v)));
        }
    }
    for (v, op, next) in [
        (0, b, 1),
        (1, a, 2),
        (2, a, 0),
        (0, a, 3),
        (3, a, 5),
        (3, b, 4),
        (5, b, 6),
        (4, a, 7),
    ] {
        t.set(v, op, Outcome::new(Response::new(0), ValueId::new(next)));
    }
    t.build().expect("valid table")
}

#[test]
fn mask_predicates_match_the_bitset_definitions_across_zoo() {
    // The checkers test a partition on team bitmasks, ORing the per-first
    // words on the stack. Compare them on every two-team partition of every
    // instance of the zoo (plus a type where the hiding clause decides)
    // with the conditions spelled out over the `BitSet`s the public
    // accessors return.
    let mut types = zoo();
    types.push(Box::new(hiding_table()));
    let mut hidden = 0;
    for ty in types {
        for n in 2..=CAP {
            for ops in op_multisets(ty.num_ops(), n) {
                for u in 0..ty.num_values() {
                    let u = ValueId::new(u as u16);
                    let analysis = Analysis::new(&*ty, u, &ops);
                    for t1 in 1u32..(1 << n) - 1 {
                        let team_of: Vec<Team> = (0..n)
                            .map(|i| Team::from_index((t1 as usize >> i) & 1))
                            .collect();
                        let witness = Witness::new(u, team_of, ops.clone());
                        let t0 = witness.team_members(Team::T0);
                        let t1 = witness.team_members(Team::T1);

                        let discerning = (0..n).all(|j| {
                            !analysis
                                .pair_set(&t0, j)
                                .intersects(&analysis.pair_set(&t1, j))
                        });
                        let (u0, u1) = (analysis.value_set(&t0), analysis.value_set(&t1));
                        // Disjoint, and if u ∈ U_x then |T_x̄| = 1.
                        let disjoint = !u0.intersects(&u1);
                        let recording = disjoint
                            && (!u0.contains(u.index()) || t1.len() == 1)
                            && (!u1.contains(u.index()) || t0.len() == 1);
                        hidden += usize::from(disjoint && !recording);

                        let at = format!("{} {witness}", ty.name());
                        assert_eq!(check_discerning(&*ty, &witness), Ok(discerning), "{at}");
                        assert_eq!(check_recording(&*ty, &witness), Ok(recording), "{at}");
                    }
                }
            }
        }
    }
    assert!(hidden > 0, "no partition exercised the hiding clause");
}
