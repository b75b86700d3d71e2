//! Integration tests: the hierarchy separations the paper is about, checked
//! end-to-end across the decider, model-checker and protocol layers.

use rcn::decide::{classify, is_n_discerning, is_n_recording, Bound};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn::spec::ObjectType;

/// Golab's separation (§1 of the paper): CN(test-and-set) = 2 but
/// RCN(test-and-set) = 1, derived entirely by the deciders.
#[test]
fn golab_test_and_set_separation() {
    let c = classify(&TestAndSet::new(), 4);
    assert_eq!(c.consensus_number, Bound::Exact(2));
    assert_eq!(c.recoverable_consensus_number, Bound::Exact(1));
}

/// The decider discovers that fetch-and-add and swap also lose all power
/// in the recoverable hierarchy (the value after the race is independent
/// of the order, just like test-and-set's).
#[test]
fn faa_and_swap_drop_to_level_1() {
    for ty in [
        &FetchAndAdd::new(4) as &(dyn ObjectType + Sync),
        &FetchAndAdd::new(6),
        &Swap::new(2),
        &Swap::new(3),
    ] {
        let c = classify(ty, 3);
        assert_eq!(c.consensus_number, Bound::Exact(2), "{}", ty.name());
        assert_eq!(
            c.recoverable_consensus_number,
            Bound::Exact(1),
            "{}",
            ty.name()
        );
    }
}

/// Types whose single mutation permanently records the winner keep their
/// full power: sticky bit, consensus object, CAS over ≥ 3 values.
#[test]
fn recording_types_keep_full_power() {
    for ty in [
        &StickyBit::new() as &(dyn ObjectType + Sync),
        &ConsensusObject::new(),
        &CompareAndSwap::new(3),
    ] {
        for n in 2..5 {
            assert!(is_n_discerning(ty, n), "{} discerning at {n}", ty.name());
            assert!(is_n_recording(ty, n), "{} recording at {n}", ty.name());
        }
    }
}

/// Registers sit at level 1 of both hierarchies.
#[test]
fn registers_are_level_1() {
    for domain in [2, 3, 4] {
        let c = classify(&Register::new(domain), 3);
        assert_eq!(c.consensus_number, Bound::Exact(1), "domain {domain}");
        assert_eq!(c.recoverable_consensus_number, Bound::Exact(1));
    }
}

/// Lemma 15's sweep: `T_{n,n'}` is n-discerning and not (n+1)-discerning
/// for every legal parameter pair we can afford to check.
#[test]
fn lemma15_discerning_sweep() {
    for n in 2..=5usize {
        for n_prime in 1..n {
            let t = Tnn::new(n, n_prime);
            assert!(is_n_discerning(&t, n), "{} at {n}", t.name());
            assert!(!is_n_discerning(&t, n + 1), "{} at {}", t.name(), n + 1);
        }
    }
}

/// The recording number of `T_{n,n'}` is n−1 for every n' — recording
/// tracks the value counter, not the op_R breakage, and since `T_{n,n'}` is
/// non-readable (for n' < n−1) this is only the Theorem 13 upper bound, not
/// the RCN itself (which Lemma 16 pins at n').
#[test]
fn tnn_recording_number_is_n_minus_1() {
    for n in 3..=5usize {
        for n_prime in 1..n {
            let t = Tnn::new(n, n_prime);
            assert!(is_n_recording(&t, n - 1), "{} at {}", t.name(), n - 1);
            assert!(!is_n_recording(&t, n), "{} at {n}", t.name());
        }
    }
}

/// The readable boundary case `n' = n−1`: `T_{n,n-1}` is readable (op_R is
/// a true read), so Theorem 13 + DFFR Thm 8 pin its RCN to exactly n−1 —
/// consistent with Lemma 16's RCN = n'.
#[test]
fn readable_tnn_boundary_case() {
    for n in 2..=5usize {
        let t = Tnn::new(n, n - 1);
        assert!(t.is_readable(), "T_({n},{}) must be readable", n - 1);
        let c = classify(&t, n + 1);
        assert_eq!(
            c.recoverable_consensus_number,
            Bound::Exact(n - 1),
            "T_({n},{})",
            n - 1
        );
        assert_eq!(c.consensus_number, Bound::Exact(n));
    }
}

/// The gap-1 readable family: CN n, RCN n−1.
#[test]
fn team_counter_gap_1_family() {
    for n in 2..=5usize {
        let c = classify(&TeamCounter::new(n), n + 1);
        assert_eq!(c.consensus_number, Bound::Exact(n), "n={n}");
        assert_eq!(
            c.recoverable_consensus_number,
            Bound::Exact((n - 1).max(1)),
            "n={n}"
        );
    }
}

/// E6: the shipped synthesized X_4 has the full DFFR profile: readable,
/// CN 4, RCN 2 — the paper's gap-2 corollary instantiated.
#[test]
fn shipped_x4_has_gap_2() {
    let x4 = rcn::shipped_xn(4).expect("X_4 ships with rcn-core");
    let c = classify(&x4, 5);
    assert!(c.readable);
    assert_eq!(c.consensus_number, Bound::Exact(4));
    assert_eq!(c.recoverable_consensus_number, Bound::Exact(2));
}

/// Robustness (Theorem 14): the power of a set is the max of its members —
/// the report's robust level never exceeds any individual exact RCN + the
/// set maximum.
#[test]
fn robustness_is_max_of_members() {
    let mut report = rcn::HierarchyReport::new(3);
    report.add(&Register::new(2));
    report.add(&TestAndSet::new());
    report.add(&FetchAndAdd::new(4));
    // All members have RCN 1: combining them cannot exceed level 1.
    assert_eq!(report.robust_level().0, 1);
    report.add(&StickyBit::new());
    assert_eq!(report.robust_level().0, 3); // capped at the search cap
}
