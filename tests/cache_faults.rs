//! The disk-cache fail-point sweep: inject a filesystem fault at *every*
//! I/O operation the cache performs — each read, write, rename, and
//! directory creation, in hard-error, torn-write (truncation),
//! write-reordering, and write-duplication flavors — and demand the same
//! classification as a fault-free run at every single injection point,
//! with zero panics and no lasting damage (the next clean run
//! self-repairs back to a warm cache).
//!
//! This is the executable form of the cache's availability contract: the
//! persistent layer is an *accelerator*, so no single filesystem fault may
//! change an answer or crash a search.

mod common;

use common::scratch;
use rcn::decide::{CacheIo, DiskCache, FaultMode, FaultyIo, SearchEngine, TypeClassification};
use rcn::spec::zoo::TestAndSet;
use std::path::Path;
use std::sync::Arc;

const CAP: usize = 4;

fn classify_through(dir: &Path, io: Arc<FaultyIo>) -> TypeClassification {
    let engine =
        SearchEngine::sequential().with_disk_cache(DiskCache::with_io(dir, io as Arc<dyn CacheIo>));
    engine
        .classify(&TestAndSet::new(), CAP)
        .expect("cap in range")
}

fn assert_same(a: &TypeClassification, b: &TypeClassification, ctx: &str) {
    assert_eq!(a.discerning, b.discerning, "{ctx}: discerning");
    assert_eq!(a.recording, b.recording, "{ctx}: recording");
    assert_eq!(a.consensus_number, b.consensus_number, "{ctx}: CN");
    assert_eq!(
        a.recoverable_consensus_number, b.recoverable_consensus_number,
        "{ctx}: RCN"
    );
}

/// The fault-free baseline, plus the number of I/O operations a cold and a
/// warm run perform — the sweep's injection points.
fn baseline() -> (TypeClassification, u64, u64) {
    let dir = scratch("baseline");
    let cold_io = Arc::new(FaultyIo::counting());
    let reference = classify_through(&dir, cold_io.clone());
    let cold_ops = cold_io.ops_seen();
    let warm_io = Arc::new(FaultyIo::counting());
    let warm = classify_through(&dir, warm_io.clone());
    let warm_ops = warm_io.ops_seen();
    assert_same(&reference, &warm, "fault-free warm run");
    assert!(cold_ops > 0, "cold run must touch the disk");
    assert!(warm_ops > 0, "warm run must touch the disk");
    std::fs::remove_dir_all(&dir).ok();
    (reference, cold_ops, warm_ops)
}

#[test]
fn every_cold_run_injection_point_falls_back_to_recompute() {
    let (reference, cold_ops, _) = baseline();
    let mut injected_points = 0;
    for mode in [
        FaultMode::Error,
        FaultMode::Truncate,
        FaultMode::Reorder,
        FaultMode::Duplicate,
    ] {
        for k in 0..cold_ops {
            let dir = scratch(&format!("cold-{mode:?}-{k}"));
            let io = Arc::new(FaultyIo::new(k, mode));
            let hurt = classify_through(&dir, io.clone());
            assert_same(&reference, &hurt, &format!("cold sweep {mode:?} @ op {k}"));
            assert_eq!(io.injected(), 1, "cold {mode:?} @ {k}: fault must fire");
            injected_points += 1;

            // Self-repair: whatever the fault left behind (a missing entry,
            // a truncated file now quarantined to `.bad`), the next clean
            // run still answers correctly — and the run after that is warm.
            let clean = classify_through(&dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &clean, &format!("repair after {mode:?} @ {k}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    // 100% coverage in all four modes, by construction of the loop bounds.
    assert_eq!(injected_points, 4 * cold_ops);
}

#[test]
fn every_warm_run_injection_point_falls_back_to_recompute() {
    let (reference, _, warm_ops) = baseline();
    for mode in [
        FaultMode::Error,
        FaultMode::Truncate,
        FaultMode::Reorder,
        FaultMode::Duplicate,
    ] {
        for k in 0..warm_ops {
            let dir = scratch(&format!("warm-{mode:?}-{k}"));
            // Populate the cache cleanly first; the fault then hits one of
            // the warm run's reads (or its re-persist traffic).
            let reference_again = classify_through(&dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &reference_again, "clean populate");

            let io = Arc::new(FaultyIo::new(k, mode));
            let hurt = classify_through(&dir, io.clone());
            assert_same(&reference, &hurt, &format!("warm sweep {mode:?} @ op {k}"));
            assert_eq!(io.injected(), 1, "warm {mode:?} @ {k}: fault must fire");

            let clean = classify_through(&dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &clean, &format!("repair after {mode:?} @ {k}"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn torn_writes_are_caught_by_the_next_reader_and_quarantined() {
    // A truncating write *reports success* — the half-written file can only
    // be caught by the next run's validation. Sweep every cold-run
    // injection point and demand the quarantine actually happens somewhere:
    // at least one fault lands on an entry write, whose torn file the next
    // run must move to `.bad` (not silently delete) while still answering
    // correctly — and `.bad` litter never breaks the run after that.
    let (reference, cold_ops, _) = baseline();
    let mut saw_quarantine = false;
    for k in 0..cold_ops {
        let dir = scratch(&format!("quarantine-{k}"));
        let io = Arc::new(FaultyIo::new(k, FaultMode::Truncate));
        let hurt = classify_through(&dir, io.clone());
        assert_same(&reference, &hurt, &format!("torn op {k}"));
        assert_eq!(io.injected(), 1, "op {k}: fault must fire");

        let after = classify_through(&dir, Arc::new(FaultyIo::counting()));
        assert_same(&reference, &after, &format!("run discovering torn op {k}"));
        let quarantined = std::fs::read_dir(&dir)
            .expect("cache dir exists")
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "bad"))
            .count();
        if quarantined > 0 {
            saw_quarantine = true;
            // Quarantined litter never breaks later runs.
            let third = classify_through(&dir, Arc::new(FaultyIo::counting()));
            assert_same(&reference, &third, &format!("litter after op {k}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        saw_quarantine,
        "some torn write must end in a .bad quarantine across the sweep"
    );
}

#[test]
fn sweep_coverage_is_printable() {
    // Not an assertion-bearing test so much as the experiment's coverage
    // record: how many injection points each sweep covers (see
    // EXPERIMENTS.md E13). Kept as a test so the numbers cannot rot.
    let (_, cold_ops, warm_ops) = baseline();
    println!("cold-run injection points per mode: {cold_ops}");
    println!("warm-run injection points per mode: {warm_ops}");
    println!("total swept (4 modes): {}", 4 * (cold_ops + warm_ops));
    assert!(
        cold_ops >= 3,
        "cold run: create_dir + write + rename at least"
    );
    assert!(warm_ops >= 1, "warm run: at least one read");
}
