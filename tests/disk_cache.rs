//! Round-trip and corruption tests for the persistent analysis cache:
//! a warm run must reproduce the cold run's classification exactly while
//! computing nothing, and damaged cache files must degrade to a silent
//! full recompute — never a wrong answer, never an error.

mod common;

use common::scratch;
use rcn::decide::{DiskCache, SearchEngine, TypeClassification, CACHE_FORMAT_VERSION};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn::spec::ObjectType;
use std::path::PathBuf;

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

/// Field-by-field classification equality (including witnesses), used to
/// pin the warm run to the cold run bit-for-bit.
fn assert_same_classification(a: &TypeClassification, b: &TypeClassification, ctx: &str) {
    assert_eq!(a.type_name, b.type_name, "{ctx}: type name");
    assert_eq!(a.readable, b.readable, "{ctx}: readable");
    assert_eq!(a.discerning, b.discerning, "{ctx}: discerning result");
    assert_eq!(a.recording, b.recording, "{ctx}: recording result");
    assert_eq!(a.consensus_number, b.consensus_number, "{ctx}: CN");
    assert_eq!(
        a.recoverable_consensus_number, b.recoverable_consensus_number,
        "{ctx}: RCN"
    );
}

#[test]
fn warm_run_reproduces_cold_run_across_the_zoo() {
    let root = scratch("zoo");
    for ty in zoo() {
        // One subdirectory per type: fingerprints are content hashes, so
        // zoo types with identical tables (e.g. the consensus object vs. a
        // sticky bit) would legitimately share entries in a common dir —
        // here we want every type's cold run to be genuinely cold.
        let dir = root.join(ty.name());
        let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let reference = cold.classify(&*ty, CAP).expect("cap in range");
        let cold_stats = cold.stats();
        assert!(
            cold_stats.disk_entries_written > 0,
            "{}: cold run should persist analyses, got {cold_stats}",
            ty.name()
        );
        assert_eq!(cold_stats.disk_hits, 0, "{}: cold run", ty.name());

        let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let again = warm.classify(&*ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &again, &ty.name());
        let warm_stats = warm.stats();
        assert!(
            warm_stats.disk_hits > 0,
            "{}: warm run should hit the disk cache, got {warm_stats}",
            ty.name()
        );
        assert_eq!(
            warm_stats.analyses_computed,
            0,
            "{}: warm run should recompute nothing, got {warm_stats}",
            ty.name()
        );
        assert_eq!(
            warm_stats.disk_entries_written,
            0,
            "{}: warm run should rewrite nothing, got {warm_stats}",
            ty.name()
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn warm_cache_agrees_under_threads() {
    // The cache stores analyses, not search results: a warm parallel engine
    // must land on the cold sequential answers. It may still compute a few
    // analyses: before a worker sees the stop flag of a found witness, the
    // other workers can claim instances past that witness, which the
    // sequential cold run never visited. So instead of "computes nothing"
    // (pinned on a sequential warm engine by
    // `warm_run_reproduces_cold_run_across_the_zoo`), the claim is that
    // every analysis the warm run computed was new to the cache.
    let dir = scratch("threads");
    let ty = Tnn::new(4, 2);
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, 5).expect("cap in range");

    let warm = SearchEngine::new(4).with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, 5).expect("cap in range");
    assert_eq!(again.discerning.level, reference.discerning.level);
    assert_eq!(again.recording.level, reference.recording.level);
    assert_eq!(again.consensus_number, reference.consensus_number);
    assert_eq!(
        again.recoverable_consensus_number,
        reference.recoverable_consensus_number
    );
    let stats = warm.stats();
    assert!(stats.disk_hits > 0, "stats: {stats}");
    assert_eq!(
        stats.disk_entries_written, stats.analyses_computed,
        "every analysis the warm run computed must be new to the cache: {stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Damages every cache file in `dir` with `f`, returning how many files
/// were touched.
fn damage_all(dir: &std::path::Path, f: impl Fn(&str) -> String) -> usize {
    let mut touched = 0;
    for entry in std::fs::read_dir(dir).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("cache file is text");
        std::fs::write(&path, f(&text)).expect("rewrite cache file");
        touched += 1;
    }
    touched
}

type Damage = Box<dyn Fn(&str) -> String>;

#[test]
fn damaged_cache_files_fall_back_to_full_recompute() {
    let ty = TestAndSet::new();
    let damages: Vec<(&str, Damage)> = vec![
        ("garbage", Box::new(|_: &str| "not json at all {{{".into())),
        ("truncated", Box::new(|t: &str| t[..t.len() / 2].into())),
        ("empty", Box::new(|_: &str| String::new())),
        (
            "version-mismatch",
            Box::new(|t: &str| t.replacen("\"version\":", "\"version\": 999, \"v\":", 1)),
        ),
    ];
    for (tag, damage) in damages {
        let dir = scratch(tag);
        let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let reference = cold.classify(&ty, CAP).expect("cap in range");
        assert!(
            damage_all(&dir, damage) > 0,
            "{tag}: no cache files written"
        );

        let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let again = warm.classify(&ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &again, tag);
        let stats = warm.stats();
        assert_eq!(stats.disk_hits, 0, "{tag}: damaged entries must not hit");
        assert!(
            stats.analyses_computed > 0,
            "{tag}: must recompute, got {stats}"
        );
        // The recompute repairs the cache: a third run is warm again.
        let repaired = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let third = repaired.classify(&ty, CAP).expect("cap in range");
        assert_same_classification(&reference, &third, tag);
        assert!(
            repaired.stats().disk_hits > 0,
            "{tag}: repair run should be warm, got {}",
            repaired.stats()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Re-stamps a current cache file as `version`, leaving the entries alone.
fn restamp(text: &str, version: u32) -> String {
    text.replacen(
        &format!("\"version\":{CACHE_FORMAT_VERSION}"),
        &format!("\"version\":{version}"),
        1,
    )
}

/// A cache file in an older format must not hit, the warm run must
/// recompute and match the cold run, and the recompute must repair the
/// cache. Returns the directory for format-specific checks; the caller
/// removes it.
fn assert_old_format_recomputes(tag: &str, rewrite: impl Fn(&str) -> String) -> PathBuf {
    let ty = TeamCounter::new(4);
    let dir = scratch(tag);
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, CAP).expect("cap in range");
    let touched = damage_all(&dir, rewrite);
    assert!(touched > 0, "{tag}: no cache files written");

    let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &again, tag);
    let stats = warm.stats();
    assert_eq!(
        stats.disk_hits, 0,
        "{tag}: stale-version entries must not hit"
    );
    assert!(
        stats.analyses_computed > 0,
        "{tag}: must recompute, got {stats}"
    );

    let repaired = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let third = repaired.classify(&ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &third, tag);
    assert!(
        repaired.stats().disk_hits > 0,
        "{tag}: repair run should be warm, got {}",
        repaired.stats()
    );
    dir
}

#[test]
fn version_one_cache_files_fall_back_to_recompute() {
    // Version 1 persisted exactly the fields the current format does, so
    // only the version stamp tells an old file apart — and must.
    let dir = assert_old_format_recomputes("v1-format", |t| restamp(t, 1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn version_two_cache_files_are_quarantined_then_recomputed() {
    // Version 2 additionally persisted each analysis's `firsts`
    // reachability labels. A genuine v2 file — right path, right
    // fingerprint, old stamp, extra field — is moved aside to `.bad` on
    // first load and its analyses recomputed.
    let dir = assert_old_format_recomputes("v2-format", |t| {
        restamp(t, 2).replace("\"value_sets\":", "\"firsts\":[0,1,2,3],\"value_sets\":")
    });
    let quarantined = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter(|e| {
            e.as_ref()
                .expect("dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "bad")
        })
        .count();
    assert!(quarantined > 0, "v2 files must be quarantined to .bad");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shape_mismatched_entries_are_skipped_individually() {
    // Damage one entry per file (an extra word makes one of its bitsets
    // disagree with its capacity) while its neighbours stay valid: the
    // warm run must skip exactly the damaged entries — recomputing them —
    // and still serve the rest from disk.
    let ty = TeamCounter::new(4);
    let dir = scratch("entry-shape");
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, CAP).expect("cap in range");
    let touched = damage_all(&dir, |t| t.replacen("\"words\":[", "\"words\":[0,", 1));
    assert!(touched > 0, "no cache files written");

    let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &again, "entry-shape");
    let stats = warm.stats();
    assert!(
        stats.disk_hits > 0,
        "undamaged entries must still hit, got {stats}"
    );
    assert!(
        stats.analyses_computed > 0,
        "damaged entries must recompute, got {stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_from_a_different_type_is_ignored() {
    // Cache keys are content hashes of the transition table: warming the
    // cache on one type must not leak analyses into another type that
    // happens to share dimensions.
    let dir = scratch("cross-type");
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    cold.classify(&TestAndSet::new(), CAP)
        .expect("cap in range");

    let other = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    other
        .classify(&StickyBit::new(), CAP)
        .expect("cap in range");
    let stats = other.stats();
    assert_eq!(stats.disk_hits, 0, "cross-type run must miss: {stats}");
    assert!(stats.analyses_computed > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_cache_dir_means_no_disk_traffic() {
    let engine = SearchEngine::sequential();
    engine
        .classify(&TestAndSet::new(), CAP)
        .expect("cap in range");
    let stats = engine.stats();
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(stats.disk_entries_written, 0);
}
