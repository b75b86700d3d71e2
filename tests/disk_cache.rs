//! Round-trip and corruption tests for the persistent verdict cache: a
//! warm run must reproduce the cold run's classification exactly while
//! computing nothing, and damaged or falsified cache files must degrade to
//! a silent recompute — never a wrong answer, never an error.

mod common;

use common::scratch;
use rcn::decide::{DiskCache, SearchEngine, TypeClassification, CACHE_FORMAT_VERSION};
use rcn::spec::zoo::{
    CompareAndSwap, ConsensusObject, FetchAndAdd, Register, StickyBit, Swap, TeamCounter,
    TestAndSet, Tnn,
};
use rcn::spec::ObjectType;
use std::path::{Path, PathBuf};

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
        // sticky bit) would legitimately share verdicts in a common dir —
        // here we want every type's cold run to be genuinely cold.
        let dir = root.join(ty.name());
        let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
        let reference = cold.classify(&*ty, CAP).expect("cap in range");
        let cold_stats = cold.stats();
        assert!(
            cold_stats.disk_entries_written > 0,
            "{}: cold run should persist its levels, got {cold_stats}",
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
            (warm_stats.analyses_computed, warm_stats.partitions_tested),
            (0, 0),
            "{}: warm run should search nothing, got {warm_stats}",
            ty.name()
        );
        assert_eq!(
            warm_stats.disk_hits,
            cold_stats.disk_entries_written,
            "{}: every persisted level is a hit",
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
    // The cache stores level verdicts, so a warm parallel engine answers
    // every level from disk: the cold sequential run's witnesses included,
    // with nothing searched.
    let dir = scratch("threads");
    let ty = Tnn::new(4, 2);
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(&ty, 5).expect("cap in range");

    let warm = SearchEngine::new(4).with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(&ty, 5).expect("cap in range");
    assert_same_classification(&reference, &again, "warm at 4 threads");
    let stats = warm.stats();
    assert_eq!(
        stats.disk_hits,
        cold.stats().disk_entries_written,
        "{stats}"
    );
    assert_eq!(
        (
            stats.analyses_computed,
            stats.partitions_tested,
            stats.disk_entries_written
        ),
        (0, 0, 0),
        "{stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// No publish left a temp file behind in `dir`.
fn assert_no_temp_litter(dir: &Path) {
    let litter: Vec<_> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").file_name())
        .filter(|name| name.to_string_lossy().contains("tmp-"))
        .collect();
    assert!(litter.is_empty(), "temp files left behind: {litter:?}");
}

#[test]
fn concurrent_classifications_share_one_cache_directory() {
    // Two threads, each with its own engine on one directory, classify the
    // same types at once: they read and publish the very same files.
    let types: Vec<Box<dyn ObjectType + Send + Sync>> =
        vec![Box::new(TestAndSet::new()), Box::new(StickyBit::new())];
    let classify_all = |engine: &SearchEngine| -> Vec<TypeClassification> {
        types
            .iter()
            .map(|ty| engine.classify(&**ty, CAP).expect("cap in range"))
            .collect()
    };
    let reference = classify_all(&SearchEngine::sequential());
    let dir = scratch("concurrent");
    let run_two = || {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let engine =
                            SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
                        (classify_all(&engine), engine.stats())
                    })
                })
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("classification thread"))
                .collect::<Vec<_>>()
        })
    };
    for (cold, _) in run_two() {
        assert_eq!(cold, reference, "cold verdicts");
    }
    for (warm, warm_stats) in run_two() {
        assert_eq!(warm, reference, "warm verdicts");
        assert_eq!(warm_stats.analyses_computed, 0, "{warm_stats}");
    }
    assert_no_temp_litter(&dir);
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

/// How many `.bad` files `dir` holds.
fn quarantined(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("cache dir exists")
        .filter(|e| {
            e.as_ref()
                .expect("dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "bad")
        })
        .count()
}

#[test]
fn version_two_cache_files_are_quarantined_then_recomputed() {
    // Versions 2 and 3 persisted every analysis of a level (v2 with each
    // analysis's `firsts` labels too). An old-stamped file with the old
    // `entries` field at a current path is moved aside to `.bad` on first
    // load and its level recomputed.
    for version in [2, 3] {
        let dir = assert_old_format_recomputes(&format!("v{version}-format"), |t| {
            restamp(t, version).replace(
                "\"witness\":",
                "\"entries\":[{\"firsts\":[0,1,2,3]}],\"witness\":",
            )
        });
        assert!(
            quarantined(&dir) > 0,
            "v{version} files must be quarantined to .bad"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Classifies `ty` cold, damages the one cache file `damage` changes, and
/// checks that a warm run quarantines exactly that file, recomputes its
/// level, serves every other level from disk, and matches the cold run —
/// and that the recompute repaired the cache.
fn assert_damaged_level_recomputes(
    ty: &(dyn ObjectType + Sync),
    tag: &str,
    damage: impl Fn(&str) -> String,
) {
    let dir = scratch(tag);
    let cold = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let reference = cold.classify(ty, CAP).expect("cap in range");
    let levels = cold.stats().disk_entries_written;
    let (target, text) = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("cache file is text");
            (p, text)
        })
        .find(|(_, text)| damage(text) != *text)
        .unwrap_or_else(|| panic!("{tag}: no stored witness to damage"));
    std::fs::write(&target, damage(&text)).expect("rewrite cache file");

    let warm = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let again = warm.classify(ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &again, tag);
    let stats = warm.stats();
    assert_eq!(stats.disk_hits, levels - 1, "{tag}: {stats}");
    assert!(
        stats.analyses_computed > 0,
        "{tag}: must recompute, {stats}"
    );
    assert_eq!(stats.disk_entries_written, 1, "{tag}: {stats}");
    assert!(
        target.with_extension("bad").exists(),
        "{tag}: the damaged file must be quarantined"
    );

    let repaired = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
    let third = repaired.classify(ty, CAP).expect("cap in range");
    assert_same_classification(&reference, &third, tag);
    assert_eq!(repaired.stats().analyses_computed, 0, "{tag}: repaired");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shape_mismatched_entries_are_skipped_individually() {
    // One level's witness gets an extra op, so its op and team vectors
    // disagree in length: only that level is recomputed, every other
    // level's file still hits.
    assert_damaged_level_recomputes(&TeamCounter::new(4), "entry-shape", |t| {
        t.replacen("\"ops\":[", "\"ops\":[0,", 1)
    });
}

#[test]
fn falsified_witnesses_are_quarantined_then_recomputed() {
    // A well-formed witness that does not certify its level: test-and-set
    // started already set answers everyone the same, so it discerns
    // nothing. The re-check on load catches it.
    assert_damaged_level_recomputes(&TestAndSet::new(), "falsified", |t| {
        t.replace("\"initial\":0", "\"initial\":1")
    });
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
