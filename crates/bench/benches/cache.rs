//! Persistent-cache benchmarks: cold-vs-warm classification with a
//! `DiskCache` attached, against a no-cache control.

use criterion::{criterion_group, criterion_main, Criterion};
use rcn_decide::{DiskCache, SearchEngine};
use rcn_spec::zoo::TeamCounter;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcn-bench-cache-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Cold run (empty cache directory, every level searched and its verdict
/// persisted) vs. warm run (every level's verdict loaded from disk). The
/// warm/cold ratio is the headline number for the persistent cache.
fn cold_vs_warm_classify(c: &mut Criterion) {
    let ty = TeamCounter::new(4);
    let mut group = c.benchmark_group("disk_cache_classify_team_counter_cap4");
    group.sample_size(10);

    group.bench_function("cold", |b| {
        let dir = scratch("cold");
        b.iter(|| {
            // Start from an empty directory every iteration: this measures
            // search + serialize + persist.
            std::fs::remove_dir_all(&dir).ok();
            let engine = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
            criterion::black_box(engine.classify(&ty, 4).expect("cap in range"));
        });
        std::fs::remove_dir_all(&dir).ok();
    });

    group.bench_function("warm", |b| {
        let dir = scratch("warm");
        // Populate once; every iteration then loads instead of searching.
        SearchEngine::sequential()
            .with_disk_cache(DiskCache::new(&dir))
            .classify(&ty, 4)
            .expect("cap in range");
        b.iter(|| {
            let engine = SearchEngine::sequential().with_disk_cache(DiskCache::new(&dir));
            criterion::black_box(engine.classify(&ty, 4).expect("cap in range"));
        });
        std::fs::remove_dir_all(&dir).ok();
    });

    group.bench_function("no-cache", |b| {
        b.iter(|| {
            let engine = SearchEngine::sequential();
            criterion::black_box(engine.classify(&ty, 4).expect("cap in range"));
        });
    });
    group.finish();
}

criterion_group!(benches, cold_vs_warm_classify);
criterion_main!(benches);
