//! Helpers shared by the integration tests.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch path under the temp dir (no tempfile crate in the
/// tree), emptied of any leftover. The process id, `tag` and a counter
/// make it unique, so tests running concurrently — in this binary or in
/// another — never share a directory, even when they pass the same tag.
pub fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rcn-{}-{tag}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}
