//! Hierarchy reports: classify a set of types and render the comparison
//! table that experiment E5/E8 prints.

use rcn_decide::{classify, robust_level, SearchEngine, SearchError, TypeClassification};
use rcn_spec::ObjectType;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A classification report over a set of types.
///
/// # Examples
///
/// ```
/// use rcn_core::HierarchyReport;
/// use rcn_spec::zoo::{Register, TestAndSet};
///
/// let mut report = HierarchyReport::new(3);
/// report.add(&Register::new(2));
/// report.add(&TestAndSet::new());
/// assert_eq!(report.robust_level().0, 1);
/// println!("{report}");
/// ```
#[derive(Debug)]
pub struct HierarchyReport {
    cap: usize,
    classes: Vec<TypeClassification>,
}

impl HierarchyReport {
    /// Creates an empty report; searches run up to level `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `cap < 2`.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "cap must be at least 2");
        HierarchyReport {
            cap,
            classes: Vec::new(),
        }
    }

    /// Classifies a type (on [`SearchEngine::sequential`]) and appends it
    /// to the report.
    ///
    /// # Panics
    ///
    /// Panics if the report's cap exceeds [`rcn_decide::MAX_PROCESSES`].
    pub fn add<T: ObjectType + Sync + ?Sized>(&mut self, ty: &T) -> &TypeClassification {
        self.classes.push(classify(ty, self.cap));
        self.classes.last().expect("just pushed")
    }

    /// Classifies a whole set of types concurrently — one type per worker
    /// thread, up to the engine's thread count — and appends the results in
    /// input order. Stats accumulate on `engine` across all workers.
    ///
    /// Per-type searches run sequentially inside each worker (the
    /// coarse-grained sharding already saturates the engine's width), so
    /// the total thread count stays at `engine.threads()`.
    ///
    /// # Errors
    ///
    /// Returns the first [`SearchError`] encountered; in that case no
    /// classifications are appended.
    pub fn add_all<T>(&mut self, types: &[T], engine: &SearchEngine) -> Result<(), SearchError>
    where
        T: std::ops::Deref + Sync,
        T::Target: ObjectType + Sync,
    {
        let workers = engine.threads().min(types.len()).max(1);
        let cap = self.cap;
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<TypeClassification, SearchError>>>> =
            types.iter().map(|_| Mutex::new(None)).collect();

        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(ty) = types.get(i) else { break };
            let result = engine.classify_with(&**ty, cap, 1);
            *slots[i].lock().expect("classification slot") = Some(result);
        };

        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        let mut classified = Vec::with_capacity(types.len());
        for slot in slots {
            classified.push(
                slot.into_inner()
                    .expect("classification slot")
                    .expect("every index claimed")?,
            );
        }
        self.classes.extend(classified);
        Ok(())
    }

    /// The classifications so far.
    pub fn classes(&self) -> &[TypeClassification] {
        &self.classes
    }

    /// The search cap used.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Theorem 14's *robust level* of the type set: the maximum recoverable
    /// consensus number across the set — combining objects of these types
    /// cannot do better (for deterministic readable types).
    pub fn robust_level(&self) -> (usize, Option<String>) {
        robust_level(&self.classes)
    }
}

impl fmt::Display for HierarchyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:<8} {:<6} {:<6} (discerning=d, recording=r, cap={})",
            "type", "readable", "CN", "RCN", self.cap
        )?;
        for c in &self.classes {
            writeln!(
                f,
                "{:<24} {:<8} {:<6} {:<6} (d={}, r={})",
                c.type_name,
                if c.readable { "yes" } else { "no" },
                c.consensus_number.to_string(),
                c.recoverable_consensus_number.to_string(),
                c.discerning.display_level(),
                c.recording.display_level(),
            )?;
        }
        let (level, who) = self.robust_level();
        write!(
            f,
            "robust level of the set: {level}{}",
            who.map(|w| format!(" (via {w})")).unwrap_or_default()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcn_spec::zoo::{Register, StickyBit, TestAndSet};

    #[test]
    fn report_accumulates_and_renders() {
        let mut report = HierarchyReport::new(3);
        report.add(&Register::new(2));
        report.add(&TestAndSet::new());
        report.add(&StickyBit::new());
        assert_eq!(report.classes().len(), 3);
        let text = report.to_string();
        assert!(text.contains("test-and-set"));
        assert!(text.contains("sticky-bit"));
        assert!(text.contains("robust level of the set: 3"));
    }

    #[test]
    fn add_all_matches_sequential_adds_in_order() {
        let types: Vec<Box<dyn ObjectType + Send + Sync>> = vec![
            Box::new(Register::new(2)),
            Box::new(TestAndSet::new()),
            Box::new(StickyBit::new()),
        ];
        let mut sequential = HierarchyReport::new(3);
        for ty in &types {
            sequential.add(&**ty);
        }
        let engine = SearchEngine::new(3);
        let mut concurrent = HierarchyReport::new(3);
        concurrent.add_all(&types, &engine).expect("cap in range");
        assert_eq!(concurrent.classes().len(), 3);
        for (a, b) in sequential.classes().iter().zip(concurrent.classes()) {
            assert_eq!(a.type_name, b.type_name, "order preserved");
            assert_eq!(a.consensus_number, b.consensus_number);
            assert_eq!(
                a.recoverable_consensus_number,
                b.recoverable_consensus_number
            );
        }
        assert!(engine.stats().analyses_computed > 0);
        // Concurrent classifications overlap in time: the engine's wall
        // time is the union of in-flight intervals and must never exceed
        // the summed per-search busy time (the old counter summed per-call
        // durations as "wall time", which overshot real elapsed time here).
        let stats = engine.stats();
        assert!(
            stats.wall_time <= stats.busy_time,
            "wall must not exceed busy: {stats}"
        );
    }

    #[test]
    fn add_all_surfaces_engine_errors() {
        let types: Vec<Box<dyn ObjectType + Send + Sync>> =
            vec![Box::new(Register::new(2)), Box::new(TestAndSet::new())];
        let mut report = HierarchyReport::new(rcn_decide::MAX_PROCESSES + 1);
        let engine = SearchEngine::new(2);
        assert!(report.add_all(&types, &engine).is_err());
        assert!(report.classes().is_empty());
    }

    #[test]
    fn robust_level_matches_best_member() {
        let mut report = HierarchyReport::new(3);
        report.add(&Register::new(2));
        assert_eq!(report.robust_level(), (1, None));
        report.add(&StickyBit::new());
        let (level, who) = report.robust_level();
        assert_eq!(level, 3);
        assert_eq!(who.as_deref(), Some("sticky-bit"));
    }
}
