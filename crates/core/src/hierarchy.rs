//! Hierarchy reports: classify a set of types and render the comparison
//! table that experiment E5/E8 prints.

use rcn_decide::{
    classify, robust_level, SearchEngine, SearchError, SearchStats, TypeClassification,
};
use rcn_spec::ObjectType;
use std::fmt;

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

    /// Classifies a set of types on `engine`, one after another, and
    /// appends the results in input order. Stats accumulate on `engine`.
    ///
    /// Returns the engine's [`SearchStats`] after the last type, with the
    /// timeout fields covering the whole set rather than its last call:
    /// `timed_out` if any type's classification hit the engine's deadline,
    /// and `instances_abandoned` summed over the types.
    ///
    /// # Errors
    ///
    /// Returns the first [`SearchError`] encountered; in that case no
    /// classifications are appended.
    pub fn add_all<T>(
        &mut self,
        types: &[T],
        engine: &SearchEngine,
    ) -> Result<SearchStats, SearchError>
    where
        T: std::ops::Deref,
        T::Target: ObjectType + Sync,
    {
        let mut classified = Vec::with_capacity(types.len());
        let (mut timed_out, mut instances_abandoned) = (false, 0);
        for ty in types {
            classified.push(engine.classify(&**ty, self.cap)?);
            let stats = engine.stats();
            timed_out |= stats.timed_out;
            instances_abandoned += stats.instances_abandoned;
        }
        self.classes.extend(classified);
        Ok(SearchStats {
            timed_out,
            instances_abandoned,
            ..engine.stats()
        })
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
    use rcn_decide::DiskCache;
    use rcn_spec::zoo::{Register, StickyBit, TestAndSet};
    use std::time::Duration;

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
        let mut batch = HierarchyReport::new(3);
        let stats = batch.add_all(&types, &engine).expect("cap in range");
        assert_eq!(batch.classes().len(), 3);
        for (a, b) in sequential.classes().iter().zip(batch.classes()) {
            assert_eq!(a.type_name, b.type_name, "order preserved");
            assert_eq!(a.consensus_number, b.consensus_number);
            assert_eq!(
                a.recoverable_consensus_number,
                b.recoverable_consensus_number
            );
        }
        assert!(stats.analyses_computed > 0);
        assert_eq!(stats, engine.stats(), "no deadline: the engine's stats");
    }

    #[test]
    fn add_all_reports_any_types_timeout() {
        // Sticky bit's verdicts are all on disk, so its call, the last one,
        // finishes without meeting the deadline; test-and-set's, before it,
        // is cut short. The batch must still report the timeout.
        let dir = std::env::temp_dir().join(format!(
            "rcn-hierarchy-timeout-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        SearchEngine::sequential()
            .with_disk_cache(DiskCache::new(&dir))
            .classify(&StickyBit::new(), 3)
            .expect("cap in range");
        let engine = SearchEngine::sequential()
            .with_disk_cache(DiskCache::new(&dir))
            .with_timeout(Duration::ZERO);
        let types: Vec<Box<dyn ObjectType + Send + Sync>> =
            vec![Box::new(TestAndSet::new()), Box::new(StickyBit::new())];
        let mut report = HierarchyReport::new(3);
        let stats = report.add_all(&types, &engine).expect("cap in range");
        assert!(!engine.stats().timed_out, "the last call met no deadline");
        assert!(stats.timed_out, "an earlier type timed out: {stats}");
        assert!(stats.instances_abandoned > 0, "{stats}");
        assert!(report.classes()[0].discerning.capped);
        assert_eq!(report.classes()[1], classify(&StickyBit::new(), 3));
        std::fs::remove_dir_all(&dir).ok();
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
