//! An independent breadth-first model checker — the second opinion.
//!
//! Every verdict the rest of the workspace emits rests on one algorithm
//! per question: crashtest certifications on `rcn-faults`' memoized DFS,
//! valency facts on `rcn-valency`'s budgeted `E_z*` graph (a breadth-first
//! build into rows of interned per-process parts, valencies from its
//! strongly connected components). A bug in
//! any one engine's pruning (the depth-cap memoization unsoundness caught
//! in review is the canonical example) silently corrupts verdicts with
//! nothing to notice.
//!
//! `rcn-mc` re-derives both families of verdicts from the `System`
//! semantics alone, by explicit-state breadth-first search, and
//! **deliberately shares no search code** with either engine — this crate
//! depends only on `rcn-model` (the semantics under test) and `rcn-obs`
//! (observability). From `rcn-model` it takes the crash semantics and one
//! bucket hash, `WordHasher`, which cannot decide state identity. Its own
//! state store keeps each state's fields once in flat arrays (neither
//! `rcn-faults`' map of whole configurations nor `rcn-valency`'s rows of
//! part ids) behind a digest index that confirms equality field by field
//! on every probe; its own search ([`checker`]: FIFO frontier, parent
//! pointers, no pruning rules) and its own valency check ([`valency`]: a
//! forward search that stops once it has stored both decision values,
//! keeping no edges) run on it. Where the two stacks agree, the verdict
//! no longer hinges on any single implementation being right; where they
//! disagree, the RCN200–203 cross-checker lints in `rcn-analyze` turn the
//! divergence into a hard CI failure.
//!
//! Verdicts carry honest coverage tags: [`Coverage::Exhaustive`] means the
//! full stated budget was searched, [`Coverage::Bounded`] means a state
//! cap intervened and a clean answer certifies nothing beyond the states
//! actually stored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod store;
pub mod valency;

pub use checker::{
    model_check, model_check_traced, Coverage, McConfig, McCounterexample, McReport, McStats,
    ModelChecker,
};
pub use valency::{valency_check, McValency, ValencyConfig, ValencyReport};
