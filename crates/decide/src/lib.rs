//! # rcn-decide — determining (recoverable) consensus numbers
//!
//! Decision procedures for the two finitely-checkable conditions that
//! determine the consensus power of finite deterministic types:
//!
//! * **n-discerning** (Ruppert 2000) — characterizes consensus number `≥ n`
//!   for deterministic readable types;
//! * **n-recording** (DFFR'22) — by Theorem 13 of *"Determining Recoverable
//!   Consensus Numbers"* (Ovens, PODC 2024) combined with DFFR'22 Theorem 8,
//!   characterizes recoverable consensus number `≥ n` for deterministic
//!   readable types.
//!
//! Both searches avoid factorial schedule enumeration by a BFS over
//! `(applied-process set, object value)` nodes ([`Analysis`]), and cut the
//! witness space by process-permutation and team-relabeling symmetries.
//!
//! ## Quickstart
//!
//! ```
//! use rcn_decide::classify;
//! use rcn_spec::zoo::{TestAndSet, Tnn};
//!
//! // Golab's separation, fully automatically:
//! let tas = classify(&TestAndSet::new(), 4);
//! assert_eq!(tas.consensus_number.to_string(), "2");
//! assert_eq!(tas.recoverable_consensus_number.to_string(), "1");
//!
//! // The paper's T_{4,2}: 4-discerning but only 3-recording.
//! let t = classify(&Tnn::new(4, 2), 5);
//! assert_eq!(t.discerning.level, 4);
//! assert_eq!(t.recording.level, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
pub mod brute;
mod cache;
mod classify;
mod discerning;
mod engine;
mod explain;
mod reach;
mod recording;
mod search;
pub mod synthesis;
mod witness;

pub use bitset::BitSet;
pub use cache::{
    type_fingerprint, CacheIo, DiskCache, FaultMode, FaultyIo, StoreNames, SystemIo, VerdictStore,
    CACHE_FORMAT_VERSION,
};
pub use classify::{classify, robust_level, Bound, TypeClassification};
pub use discerning::{
    check_discerning, discerning_number, find_discerning_witness, is_n_discerning, LevelResult,
};
pub use engine::{SearchEngine, SearchError, SearchStats};
pub use explain::{explain_discerning, explain_recording};
pub use reach::{Analysis, MAX_PROCESSES};
pub use recording::{
    check_recording, find_recording_witness, is_n_recording, recording_class, recording_number,
    CriticalClass,
};
pub use search::{op_multisets, OpMultisets};
pub use witness::{Team, Witness, WitnessError};
