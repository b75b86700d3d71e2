//! The type zoo: concrete deterministic types used throughout the
//! experiments.
//!
//! | Type | Readable | Consensus # | Recoverable consensus # |
//! |------|----------|-------------|--------------------------|
//! | [`Register`] | yes | 1 | 1 |
//! | [`TestAndSet`] | yes | 2 | 1 (Golab) |
//! | [`FetchAndAdd`] | yes | 2 | decider-determined |
//! | [`Swap`] | yes | 2 | decider-determined |
//! | [`BoundedQueue`] / [`BoundedStack`] | no | 2 | ≤ 2 |
//! | [`CompareAndSwap`] | yes | ∞ | ∞ |
//! | [`StickyBit`] / [`ConsensusObject`] / [`MultiConsensus`] | yes | ∞ | ∞ |
//! | [`Tnn`] (`T_{n,n'}`) | iff `n' = n−1` | n (Lemma 15) | n' (Lemma 16) |
//! | [`WithRead`]`<BoundedQueue>` | yes | ∞ (augmented queue) | ∞ |
//! | [`TeamCounter`] | yes | n | n−1 (verified by deciders) |
//! | [`Xn`] | yes | n | n−2 (reconstruction target, see E6) |

mod arithmetic;
mod containers;
mod multi_consensus;
mod register;
mod sticky;
mod test_and_set;
mod tnn;
mod with_read;
mod xn;

pub use arithmetic::{CompareAndSwap, FetchAndAdd, Swap};
pub use containers::{BoundedQueue, BoundedStack};
pub use multi_consensus::MultiConsensus;
pub use register::Register;
pub use sticky::{ConsensusObject, StickyBit};
pub use test_and_set::TestAndSet;
pub use tnn::Tnn;
pub use with_read::WithRead;
pub use xn::{TeamCounter, Xn};

use crate::TypeSpecError;
use std::fmt;

/// States a zoo constructor's precondition once: `Ok` when it `holds`,
/// otherwise [`TypeSpecError::BadParameters`] carrying `message`.
fn require(holds: bool, message: fmt::Arguments<'_>) -> Result<(), TypeSpecError> {
    if holds {
        Ok(())
    } else {
        Err(TypeSpecError::BadParameters(message.to_string()))
    }
}
