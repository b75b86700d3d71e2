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

/// The size of each id space: values, operations and responses are named by
/// `u16` ids ([`ValueId`](crate::ValueId), [`OpId`](crate::OpId),
/// [`Response`](crate::Response)), so a type has at most this many of each.
pub const MAX_IDS: usize = 1 << 16;

/// States the id-space bound once: `Ok` when the type called `name` has at
/// most [`MAX_IDS`] values, operations and responses, otherwise
/// [`TypeSpecError::BadParameters`] naming the first size beyond it.
/// Callers compute the sizes with checked arithmetic; `None` stands for a
/// size that overflowed `usize`, which is beyond the bound too. Every
/// fallible zoo constructor and
/// [`TableType::validate`](crate::TableType::validate) call this before
/// building anything of that size.
pub(crate) fn require_ids(
    name: fmt::Arguments<'_>,
    [values, ops, responses]: [Option<usize>; 3],
) -> Result<(), TypeSpecError> {
    for (kind, size) in [
        ("values", values),
        ("operations", ops),
        ("responses", responses),
    ] {
        if size.is_some_and(|s| s <= MAX_IDS) {
            continue;
        }
        let size = size.map_or_else(|| "more than usize::MAX".into(), |s| s.to_string());
        return Err(TypeSpecError::BadParameters(format!(
            "{name} would have {size} {kind}, but ids are 16-bit (at most {MAX_IDS})"
        )));
    }
    Ok(())
}

/// States a zoo constructor's precondition once: `Ok` when it `holds`,
/// otherwise [`TypeSpecError::BadParameters`] carrying `message`.
fn require(holds: bool, message: fmt::Arguments<'_>) -> Result<(), TypeSpecError> {
    if holds {
        Ok(())
    } else {
        Err(TypeSpecError::BadParameters(message.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectType;

    #[test]
    fn sizes_up_to_the_id_space_build() {
        // 65 535 values, 65 536 ops and responses: exactly at the bound.
        let reg = Register::try_new(65_535).expect("at the bound");
        assert_eq!(reg.num_ops(), MAX_IDS);
        // 256² = 65 536 ops.
        assert_eq!(CompareAndSwap::try_new(256).unwrap().num_ops(), MAX_IDS);
        // 2^0 + … + 2^15 = 65 535 values.
        assert_eq!(BoundedQueue::try_new(2, 15).unwrap().num_values(), 65_535);
    }

    #[test]
    fn sizes_beyond_the_id_space_are_errors() {
        let errors = [
            Register::try_new(70_000).err(),
            Register::try_new(65_536).err(),
            CompareAndSwap::try_new(257).err(),
            CompareAndSwap::try_new(usize::MAX).err(),
            FetchAndAdd::try_new(MAX_IDS + 1).err(),
            Swap::try_new(usize::MAX).err(),
            MultiConsensus::try_new(MAX_IDS).err(),
            BoundedQueue::try_new(2, 70).err(),
            BoundedQueue::try_new(300, 2).err(),
            BoundedQueue::try_new(1, usize::MAX).err(),
            BoundedStack::try_new(2, 16).err(),
            BoundedStack::try_new(usize::MAX, usize::MAX).err(),
            Tnn::try_new(usize::MAX, 1).err(),
            TeamCounter::try_new(40_000).err(),
        ];
        for (i, error) in errors.into_iter().enumerate() {
            let Some(TypeSpecError::BadParameters(message)) = error else {
                panic!("case {i}: expected an id-space error, got {error:?}");
            };
            assert!(message.contains("ids are 16-bit"), "case {i}: {message}");
        }
        let message = BoundedQueue::try_new(2, 70).unwrap_err().to_string();
        assert!(message.contains("more than usize::MAX values"), "{message}");
        let message = CompareAndSwap::try_new(257).unwrap_err().to_string();
        assert!(message.contains("66049 operations"), "{message}");
    }

    #[test]
    fn read_augmentation_respects_the_id_space() {
        assert!(WithRead::try_new(Register::new(2)).is_ok());
        // 65 535 values: the read's responses would need 65 535 more ids.
        assert!(WithRead::try_new(BoundedQueue::new(2, 15)).is_err());
    }
}
