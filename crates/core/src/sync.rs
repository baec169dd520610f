//! The locks and atomics the planning snapshot and the gateway's timing
//! fault handler share, behind one seam.
//!
//! A normal build re-exports today's types. Built with
//! `RUSTFLAGS="--cfg aqua_check"` (a test seam, like loom's `cfg(loom)`),
//! they resolve to the `shadow` crate's cooperative versions: one real
//! thread runs at a time, and every lock, unlock and atomic operation is
//! a scheduling point, so `crates/gateway/tests/interleave.rs` can
//! explore the real handler's interleavings. [`mutant`] marks where the
//! real code can run a known bug for that check to catch.

#[cfg(not(aqua_check))]
pub use parking_lot::Mutex;
#[cfg(aqua_check)]
pub use shadow::sync::{AtomicBool, AtomicU64, Mutex, RwLock};
pub use std::sync::atomic::Ordering;
#[cfg(not(aqua_check))]
pub use std::sync::{
    atomic::{AtomicBool, AtomicU64},
    RwLock,
};

/// Whether the interleaving check runs the buggy variant `name` of the
/// code at this point; always `false` outside it.
#[cfg(not(aqua_check))]
#[inline(always)]
pub const fn mutant(_name: &str) -> bool {
    false
}

#[cfg(aqua_check)]
pub use shadow::mutant;
