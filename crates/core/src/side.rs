//! The two "sides" of the paper's side-toggling scheme.

use rmr_mutex::mem::{Backend, Native, Ordering, SharedBool, Site};
use std::fmt;
use std::ops::Not;

/// One of the two sides (`D ∈ {0, 1}`) from which the writer attempts the
/// critical section in Figures 1, 2 and 4.
///
/// The writer alternates sides between attempts; readers bind themselves to
/// the side announced in the shared variable `D` and wait on that side's
/// gate. `!side` gives the paper's `d̄`.
///
/// # Example
///
/// ```
/// use rmr_core::Side;
///
/// assert_eq!(!Side::Zero, Side::One);
/// assert_eq!(Side::One.index(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Side {
    /// Side 0 (the initial value of `D`).
    #[default]
    Zero,
    /// Side 1.
    One,
}

impl Side {
    /// Index for addressing the per-side arrays `C[d]`, `Gate[d]`,
    /// `Permit[d]`.
    pub fn index(self) -> usize {
        match self {
            Side::Zero => 0,
            Side::One => 1,
        }
    }

    /// Converts from an index in `{0, 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `index > 1`.
    pub fn from_index(index: usize) -> Self {
        match index {
            0 => Side::Zero,
            1 => Side::One,
            _ => panic!("side index must be 0 or 1, got {index}"),
        }
    }

    /// Both sides, in index order.
    pub const BOTH: [Side; 2] = [Side::Zero, Side::One];
}

impl Not for Side {
    type Output = Side;

    /// The paper's `d̄`.
    fn not(self) -> Side {
        match self {
            Side::Zero => Side::One,
            Side::One => Side::Zero,
        }
    }
}

impl fmt::Debug for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.index())
    }
}

/// An atomic [`Side`] cell (the shared variable `D`), generic over the
/// memory backend (`Native` by default).
pub struct AtomicSide<B: Backend = Native>(B::Bool);

impl AtomicSide {
    /// Creates the cell holding `side`.
    pub fn new(side: Side) -> Self {
        Self::new_in(side, Native)
    }
}

impl<B: Backend> AtomicSide<B> {
    /// Creates the cell holding `side` over the given memory backend.
    pub fn new_in(side: Side, _backend: B) -> Self {
        Self(B::Bool::new(side == Side::One))
    }

    /// Atomic read with the given ordering.
    pub fn load(&self, order: Ordering) -> Side {
        if self.0.load(order) {
            Side::One
        } else {
            Side::Zero
        }
    }

    /// Atomic write with the given ordering.
    pub fn store(&self, side: Side, order: Ordering) {
        self.0.store(side == Side::One, order);
    }

    /// [`Self::store`] at a fault [`Site`] (see [`rmr_mutex::mem`]).
    #[inline]
    pub fn store_at(&self, site: Site, side: Side, order: Ordering) {
        self.0.store_at(site, side == Side::One, order);
    }
}

impl<B: Backend> Default for AtomicSide<B> {
    fn default() -> Self {
        Self::new_in(Side::Zero, B::default())
    }
}

impl<B: Backend> fmt::Debug for AtomicSide<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Diagnostic snapshot only; no synchronization rides on it.
        write!(f, "AtomicSide({:?})", self.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_flips() {
        assert_eq!(!Side::Zero, Side::One);
        assert_eq!(!Side::One, Side::Zero);
        assert_eq!(!!Side::Zero, Side::Zero);
    }

    #[test]
    fn index_round_trips() {
        for s in Side::BOTH {
            assert_eq!(Side::from_index(s.index()), s);
        }
    }

    #[test]
    #[should_panic(expected = "side index must be 0 or 1")]
    fn bad_index_panics() {
        let _ = Side::from_index(2);
    }

    #[test]
    fn atomic_side_round_trips() {
        let d = AtomicSide::new(Side::Zero);
        assert_eq!(d.load(Ordering::SeqCst), Side::Zero);
        d.store(Side::One, Ordering::SeqCst);
        assert_eq!(d.load(Ordering::SeqCst), Side::One);
        d.store(Side::Zero, Ordering::Release);
        assert_eq!(d.load(Ordering::Acquire), Side::Zero);
    }

    #[test]
    fn default_is_side_zero() {
        assert_eq!(Side::default(), Side::Zero);
        assert_eq!(AtomicSide::<Native>::default().load(Ordering::SeqCst), Side::Zero);
    }
}
