//! Cache-line padding for contended shared variables.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Pads and aligns `T` to (a conservative upper bound of) the cache-line
/// size, so that two `CachePadded` values never share a line and a spin on
/// one cannot be invalidated by traffic on the other.
///
/// This matters for the RMR accounting the workspace is about: the paper's
/// O(1) bounds count variables, but hardware invalidates whole lines, so a
/// spinner pays for every write to *its line*. A busy-wait variable keeps
/// its O(1) bound as long as its line takes O(1) writes per wait: it may
/// share a `CachePadded` group with other rarely written flags (Figure 1's
/// spin line holds its gates, permits and `Zombie`), but not with words
/// that every passage writes, such as a reader counter. 128 bytes covers the common 64-byte line plus the spatial
/// prefetcher pairing on recent x86, and the 128-byte lines on some ARM
/// and POWER parts.
///
/// # Example
///
/// ```
/// use rmr_mutex::CachePadded;
/// use std::sync::atomic::AtomicBool;
///
/// let flag = CachePadded::new(AtomicBool::new(false));
/// assert!(std::mem::align_of_val(&flag) >= 128);
/// assert!(!flag.load(std::sync::atomic::Ordering::SeqCst));
/// ```
#[derive(Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    /// Consumes the padding, returning the inner value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for CachePadded<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("CachePadded").field(&self.value).finish()
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_values_do_not_share_lines() {
        let pair = [CachePadded::new(0u8), CachePadded::new(0u8)];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 128);
    }

    #[test]
    fn deref_and_into_inner() {
        let mut p = CachePadded::new(5u32);
        *p += 1;
        assert_eq!(*p, 6);
        assert_eq!(p.into_inner(), 6);
    }
}
