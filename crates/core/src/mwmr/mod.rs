//! The paper's multi-writer multi-reader locks (§5, Theorems 3–5).
//!
//! | Type | Paper artifact | Guarantees |
//! |---|---|---|
//! | [`Fig3`] | Fig. 3, the transformation `T` | those of the single-writer lock it lifts |
//! | [`MwmrStarvationFree`] | Fig. 3 ∘ Fig. 1 | P1–P7 (no priority, nobody starves) |
//! | [`MwmrReaderPriority`] | Fig. 3 ∘ Fig. 2 | P1–P6, RP1, RP2 (writers may starve) |
//! | [`MwmrWriterPriority`] | Fig. 4 | P1–P6, WP1, WP2 (readers may starve) |
//!
//! All three locks have O(1) RMR complexity in the CC model and O(n)
//! shared variables, where n is the process capacity.

use rmr_mutex::RawMutex;

pub mod fig3;
pub mod reader_priority;
pub mod starvation_free;
pub mod writer_priority;

pub use fig3::Fig3;
pub use reader_priority::MwmrReaderPriority;
pub use starvation_free::MwmrStarvationFree;
pub use writer_priority::MwmrWriterPriority;

/// Checks what Figures 3 and 4 ask of the writers' mutex `M` at
/// construction: at least one process, and room in `M` for every process.
fn assert_mutex_fits(mutex: &impl RawMutex, max_processes: usize) {
    assert!(max_processes > 0, "max_processes must be positive");
    if let Some(cap) = mutex.capacity() {
        assert!(cap >= max_processes, "mutex capacity {cap} below max_processes {max_processes}");
    }
}
