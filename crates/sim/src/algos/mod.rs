//! Line-level machine encodings of the paper's algorithms. The baselines
//! are measured on their shipped implementations instead (`rmr-bench`'s
//! `real_rmr_table`, experiment E7).
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig1`] | Figure 1 — SWMR writer priority + starvation freedom |
//! | [`fig2`] | Figure 2 — SWMR reader priority |
//! | [`fig3`] | Figure 3 — transformation `T` (both instantiations) |
//! | [`fig4`] | Figure 4 — MWMR writer priority |
//! | [`anderson`] | Anderson's lock `M` |
//! | [`mutexes`] | TAS/TTAS/Anderson mutexes (cost-model calibration) |
//! | [`mutants`] | deliberately broken variants (§3.3/§4.3 regression checks) |

pub mod anderson;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod mutants;
pub mod mutexes;

pub use fig1::Fig1;
pub use fig2::Fig2;
pub use fig3::{Fig3Rp, Fig3Sf};
pub use fig4::Fig4;
