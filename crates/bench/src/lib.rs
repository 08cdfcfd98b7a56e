//! # pmr-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! EDBT 2019 study from the simulated corpus:
//!
//! | Binary | Regenerates |
//! |--------|-------------|
//! | `run_sweep` | the full 223-configuration × 13-source sweep (cached as JSON; every other binary reuses it) |
//! | `table2_dataset_stats` | Table 2 — dataset statistics per user group |
//! | `table3_languages` | Table 3 — the ten most frequent languages |
//! | `tables45_config_grid` | Tables 4 & 5 — the configuration grid |
//! | `fig3_6_effectiveness` | Figures 3–6 — min/mean/max MAP of the 9 models × 8 sources per user group, with CHR/RAN baselines |
//! | `table6_sources` | Table 6 — min/mean/max MAP of all 13 sources × 4 user types |
//! | `fig7_time` | Figure 7 — TTime and ETime per model |
//! | `table7_best_configs` | Table 7 — the best configuration per model × source |
//!
//! A sweep measures each `(configuration, source)` pair once over all 60
//! users and stores per-user APs; group-level MAPs (All/IS/BU/IP) are
//! derived from those — valid because the paper, too, trains topic models
//! on the train sets of *all* users and context models per user.

#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod harness;

pub use harness::{HarnessOptions, Scale, SweepCache};
