//! Experiment kernels regenerating every quantitative figure and table of
//! the OceanStore paper, plus the measurable §5 status claims. See
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured results. The `report` binary prints all tables.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig6;
pub mod s1_bloom;
pub mod s2_plaxton;
pub mod s3_fragments;
pub mod s4_latency;
pub mod s5_prefetch;
pub mod table1;
