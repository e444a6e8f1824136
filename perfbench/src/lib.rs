//! End-to-end benchmark of the OceanStore reproduction.
//!
//! Four named workloads drive the system through its public APIs only:
//! three open-loop workloads over `oceanstore_replica::build_deployment`
//! and the simulator, and one archival workload through
//! `oceanstore_core::system::OceanStore`. A run prints client-facing
//! metrics (throughput per second at a reference host speed, set-up
//! time, memory, commit latency, failures, staleness, WAN bytes); a
//! traced run adds a per-layer ledger from spans around every call into
//! a layer and from the counters the program exposes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod host;
pub mod openloop;
pub mod outcome;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
