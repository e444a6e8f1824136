//! The benchmark's named workloads.
//!
//! Each one stresses a different layer; `BENCHMARK.json` and
//! `BASELINE.md` say why each exists and where its time goes. A run of a
//! workload is a fixed list of episodes whose inputs all derive from the
//! run's seed: several smaller, differently seeded episodes average out
//! how much any one seed's arrivals happen to cost.

use oceanstore_sim::SimDuration;
use oceanstore_workload::WorkloadSpec;

use crate::archive::{self, ArchiveSpec};
use crate::openloop;
use crate::outcome::{Episode, Violation};
use crate::trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["fanout-1k", "hot-commit", "fetch-storm", "archive-recover"];

/// One runnable episode.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Open-loop Poisson arrivals over `build_deployment`.
    OpenLoop(WorkloadSpec),
    /// Write, archive and recover objects through the `OceanStore` facade.
    Archive(ArchiveSpec),
}

/// The open-loop shape every deployment workload shares: m = 1, a 20 ms
/// mesh, 4 rings, Zipf(0.9) popularity and 80 % writes.
fn open_loop(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        rings: 4,
        m: 1,
        clients: 4,
        zipf_s: 0.9,
        write_fraction: 0.8,
        latency: SimDuration::from_millis(20),
        seed,
        threads: 1,
        ..WorkloadSpec::default()
    }
}

/// The seed of episode `j` of a run seeded with `seed`.
fn episode_seed(seed: u64, j: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(j)
}

/// The episodes of workload `name` for a run seeded with `seed`, or
/// `None` for an unknown name. `cpus` caps the simulator's threads.
pub fn get(name: &str, seed: u64, cpus: usize) -> Option<Vec<Workload>> {
    let (episodes, make): (u64, fn(u64, usize) -> Workload) = match name {
        // Per-secondary background work at 1,000 secondaries.
        "fanout-1k" => (5, |seed, cpus| {
            Workload::OpenLoop(WorkloadSpec {
                secondaries: 1_000,
                objects: 64,
                rate: 30.0,
                duration: SimDuration::from_secs(4),
                drain: SimDuration::from_secs(1),
                threads: cpus.clamp(1, 2),
                ..open_loop(seed)
            })
        }),
        // A few hot objects at a high commit rate: consensus, signing,
        // version application and the store.
        "hot-commit" => (8, |seed, _| {
            Workload::OpenLoop(WorkloadSpec {
                secondaries: 32,
                objects: 8,
                rate: 400.0,
                duration: SimDuration::from_secs(3),
                drain: SimDuration::from_secs(2),
                ..open_loop(seed)
            })
        }),
        // The hot-commit deployment past the catch-up cliff.
        "fetch-storm" => (4, |seed, _| {
            Workload::OpenLoop(WorkloadSpec {
                secondaries: 32,
                objects: 8,
                rate: 1_500.0,
                duration: SimDuration::from_secs(1),
                drain: SimDuration::from_millis(800),
                ..open_loop(seed)
            })
        }),
        // Large encrypted objects through update, location and archival.
        "archive-recover" => (7, |seed, _| {
            Workload::Archive(ArchiveSpec {
                secondaries: 32,
                objects: 10,
                object_rate: 20.0,
                update_gap: SimDuration::from_millis(60),
                blocks: 64,
                block_bytes: 4096,
                updated_blocks: 8,
                k: 16,
                n: 32,
                settle: SimDuration::from_secs(1),
                latency: SimDuration::from_millis(20),
                seed,
            })
        }),
        _ => return None,
    };
    Some(
        (0..episodes)
            .map(|j| make(episode_seed(seed, j), cpus))
            .collect(),
    )
}

impl Workload {
    /// Runs one episode.
    ///
    /// # Errors
    ///
    /// The [`Violation`] the episode's correctness checks found.
    pub fn run(&self, tr: &mut Tracer) -> Result<Episode, Violation> {
        match self {
            Workload::OpenLoop(spec) => openloop::run(spec, tr),
            Workload::Archive(spec) => archive::run(spec, tr),
        }
    }

    /// Simulator threads the episode runs on.
    pub fn threads(&self) -> usize {
        match self {
            Workload::OpenLoop(spec) => spec.threads.max(1),
            Workload::Archive(_) => 1,
        }
    }

    /// Wall seconds to build and start the deployment, without running it.
    pub fn setup_only(&self) -> f64 {
        let start = std::time::Instant::now();
        let elapsed = match self {
            Workload::OpenLoop(spec) => {
                let dep = openloop::build(spec);
                let t = start.elapsed();
                drop(dep);
                t
            }
            Workload::Archive(spec) => {
                let ocean = archive::build(spec);
                let t = start.elapsed();
                drop(ocean);
                t
            }
        };
        elapsed.as_secs_f64()
    }
}
