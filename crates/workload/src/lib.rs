//! Open-loop workload generation for sharded OceanStore deployments.
//!
//! The paper argues for a system "constructed from untrusted
//! infrastructure" that still scales to "potentially billions of users";
//! this crate measures how far the reproduction's consensus path actually
//! goes. It drives a [`Deployment`] with an *open-loop* arrival process —
//! requests arrive on a Poisson schedule at a fixed offered rate whether
//! or not earlier requests have finished, the standard way to expose
//! saturation and coordinated omission that closed-loop (submit → wait →
//! submit) harnesses hide.
//!
//! A run reports committed-updates/s against offered load plus the
//! p50/p99/p999 commit-latency profile, and checks a *no committed-update
//! loss* oracle: every update the client saw commit (`m + 1` matching
//! replies) must occupy a serialization slot on the owning ring's
//! primaries.

pub mod zipf;

use std::collections::HashMap;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts};
use oceanstore_sim::{NodeId, ParCoverage, SimDuration, SimTime};
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::zipf::Zipf;

pub use oceanstore_consensus::messages::RequestId;

/// Parameters of one open-loop run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Consensus rings sharing the secondary substrate.
    pub rings: usize,
    /// Faults tolerated per ring (`3m + 1` primaries each).
    pub m: usize,
    /// Secondary replicas (the "nodes" of a scale-out run).
    pub secondaries: usize,
    /// Client population; writes rotate round-robin across it.
    pub clients: usize,
    /// Distinct objects addressed by the workload.
    pub objects: usize,
    /// Zipf popularity exponent over the objects (0 = uniform).
    pub zipf_s: f64,
    /// Fraction of arrivals that are writes; the rest are reads served
    /// locally by a random secondary's committed view.
    pub write_fraction: f64,
    /// Offered load in arrivals per simulated second.
    pub rate: f64,
    /// Arrival window: requests are injected in `[0, duration)`.
    pub duration: SimDuration,
    /// Settle time after the last arrival before outcomes are counted.
    /// Kept finite on purpose — a saturated tier does *not* get unlimited
    /// time to drain, which is what makes saturation observable.
    pub drain: SimDuration,
    /// Uniform one-way mesh latency.
    pub latency: SimDuration,
    /// RNG/key seed (arrival schedule and deployment both derive from it).
    pub seed: u64,
    /// Simulator worker threads (1 = sequential). Any value yields the
    /// identical schedule and report; threads only change wall-clock time.
    pub threads: usize,
    /// Optional mid-run random-drop burst. Drop verdicts are counter-mode
    /// hashes of each routing attempt (never a shared RNG stream), so the
    /// burst changes neither the determinism contract nor the parallel
    /// schedule: the report stays identical at every thread count.
    pub drop_phase: Option<DropPhase>,
}

/// A random-drop burst in the middle of a run: `drop_prob` is raised to
/// `prob` at `start` and restored to zero at `end` (both measured in
/// simulated time since the run began), at exact simulated instants so
/// the toggle is identical at every thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropPhase {
    /// Burst start, relative to the run's start.
    pub start: SimDuration,
    /// Burst end, relative to the run's start.
    pub end: SimDuration,
    /// Random-drop probability while the burst is active.
    pub prob: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            rings: 1,
            m: 1,
            secondaries: 16,
            clients: 2,
            objects: 32,
            zipf_s: 0.9,
            write_fraction: 0.8,
            rate: 20.0,
            duration: SimDuration::from_secs(10),
            drain: SimDuration::from_secs(4),
            latency: SimDuration::from_millis(20),
            seed: 1,
            threads: 1,
            drop_phase: None,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    /// Writes injected during the arrival window.
    pub offered: u64,
    /// Writes that reached `m + 1` matching replies by the end of drain.
    pub committed: u64,
    /// Reads served (from secondaries' committed views).
    pub reads: u64,
    /// Reads that observed fewer committed records than the owning ring's
    /// frontier at read time (dissemination lag).
    pub stale_reads: u64,
    /// Committed outcomes with no backing serialization slot on the owning
    /// ring — the no-loss oracle; always 0 for a correct tier.
    pub lost: u64,
    /// Offered write load, per simulated second.
    pub offered_per_sec: f64,
    /// Committed throughput, per simulated second of the arrival window.
    pub committed_per_sec: f64,
    /// Commit-latency percentiles over committed writes, microseconds.
    pub p50_us: u64,
    /// 99th percentile commit latency, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile commit latency, microseconds.
    pub p999_us: u64,
    /// Worst observed commit latency, microseconds.
    pub max_us: u64,
    /// Requests still uncommitted when drain ended.
    pub pending: u64,
    /// Largest per-replica peak of retained commit records — the
    /// bounded-memory gauge for the record log. Stays near the retention
    /// window on long runs while `store_records_applied` keeps growing.
    pub peak_retained_records: u64,
    /// Commit records applied across every replica store (monotonic with
    /// run length).
    pub store_records_applied: u64,
    /// Commit records truncated below the certified low-water mark across
    /// every replica store.
    pub store_records_dropped: u64,
    /// Block puts elided by dedup across every replica store.
    pub dedup_hits: u64,
    /// Bytes those elided puts saved.
    pub dedup_bytes_saved: u64,
    /// Block reads served by the in-memory replica because the blob
    /// backend missed — 0 on a healthy backend (store-health oracle).
    pub store_fallback_reads: u64,
}

impl WorkloadReport {
    /// Whether the tier kept up: every offered write committed within the
    /// run. A `false` here at a given rate is the saturation point.
    pub fn kept_up(&self) -> bool {
        self.committed == self.offered
    }

    /// Bounded-memory oracle for the replica record log: no store's peak
    /// retained records may exceed the retention window (plus the
    /// uncertified in-flight tail) per addressed object.
    pub fn records_bounded(&self, objects: usize, slack: u64) -> bool {
        self.peak_retained_records
            <= objects as u64 * (oceanstore_replica::RECORD_RETENTION + slack)
    }
}

/// Sums replica-store health over every primary and secondary in the
/// deployment; `peak_retained_records` takes the per-store maximum (it is
/// a per-node memory bound, not a fleet total).
fn collect_store_health(dep: &Deployment) -> oceanstore_replica::StoreHealth {
    let mut total = oceanstore_replica::StoreHealth::default();
    let stores = dep
        .rings
        .iter()
        .flat_map(|r| r.primaries.iter())
        .filter_map(|&p| dep.sim.node(p).as_primary().map(|n| &n.store))
        .chain(
            dep.secondaries
                .iter()
                .filter_map(|&s| dep.sim.node(s).as_secondary().map(|n| &n.store)),
        );
    for store in stores {
        let h = store.health();
        total.objects += h.objects;
        total.retained_records += h.retained_records;
        total.peak_retained_records = total.peak_retained_records.max(h.peak_retained_records);
        total.total_records_applied += h.total_records_applied;
        total.records_dropped += h.records_dropped;
        total.blob_count += h.blob_count;
        total.blob_bytes += h.blob_bytes;
        total.dedup_hits += h.dedup_hits;
        total.dedup_bytes_saved += h.dedup_bytes_saved;
        total.fallback_reads += h.fallback_reads;
        total.blob_put_failures += h.blob_put_failures;
    }
    total
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { object: usize },
    Read { object: usize, secondary: usize },
}

/// The open-loop arrival schedule: Poisson arrivals (exponential
/// inter-arrival gaps) at `spec.rate`, each tagged with a Zipf-popular
/// object and a read/write coin. Generated up front so injection cannot
/// be back-pressured by the system under test.
fn arrival_schedule(spec: &WorkloadSpec) -> Vec<(SimTime, Op)> {
    let zipf = Zipf::new(spec.objects, spec.zipf_s);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let horizon = spec.duration.as_micros() as f64 / 1e6;
    let mut schedule = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / spec.rate;
        if t >= horizon {
            return schedule;
        }
        let object = zipf.sample(&mut rng);
        let op = if rng.gen_range(0.0..1.0) < spec.write_fraction {
            Op::Write { object }
        } else {
            Op::Read { object, secondary: rng.gen_range(0..spec.secondaries) }
        };
        schedule.push((SimTime::ZERO + SimDuration::from_micros((t * 1e6) as u64), op));
    }
}

/// The object GUID of workload rank `i`.
fn object_guid(i: usize) -> Guid {
    Guid::from_label(&format!("wl-obj-{i}"))
}

/// Highest committed serialization index for `object` across the owning
/// ring's primaries — the authoritative frontier reads are judged against.
fn ring_frontier(dep: &Deployment, object: &Guid) -> u64 {
    dep.ring_for(object)
        .primaries
        .iter()
        .filter_map(|&p| dep.sim.node(p).as_primary())
        .filter_map(|prim| prim.store.get(object).map(|st| st.next_index))
        .max()
        .unwrap_or(0)
}

/// Nearest-rank percentile of an ascending latency sample: the value at
/// rank `⌈q · len⌉` (1-based, clamped to the sample). The previous
/// `((len − 1) · q).round()` interpolation over-reported the median (for
/// 10 samples it returned the 6th, not the 5th) and could under-report
/// tails on small samples; nearest-rank always answers with an observed
/// value at or above the requested quantile.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs one open-loop workload and reports throughput, latency, and the
/// no-loss oracle.
pub fn run_workload(spec: &WorkloadSpec) -> WorkloadReport {
    run_workload_with_coverage(spec).0
}

/// [`run_workload`] plus the simulator's parallel-coverage counters.
///
/// Coverage is returned *beside* the report, never inside it: the report
/// is asserted bit-identical across thread counts, while coverage
/// (windows scheduled, fallbacks taken, serial-fraction wall time)
/// legitimately varies with the thread count and the host.
pub fn run_workload_with_coverage(spec: &WorkloadSpec) -> (WorkloadReport, ParCoverage) {
    assert!(spec.rate > 0.0, "offered rate must be positive");
    assert!(
        (0.0..=1.0).contains(&spec.write_fraction),
        "write fraction must be a probability"
    );
    let mut dep = build_deployment(&DeploymentOpts {
        rings: spec.rings,
        m: spec.m,
        secondaries: spec.secondaries,
        clients: spec.clients,
        latency: spec.latency,
        seed: spec.seed,
        ..DeploymentOpts::default()
    });
    dep.sim.set_threads(spec.threads.max(1));
    let schedule = arrival_schedule(spec);

    // Drop-phase toggles, applied at exact simulated instants (not at the
    // nearest arrival) so the fault window is identical for every thread
    // count and arrival schedule.
    let toggles: Vec<(SimTime, f64)> = spec.drop_phase.map_or_else(Vec::new, |p| {
        assert!(p.start <= p.end, "drop phase must not end before it starts");
        vec![(SimTime::ZERO + p.start, p.prob), (SimTime::ZERO + p.end, 0.0)]
    });
    let mut next_toggle = 0usize;
    macro_rules! advance_to {
        ($to:expr) => {{
            let to = $to;
            while next_toggle < toggles.len() && toggles[next_toggle].0 <= to {
                let (at, prob) = toggles[next_toggle];
                dep.sim.run_until(at);
                dep.sim.set_drop_prob(prob);
                next_toggle += 1;
            }
            dep.sim.run_until(to);
        }};
    }

    // Inject the schedule. Writes rotate over the client population and
    // are tracked as (client node, request id, object rank) for outcome
    // collection; reads probe a secondary's committed view against the
    // owning ring's frontier at that instant.
    let mut submissions: Vec<(NodeId, RequestId, usize)> = Vec::new();
    let mut reads = 0u64;
    let mut stale_reads = 0u64;
    let mut next_client = 0usize;
    for (at, op) in schedule {
        advance_to!(at);
        match op {
            Op::Write { object } => {
                let client = dep.clients[next_client % dep.clients.len()];
                next_client += 1;
                let guid = object_guid(object);
                let marker = submissions.len() as u64;
                let update = Update::unconditional(vec![Action::Append {
                    ciphertext: marker.to_le_bytes().to_vec(),
                }]);
                let id = dep.sim.with_node_ctx(client, |node, ctx| {
                    node.as_client_mut().expect("client node").submit(ctx, guid, &update)
                });
                submissions.push((client, id, object));
            }
            Op::Read { object, secondary } => {
                let guid = object_guid(object);
                let have = dep
                    .sim
                    .node(dep.secondaries[secondary])
                    .as_secondary()
                    .expect("secondary node")
                    .store
                    .get(&guid)
                    .map_or(0, |st| st.next_index);
                reads += 1;
                if have < ring_frontier(&dep, &guid) {
                    stale_reads += 1;
                }
            }
        }
    }
    advance_to!(SimTime::ZERO + spec.duration + spec.drain);

    // Collect outcomes and run the no-loss oracle: each object's committed
    // count must be covered by serialization slots on its owning ring.
    let mut latencies = Vec::new();
    let mut pending = 0u64;
    let mut committed_per_object: HashMap<usize, u64> = HashMap::new();
    for &(client, id, object) in &submissions {
        let outcome =
            dep.sim.node(client).as_client().expect("client node").outcome(id).copied();
        match outcome {
            Some(o) => {
                latencies.push(o.committed_at.saturating_since(o.sent_at).as_micros());
                *committed_per_object.entry(object).or_default() += 1;
            }
            None => pending += 1,
        }
    }
    let lost: u64 = committed_per_object
        .iter()
        .map(|(&object, &count)| {
            count.saturating_sub(ring_frontier(&dep, &object_guid(object)))
        })
        .sum();
    latencies.sort_unstable();

    let offered = submissions.len() as u64;
    let committed = latencies.len() as u64;
    let window = spec.duration.as_micros() as f64 / 1e6;
    let store = collect_store_health(&dep);
    let coverage = dep.sim.par_coverage();
    let report = WorkloadReport {
        offered,
        committed,
        reads,
        stale_reads,
        lost,
        offered_per_sec: offered as f64 / window,
        committed_per_sec: committed as f64 / window,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
        p999_us: percentile(&latencies, 0.999),
        max_us: latencies.last().copied().unwrap_or(0),
        pending,
        peak_retained_records: store.peak_retained_records,
        store_records_applied: store.total_records_applied,
        store_records_dropped: store.records_dropped,
        dedup_hits: store.dedup_hits,
        dedup_bytes_saved: store.dedup_bytes_saved,
        store_fallback_reads: store.fallback_reads,
    };
    (report, coverage)
}

/// Runs `spec` at each offered rate in turn (same seed, fresh deployment
/// per rate) — the saturation sweep: committed-updates/s tracks the
/// offered rate until the tier saturates, then plateaus while tail
/// latency and pending counts blow up.
pub fn sweep(spec: &WorkloadSpec, rates: &[f64]) -> Vec<WorkloadReport> {
    rates
        .iter()
        .map(|&rate| run_workload(&WorkloadSpec { rate, ..spec.clone() }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        // Ten known samples: nearest-rank p50 is the 5th value (the old
        // rounding interpolation returned the 6th), and the tails pin to
        // the 10th.
        let v: Vec<u64> = (1..=10).map(|i| i * 10).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.90), 90);
        assert_eq!(percentile(&v, 0.99), 100);
        assert_eq!(percentile(&v, 0.999), 100);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), 0, "empty sample reports 0");
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[7], 0.999), 7);
        let v = [1u64, 2, 3, 4];
        assert_eq!(percentile(&v, 0.0), 1, "q = 0 clamps to the minimum");
        assert_eq!(percentile(&v, 0.25), 1);
        assert_eq!(percentile(&v, 0.50), 2);
        assert_eq!(percentile(&v, 0.75), 3);
        assert_eq!(percentile(&v, 0.99), 4);
        assert_eq!(percentile(&v, 1.0), 4);
    }

    #[test]
    fn percentile_rank_five_of_a_thousand_nines() {
        // 1000 samples 0..1000: p999 must be the 999th rank, p50 the
        // 500th — exact nearest-rank indices at a size where an off-by-one
        // is visible.
        let v: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&v, 0.50), 499);
        assert_eq!(percentile(&v, 0.99), 989);
        assert_eq!(percentile(&v, 0.999), 998);
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            secondaries: 8,
            objects: 8,
            rate: 10.0,
            duration: SimDuration::from_secs(5),
            drain: SimDuration::from_secs(3),
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn underloaded_run_commits_everything() {
        let report = run_workload(&small_spec());
        assert!(report.offered > 20, "5 s at 10/s must offer real load");
        assert!(report.kept_up(), "underloaded tier fell behind: {report:?}");
        assert_eq!(report.lost, 0, "no-loss oracle");
        assert_eq!(report.pending, 0);
        assert!(report.p50_us > 0, "commit latency must be measurable");
        assert!(report.p99_us >= report.p50_us);
        assert!(report.p999_us >= report.p99_us);
        assert!(report.max_us >= report.p999_us);
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(run_workload(&small_spec()), run_workload(&small_spec()));
    }

    #[test]
    fn report_is_identical_at_any_thread_count() {
        let sequential = run_workload(&small_spec());
        for threads in [2usize, 8] {
            let parallel = run_workload(&WorkloadSpec { threads, ..small_spec() });
            assert_eq!(parallel, sequential, "threads={threads} changed the report");
        }
    }

    #[test]
    fn read_write_mix_produces_reads() {
        let spec = WorkloadSpec { write_fraction: 0.5, ..small_spec() };
        let report = run_workload(&spec);
        assert!(report.reads > 5, "half the arrivals must be reads");
        assert!(report.offered > 5, "half the arrivals must be writes");
        assert!(report.stale_reads <= report.reads);
    }

    #[test]
    fn sharded_run_commits_across_rings() {
        let spec = WorkloadSpec { rings: 4, secondaries: 15, ..small_spec() };
        let report = run_workload(&spec);
        assert!(report.kept_up(), "4-ring tier fell behind: {report:?}");
        assert_eq!(report.lost, 0);
    }

    #[test]
    fn overload_is_visible_as_saturation() {
        // Far beyond a single ring's service rate at this latency: the
        // queue grows without bound during the window (commit latency is
        // hundreds of ms against a ~66 ms unloaded baseline) and the
        // bounded drain cannot absorb the backlog.
        let spec = WorkloadSpec {
            rate: 2_000.0,
            duration: SimDuration::from_secs(2),
            drain: SimDuration::from_millis(250),
            write_fraction: 1.0,
            ..small_spec()
        };
        let report = run_workload(&spec);
        assert!(report.offered > 3_000);
        assert!(
            !report.kept_up(),
            "an open-loop overload must saturate: {report:?}"
        );
        assert!(
            report.p99_us > 250_000,
            "overload must show queueing in the tail: {report:?}"
        );
        assert_eq!(report.lost, 0, "saturation must not lose committed updates");
        assert_eq!(report.committed + report.pending, report.offered);
    }

    #[test]
    fn long_horizon_record_log_stays_bounded() {
        // Hammer two objects with writes only, long enough that each
        // object certifies several retention windows' worth of commits:
        // the record log must truncate (drops observed, totals far above
        // what any store retains) while committed data stays lossless.
        let spec = WorkloadSpec {
            secondaries: 8,
            objects: 2,
            zipf_s: 0.0,
            write_fraction: 1.0,
            rate: 40.0,
            duration: SimDuration::from_secs(20),
            drain: SimDuration::from_secs(4),
            ..WorkloadSpec::default()
        };
        let report = run_workload(&spec);
        assert!(report.offered > 600, "20 s at 40/s must offer real load");
        assert_eq!(report.lost, 0, "truncation must never lose committed updates");
        assert!(
            report.store_records_applied > report.offered * 4,
            "every commit lands on 4 primaries and 8 secondaries; the fleet \
             total must dwarf the offered count"
        );
        assert!(report.store_records_dropped > 0, "long run must actually truncate");
        assert!(
            report.records_bounded(spec.objects, 64),
            "replica memory unbounded: peak {} retained records",
            report.peak_retained_records
        );
        assert_eq!(report.store_fallback_reads, 0, "healthy backend serves all blocks");
    }

    #[test]
    fn parallel_drop_phase_keeps_report_identical_and_stays_parallel() {
        // A mid-run drop burst must not change the report at any thread
        // count (counter-mode drop verdicts) and must not knock the
        // scheduler off the parallel path (the old engine-RNG scheme
        // forced a sequential fallback here).
        let spec = WorkloadSpec {
            drop_phase: Some(DropPhase {
                start: SimDuration::from_secs(1),
                end: SimDuration::from_secs(3),
                prob: 0.1,
            }),
            ..small_spec()
        };
        let (seq_report, seq_cov) = run_workload_with_coverage(&spec);
        assert_eq!(seq_cov.windows_parallel, 0, "threads=1 must never spawn a window");
        assert_eq!(seq_cov.fallback_entries, 0, "threads=1 must never fall back");
        assert_eq!(seq_report.lost, 0, "drop burst must not lose committed updates");
        for threads in [2usize, 8] {
            let (report, cov) =
                run_workload_with_coverage(&WorkloadSpec { threads, ..spec.clone() });
            assert_eq!(report, seq_report, "threads={threads} changed the report");
            assert!(
                cov.windows_parallel + cov.windows_inline > 0,
                "threads={threads}: no parallel windows scheduled"
            );
            assert_eq!(
                cov.fallback_entries, 0,
                "threads={threads}: drop burst forced a sequential fallback"
            );
        }
    }

    /// Scale-out smoke at the paper's target node counts. Ignored by
    /// default (minutes of wall clock); CI runs the 500-node smoke binary
    /// instead, and `cargo test -p oceanstore-workload -- --ignored`
    /// exercises this one.
    #[test]
    #[ignore = "10k-node run; minutes of wall clock"]
    fn ten_thousand_node_run_commits() {
        let spec = WorkloadSpec {
            rings: 4,
            secondaries: 10_000,
            clients: 4,
            objects: 64,
            rate: 30.0,
            duration: SimDuration::from_secs(5),
            drain: SimDuration::from_secs(4),
            ..WorkloadSpec::default()
        };
        let report = run_workload(&spec);
        assert!(report.kept_up(), "10k-node tier fell behind: {report:?}");
        assert_eq!(report.lost, 0);
    }
}
