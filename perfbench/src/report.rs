//! Turns episodes into the benchmark's metrics.
//!
//! End-to-end metrics come from untraced episodes; per-layer metrics from
//! the deterministic counts of the outcome, the simulator's coverage
//! counters and the spans of traced episodes.

use crate::outcome::Outcome;
use crate::run::Run;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `⌈q · len⌉`, as the workload crate computes it. 0 for an empty sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentile a sample supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tail {
    /// Percentile label (`p99`, `p95`, ...).
    pub label: &'static str,
    /// Its value.
    pub value: u64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest of p99, p95, p90, p75 and p50 that has at least
/// [`TAIL_MIN_BEYOND`] samples ranked beyond it, or `None` for a sample
/// too small for any.
pub fn tail(sorted: &[u64]) -> Option<Tail> {
    [
        (0.99, "p99"),
        (0.95, "p95"),
        (0.90, "p90"),
        (0.75, "p75"),
        (0.50, "p50"),
    ]
    .into_iter()
    .find_map(|(q, label)| {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        let beyond = sorted.len().saturating_sub(rank.max(1));
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            label,
            value: percentile(sorted, q),
            beyond,
        })
    })
}

/// Share of attempted client operations that failed.
pub fn failed_frac(o: &Outcome) -> f64 {
    ratio(o.failed() as f64, o.attempted() as f64)
}

/// Share of secondary views, inspected at read instants, that were behind
/// the frontier: the chance that a read at a uniformly random replica is
/// stale.
pub fn read_stale_frac(o: &Outcome) -> f64 {
    ratio(o.stale_views as f64, o.replica_views as f64)
}

/// Mean of the slowest tenth of an ascending sample, and never of fewer
/// than [`TAIL_MIN_BEYOND`] samples (all of them when the sample is
/// smaller). 0 for an empty sample.
pub fn tail_mean(sorted: &[u64]) -> f64 {
    let n = sorted
        .len()
        .div_ceil(10)
        .max(TAIL_MIN_BEYOND)
        .min(sorted.len());
    if n == 0 {
        return 0.0;
    }
    sorted[sorted.len() - n..].iter().sum::<u64>() as f64 / n as f64
}

/// Mean of a sample, 0 when empty.
fn mean(v: &[u64]) -> f64 {
    ratio(v.iter().sum::<u64>() as f64, v.len() as f64)
}

/// The end-to-end metrics of one untraced run.
///
/// Run-phase time and memory are each episode's median over its runs;
/// set-up is the median of every set-up sample; both times are scaled to
/// the reference host's speed ([`crate::host`]); everything else comes
/// from the episodes' common outcome.
///
/// Latency covers every operation a client waits on: a write until
/// `m + 1` matching replies, a locate until the mesh answers, a recovery
/// until the object is rebuilt (open-loop reads are local and never
/// wait). It is reported as a mean and a tail mean, not as percentiles:
/// on the simulator's uniform 20 ms mesh 90–100 % of commits take
/// exactly five hops (100 ms), which pins the median and often p90 to
/// that value on every seed, so only the slow operations tell runs
/// apart. Failures are reported as their complement, `ok_frac`: a
/// fault-free run fails nothing, and a metric that reads 0 has no
/// spread to bound.
///
/// # Panics
///
/// Panics on a run without episodes.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let o = &run.outcome;
    let lat = o.op_latencies_us();
    vec![
        metric("commits_per_ref_s", run.commits_per_ref_s(), "1/s"),
        metric("setup_s", median(&run.setups()), "s"),
        metric("peak_rss_mb", run.rss_mb(), "MB"),
        metric("op_mean_ms", mean(&lat) / 1e3, "ms"),
        metric("op_tail_ms", tail_mean(&lat) / 1e3, "ms"),
        metric("ok_frac", 1.0 - failed_frac(o), "frac"),
        metric("read_stale_frac", read_stale_frac(o), "frac"),
        metric(
            "wan_bytes_per_commit",
            ratio(o.count("net.bytes") as f64, o.committed as f64),
            "B/commit",
        ),
    ]
}

/// Sum of `kind` (`msgs` or `bytes`) over every message class starting
/// with `prefix`.
fn class_sum(o: &Outcome, kind: &str, prefix: &str) -> u64 {
    let key = format!("{kind}.{prefix}");
    o.counts
        .range(key.clone()..)
        .take_while(|(k, _)| k.starts_with(&key))
        .map(|(_, v)| v)
        .sum()
}

/// The four message classes carrying the most bytes, each with its share
/// of all bytes and of all messages.
pub fn class_shares(o: &Outcome) -> String {
    let (bytes, msgs) = (o.count("net.bytes") as f64, o.count("net.msgs") as f64);
    let mut classes: Vec<(&str, u64)> = o
        .counts
        .iter()
        .filter_map(|(k, &v)| Some((k.strip_prefix("bytes.")?, v)))
        .collect();
    classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let shares: Vec<String> = classes
        .iter()
        .take(4)
        .map(|&(class, b)| {
            let m = o.count(&format!("msgs.{class}")) as f64;
            format!(
                "{class} {:.1}% ({:.1}% of msgs)",
                100.0 * ratio(b as f64, bytes),
                100.0 * ratio(m, msgs)
            )
        })
        .collect();
    shares.join(", ")
}

/// The per-layer metrics of a traced run: counts from the episodes'
/// common outcome, span self times summed over the traced runs.
///
/// # Panics
///
/// Panics on a run without episodes.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let o = &run.outcome;
    let commits = o.committed as f64;
    let per_commit = |n: u64| ratio(n as f64, commits);
    let cls = |kind: &str, prefix: &str| per_commit(class_sum(o, kind, prefix));
    let layers = run.layers();
    let st = |name: &str| layers.get(name).map_or(0.0, |t| t.self_s);
    let run_s = run.run_s();
    let cov = run.coverage();
    let untraced_cprs = run.commits_per_ref_s();
    let traced_cprs = ratio(commits, run.traced_ref_run_s());
    let resends = o.count("event.repush/resend");
    let locate_msgs = class_sum(o, "msgs", "plaxton/locate")
        + class_sum(o, "msgs", "plaxton/found")
        + class_sum(o, "msgs", "plaxton/notfound");
    let c = |name: &str| o.count(name) as f64;
    vec![
        metric("sim.run_s", st("sim.run"), "s"),
        metric(
            "sim.events_per_commit",
            per_commit(o.count("sim.events")),
            "events/commit",
        ),
        metric(
            "sim.events_per_wall_s",
            ratio(c("sim.events"), run_s),
            "1/s",
        ),
        metric(
            "sim.pending_events_max",
            c("sim.pending_events_max"),
            "count",
        ),
        metric("sim.par_serial_frac", cov.serial_fraction(), "frac"),
        metric(
            "sim.par_windows_parallel",
            cov.windows_parallel as f64,
            "count",
        ),
        metric(
            "sim.par_fallback_events",
            cov.fallback_events as f64,
            "count",
        ),
        metric(
            "replica.antientropy_msgs_per_commit",
            cls("msgs", "replica/antientropy"),
            "msgs/commit",
        ),
        metric(
            "replica.antientropy_bytes_per_commit",
            cls("bytes", "replica/antientropy"),
            "B/commit",
        ),
        metric(
            "replica.tentative_msgs_per_commit",
            cls("msgs", "replica/tentative"),
            "msgs/commit",
        ),
        metric(
            "replica.tentative_bytes_per_commit",
            cls("bytes", "replica/tentative"),
            "B/commit",
        ),
        metric(
            "replica.commit_msgs_per_commit",
            per_commit(o.count("msgs.replica/commit")),
            "msgs/commit",
        ),
        metric(
            "replica.commit_bytes_per_commit",
            per_commit(o.count("bytes.replica/commit")),
            "B/commit",
        ),
        metric(
            "replica.fetch_msgs_per_commit",
            cls("msgs", "replica/fetch"),
            "msgs/commit",
        ),
        metric(
            "replica.commits_bytes_per_commit",
            cls("bytes", "replica/commits"),
            "B/commit",
        ),
        metric(
            "replica.heartbeat_msgs_per_commit",
            cls("msgs", "replica/heartbeat"),
            "msgs/commit",
        ),
        metric("replica.repush_resends", resends as f64, "count"),
        metric(
            "replica.repush_exhausted",
            c("event.repush/exhausted"),
            "count",
        ),
        metric(
            "replica.repush_recovered_frac",
            ratio(c("event.repush/recovered"), resends as f64),
            "frac",
        ),
        metric("replica.submit_s", st("replica.submit"), "s"),
        metric(
            "consensus.msgs_per_commit",
            cls("msgs", "pbft/"),
            "msgs/commit",
        ),
        metric(
            "consensus.bytes_per_commit",
            cls("bytes", "pbft/"),
            "B/commit",
        ),
        metric(
            "consensus.requests_per_commit",
            cls("msgs", "pbft/request"),
            "msgs/commit",
        ),
        metric(
            "consensus.viewchange_msgs",
            c("msgs.pbft/viewchange"),
            "count",
        ),
        metric("consensus.newview_msgs", c("msgs.pbft/newview"), "count"),
        metric(
            "update.retained_versions_max",
            c("update.retained_versions_max"),
            "count",
        ),
        metric(
            "update.current_slots_max",
            c("update.current_slots_max"),
            "count",
        ),
        metric("update.encrypt_s", st("update.encrypt"), "s"),
        metric(
            "store.records_applied_per_commit",
            per_commit(o.count("store.records_applied")),
            "count/commit",
        ),
        metric("store.records_dropped", c("store.records_dropped"), "count"),
        metric(
            "store.peak_retained_records",
            c("store.peak_retained_records"),
            "count",
        ),
        metric("store.blob_bytes", c("store.blob_bytes"), "B"),
        metric("store.fallback_reads", c("store.fallback_reads"), "count"),
        metric("archival.archive_s", st("archival.archive"), "s"),
        metric("archival.recover_s", st("archival.recover"), "s"),
        metric(
            "archival.bytes_per_object",
            ratio(class_sum(o, "bytes", "arch/") as f64, o.recoveries as f64),
            "B/object",
        ),
        metric(
            "archival.responses_per_recovery",
            ratio(c("msgs.arch/response"), o.recoveries as f64),
            "msgs/recovery",
        ),
        metric("plaxton.publish_s", st("plaxton.publish"), "s"),
        metric("plaxton.locate_s", st("plaxton.locate"), "s"),
        metric(
            "plaxton.msgs_per_locate",
            ratio(locate_msgs as f64, o.locates as f64),
            "msgs/locate",
        ),
        metric(
            "plaxton.locate_miss_frac",
            ratio(o.locate_misses as f64, o.locates as f64),
            "frac",
        ),
        metric("core.update_s", st("core.update"), "s"),
        metric("core.read_s", st("core.read"), "s"),
        metric("core.settle_s", st("core.settle"), "s"),
        metric("workload.schedule_s", st("workload.schedule"), "s"),
        metric(
            "workload.harness_s",
            st("workload.run") + st("workload.probe"),
            "s",
        ),
        metric("workload.generator_lag_ms", 0.0, "ms"),
        metric(
            "trace.overhead_commits_per_ref_s",
            traced_cprs - untraced_cprs,
            "1/s",
        ),
    ]
}

/// Renders the result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(o: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted(),
        o.failed(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::REFERENCE_NOMINAL_S;
    use crate::run::{EpisodeRuns, Report};

    /// A run of one episode that ran twice: 100 and 90 MB, 3 and 5 s of
    /// wall time, the second while the host ran at half speed.
    fn run(o: Outcome) -> Run {
        let report = |rss_mb, run_s, ref_s| Report {
            outcome: o.clone(),
            setup_s: 0.5,
            run_s,
            rss_mb,
            ref_s,
            ..Report::default()
        };
        Run {
            episodes: vec![EpisodeRuns {
                runs: vec![
                    report(100.0, 3.0, REFERENCE_NOMINAL_S),
                    report(90.0, 5.0, 2.0 * REFERENCE_NOMINAL_S),
                ],
                traced: None,
            }],
            outcome: o.clone(),
            references: vec![REFERENCE_NOMINAL_S],
        }
    }

    fn value(ms: &[Metric], name: &str) -> f64 {
        ms.iter()
            .find(|m| m.name == name)
            .expect("metric present")
            .value
    }

    #[test]
    fn timed_out_write_and_locate_miss_count_as_failures() {
        let o = Outcome {
            writes: 10,
            committed: 9,
            pending: 1,
            reads: 4,
            replica_views: 40,
            stale_views: 10,
            locates: 6,
            locate_misses: 1,
            latencies_us: (1..=9).map(|i| i * 1_000).collect(),
            ..Outcome::default()
        };
        assert_eq!(o.attempted(), 20);
        assert_eq!(o.failed(), 2);
        assert!((failed_frac(&o) - 0.1).abs() < 1e-12);
        let ms = end_to_end(&run(o.clone()));
        assert!((value(&ms, "ok_frac") - 0.9).abs() < 1e-12);
        assert!((value(&ms, "read_stale_frac") - 0.25).abs() < 1e-12);
        // Wall seconds 3 and 5 are 3 and 2.5 at the reference speed.
        assert!((value(&ms, "commits_per_ref_s") - 9.0 / 2.75).abs() < 1e-12);
        assert!((run(o.clone()).commits_per_wall_s() - 9.0 / 4.0).abs() < 1e-12);
        assert!((value(&ms, "peak_rss_mb") - 95.0).abs() < 1e-12);
        // Set-ups of 0.5 s are 0.5 and 0.25 s at the reference speed.
        assert!((value(&ms, "setup_s") - 0.375).abs() < 1e-12);
        assert!((value(&ms, "op_mean_ms") - 5.0).abs() < 1e-12);
        assert!((value(&ms, "op_tail_ms") - 5.0).abs() < 1e-12);
        let line = json_line(&o, &ms);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 20, \"failed\": 2, "));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(
            tail(&v),
            Some(Tail {
                label: "p99",
                value: 990,
                beyond: 10
            })
        );
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(tail(&v).map(|t| t.label), Some("p95"));
        let v: Vec<u64> = (1..=150).collect();
        assert_eq!(
            tail(&v),
            Some(Tail {
                label: "p90",
                value: 135,
                beyond: 15
            })
        );
        let v: Vec<u64> = (1..=16).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(
            tail(&v),
            Some(Tail {
                label: "p50",
                value: 10,
                beyond: 10
            })
        );
    }

    #[test]
    fn tail_mean_takes_the_slowest_tenth_but_at_least_ten() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(tail_mean(&v), (181..=200).sum::<u64>() as f64 / 20.0);
        let v: Vec<u64> = (1..=50).collect();
        assert_eq!(tail_mean(&v), (41..=50).sum::<u64>() as f64 / 10.0);
        assert_eq!(tail_mean(&[4, 6]), 5.0);
        assert_eq!(tail_mean(&[]), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn class_sums_stop_at_the_prefix() {
        let mut o = Outcome::default();
        for (k, v) in [
            ("msgs.pbft/commit", 3),
            ("msgs.pbft/request", 4),
            ("msgs.replica/commit", 5),
        ] {
            o.counts.insert(k.to_string(), v);
        }
        assert_eq!(class_sum(&o, "msgs", "pbft/"), 7);
        assert_eq!(class_sum(&o, "msgs", "replica/commit"), 5);
        assert_eq!(class_sum(&o, "bytes", "pbft/"), 0);
    }
}
