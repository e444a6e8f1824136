//! What one episode of a workload produced.
//!
//! [`Outcome`] holds everything that is a function of the seed alone:
//! client-visible results, simulated-time latencies and the per-layer
//! counts the program exposes. Two episodes with the same seed must give
//! equal outcomes; the run checks that. Wall-clock readings live in
//! [`Episode`] beside it.

use std::collections::BTreeMap;

use oceanstore_replica::{ObjectStore, StoreHealth};
use oceanstore_sim::{NetStats, ParCoverage};

/// A correctness violation: the program returned something it must not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic results of one episode.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Writes submitted (client updates).
    pub writes: u64,
    /// Writes that reached `m + 1` matching replies.
    pub committed: u64,
    /// Writes still uncommitted (or timed out) when the episode ended.
    pub pending: u64,
    /// Committed writes with no backing serialization slot (must be 0).
    pub lost: u64,
    /// Reads served.
    pub reads: u64,
    /// Reads whose replica was behind the owning ring's frontier.
    pub stale_reads: u64,
    /// Secondary views inspected for staleness (weighted by how often a
    /// read addresses the object).
    pub replica_views: u64,
    /// Those views that were behind the owning ring's frontier.
    pub stale_views: u64,
    /// Reads that found no replica satisfying their session guarantees in time.
    pub read_timeouts: u64,
    /// Location queries issued.
    pub locates: u64,
    /// Location queries answered `Ok(None)` or timed out.
    pub locate_misses: u64,
    /// Archive recoveries attempted.
    pub recoveries: u64,
    /// Archive recoveries that timed out.
    pub recovery_timeouts: u64,
    /// Commit latencies of committed writes, simulated microseconds, ascending.
    pub latencies_us: Vec<u64>,
    /// How long each answered locate and recovery call kept its client
    /// waiting, simulated microseconds, ascending.
    pub lookup_latencies_us: Vec<u64>,
    /// Named deterministic counters (message classes, events, store
    /// health, engine counts), summed or maxed as their names say.
    pub counts: BTreeMap<String, u64>,
}

impl Outcome {
    /// Client operations attempted.
    pub fn attempted(&self) -> u64 {
        self.writes + self.reads + self.locates + self.recoveries
    }

    /// Client operations failed: uncommitted writes, timed-out reads,
    /// missed locates and timed-out recoveries.
    pub fn failed(&self) -> u64 {
        self.pending + self.read_timeouts + self.locate_misses + self.recovery_timeouts
    }

    /// Every client wait: commit latencies and lookup latencies, ascending.
    pub fn op_latencies_us(&self) -> Vec<u64> {
        let mut v = [
            self.latencies_us.as_slice(),
            self.lookup_latencies_us.as_slice(),
        ]
        .concat();
        v.sort_unstable();
        v
    }

    /// The scalar counts, by name.
    fn scalars_mut(&mut self) -> [(&'static str, &mut u64); 13] {
        [
            ("writes", &mut self.writes),
            ("committed", &mut self.committed),
            ("pending", &mut self.pending),
            ("lost", &mut self.lost),
            ("reads", &mut self.reads),
            ("stale_reads", &mut self.stale_reads),
            ("replica_views", &mut self.replica_views),
            ("stale_views", &mut self.stale_views),
            ("read_timeouts", &mut self.read_timeouts),
            ("locates", &mut self.locates),
            ("locate_misses", &mut self.locate_misses),
            ("recoveries", &mut self.recoveries),
            ("recovery_timeouts", &mut self.recovery_timeouts),
        ]
    }

    /// Folds another episode's outcome into this one: counts add, except
    /// counters named `*_max` and `store.peak_retained_records`, which
    /// keep the larger value; latency samples are merged.
    pub fn absorb(&mut self, other: &Outcome) {
        let mut theirs = other.clone();
        for ((_, mine), (_, add)) in self.scalars_mut().into_iter().zip(theirs.scalars_mut()) {
            *mine += *add;
        }
        self.latencies_us.extend_from_slice(&other.latencies_us);
        self.latencies_us.sort_unstable();
        self.lookup_latencies_us
            .extend_from_slice(&other.lookup_latencies_us);
        self.lookup_latencies_us.sort_unstable();
        for (k, &v) in &other.counts {
            let e = self.counts.entry(k.clone()).or_default();
            if k.ends_with("_max") || k == "store.peak_retained_records" {
                *e = (*e).max(v);
            } else {
                *e += v;
            }
        }
    }

    /// Appends this outcome as text lines, `<key> <values...>`, the form
    /// an episode's child process reports it in.
    pub fn encode(&self, out: &mut String) {
        use std::fmt::Write as _;
        for (name, v) in self.clone().scalars_mut() {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, lat) in [
            ("latencies_us", &self.latencies_us),
            ("lookup_latencies_us", &self.lookup_latencies_us),
        ] {
            let vals: Vec<String> = lat.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "{name} {}", vals.join(" "));
        }
        for (k, v) in &self.counts {
            let _ = writeln!(out, "count {k} {v}");
        }
    }

    /// Takes one line written by [`Outcome::encode`]; false when `key`
    /// is not one of its keys.
    ///
    /// # Errors
    ///
    /// A malformed value.
    pub fn decode_line(&mut self, key: &str, rest: &str) -> Result<bool, String> {
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{key} {v:?}: {e}"));
        let list = |rest: &str| {
            rest.split_whitespace()
                .map(num)
                .collect::<Result<Vec<_>, _>>()
        };
        match key {
            "latencies_us" => self.latencies_us = list(rest)?,
            "lookup_latencies_us" => self.lookup_latencies_us = list(rest)?,
            "count" => {
                let (k, v) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("count {rest:?}"))?;
                self.counts.insert(k.to_string(), num(v)?);
            }
            _ => match self
                .scalars_mut()
                .into_iter()
                .find(|(name, _)| *name == key)
            {
                Some((_, slot)) => *slot = num(rest)?,
                None => return Ok(false),
            },
        }
        Ok(true)
    }

    /// A named counter, 0 when absent.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Records every message class and engine event of `stats`, plus the
    /// total bytes on the wire.
    pub fn record_net(&mut self, stats: &NetStats) {
        self.counts
            .insert("net.msgs".into(), stats.total_messages());
        self.counts.insert("net.bytes".into(), stats.total_bytes());
        for (class, c) in stats.classes() {
            self.counts.insert(format!("msgs.{class}"), c.messages);
            self.counts.insert(format!("bytes.{class}"), c.bytes);
        }
        for (event, n) in stats.events() {
            self.counts.insert(format!("event.{event}"), n);
        }
    }

    /// Sums replica-store health over `stores` (the per-store peak is a
    /// maximum, since it bounds one node's memory) and records the largest
    /// retained-version count and current slot count of any object.
    pub fn record_stores<'a>(&mut self, stores: impl Iterator<Item = &'a ObjectStore>) {
        let mut total = StoreHealth::default();
        let mut versions_max = 0usize;
        let mut slots_max = 0usize;
        for store in stores {
            let h = store.health();
            total.total_records_applied += h.total_records_applied;
            total.records_dropped += h.records_dropped;
            total.peak_retained_records = total.peak_retained_records.max(h.peak_retained_records);
            total.blob_bytes += h.blob_bytes;
            total.fallback_reads += h.fallback_reads;
            for guid in store.guids() {
                if let Some(st) = store.get(guid) {
                    versions_max = versions_max.max(st.data.retained_versions());
                    slots_max = slots_max.max(st.data.current().slot_count());
                }
            }
        }
        let c = &mut self.counts;
        c.insert("store.records_applied".into(), total.total_records_applied);
        c.insert("store.records_dropped".into(), total.records_dropped);
        c.insert(
            "store.peak_retained_records".into(),
            total.peak_retained_records,
        );
        c.insert("store.blob_bytes".into(), total.blob_bytes);
        c.insert("store.fallback_reads".into(), total.fallback_reads);
        c.insert("update.retained_versions_max".into(), versions_max as u64);
        c.insert("update.current_slots_max".into(), slots_max as u64);
    }
}

/// One episode: its deterministic outcome plus its wall-clock readings.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Seed-determined results.
    pub outcome: Outcome,
    /// Wall seconds to build and start the episode's deployment.
    pub setup_s: f64,
    /// Wall seconds from the first arrival to the end of drain (or of the
    /// last recovery).
    pub run_s: f64,
    /// The simulator's parallel-coverage counters (vary with threads and host).
    pub coverage: ParCoverage,
}

/// Sums the simulator's parallel-coverage counters of several episodes.
pub fn add_coverage(a: &mut ParCoverage, b: &ParCoverage) {
    a.windows_parallel += b.windows_parallel;
    a.windows_inline += b.windows_inline;
    a.fallback_entries += b.fallback_entries;
    a.fallback_events += b.fallback_events;
    a.serial_nanos += b.serial_nanos;
    a.epoch_nanos += b.epoch_nanos;
}
