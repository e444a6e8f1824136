//! The archival workload, driven through the `OceanStore` facade.
//!
//! Objects arrive open-loop: each object's encrypted initial write at a
//! Poisson instant, its second update an exponential gap later, whether
//! or not earlier writes have committed. At every arrival the benchmark
//! notes how many secondaries lag behind the primaries on each object
//! written so far. Once every write has committed
//! and the tier has settled, each object gets a read-your-writes read,
//! publication into the location mesh plus a locate, and erasure-coded
//! archival. Then a third of the servers go down and every archived
//! version is recovered from the survivors and compared byte for byte.
//! The facade's read, locate, archive and recover calls block until they
//! finish in simulated time, so that phase runs one object at a time.

use std::time::Instant;

use oceanstore_consensus::messages::RequestId;
use oceanstore_core::system::{ArchiveRef, CoreError, ObjectRef, OceanStore, UpdateOutcome};
use oceanstore_sim::{NodeId, SimDuration, SimTime};
use oceanstore_update::ops;
use oceanstore_update::session::{GuaranteeSet, SessionState};
use oceanstore_update::Update;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::outcome::{Episode, Outcome, Violation};
use crate::trace::Tracer;

/// Parameters of the archival workload.
#[derive(Debug, Clone)]
pub struct ArchiveSpec {
    /// Secondary replicas (archive sites are the primaries plus these).
    pub secondaries: usize,
    /// Objects written, archived and recovered.
    pub objects: usize,
    /// Object arrivals per simulated second (Poisson).
    pub object_rate: f64,
    /// Mean simulated time from an object's first write to its second
    /// (exponential).
    pub update_gap: SimDuration,
    /// Blocks per object.
    pub blocks: usize,
    /// Bytes per block.
    pub block_bytes: usize,
    /// Blocks the second update replaces.
    pub updated_blocks: usize,
    /// Erasure code: any `k` of `n` fragments reconstruct.
    pub k: usize,
    /// Fragments per archived version.
    pub n: usize,
    /// Simulated time the tier settles between the writes and the reads.
    pub settle: SimDuration,
    /// Uniform one-way mesh latency.
    pub latency: SimDuration,
    /// Seed of the deployment, the arrivals and the object contents.
    pub seed: u64,
}

/// The facade's own polling step while it waits for a commit; the write
/// phase advances time in the same steps.
const POLL: SimDuration = SimDuration::from_millis(10);
/// How long the write phase waits for outstanding commits.
const WRITE_BUDGET: SimDuration = SimDuration::from_secs(30);

/// One object's client-side state.
struct Item {
    obj: ObjectRef,
    initial: Vec<Vec<u8>>,
    /// Positions and contents of the second update.
    edits: Vec<(usize, Vec<u8>)>,
    /// Content after both updates.
    expected: Vec<Vec<u8>>,
}

/// One scheduled write: offset from the start of the run, object, and
/// the version it must produce (1 for the initial write, 2 for the update).
type Arrival = (SimDuration, usize, u64);

/// Builds and starts the deployment `spec` describes.
pub fn build(spec: &ArchiveSpec) -> OceanStore {
    OceanStore::builder()
        .secondaries(spec.secondaries)
        .latency(spec.latency)
        .archival_code(spec.k, spec.n)
        .seed(spec.seed)
        .build()
}

/// An exponential draw with the given mean.
fn exponential(rng: &mut ChaCha8Rng, mean_us: f64) -> SimDuration {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    SimDuration::from_micros((-u.ln() * mean_us) as u64)
}

/// Seeded object contents and the write arrival schedule.
fn make_items(spec: &ArchiveSpec, ocean: &mut OceanStore) -> (Vec<Item>, Vec<Arrival>) {
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ 0x0ce4_57a0_4e00_0001);
    let random_block = |rng: &mut ChaCha8Rng| -> Vec<u8> {
        let mut b = vec![0u8; spec.block_bytes];
        rng.fill_bytes(&mut b);
        b
    };
    let mut items = Vec::with_capacity(spec.objects);
    let mut arrivals = Vec::with_capacity(2 * spec.objects);
    let mut at = SimDuration::ZERO;
    for i in 0..spec.objects {
        let obj = ocean.create_object(0, &format!("bench-archive-{i}"));
        let initial: Vec<Vec<u8>> = (0..spec.blocks).map(|_| random_block(&mut rng)).collect();
        let mut positions: Vec<usize> = (0..spec.blocks).collect();
        positions.shuffle(&mut rng);
        let edits: Vec<(usize, Vec<u8>)> = positions[..spec.updated_blocks]
            .iter()
            .map(|&p| (p, random_block(&mut rng)))
            .collect();
        let mut expected = initial.clone();
        for (p, b) in &edits {
            expected[*p] = b.clone();
        }
        items.push(Item {
            obj,
            initial,
            edits,
            expected,
        });
        at = at + exponential(&mut rng, 1e6 / spec.object_rate);
        arrivals.push((at, i, 1));
        arrivals.push((
            at + exponential(&mut rng, spec.update_gap.as_micros() as f64),
            i,
            2,
        ));
    }
    // Stable: an object's second write never sorts before its first.
    arrivals.sort_by_key(|&(at, _, _)| at);
    (items, arrivals)
}

/// Decides what a failed read-your-writes read of `item` means. The
/// facade reads the first live secondary holding version `written` or
/// later, and reports content it cannot decode as no suitable replica, so
/// the failure is a timeout only when no live secondary holds that
/// version. Otherwise that secondary's content is read directly.
///
/// # Errors
///
/// A [`Violation`] when a live secondary holds the written version: its
/// content does not decode to the written bytes, or it does and the
/// facade still failed.
fn check_failed_read(ocean: &mut OceanStore, item: &Item, written: u64) -> Result<(), Violation> {
    let secondaries = ocean.secondaries().to_vec();
    let sim = &*ocean.sim();
    let holder = secondaries.iter().find_map(|&sec| {
        if sim.is_down(sec) {
            return None;
        }
        let data = sim
            .node(sec)
            .replica
            .as_secondary()?
            .committed_view(&item.obj.guid)?;
        (data.version_number() >= written).then_some((sec, data))
    });
    let Some((sec, data)) = holder else {
        return Ok(());
    };
    let why = match ops::read_object(&item.obj.keys, data.current()) {
        Ok(content) if content == item.expected => {
            "decodes to the written bytes, yet the read failed"
        }
        Ok(_) => "decodes to other bytes than were written",
        Err(_) => "does not decode",
    };
    Err(Violation(format!(
        "{}: read-your-writes read failed; secondary {sec} holds version {} that {why}",
        item.obj.name,
        data.version_number()
    )))
}

/// Everything one episode's loop needs besides the tracer.
struct Driver<'a> {
    ocean: OceanStore,
    items: &'a [Item],
    out: &'a mut Outcome,
    pending_max: usize,
    /// Submitted writes not yet seen to commit: request, object, version.
    in_flight: Vec<(RequestId, usize, u64)>,
    /// Wall seconds spent in the staleness probe, the benchmark's own work.
    probe_s: f64,
}

impl Driver<'_> {
    fn note_queue(&mut self) {
        self.pending_max = self.pending_max.max(self.ocean.sim().pending_events());
    }

    /// Encrypts and submits one scheduled write.
    fn submit(&mut self, tr: &mut Tracer, i: usize, version: u64) {
        let item = &self.items[i];
        let req = Some(i as u64);
        let s = tr.begin("update.encrypt", req);
        let update = if version == 1 {
            let blocks: Vec<&[u8]> = item.initial.iter().map(Vec::as_slice).collect();
            ops::initial_write(&item.obj.keys, item.obj.name.as_bytes(), &blocks, &[])
        } else {
            let actions = item
                .edits
                .iter()
                .flat_map(|(p, b)| ops::replace_op_at_slot(&item.obj.keys, *p, *p, b))
                .collect();
            Update::unconditional(actions)
        };
        tr.end(s);
        let s = tr.begin("core.update", req);
        let id = self.ocean.submit(0, &item.obj, &update);
        tr.end(s);
        self.out.writes += 1;
        self.in_flight.push((id, i, version));
    }

    /// Advances simulated time to `to` in [`POLL`] steps, collecting the
    /// writes that commit along the way.
    fn advance_to(&mut self, tr: &mut Tracer, to: SimTime) -> Result<(), Violation> {
        loop {
            let now = self.ocean.sim().now();
            if now >= to {
                return Ok(());
            }
            let step = to.saturating_since(now).min(POLL);
            let s = tr.begin("core.settle", None);
            self.ocean.settle(step);
            tr.end(s);
            self.note_queue();
            self.collect_commits(tr)?;
        }
    }

    /// Records every in-flight write whose client has seen `m + 1`
    /// matching replies: its latency and its version.
    fn collect_commits(&mut self, tr: &mut Tracer) -> Result<(), Violation> {
        let client = self.ocean.clients()[0];
        let mut k = 0;
        while k < self.in_flight.len() {
            let (id, i, version) = self.in_flight[k];
            let seen = self
                .ocean
                .sim()
                .node(client)
                .replica
                .as_client()
                .expect("client role")
                .outcome(id)
                .copied();
            let Some(o) = seen else {
                k += 1;
                continue;
            };
            self.in_flight.remove(k);
            let item = &self.items[i];
            let s = tr.begin("core.update", Some(i as u64));
            let res = self.ocean.wait_for(id, &item.obj);
            tr.end(s);
            match res {
                Ok(UpdateOutcome::Committed { version: v }) if v == version => {}
                other => {
                    return Err(Violation(format!(
                        "{}: unconditional update expected version {version}, got {other:?}",
                        item.obj.name
                    )))
                }
            }
            self.out
                .latencies_us
                .push(o.committed_at.saturating_since(o.sent_at).as_micros());
            self.out.committed += 1;
        }
        Ok(())
    }

    /// What a reader at a uniformly random secondary would see now: for
    /// every object the primaries have committed at least once, each
    /// secondary whose committed view is behind the primaries' version.
    fn probe(&mut self, tr: &mut Tracer) {
        let s = tr.begin("workload.probe", None);
        let probing = Instant::now();
        let primaries = self.ocean.primaries().to_vec();
        let secondaries = self.ocean.secondaries().to_vec();
        let sim = &*self.ocean.sim();
        for item in self.items {
            let version_at = |node: NodeId| {
                let role = &sim.node(node).replica;
                let data = role
                    .as_primary()
                    .and_then(|p| p.store.get(&item.obj.guid).map(|st| &st.data))
                    .or_else(|| {
                        role.as_secondary()
                            .and_then(|sec| sec.committed_view(&item.obj.guid))
                    });
                data.map_or(0, |d| d.version_number())
            };
            let frontier = primaries.iter().map(|&p| version_at(p)).max().unwrap_or(0);
            if frontier == 0 {
                continue;
            }
            self.out.replica_views += secondaries.len() as u64;
            self.out.stale_views += secondaries
                .iter()
                .filter(|&&sec| version_at(sec) < frontier)
                .count() as u64;
        }
        self.probe_s += probing.elapsed().as_secs_f64();
        tr.end(s);
    }

    /// Read back, publish, locate and archive object `i`.
    fn object_path(&mut self, tr: &mut Tracer, i: usize) -> Result<ArchiveRef, Violation> {
        let item = &self.items[i];
        let req = Some(i as u64);
        self.out.reads += 1;
        let mut session = SessionState::new();
        session.note_write(item.obj.guid, 2);
        let s = tr.begin("core.read", req);
        let read = self
            .ocean
            .read(0, &item.obj, &mut session, &GuaranteeSet::all());
        tr.end(s);
        self.note_queue();
        match read {
            Ok(content) if content == item.expected => {}
            Ok(_) => {
                return Err(Violation(format!(
                    "{}: read-your-writes read returned other bytes than were written",
                    item.obj.name
                )))
            }
            Err(_) => {
                check_failed_read(&mut self.ocean, item, 2)?;
                self.out.read_timeouts += 1;
            }
        }

        let s = tr.begin("plaxton.publish", req);
        self.ocean.publish_location(&item.obj, &[]);
        tr.end(s);
        self.out.locates += 1;
        let from = self.ocean.clients()[0];
        let s = tr.begin("plaxton.locate", req);
        let asked = self.ocean.sim().now();
        let located = self.ocean.locate(from, &item.obj);
        let waited = self.ocean.sim().now().saturating_since(asked).as_micros();
        tr.end(s);
        self.note_queue();
        match located {
            Ok(Some(holder)) if self.ocean.secondaries().contains(&holder) => {
                self.out.lookup_latencies_us.push(waited);
            }
            Ok(Some(holder)) => {
                return Err(Violation(format!(
                    "{}: locate answered {holder}, which never published the object",
                    item.obj.name
                )))
            }
            Ok(None) | Err(_) => self.out.locate_misses += 1,
        }

        let s = tr.begin("archival.archive", req);
        let archived = self.ocean.archive(&item.obj);
        tr.end(s);
        self.note_queue();
        archived.map_err(|e| Violation(format!("{}: archive failed: {e}", item.obj.name)))
    }

    /// Recovers object `i`'s archived version with every fragment
    /// requested and compares it with what was written.
    fn recover(&mut self, tr: &mut Tracer, i: usize, aref: &ArchiveRef) -> Result<(), Violation> {
        let item = &self.items[i];
        self.out.recoveries += 1;
        let requester = self.ocean.clients()[0];
        let extra = aref.codec.total_shards() - aref.codec.data_shards();
        let s = tr.begin("archival.recover", Some(i as u64));
        let asked = self.ocean.sim().now();
        let got = self
            .ocean
            .recover_from_archive(requester, aref, &item.obj.keys, extra);
        let waited = self.ocean.sim().now().saturating_since(asked).as_micros();
        tr.end(s);
        self.note_queue();
        match got {
            Ok(content) if content == item.expected => {
                self.out.lookup_latencies_us.push(waited);
                Ok(())
            }
            Ok(_) => Err(Violation(format!(
                "{}: recovered version differs from what was written",
                item.obj.name
            ))),
            Err(CoreError::Timeout) => {
                self.out.recovery_timeouts += 1;
                Ok(())
            }
            Err(e) => Err(Violation(format!(
                "{}: recovery failed: {e}",
                item.obj.name
            ))),
        }
    }
}

/// Runs one archive-recover episode.
///
/// # Errors
///
/// A [`Violation`] when a read-your-writes read or a recovery returns
/// other bytes than were written, a locate names a replica that never
/// published, or an unconditional update does not commit as the next
/// version.
pub fn run(spec: &ArchiveSpec, tr: &mut Tracer) -> Result<Episode, Violation> {
    let s = tr.begin("core.build", None);
    let building = Instant::now();
    let mut ocean = build(spec);
    let setup_s = building.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("workload.schedule", None);
    let (items, arrivals) = make_items(spec, &mut ocean);
    let servers: Vec<NodeId> = ocean
        .primaries()
        .iter()
        .chain(ocean.secondaries())
        .copied()
        .collect();
    let mut down = servers.clone();
    down.shuffle(&mut ChaCha8Rng::seed_from_u64(
        spec.seed ^ 0xdead_0000_0000_0003,
    ));
    down.truncate(servers.len() / 3);
    tr.end(s);

    let mut out = Outcome::default();
    let mut d = Driver {
        ocean,
        items: &items,
        out: &mut out,
        pending_max: 0,
        in_flight: Vec::new(),
        probe_s: 0.0,
    };
    let root = tr.begin("workload.run", None);
    let started = Instant::now();
    let t0 = d.ocean.sim().now();
    for &(at, i, version) in &arrivals {
        d.advance_to(tr, t0 + at)?;
        d.probe(tr);
        d.submit(tr, i, version);
    }
    let deadline = d.ocean.sim().now() + WRITE_BUDGET;
    while !d.in_flight.is_empty() && d.ocean.sim().now() < deadline {
        let next = d.ocean.sim().now() + POLL;
        d.advance_to(tr, next)?;
    }
    d.out.pending += d.in_flight.len() as u64;
    let s = tr.begin("core.settle", None);
    d.ocean.settle(spec.settle);
    tr.end(s);
    let mut archived = Vec::with_capacity(items.len());
    for i in 0..items.len() {
        archived.push(d.object_path(tr, i)?);
    }
    let s = tr.begin("sim.crash", None);
    for &node in &down {
        d.ocean.sim().crash_node(node);
    }
    tr.end(s);
    for (i, aref) in archived.iter().enumerate() {
        d.recover(tr, i, aref)?;
    }
    let run_s = started.elapsed().as_secs_f64() - d.probe_s;
    tr.end(root);

    let s = tr.begin("workload.collect", None);
    let Driver {
        mut ocean,
        pending_max,
        ..
    } = d;
    out.latencies_us.sort_unstable();
    out.lookup_latencies_us.sort_unstable();
    let sim = &*ocean.sim();
    out.record_net(sim.stats());
    out.counts
        .insert("sim.events".into(), sim.events_processed());
    out.counts
        .insert("sim.pending_events_max".into(), pending_max as u64);
    let coverage = sim.par_coverage();
    let stores = servers.iter().filter_map(|&n| {
        let role = &sim.node(n).replica;
        role.as_primary()
            .map(|p| &p.store)
            .or_else(|| role.as_secondary().map(|s| &s.store))
    });
    out.record_stores(stores);
    tr.end(s);
    Ok(Episode {
        outcome: out,
        setup_s,
        run_s,
        coverage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small deployment holding one object, written and then updated,
    /// with both writes committed and disseminated.
    fn written_object() -> (OceanStore, Item) {
        let spec = ArchiveSpec {
            secondaries: 8,
            objects: 1,
            object_rate: 20.0,
            update_gap: SimDuration::from_millis(60),
            blocks: 4,
            block_bytes: 64,
            updated_blocks: 2,
            k: 4,
            n: 8,
            settle: SimDuration::from_secs(1),
            latency: SimDuration::from_millis(20),
            seed: 9,
        };
        let mut ocean = build(&spec);
        let (mut items, _) = make_items(&spec, &mut ocean);
        let item = items.remove(0);
        let blocks: Vec<&[u8]> = item.initial.iter().map(Vec::as_slice).collect();
        let first = ops::initial_write(&item.obj.keys, item.obj.name.as_bytes(), &blocks, &[]);
        let second = Update::unconditional(
            item.edits
                .iter()
                .flat_map(|(p, b)| ops::replace_op_at_slot(&item.obj.keys, *p, *p, b))
                .collect(),
        );
        for (update, version) in [(first, 1), (second, 2)] {
            let id = ocean.submit(0, &item.obj, &update);
            assert!(matches!(
                ocean.wait_for(id, &item.obj),
                Ok(UpdateOutcome::Committed { version: v }) if v == version
            ));
        }
        ocean.settle(spec.settle);
        (ocean, item)
    }

    #[test]
    fn failed_read_is_a_violation_while_a_live_secondary_holds_the_version() {
        let (mut ocean, mut item) = written_object();
        let err = check_failed_read(&mut ocean, &item, 2).expect_err("the version is held");
        assert!(err.0.contains("yet the read failed"), "{err}");
        item.expected[0][0] ^= 1;
        let err = check_failed_read(&mut ocean, &item, 2).expect_err("content differs");
        assert!(err.0.contains("other bytes than were written"), "{err}");
    }

    #[test]
    fn failed_read_is_a_timeout_when_no_live_secondary_holds_the_version() {
        let (mut ocean, item) = written_object();
        assert_eq!(check_failed_read(&mut ocean, &item, 3), Ok(()));
        for sec in ocean.secondaries().to_vec() {
            ocean.sim().crash_node(sec);
        }
        assert_eq!(check_failed_read(&mut ocean, &item, 2), Ok(()));
    }
}
