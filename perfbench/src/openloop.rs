//! The open-loop runner over `build_deployment` and the simulator.
//!
//! It reproduces `oceanstore_workload::run_workload` step for step (same
//! arrival schedule, same injection, same outcome rules), so the numbers
//! it reports are the workload crate's numbers; a parity test holds it to
//! that. What it adds is timing: wall clock around set-up and the run
//! phase, and, when tracing, a span around every call into a layer.

use std::collections::HashMap;
use std::time::Instant;

use oceanstore_naming::guid::Guid;
use oceanstore_replica::{build_deployment, Deployment, DeploymentOpts};
use oceanstore_sim::{NodeId, SimDuration, SimTime};
use oceanstore_update::update::Action;
use oceanstore_update::Update;
use oceanstore_workload::zipf::Zipf;
use oceanstore_workload::WorkloadSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::outcome::{Episode, Outcome, Violation};
use crate::trace::Tracer;

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { object: usize },
    Read { object: usize, secondary: usize },
}

/// Poisson arrivals at `spec.rate` over `[0, spec.duration)`, each tagged
/// with a Zipf-popular object and a read/write coin. Generated before the
/// run so the system under test cannot hold injection back; the random
/// draws are made in the workload crate's order, so a seed gives the same
/// schedule here and there.
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
            Op::Read {
                object,
                secondary: rng.gen_range(0..spec.secondaries),
            }
        };
        schedule.push((
            SimTime::ZERO + SimDuration::from_micros((t * 1e6) as u64),
            op,
        ));
    }
}

/// The object GUID of workload rank `i` (the workload crate's naming).
fn object_guid(i: usize) -> Guid {
    Guid::from_label(&format!("wl-obj-{i}"))
}

/// Highest committed serialization index of `object` on its owning ring.
fn ring_frontier(dep: &Deployment, object: &Guid) -> u64 {
    dep.ring_for(object)
        .primaries
        .iter()
        .filter_map(|&p| dep.sim.node(p).as_primary())
        .filter_map(|prim| prim.store.get(object).map(|st| st.next_index))
        .max()
        .unwrap_or(0)
}

/// Secondaries inspected per object at each arrival; a stride through
/// the tree's heap order, so every depth is represented.
const PROBED_SECONDARIES: usize = 32;

/// Measures how stale a read would be at an instant: for every object,
/// the share of (sampled) secondaries behind its ring's frontier,
/// weighted by the object's popularity, in integer weights so the counts
/// repeat exactly. Arrivals are Poisson and see time averages, so
/// inspecting at every arrival, writes included, estimates a read's
/// staleness with far less noise than the reads' own replicas do.
struct StaleProbe {
    guids: Vec<Guid>,
    /// Per-object popularity, parts per million.
    weights: Vec<u64>,
    sample: Vec<NodeId>,
}

impl StaleProbe {
    fn new(spec: &WorkloadSpec, dep: &Deployment) -> Self {
        let raw: Vec<f64> = (1..=spec.objects)
            .map(|i| 1.0 / (i as f64).powf(spec.zipf_s))
            .collect();
        let total: f64 = raw.iter().sum();
        let stride = dep.secondaries.len().div_ceil(PROBED_SECONDARIES);
        StaleProbe {
            guids: (0..spec.objects).map(object_guid).collect(),
            weights: raw
                .iter()
                .map(|w| (w / total * 1e6).round() as u64)
                .collect(),
            sample: dep.secondaries.iter().copied().step_by(stride).collect(),
        }
    }

    fn inspect(&self, dep: &Deployment, out: &mut Outcome) {
        for (guid, &w) in self.guids.iter().zip(&self.weights) {
            let frontier = ring_frontier(dep, guid);
            let behind = self
                .sample
                .iter()
                .filter(|&&sec| {
                    dep.sim
                        .node(sec)
                        .as_secondary()
                        .expect("secondary node")
                        .store
                        .get(guid)
                        .map_or(0, |st| st.next_index)
                        < frontier
                })
                .count() as u64;
            out.replica_views += w * self.sample.len() as u64;
            out.stale_views += w * behind;
        }
    }
}

/// Builds and starts the deployment `spec` describes.
pub fn build(spec: &WorkloadSpec) -> Deployment {
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
    dep
}

/// Advances the simulator to `to` inside a `sim.run` span and notes the
/// deepest event queue seen when it returns.
fn advance(dep: &mut Deployment, tr: &mut Tracer, to: SimTime, pending_max: &mut usize) {
    let s = tr.begin("sim.run", None);
    dep.sim.run_until(to);
    tr.end(s);
    *pending_max = (*pending_max).max(dep.sim.pending_events());
}

/// Runs one open-loop episode of `spec`.
///
/// # Errors
///
/// A [`Violation`] when the no-loss oracle finds a committed update with
/// no serialization slot behind it.
///
/// # Panics
///
/// Panics on a spec the workload crate would also reject, or one with a
/// drop phase (the benchmark's workloads are fault-free).
pub fn run(spec: &WorkloadSpec, tr: &mut Tracer) -> Result<Episode, Violation> {
    assert!(spec.rate > 0.0, "offered rate must be positive");
    assert!(
        (0.0..=1.0).contains(&spec.write_fraction),
        "write fraction must be a probability"
    );
    assert!(
        spec.drop_phase.is_none(),
        "benchmark workloads are fault-free"
    );

    let s = tr.begin("replica.build_deployment", None);
    let building = Instant::now();
    let mut dep = build(spec);
    let setup_s = building.elapsed().as_secs_f64();
    tr.end(s);

    let s = tr.begin("workload.schedule", None);
    let schedule = arrival_schedule(spec);
    let probe = StaleProbe::new(spec, &dep);
    tr.end(s);

    let mut submissions = Vec::new();
    let mut out = Outcome::default();
    let mut next_client = 0usize;
    let mut pending_max = 0usize;
    let mut probe_s = 0.0;
    let root = tr.begin("workload.run", None);
    let mut started: Option<Instant> = None;
    for (at, op) in schedule {
        advance(&mut dep, tr, at, &mut pending_max);
        started.get_or_insert_with(Instant::now);
        let s = tr.begin("workload.probe", None);
        let probing = Instant::now();
        probe.inspect(&dep, &mut out);
        if let Op::Read { object, secondary } = op {
            let guid = object_guid(object);
            let have = dep
                .sim
                .node(dep.secondaries[secondary])
                .as_secondary()
                .expect("secondary node")
                .store
                .get(&guid)
                .map_or(0, |st| st.next_index);
            out.reads += 1;
            out.stale_reads += u64::from(have < ring_frontier(&dep, &guid));
        }
        probe_s += probing.elapsed().as_secs_f64();
        tr.end(s);
        if let Op::Write { object } = op {
            let client = dep.clients[next_client % dep.clients.len()];
            next_client += 1;
            let guid = object_guid(object);
            let marker = submissions.len() as u64;
            let update = Update::unconditional(vec![Action::Append {
                ciphertext: marker.to_le_bytes().to_vec(),
            }]);
            let s = tr.begin("replica.submit", Some(marker));
            let id = dep.sim.with_node_ctx(client, |node, ctx| {
                node.as_client_mut()
                    .expect("client node")
                    .submit(ctx, guid, &update)
            });
            tr.end(s);
            submissions.push((client, id, object));
        }
    }
    let started = started.unwrap_or_else(Instant::now);
    advance(
        &mut dep,
        tr,
        SimTime::ZERO + spec.duration + spec.drain,
        &mut pending_max,
    );
    // The staleness inspection is the benchmark's, not the program's work.
    let run_s = started.elapsed().as_secs_f64() - probe_s;
    tr.end(root);

    // Outcomes and the no-loss oracle: each object's committed count must
    // be covered by serialization slots on its owning ring.
    let s = tr.begin("workload.collect", None);
    let mut committed_per_object: HashMap<usize, u64> = HashMap::new();
    for &(client, id, object) in &submissions {
        match dep
            .sim
            .node(client)
            .as_client()
            .expect("client node")
            .outcome(id)
        {
            Some(o) => {
                out.latencies_us
                    .push(o.committed_at.saturating_since(o.sent_at).as_micros());
                *committed_per_object.entry(object).or_default() += 1;
            }
            None => out.pending += 1,
        }
    }
    out.lost = committed_per_object
        .iter()
        .map(|(&object, &count)| count.saturating_sub(ring_frontier(&dep, &object_guid(object))))
        .sum();
    out.latencies_us.sort_unstable();
    out.writes = submissions.len() as u64;
    out.committed = out.latencies_us.len() as u64;
    out.record_net(dep.sim.stats());
    out.counts
        .insert("sim.events".into(), dep.sim.events_processed());
    out.counts
        .insert("sim.pending_events_max".into(), pending_max as u64);
    let stores = dep
        .all_primaries()
        .filter_map(|p| dep.sim.node(p).as_primary().map(|n| &n.store))
        .chain(
            dep.secondaries
                .iter()
                .filter_map(|&s| dep.sim.node(s).as_secondary().map(|n| &n.store)),
        );
    out.record_stores(stores);
    let coverage = dep.sim.par_coverage();
    tr.end(s);

    if out.lost > 0 {
        return Err(Violation(format!(
            "no-loss oracle: {} committed updates have no serialization slot",
            out.lost
        )));
    }
    Ok(Episode {
        outcome: out,
        setup_s,
        run_s,
        coverage,
    })
}
