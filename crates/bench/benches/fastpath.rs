//! Criterion benchmarks for the fast paths: word/SIMD GF(2^8) kernels
//! against their in-tree reference kernels, Reed-Solomon encode across
//! code shapes, and simulator engine throughput at one thread.
//!
//! The authoritative numbers live in `BENCH_PR<N>.json` (emitted by the
//! `perf_report` binary, which pins each engine run's schedule and holds
//! it to an absolute floor); these criterion benches are for local
//! iteration and regression spotting with statistics attached.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use oceanstore_erasure::gf256;
use oceanstore_erasure::rs::ReedSolomon;
use oceanstore_sim::engine::{Context, Message, Protocol, Simulator};
use oceanstore_sim::time::{SimDuration, SimTime};
use oceanstore_sim::topology::{NodeId, Topology};

// ---------------------------------------------------------------- gf256 --

fn bench_gf256(c: &mut Criterion) {
    let len = 256 * 1024;
    let src: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; len];
    let mut g = c.benchmark_group("gf256/mul_acc_slice");
    g.throughput(Throughput::Bytes(len as u64));
    g.bench_function("ref", |b| b.iter(|| gf256::mul_acc_slice_ref(&mut dst, &src, 0x57)));
    g.bench_function("fast", |b| b.iter(|| gf256::mul_acc_slice(&mut dst, &src, 0x57)));
    g.finish();
}

// ------------------------------------------------------------------- rs --

fn bench_rs_encode(c: &mut Criterion) {
    let shard = 4 * 1024;
    let mut g = c.benchmark_group("rs/encode");
    // k in {16, 32} x n in {32, 64}, minus the parity-free (32, 32) shape.
    for (k, n) in [(16, 32), (16, 64), (32, 64)] {
        let rs = ReedSolomon::new(k, n).expect("valid code");
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..shard).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
            .collect();
        g.throughput(Throughput::Bytes((k * shard) as u64));
        g.bench_function(format!("k{k}_n{n}"), |b| {
            b.iter(|| rs.encode(&data).expect("encodes"))
        });
        g.bench_function(format!("k{k}_n{n}_ref"), |b| {
            b.iter(|| rs.encode_ref(&data).expect("encodes"))
        });
    }
    g.finish();
}

// --------------------------------------------------------------- engine --

#[derive(Debug, Clone)]
struct Blob(Vec<u8>);

impl Message for Blob {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

const PERIOD_MS: u64 = 5;
const MESH_N: usize = 16;
const MESH_ROUNDS: u32 = 30;
const FRAGMENT_BYTES: usize = 4096;

/// Fragment multicast on the production engine (shared-payload delivery).
struct Gossip {
    id: usize,
    rounds_left: u32,
    bytes_seen: u64,
}

impl Protocol for Gossip {
    type Msg = Blob;

    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        ctx.set_timer(SimDuration::from_millis(PERIOD_MS), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Blob>, _from: NodeId, msg: Blob) {
        self.bytes_seen += msg.0.len() as u64 + msg.0[0] as u64;
    }

    fn on_message_ref(&mut self, _ctx: &mut Context<'_, Blob>, _from: NodeId, msg: &Blob) {
        self.bytes_seen += msg.0.len() as u64 + msg.0[0] as u64;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, _tag: u64) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        let me = self.id;
        ctx.broadcast(
            (0..MESH_N).filter(move |&i| i != me).map(NodeId),
            Blob(vec![0xAB; FRAGMENT_BYTES]),
        );
        ctx.set_timer(SimDuration::from_millis(PERIOD_MS), 0);
    }
}

const GRID_SIDE: usize = 16;
const GRID_N: usize = GRID_SIDE * GRID_SIDE;
const GRID_PERIODS_MS: [u64; 4] = [5, 11, 17, 29];
const PARKED_PER_NODE: u64 = 64;

/// Timer-churn workload with a parked long-dated timeout population
/// (the regime the hierarchical wheel is built for).
struct GridTicker {
    id: usize,
    fires: u64,
    horizon: SimTime,
}

impl Protocol for GridTicker {
    type Msg = Blob;

    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        for tag in 0..4 {
            ctx.set_timer(
                SimDuration::from_micros(GRID_PERIODS_MS[tag as usize] * 1000 + self.id as u64),
                tag,
            );
        }
        for i in 0..PARKED_PER_NODE {
            ctx.set_timer(
                SimDuration::from_secs(30 + i) + SimDuration::from_micros(self.id as u64),
                100 + i,
            );
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Blob>, _from: NodeId, _msg: Blob) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, tag: u64) {
        if tag >= 100 {
            return;
        }
        self.fires += 1;
        if self.fires.is_multiple_of(4) {
            let to = NodeId((self.id + 1 + (self.fires as usize % 3)) % GRID_N);
            ctx.send(to, Blob(vec![0x5A; 16]));
        }
        let d = SimDuration::from_millis(GRID_PERIODS_MS[tag as usize]);
        if ctx.now() + d <= self.horizon {
            ctx.set_timer(d, tag);
        }
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine/events_per_sec");

    let horizon =
        SimTime::ZERO + SimDuration::from_millis((MESH_ROUNDS as u64 + 2) * PERIOD_MS);
    g.bench_function("full_mesh_gossip", |b| {
        b.iter(|| {
            let nodes: Vec<Gossip> = (0..MESH_N)
                .map(|id| Gossip { id, rounds_left: MESH_ROUNDS, bytes_seen: 0 })
                .collect();
            let mut sim = Simulator::new(
                Topology::full_mesh(MESH_N, SimDuration::from_millis(2)),
                nodes,
                42,
            );
            sim.start();
            sim.run_until(horizon);
            sim.events_processed()
        })
    });

    let horizon = SimTime::ZERO + SimDuration::from_millis(300);
    let topo = Topology::grid(GRID_SIDE, GRID_SIDE, SimDuration::from_millis(1));
    topo.warm_dist();
    g.bench_function("grid_parked_timers", |b| {
        b.iter(|| {
            let nodes: Vec<GridTicker> =
                (0..GRID_N).map(|id| GridTicker { id, fires: 0, horizon }).collect();
            let mut sim = Simulator::new(topo.clone(), nodes, 7);
            sim.start();
            sim.run_until(horizon);
            sim.events_processed()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_gf256, bench_rs_encode, bench_engine
}
criterion_main!(benches);
