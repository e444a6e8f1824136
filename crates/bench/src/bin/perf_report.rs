//! Measures the fast-path kernels against their frozen "before"
//! implementations and emits a machine-readable `BENCH_PR10.json`.
//!
//! ```text
//! cargo run --release -p oceanstore-bench --bin perf_report
//! cargo run --release -p oceanstore-bench --bin perf_report -- --small --out /tmp/b.json
//! cargo run --release -p oceanstore-bench --bin perf_report -- --diff-frozen BENCH_PR7.json BENCH_PR8.json
//! ```
//!
//! Flags:
//! - `--small`: reduced workload sizes (CI smoke preset).
//! - `--check`: exit nonzero unless the PR's bars hold: speedup bars
//!   (gf256 ≥ 4x, RS encode ≥ 3x, Schnorr batch-32 verify ≥ 3x,
//!   shard-sweep scale-out ≥ 2x over the single-ring tier, and — on
//!   hosts with ≥ 8 cores — the 8-thread PDES sweep ≥ 2x over 1 thread),
//!   plus absolute floors on the full-preset engine events/sec and tier
//!   commit throughput rows (see `FLOORS`).
//! - `--min-gf256-mbps <N>`: absolute throughput floor for the fast
//!   gf256 kernel (generous; catches catastrophic regressions in CI
//!   without being sensitive to runner speed).
//! - `--out <PATH>`: where to write the JSON (default `BENCH_PR10.json`).
//! - `--diff-frozen <OLD> <NEW>`: run no benches; statically compare two
//!   frozen reports and exit nonzero if any speedup present in both files
//!   regressed by more than 20%. CI runs this over the committed
//!   `BENCH_PR<N>.json` files so a re-frozen report can't silently trade
//!   away an earlier PR's win.
//!
//! The "before" column is measured in the same process by the same harness:
//! `mul_acc_slice_ref`/`encode_ref`/`reconstruct_ref`/`verify_ref` are
//! reference kernels kept in-tree (their tests compare against them). The
//! engine and consensus rows have no in-process "before": they time the
//! production code alone, pin the exact schedule they ran, and `--check`
//! holds them to absolute floors. Later PRs append `BENCH_PR<N>.json`
//! files with the same schema.

use std::time::Instant;

use oceanstore_crypto::schnorr::{self, KeyPair, PublicKey, Signature};
use oceanstore_erasure::gf256;
use oceanstore_erasure::rs::ReedSolomon;
use oceanstore_sim::engine::{Context, Message, Protocol, Simulator};
use oceanstore_sim::time::{SimDuration, SimTime};
use oceanstore_sim::topology::{NodeId, Topology};
use oceanstore_workload::{
    run_workload, run_workload_with_coverage, DropPhase, WorkloadSpec,
};

struct Args {
    small: bool,
    check: bool,
    min_gf256_mbps: Option<f64>,
    out: String,
    diff_frozen: Option<(String, String)>,
}

fn parse_args() -> Args {
    let mut args = Args {
        small: false,
        check: false,
        min_gf256_mbps: None,
        out: "BENCH_PR10.json".to_string(),
        diff_frozen: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small" => args.small = true,
            "--check" => args.check = true,
            "--min-gf256-mbps" => {
                let v = it.next().expect("--min-gf256-mbps needs a value");
                args.min_gf256_mbps = Some(v.parse().expect("invalid floor"));
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--diff-frozen" => {
                let old = it.next().expect("--diff-frozen needs OLD and NEW paths");
                let new = it.next().expect("--diff-frozen needs OLD and NEW paths");
                args.diff_frozen = Some((old, new));
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One measured row of the report.
struct Bench {
    name: &'static str,
    unit: &'static str,
    before: Option<f64>,
    after: f64,
}

impl Bench {
    fn speedup(&self) -> Option<f64> {
        self.before.map(|b| if b > 0.0 { self.after / b } else { f64::NAN })
    }
}

/// Timing batches per side in [`ab_time_per_call`] and [`time_per_call`].
const ROUNDS: usize = 4;

/// Calls `f` once untimed, then doubles the batch until it fills half of
/// `batch_ms`; returns the iteration count that fills `batch_ms`.
fn calibrate(batch_ms: u64, f: &mut dyn FnMut()) -> u64 {
    f(); // warm-up
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = start.elapsed();
        if dt.as_millis() as u64 >= batch_ms / 2 {
            let per = (dt.as_secs_f64() / iters as f64).max(1e-9);
            return ((batch_ms as f64 / 1e3 / per) as u64).max(1);
        }
        iters *= 2;
    }
}

/// Best per-call seconds of `f` over [`ROUNDS`] batches spanning about
/// `target_ms` in total; the minimum rejects transient stalls.
fn time_per_call(target_ms: u64, mut f: impl FnMut()) -> f64 {
    let iters = calibrate((target_ms / ROUNDS as u64).max(20), &mut f);
    (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Times `a` (before) and `b` (after) in alternating batches, returning
/// each side's best per-call seconds. Interleaving keeps slow machine-speed
/// drift (frequency scaling, noisy-neighbour vCPUs, burst credits) from
/// landing entirely on whichever side happened to run last; taking the
/// per-side minimum over several batches rejects transient stalls. Without
/// this, back-to-back runs of the same binary produced before/after ratios
/// that moved by 50% purely from host-speed drift between the two
/// measurement windows.
fn ab_time_per_call(target_ms: u64, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let batch_ms = (target_ms / ROUNDS as u64).max(20);
    let ia = calibrate(batch_ms, &mut a);
    let ib = calibrate(batch_ms, &mut b);
    let mut best = (f64::MAX, f64::MAX);
    for _ in 0..ROUNDS {
        let start = Instant::now();
        for _ in 0..ia {
            a();
        }
        best.0 = best.0.min(start.elapsed().as_secs_f64() / ia as f64);
        let start = Instant::now();
        for _ in 0..ib {
            b();
        }
        best.1 = best.1.min(start.elapsed().as_secs_f64() / ib as f64);
    }
    best
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

// ---------------------------------------------------------------- gf256 --

fn bench_gf256(small: bool) -> Vec<Bench> {
    let len = if small { 256 * 1024 } else { 1024 * 1024 };
    let target = if small { 120 } else { 400 };
    let src: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst_ref = vec![0u8; len];
    let mut dst_fast = vec![0u8; len];
    let (t_before, t_after) = ab_time_per_call(
        target * 2,
        || gf256::mul_acc_slice_ref(&mut dst_ref, &src, 0x57),
        || gf256::mul_acc_slice(&mut dst_fast, &src, 0x57),
    );
    let (before, after) = (mb(len) / t_before, mb(len) / t_after);
    vec![Bench { name: "gf256/mul_acc_slice/1MiB", unit: "MB/s", before: Some(before), after }]
}

// ------------------------------------------------------------------- rs --

fn bench_rs(small: bool) -> Vec<Bench> {
    let (k, n) = (32, 64);
    let shard = if small { 4 * 1024 } else { 16 * 1024 };
    let target = if small { 150 } else { 500 };
    let rs = ReedSolomon::new(k, n).expect("valid code");
    let data: Vec<Vec<u8>> =
        (0..k).map(|i| (0..shard).map(|j| ((i * 131 + j * 7) % 256) as u8).collect()).collect();
    let payload = mb(k * shard);

    let (t_enc_before, t_enc_after) = ab_time_per_call(
        target * 2,
        || {
            rs.encode_ref(&data).expect("encodes");
        },
        || {
            rs.encode(&data).expect("encodes");
        },
    );
    let (enc_before, enc_after) = (payload / t_enc_before, payload / t_enc_after);

    // Worst-case loss pattern: all k data shards gone, recover from parity.
    let coded = rs.encode(&data).expect("encodes");
    let holed: Vec<Option<Vec<u8>>> = coded
        .iter()
        .enumerate()
        .map(|(i, s)| if i < k { None } else { Some(s.clone()) })
        .collect();
    let (t_rec_before, t_rec_after) = ab_time_per_call(
        target * 2,
        || {
            let mut shards = holed.clone();
            rs.reconstruct_ref(&mut shards).expect("reconstructs");
        },
        || {
            let mut shards = holed.clone();
            rs.reconstruct(&mut shards).expect("reconstructs");
        },
    );
    let (rec_before, rec_after) = (payload / t_rec_before, payload / t_rec_after);

    vec![
        Bench {
            name: "rs/encode/k32_n64",
            unit: "MB/s",
            before: Some(enc_before),
            after: enc_after,
        },
        Bench {
            name: "rs/reconstruct/k32_n64_all_data_lost",
            unit: "MB/s",
            before: Some(rec_before),
            after: rec_after,
        },
    ]
}

// -------------------------------------------------------------- schnorr --

/// Schnorr hot paths against the frozen square-and-multiply reference:
/// single verify (comb tables) and a 32-signature batch (random-linear-
/// combination batch verify) versus 32 sequential reference verifies. The
/// batch mixes 7 signers, the size of an m=2 primary tier, so the shared
/// `Σ z·e` exponent aggregation per key is exercised.
fn bench_schnorr(small: bool) -> Vec<Bench> {
    const BATCH: usize = 32;
    const SIGNERS: usize = 7;
    let keys: Vec<KeyPair> = (0..SIGNERS)
        .map(|i| KeyPair::from_seed(format!("perf-report-signer-{i}").as_bytes()))
        .collect();
    let msgs: Vec<Vec<u8>> =
        (0..BATCH).map(|i| format!("perf-report update digest {i}").into_bytes()).collect();
    let signed: Vec<(PublicKey, &[u8], Signature)> = msgs
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let kp = &keys[i % SIGNERS];
            (kp.public(), m.as_slice(), kp.sign(m))
        })
        .collect();
    let target = if small { 100 } else { 300 };

    let one = &signed[0];
    let (t_single_before, t_single_after) = ab_time_per_call(
        target,
        || {
            assert!(schnorr::verify_ref(one.0, one.1, &one.2));
        },
        || {
            assert!(schnorr::verify(one.0, one.1, &one.2));
        },
    );

    let (t_batch_before, t_batch_after) = ab_time_per_call(
        target * 2,
        || {
            for (y, m, s) in &signed {
                assert!(schnorr::verify_ref(*y, m, s));
            }
        },
        || {
            assert!(schnorr::batch_verify(&signed));
        },
    );

    vec![
        Bench {
            name: "schnorr/verify/single",
            unit: "verifies/s",
            before: Some(1.0 / t_single_before),
            after: 1.0 / t_single_after,
        },
        Bench {
            name: "schnorr/verify/batch32",
            unit: "verifies/s",
            before: Some(BATCH as f64 / t_batch_before),
            after: BATCH as f64 / t_batch_after,
        },
    ]
}

// ------------------------------------------------------------ consensus --

/// `(committed, total bytes, events)` of the consensus row's run.
const CONSENSUS_SCHEDULE_FULL: (usize, u64, u64) = (8, 312_928, 832);
const CONSENSUS_SCHEDULE_SMALL: (usize, u64, u64) = (3, 117_348, 312);

/// Macro end-to-end bar: committed updates per second of wall clock
/// through an m=2 (7-replica) PBFT tier under fragment-sized payloads, on
/// the production stack (comb-table signing, verify cache and batch
/// drain). The run's schedule — commits, bytes, events — is pinned, so the
/// row always times the same work; `--check` holds it to an absolute
/// floor.
fn bench_consensus(small: bool) -> Vec<Bench> {
    let m = 2;
    let wan = SimDuration::from_millis(10);
    let payload = 4096;
    let count = if small { 3 } else { 8 };

    let run = || {
        let mut ts = oceanstore_consensus::build_tier(m, wan, 5);
        let run = oceanstore_consensus::run_updates(&mut ts, payload, count);
        (run.latencies.len(), run.total_bytes, ts.sim.events_processed())
    };
    let pinned = if small { CONSENSUS_SCHEDULE_SMALL } else { CONSENSUS_SCHEDULE_FULL };
    assert_eq!(run(), pinned, "the consensus tier's schedule moved");

    let target = if small { 200 } else { 600 };
    let t = time_per_call(target * 2, || {
        run();
    });
    vec![Bench {
        name: "consensus/committed_updates_per_sec/m2_tier7_4k",
        unit: "updates/s",
        before: None,
        after: count as f64 / t,
    }]
}

// --------------------------------------------------------- long horizon --

/// Long-horizon macro row: 100k agreement slots through an m=1 tier with
/// stable checkpoints on (interval 64, window 128 — the shipped
/// defaults). Two numbers come out: committed-updates per second of wall
/// clock, and the peak retained consensus log any replica ever showed
/// between batches. The second is the point of the checkpoint subsystem —
/// before it, a run this long retained all 100k slots on every replica;
/// now the peak must sit near `window + interval` regardless of horizon.
/// There is no "before" side: a stack without checkpoints cannot run this
/// workload in bounded memory, which is the row's reason to exist.
fn bench_long_horizon(small: bool) -> Vec<Bench> {
    let slots: usize = if small { 2_000 } else { 100_000 };
    let ckpt = oceanstore_consensus::CheckpointConfig::default();
    assert!(ckpt.enabled, "long-horizon bench needs checkpoints on");
    let mut ts = oceanstore_consensus::harness::build_tier_custom(
        1,
        SimDuration::from_millis(10),
        5,
        &[],
        ckpt,
    );
    let mut peak = 0u64;
    let start = Instant::now();
    let mut left = slots;
    while left > 0 {
        let chunk = left.min(1_000);
        oceanstore_consensus::harness::run_updates_batched(&mut ts, 256, chunk, 8);
        for i in 0..4 {
            let h = ts.sim.node(NodeId(i)).as_replica().expect("replica").health();
            peak = peak.max(h.log_len);
        }
        left -= chunk;
    }
    let wall = start.elapsed().as_secs_f64();
    let label = if small {
        ("consensus/long_horizon_committed_per_sec/m1_2k_slots", "consensus/peak_retained_slots/m1_2k_slots")
    } else {
        ("consensus/long_horizon_committed_per_sec/m1_100k_slots", "consensus/peak_retained_slots/m1_100k_slots")
    };
    vec![
        Bench { name: label.0, unit: "updates/s", before: None, after: slots as f64 / wall },
        Bench { name: label.1, unit: "slots", before: None, after: peak as f64 },
    ]
}

// ---------------------------------------------------------------- store --

/// Blob-backend and replica-store rows for the content-addressed storage
/// layer. One wall-clock bar — put+get+delete throughput of the on-disk
/// directory backend with the in-memory default as its "after" side, so
/// the speedup column reads as the dir backend's overhead factor — and
/// two deterministic rows that diff exactly across frozen reports: the
/// dedup ratio of a 16-way duplicated block population, and the peak
/// retained record-log length of a long certified commit stream (the
/// bounded-log row; its "before" side is the same stream with truncation
/// disabled, which is what every replica paid before the bound existed).
fn bench_store(small: bool) -> Vec<Bench> {
    use oceanstore_store::{BlobStore, DedupStore, DirStore, MemoryStore};

    let blob_len = 64 * 1024;
    let blobs = if small { 32 } else { 128 };
    let payloads: Vec<Vec<u8>> = (0..blobs)
        .map(|i| (0..blob_len).map(|j| ((i * 131 + j * 7) % 256) as u8).collect())
        .collect();
    let roundtrip = |store: &mut dyn BlobStore| {
        let cids: Vec<_> = payloads.iter().map(|p| store.put(p).expect("put")).collect();
        for cid in &cids {
            assert_eq!(store.get(cid).expect("get").expect("present").len(), blob_len);
            store.delete(cid).expect("delete");
        }
    };
    let target = if small { 150 } else { 400 };
    let (t_dir, t_mem) = ab_time_per_call(
        target * 2,
        || {
            let mut s = DirStore::new_ephemeral();
            roundtrip(&mut s);
        },
        || {
            let mut s = MemoryStore::new();
            roundtrip(&mut s);
        },
    );
    let payload_mb = mb(blobs * blob_len);
    let mut out = vec![Bench {
        name: "store/put_get_delete_64kib/dir_vs_memory",
        unit: "MB/s",
        before: Some(payload_mb / t_dir),
        after: payload_mb / t_mem,
    }];

    // Dedup: 16 distinct blocks, each stored 16 times (the dissemination
    // pattern of one block fanned out across a tier). Exactly one copy of
    // each may reach the backend, so the logical/stored ratio is 16.
    let mut dedup = DedupStore::new(Box::new(MemoryStore::new()));
    for _ in 0..16 {
        for block in 0..16u8 {
            dedup.put(&vec![block; 4096]).expect("put");
        }
    }
    let ratio = dedup.dedup_stats().ratio();
    assert!((ratio - 16.0).abs() < 1e-9, "16-way duplicate ratio came out {ratio}");
    out.push(Bench {
        name: "store/dedup_logical_over_stored/16_way_duplicate",
        unit: "ratio",
        before: None,
        after: ratio,
    });

    // Bounded record log: stream `commits` certified updates through one
    // object and record the peak retained log length. The "before" side
    // replays the identical stream with truncation disabled — every
    // replica retained the full history before the certified-frontier
    // bound existed. Both sides are seeded and deterministic, so this row
    // diffs exactly across frozen reports; the speedup column is the
    // retained-memory fraction (lower is better, ~retention/commits).
    let commits: u64 = if small { 1_024 } else { 4_096 };
    let peak_retained = |retention: Option<u64>| -> f64 {
        use oceanstore_replica::messages::TentativeId;
        let object = oceanstore_naming::guid::Guid::from_label("bench-record-log");
        let mut store = oceanstore_replica::ObjectStore::new();
        if let Some(r) = retention {
            store.set_record_retention(r);
        }
        let kp = oceanstore_crypto::schnorr::KeyPair::from_seed(b"bench-record-log");
        for i in 0..commits {
            let update = oceanstore_update::Update::unconditional(vec![
                oceanstore_update::update::Action::Append { ciphertext: vec![(i % 251) as u8; 32] },
            ]);
            let encoded = std::sync::Arc::new(oceanstore_update::encode_update(&update));
            let rec = store.serialize_update(
                object,
                &update,
                encoded,
                i,
                TentativeId { client: NodeId(0), counter: i },
            );
            let mut cert = oceanstore_crypto::threshold::SerializationCert::new();
            cert.add(kp.public(), kp.sign(&rec.signing_bytes()));
            store.set_cert(&object, i, cert);
        }
        store.health().peak_retained_records as f64
    };
    let (label, unbounded, bounded) = if small {
        ("store/peak_retained_records/1k_certified_commits", peak_retained(Some(u64::MAX)), peak_retained(None))
    } else {
        ("store/peak_retained_records/4k_certified_commits", peak_retained(Some(u64::MAX)), peak_retained(None))
    };
    assert_eq!(unbounded, commits as f64, "truncation-disabled run must retain everything");
    out.push(Bench { name: label, unit: "records", before: Some(unbounded), after: bounded });
    out
}

// --------------------------------------------------------------- engine --

/// `(events, messages)` of the gossip and grid engine runs, per preset.
const ENGINE_SCHEDULES_FULL: [(u64, u64); 2] = [(115_224, 110_400), (978_747, 195_584)];
const ENGINE_SCHEDULES_SMALL: [(u64, u64); 2] = [(23_064, 22_080), (192_315, 37_889)];

/// Gossip payload, sized like an erasure-coded fragment (a 64 KiB object
/// at rate 1/2 over 32 fragments): dissemination-tree multicast of
/// fragments is the broadcast pattern the engine's shared-payload
/// delivery exists for, and at this size per-recipient deep clones would
/// cost real memory traffic.
#[derive(Debug, Clone)]
struct Blob(Vec<u8>);

impl Message for Blob {
    fn wire_size(&self) -> usize {
        self.0.len()
    }
}

const GOSSIP_PERIOD_MS: u64 = 5;
const FRAGMENT_BYTES: usize = 4096;
const GRID_PERIODS_MS: [u64; 4] = [5, 11, 17, 29];
/// Grid side length for the timer workload: 32x32 = 1024 nodes, the
/// scale regime the wheel is built for (the paper's deployments are
/// thousands of servers, not hundreds).
const GRID_SIDE: usize = 32;
const GRID_N: usize = GRID_SIDE * GRID_SIDE;
/// Long-dated timeout timers armed per node in the grid workload; with
/// 1024 nodes this parks 131072 entries in the timer queue for the whole
/// run. Each is the kind of state a real deployment holds per stored
/// object — lease expirations, archival repair scans, retransmit
/// timeouts — and a server stores far more than 128 objects.
const PARKED_PER_NODE: u64 = 128;

/// Full-mesh gossip on the production engine: every node periodically
/// broadcasts a fragment-sized blob to all peers until its round budget
/// runs out. Receivers read only the header bytes, as a real protocol
/// would before handing the fragment to storage.
struct Gossip {
    id: usize,
    n: usize,
    rounds_left: u32,
    bytes_seen: u64,
}

impl Gossip {
    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.id;
        (0..self.n).filter(move |&i| i != me).map(NodeId)
    }
}

impl Protocol for Gossip {
    type Msg = Blob;

    fn on_start(&mut self, ctx: &mut Context<'_, Blob>) {
        ctx.set_timer(SimDuration::from_millis(GOSSIP_PERIOD_MS), 0);
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Blob>, _from: NodeId, msg: Blob) {
        self.bytes_seen += msg.0.len() as u64 + msg.0[0] as u64;
    }

    fn on_message_ref(&mut self, _ctx: &mut Context<'_, Blob>, _from: NodeId, msg: &Blob) {
        // Shared-payload delivery: read without cloning.
        self.bytes_seen += msg.0.len() as u64 + msg.0[0] as u64;
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, _tag: u64) {
        if self.rounds_left == 0 {
            return;
        }
        self.rounds_left -= 1;
        ctx.broadcast(self.peers(), Blob(vec![0xAB; FRAGMENT_BYTES]));
        ctx.set_timer(SimDuration::from_millis(GOSSIP_PERIOD_MS), 0);
    }
}

/// Timer-heavy grid workload: four staggered periodic timers per node,
/// sending a 16-byte message to a round-robin neighbour on every fourth
/// fire (heartbeat timers mostly fire without acting) — plus
/// [`PARKED_PER_NODE`] long-dated timeout timers per node that never fire
/// inside the horizon. The parked population models what a real deployment
/// carries (per-request retransmit timeouts, lease expirations, archival
/// repair scans): it is dead weight that a single event heap would sift
/// through, while the wheel parks it in a high level and never touches it.
struct GridTicker {
    id: usize,
    fires: u64,
    horizon: SimTime,
}

impl GridTicker {
    fn arm(&self, ctx_now: SimTime, tag: u64) -> Option<SimDuration> {
        let d = SimDuration::from_millis(GRID_PERIODS_MS[tag as usize]);
        (ctx_now + d <= self.horizon).then_some(d)
    }
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
            ctx.set_timer(SimDuration::from_secs(30 + i) + SimDuration::from_micros(self.id as u64), 100 + i);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, Blob>, _from: NodeId, _msg: Blob) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, Blob>, tag: u64) {
        if tag >= 100 {
            return; // a parked timeout expired: horizon outgrew the park
        }
        self.fires += 1;
        if self.fires.is_multiple_of(4) {
            let to = NodeId((self.id + 1 + (self.fires as usize % 3)) % GRID_N);
            ctx.send(to, Blob(vec![0x5A; 16]));
        }
        if let Some(d) = self.arm(ctx.now(), tag) {
            ctx.set_timer(d, tag);
        }
    }
}

/// Engine throughput at one thread on two shapes: full-mesh fragment
/// gossip (broadcast-heavy) and a 32x32 grid of ticking nodes with 128k
/// parked timers (timer-heavy). Each run's event and message counts are
/// pinned, so the rows always time the same schedule; `--check` holds
/// them to absolute floors.
fn bench_engine(small: bool) -> Vec<Bench> {
    let target = if small { 150 } else { 500 };
    let n = 24;
    let rounds = if small { 40 } else { 200 };
    let horizon = SimTime::ZERO + SimDuration::from_millis((rounds as u64 + 2) * GOSSIP_PERIOD_MS);
    let gossip = || {
        let nodes: Vec<Gossip> =
            (0..n).map(|id| Gossip { id, n, rounds_left: rounds, bytes_seen: 0 }).collect();
        let mut sim =
            Simulator::new(Topology::full_mesh(n, SimDuration::from_millis(2)), nodes, 42);
        sim.start();
        sim.run_until(horizon);
        (sim.events_processed(), sim.stats().total_messages())
    };

    // The grid topology is built and its Dijkstra caches warmed once,
    // outside the timed region; each run clones the warmed graph so the
    // measurement is the event loop, not 1024 shortest-path sweeps.
    let grid_horizon = SimTime::ZERO + SimDuration::from_millis(if small { 400 } else { 2000 });
    let topo = Topology::grid(GRID_SIDE, GRID_SIDE, SimDuration::from_millis(1));
    topo.warm_dist();
    let grid = || {
        let nodes: Vec<GridTicker> =
            (0..GRID_N).map(|id| GridTicker { id, fires: 0, horizon: grid_horizon }).collect();
        let mut sim = Simulator::new(topo.clone(), nodes, 7);
        sim.start();
        sim.run_until(grid_horizon);
        (sim.events_processed(), sim.stats().total_messages())
    };

    let mut out = Vec::new();
    let rows = [
        ("engine/events_per_sec/full_mesh_gossip_n24", &gossip as &dyn Fn() -> (u64, u64)),
        ("engine/events_per_sec/grid_32x32_128k_pending_timers", &grid),
    ];
    for (i, (name, run)) in rows.into_iter().enumerate() {
        let pinned = if small { ENGINE_SCHEDULES_SMALL[i] } else { ENGINE_SCHEDULES_FULL[i] };
        let (events, msgs) = run();
        assert_eq!((events, msgs), pinned, "{name}: the engine's schedule moved");
        let t = time_per_call(target * 2, || {
            run();
        });
        out.push(Bench { name, unit: "events/s", before: None, after: events as f64 / t });
    }
    out
}

// ---------------------------------------------------------- shard sweep --

/// Scale-out macro bars: committed updates per second of *sim time*
/// through 1, 4, and 16 consensus rings under a fixed open-loop offered
/// load chosen to saturate the single-ring tier. The workload harness
/// pre-generates a Poisson arrival schedule (Zipf-popular objects, pure
/// writes) and injects it regardless of completion, so a saturated
/// configuration visibly commits less than it was offered instead of
/// silently slowing the clients down. The rings-4 and rings-16 rows carry
/// the rings-1 number as their "before" side, making the speedup column
/// the scaling factor. Everything here is measured in simulated time from
/// a seeded run, so the numbers are bit-stable across hosts and the
/// frozen report diffs exactly.
fn bench_shard_sweep(small: bool) -> Vec<Bench> {
    let spec = |rings| WorkloadSpec {
        rings,
        m: 1,
        secondaries: if small { 8 } else { 16 },
        clients: 4,
        objects: if small { 64 } else { 128 },
        zipf_s: 0.9,
        write_fraction: 1.0,
        rate: if small { 6000.0 } else { 8000.0 },
        duration: SimDuration::from_millis(if small { 750 } else { 1500 }),
        drain: SimDuration::from_millis(500),
        latency: SimDuration::from_millis(20),
        seed: 7,
        threads: 1,
        drop_phase: None,
    };
    let horizon_secs = (spec(1).duration + spec(1).drain).as_micros() as f64 / 1e6;
    let per_sec = |rings: usize| {
        let r = run_workload(&spec(rings));
        assert_eq!(r.lost, 0, "rings={rings}: committed updates lost");
        assert_eq!(
            r.committed + r.pending,
            r.offered,
            "rings={rings}: outcomes unaccounted for"
        );
        r.committed as f64 / horizon_secs
    };
    let (r1, r4, r16) = (per_sec(1), per_sec(4), per_sec(16));
    assert!(
        r1 < r4 && r4 <= r16,
        "shard sweep did not scale: rings1={r1:.0}/s rings4={r4:.0}/s rings16={r16:.0}/s"
    );
    let rows = if small {
        ["workload/shard_sweep_committed_per_sec/rings1_small",
         "workload/shard_sweep_committed_per_sec/rings4_small",
         "workload/shard_sweep_committed_per_sec/rings16_small"]
    } else {
        ["workload/shard_sweep_committed_per_sec/rings1",
         "workload/shard_sweep_committed_per_sec/rings4",
         "workload/shard_sweep_committed_per_sec/rings16"]
    };
    vec![
        Bench { name: rows[0], unit: "updates/s", before: None, after: r1 },
        Bench { name: rows[1], unit: "updates/s", before: Some(r1), after: r4 },
        Bench { name: rows[2], unit: "updates/s", before: Some(r1), after: r16 },
    ]
}

// -------------------------------------------------------- threads sweep --

/// Wall-clock sweep of the conservative PDES scheduler over the paper-
/// scale scale-out workload (4 rings, 10k secondaries in the full preset;
/// 1k in the small CI preset). Each thread count runs the *identical*
/// deterministic schedule — the reports are asserted equal before any
/// timing is trusted — so the t2/t8 rows' speedup column is a pure
/// wall-clock ratio against the 1-thread run on the same host.
///
/// Every row name here is new in PR9, so `--diff-frozen` never compares
/// these host-dependent wall-clock ratios against numbers frozen on
/// different hardware; the `--check` bar for the t8 row is applied only
/// on hosts that actually have ≥ 8 cores.
fn bench_threads_sweep(small: bool) -> Vec<Bench> {
    let spec = WorkloadSpec {
        rings: 4,
        m: 1,
        secondaries: if small { 1_000 } else { 10_000 },
        clients: 4,
        objects: 64,
        zipf_s: 0.9,
        write_fraction: 0.8,
        rate: 30.0,
        duration: SimDuration::from_secs(if small { 2 } else { 5 }),
        drain: SimDuration::from_secs(if small { 2 } else { 4 }),
        latency: SimDuration::from_millis(20),
        seed: 7,
        threads: 1,
        drop_phase: None,
    };
    let scale = if small { "1k_nodes" } else { "10k_nodes" };
    let mut rows = Vec::new();
    let mut first: Option<(oceanstore_workload::WorkloadReport, f64)> = None;
    for threads in [1usize, 2, 8] {
        let start = Instant::now();
        let report = run_workload(&WorkloadSpec { threads, ..spec.clone() });
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(report.lost, 0, "threads={threads}: committed updates lost");
        let rate = report.committed as f64 / wall;
        let (t1_report, t1_rate) = match &first {
            None => {
                first = Some((report, rate));
                rows.push(Bench {
                    name: match scale {
                        "1k_nodes" => "sim/threads_sweep_committed_per_wall_sec_t1/1k_nodes",
                        _ => "sim/threads_sweep_committed_per_wall_sec_t1/10k_nodes",
                    },
                    unit: "updates/s",
                    before: None,
                    after: rate,
                });
                continue;
            }
            Some((r, t1)) => (r, *t1),
        };
        // The determinism contract, checked on the real benchmark
        // workload: thread count must never change what was computed.
        assert_eq!(
            &report, t1_report,
            "threads={threads} changed the workload report — determinism broken"
        );
        rows.push(Bench {
            name: match (small, threads) {
                (true, 2) => "sim/threads_sweep_committed_per_wall_sec_t2/1k_nodes",
                (true, _) => "sim/threads_sweep_committed_per_wall_sec_t8/1k_nodes",
                (false, 2) => "sim/threads_sweep_committed_per_wall_sec_t2/10k_nodes",
                (false, _) => "sim/threads_sweep_committed_per_wall_sec_t8/10k_nodes",
            },
            unit: "updates/s",
            before: Some(t1_rate),
            after: rate,
        });
    }
    rows
}

// -------------------------------------------------- chaos threads sweep --

/// The threads sweep again, but with a random-drop burst active across
/// the middle half of the run — the fault-injection regime that used to
/// force the scheduler's sequential fallback. Counter-mode drop verdicts
/// keep the epochs sharded straight through the burst, which this bench
/// proves before trusting any timing: the reports must be bit-identical
/// across thread counts, the threaded runs must schedule parallel windows
/// with zero fallbacks, and the serial barrier-commit fraction of epoch
/// wall time is recorded as its own rows.
///
/// Every row name here is new in PR10, so `--diff-frozen` never compares
/// these host-dependent wall-clock numbers against reports frozen on
/// different hardware. The serial-fraction rows carry no "before", so no
/// speedup bar ever applies to them; on 1-CPU hosts the t2/t8 rows are
/// honest overhead measurements (`machine.cpus` in the JSON says which).
fn bench_chaos_threads_sweep(small: bool) -> Vec<Bench> {
    let duration = SimDuration::from_secs(if small { 2 } else { 4 });
    let spec = WorkloadSpec {
        rings: 2,
        m: 1,
        secondaries: if small { 500 } else { 2_000 },
        clients: 4,
        objects: 64,
        zipf_s: 0.9,
        write_fraction: 0.8,
        rate: 30.0,
        duration,
        drain: SimDuration::from_secs(2),
        latency: SimDuration::from_millis(20),
        seed: 11,
        threads: 1,
        drop_phase: Some(DropPhase {
            start: SimDuration::from_micros(duration.as_micros() / 4),
            end: SimDuration::from_micros(duration.as_micros() * 3 / 4),
            prob: 0.1,
        }),
    };
    let mut rows = Vec::new();
    let mut t1: Option<(oceanstore_workload::WorkloadReport, f64)> = None;
    for threads in [1usize, 2, 8] {
        let start = Instant::now();
        let (report, cov) =
            run_workload_with_coverage(&WorkloadSpec { threads, ..spec.clone() });
        let wall = start.elapsed().as_secs_f64();
        assert_eq!(report.lost, 0, "threads={threads}: committed updates lost");
        let rate = report.committed as f64 / wall;
        match &t1 {
            None => {
                t1 = Some((report, rate));
                rows.push(Bench {
                    name: if small {
                        "sim/chaos_threads_sweep_committed_per_wall_sec_t1/small"
                    } else {
                        "sim/chaos_threads_sweep_committed_per_wall_sec_t1/2k_nodes"
                    },
                    unit: "updates/s",
                    before: None,
                    after: rate,
                });
            }
            Some((t1_report, t1_rate)) => {
                assert_eq!(
                    &report, t1_report,
                    "threads={threads} changed the chaos-phase workload report — \
                     determinism broken"
                );
                assert!(
                    cov.windows_parallel + cov.windows_inline > 0,
                    "threads={threads}: drop burst scheduled no parallel windows"
                );
                assert_eq!(
                    cov.fallback_entries, 0,
                    "threads={threads}: drop burst forced a sequential fallback"
                );
                rows.push(Bench {
                    name: match (small, threads) {
                        (true, 2) => "sim/chaos_threads_sweep_committed_per_wall_sec_t2/small",
                        (true, _) => "sim/chaos_threads_sweep_committed_per_wall_sec_t8/small",
                        (false, 2) => {
                            "sim/chaos_threads_sweep_committed_per_wall_sec_t2/2k_nodes"
                        }
                        (false, _) => {
                            "sim/chaos_threads_sweep_committed_per_wall_sec_t8/2k_nodes"
                        }
                    },
                    unit: "updates/s",
                    before: Some(*t1_rate),
                    after: rate,
                });
                rows.push(Bench {
                    name: match (small, threads) {
                        (true, 2) => "sim/chaos_threads_sweep_serial_fraction_t2/small",
                        (true, _) => "sim/chaos_threads_sweep_serial_fraction_t8/small",
                        (false, 2) => "sim/chaos_threads_sweep_serial_fraction_t2/2k_nodes",
                        (false, _) => "sim/chaos_threads_sweep_serial_fraction_t8/2k_nodes",
                    },
                    unit: "fraction",
                    before: None,
                    after: cov.serial_fraction(),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------- chaos --

fn bench_chaos(small: bool) -> Vec<Bench> {
    let seeds: u64 = if small { 4 } else { 20 };
    let opts = oceanstore_chaos::fuzz::FuzzOpts::default();
    let start = Instant::now();
    for seed in 0..seeds {
        let outcome = oceanstore_chaos::fuzz::run_fuzz(seed, &opts);
        assert!(
            outcome.report.passed(),
            "chaos fuzz seed {seed} failed invariants during perf run"
        );
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    vec![Bench {
        name: if small { "chaos/fuzz_wall_clock/4_seeds" } else { "chaos/fuzz_wall_clock/20_seeds" },
        unit: "ms",
        before: None,
        after: wall_ms,
    }]
}

// ----------------------------------------------------------------- json --

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn render_json(preset: &str, benches: &[Bench]) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |p| p.get());
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"oceanstore-perf-report/v1\",\n");
    s.push_str("  \"pr\": 10,\n");
    s.push_str(&format!("  \"preset\": \"{preset}\",\n"));
    s.push_str(&format!(
        "  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}},\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus
    ));
    s.push_str("  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        let before = b.before.map_or("null".to_string(), json_f64);
        let speedup = b.speedup().map_or("null".to_string(), json_f64);
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"before\": {}, \"after\": {}, \"speedup\": {}}}{}\n",
            b.name,
            b.unit,
            before,
            json_f64(b.after),
            speedup,
            if i + 1 == benches.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------- diff-frozen --

/// `(name, speedup)` rows from a frozen report. The parser is deliberately
/// line-oriented — `render_json` emits one bench object per line — so it
/// stays dependency-free; it is not a general JSON parser.
fn parse_frozen(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read frozen report {path}: {e}"));
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"name\":") {
            continue;
        }
        let Some(name) = line
            .split("\"name\": \"")
            .nth(1)
            .and_then(|s| s.split('"').next())
        else {
            continue;
        };
        let Some(raw) = line.split("\"speedup\": ").nth(1) else { continue };
        let raw = raw.trim_end_matches('}').trim();
        if let Ok(speedup) = raw.parse::<f64>() {
            out.push((name.to_string(), speedup));
        }
    }
    assert!(!out.is_empty(), "{path} holds no benches with a speedup — wrong file?");
    out
}

/// Compares two frozen reports: every speedup present in both must be no
/// more than 20% below its old value. Returns the failure descriptions.
fn diff_frozen(old_path: &str, new_path: &str) -> Vec<String> {
    const TOLERANCE: f64 = 0.8;
    let old = parse_frozen(old_path);
    let new = parse_frozen(new_path);
    let mut failures = Vec::new();
    let mut compared = 0;
    for (name, old_speedup) in &old {
        let Some((_, new_speedup)) = new.iter().find(|(n, _)| n == name) else {
            continue;
        };
        compared += 1;
        let ratio = new_speedup / old_speedup;
        let verdict = if ratio >= TOLERANCE { "ok" } else { "FAIL" };
        println!(
            "{name:<52} {old_speedup:>8.2}x -> {new_speedup:>8.2}x  ({:.0}%)  {verdict}",
            ratio * 100.0
        );
        if ratio < TOLERANCE {
            failures.push(format!(
                "{name}: frozen speedup fell {old_speedup:.2}x -> {new_speedup:.2}x \
                 (more than 20% regression)"
            ));
        }
    }
    assert!(
        compared > 0,
        "no bench names shared between {old_path} and {new_path} — nothing was checked"
    );
    failures
}

// ----------------------------------------------------------------- main --

/// `--check` floors for the full-preset rows that have no in-process
/// "before": 0.8 × (the `--diff-frozen` tolerance) the median these rows
/// measured on a shared 2-vCPU x86_64 host just before the frozen engine
/// and consensus copies were deleted, over 16 runs interleaved with the
/// new code (CHANGES.md lists them).
const FLOORS: [(&str, f64); 3] = [
    ("engine/events_per_sec/full_mesh_gossip_n24", 5_794_000.0),
    ("engine/events_per_sec/grid_32x32_128k_pending_timers", 4_652_000.0),
    ("consensus/committed_updates_per_sec/m2_tier7_4k", 5_114.0),
];

fn main() {
    let args = parse_args();
    if let Some((old, new)) = &args.diff_frozen {
        let failures = diff_frozen(old, new);
        for f in &failures {
            eprintln!("perf_report: FAIL {f}");
        }
        std::process::exit(if failures.is_empty() { 0 } else { 1 });
    }
    let preset = if args.small { "small" } else { "full" };
    eprintln!("perf_report: preset={preset}");

    let mut benches = Vec::new();
    benches.extend(bench_gf256(args.small));
    benches.extend(bench_rs(args.small));
    benches.extend(bench_schnorr(args.small));
    benches.extend(bench_consensus(args.small));
    benches.extend(bench_long_horizon(args.small));
    benches.extend(bench_store(args.small));
    benches.extend(bench_engine(args.small));
    benches.extend(bench_shard_sweep(args.small));
    benches.extend(bench_threads_sweep(args.small));
    benches.extend(bench_chaos_threads_sweep(args.small));
    benches.extend(bench_chaos(args.small));

    println!("{:<44} {:>12} {:>12} {:>8}  unit", "bench", "before", "after", "speedup");
    for b in &benches {
        println!(
            "{:<44} {:>12} {:>12} {:>8}  {}",
            b.name,
            b.before.map_or("-".to_string(), |v| format!("{v:.1}")),
            format!("{:.1}", b.after),
            b.speedup().map_or("-".to_string(), |v| format!("{v:.2}x")),
            b.unit
        );
    }

    let json = render_json(preset, &benches);
    std::fs::write(&args.out, &json).expect("write report");
    eprintln!("perf_report: wrote {}", args.out);

    let mut failures = Vec::new();
    if let Some(floor) = args.min_gf256_mbps {
        let gf = benches.iter().find(|b| b.name.starts_with("gf256/")).expect("gf256 bench");
        if gf.after < floor {
            failures.push(format!("gf256 {:.1} MB/s below floor {floor} MB/s", gf.after));
        }
    }
    if args.check {
        let mut bars = vec![
            ("gf256/mul_acc_slice", 4.0),
            ("rs/encode", 3.0),
            ("schnorr/verify/batch32", 3.0),
            // rings1 is the baseline row (no "before"); the scale-out bar
            // applies to the sharded configurations only.
            ("workload/shard_sweep_committed_per_sec/rings4", 2.0),
            ("workload/shard_sweep_committed_per_sec/rings16", 2.0),
        ];
        // The parallel-speedup bar is a wall-clock property of the host:
        // a box without 8 real cores can't honestly show an 8-thread
        // speedup, so the bar only arms where the hardware exists.
        if std::thread::available_parallelism().is_ok_and(|p| p.get() >= 8) {
            bars.push(("sim/threads_sweep_committed_per_wall_sec_t8", 2.0));
        }
        for (prefix, bar) in bars {
            for b in benches.iter().filter(|b| b.name.starts_with(prefix)) {
                match b.speedup() {
                    Some(s) if s >= bar => {}
                    Some(s) => failures.push(format!("{}: {s:.2}x < required {bar}x", b.name)),
                    None => failures.push(format!("{}: no before measurement", b.name)),
                }
            }
        }
        if !args.small {
            for (name, floor) in FLOORS {
                let b = benches.iter().find(|b| b.name == name).expect("floored row ran");
                if b.after < floor {
                    failures.push(format!("{name}: {:.1} {} < floor {floor}", b.after, b.unit));
                }
            }
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("perf_report: FAIL {f}");
        }
        std::process::exit(1);
    }
}
