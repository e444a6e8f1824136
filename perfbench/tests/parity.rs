//! The benchmark's open-loop runner must measure the same program the
//! workload crate describes: on the same spec it reproduces
//! `run_workload`'s report exactly, at one and at two simulator threads.

use oceanstore_perfbench::openloop;
use oceanstore_perfbench::report::percentile;
use oceanstore_perfbench::trace::Tracer;
use oceanstore_sim::SimDuration;
use oceanstore_workload::{run_workload, WorkloadSpec};

fn small_spec(threads: usize) -> WorkloadSpec {
    WorkloadSpec {
        rings: 2,
        secondaries: 12,
        objects: 8,
        rate: 40.0,
        duration: SimDuration::from_secs(3),
        drain: SimDuration::from_secs(2),
        seed: 11,
        threads,
        ..WorkloadSpec::default()
    }
}

#[test]
fn open_loop_runner_reproduces_run_workload() {
    for threads in [1, 2] {
        let spec = small_spec(threads);
        let want = run_workload(&spec);
        for traced in [false, true] {
            let mut tr = Tracer::new(traced);
            let got = openloop::run(&spec, &mut tr).expect("no violation").outcome;
            let lat = &got.latencies_us;
            let ctx = format!("threads={threads} traced={traced}");
            assert_eq!(got.writes, want.offered, "offered, {ctx}");
            assert_eq!(got.committed, want.committed, "committed, {ctx}");
            assert_eq!(got.reads, want.reads, "reads, {ctx}");
            assert_eq!(got.stale_reads, want.stale_reads, "stale reads, {ctx}");
            assert_eq!(got.lost, want.lost, "lost, {ctx}");
            assert_eq!(got.pending, want.pending, "pending, {ctx}");
            assert_eq!(percentile(lat, 0.50), want.p50_us, "p50, {ctx}");
            assert_eq!(percentile(lat, 0.99), want.p99_us, "p99, {ctx}");
            assert_eq!(percentile(lat, 0.999), want.p999_us, "p999, {ctx}");
            assert!(
                want.offered > 50 && want.reads > 10,
                "spec must exercise both paths"
            );
        }
    }
}

#[test]
fn traced_run_records_nested_spans_with_request_ids() {
    let mut tr = Tracer::new(true);
    let ep = openloop::run(&small_spec(1), &mut tr).expect("no violation");
    let layers = tr.layer_times();
    assert_eq!(layers["replica.submit"].calls, ep.outcome.writes);
    assert_eq!(
        layers["workload.probe"].calls,
        ep.outcome.writes + ep.outcome.reads
    );
    let root = tr
        .spans()
        .iter()
        .position(|s| s.name == "workload.run")
        .expect("root span");
    assert!(tr
        .spans()
        .iter()
        .filter(|s| s.name == "sim.run" || s.name == "replica.submit")
        .all(|s| s.parent == Some(root)));
    let ids: Vec<u64> = tr.spans().iter().filter_map(|s| s.request).collect();
    assert_eq!(
        ids.len() as u64,
        ep.outcome.writes,
        "one request id per write"
    );
}

#[test]
fn archive_episode_recovers_every_object_after_losing_a_third_of_the_servers() {
    use oceanstore_perfbench::archive::{self, ArchiveSpec};
    let spec = ArchiveSpec {
        secondaries: 8,
        objects: 3,
        object_rate: 20.0,
        update_gap: SimDuration::from_millis(60),
        blocks: 4,
        block_bytes: 64,
        updated_blocks: 2,
        k: 4,
        n: 8,
        settle: SimDuration::from_secs(1),
        latency: SimDuration::from_millis(20),
        seed: 5,
    };
    let ep = archive::run(&spec, &mut Tracer::new(false)).expect("no violation");
    let o = &ep.outcome;
    assert_eq!((o.writes, o.committed, o.pending), (6, 6, 0));
    assert_eq!((o.recoveries, o.recovery_timeouts), (3, 0));
    assert_eq!(o.locates, 3);
    assert_eq!(o.lookup_latencies_us.len() as u64, 6 - o.locate_misses);
    let again = archive::run(&spec, &mut Tracer::new(true))
        .expect("no violation")
        .outcome;
    assert_eq!(&again, o, "same seed, same outcome, traced or not");
}
