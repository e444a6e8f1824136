//! One event loop, end to end: a small replicated deployment (one ring,
//! m = 1, 16 secondaries) takes a few client updates and runs to a fixed
//! time at 1, 2 and 3 worker threads. Every thread count is the same
//! window scheduler over a different domain partition — one domain at one
//! thread — so network accounting, the event count and what the client
//! observed must match exactly.

use oceanstore::naming::guid::Guid;
use oceanstore::replica::{build_deployment, DeploymentOpts};
use oceanstore::sim::{SimDuration, SimTime};
use oceanstore::update::update::Action;
use oceanstore::update::Update;

/// Everything observable about one run, rendered for exact comparison.
fn run(threads: usize) -> String {
    let mut dep = build_deployment(&DeploymentOpts {
        rings: 1,
        m: 1,
        secondaries: 16,
        seed: 12,
        ..DeploymentOpts::default()
    });
    dep.sim.set_threads(threads);
    let client = dep.clients[0];
    let mut ids = Vec::new();
    for i in 0..3u8 {
        let object = Guid::from_label(&format!("one-event-loop-{i}"));
        let update = Update::unconditional(vec![Action::Append {
            ciphertext: vec![i; 64],
        }]);
        ids.push(dep.sim.with_node_ctx(client, |node, ctx| {
            node.as_client_mut()
                .expect("client")
                .submit(ctx, object, &update)
        }));
        dep.sim.run_for(SimDuration::from_millis(50));
    }
    dep.sim.run_until(SimTime::ZERO + SimDuration::from_secs(2));

    let node = dep.sim.node(client).as_client().expect("client");
    let outcomes: Vec<_> = ids
        .iter()
        .map(|&id| node.outcome(id).map(|o| (o.seq, o.sent_at, o.committed_at)))
        .collect();
    assert!(
        outcomes.iter().all(Option::is_some),
        "threads={threads}: an update never committed: {outcomes:?}"
    );
    let s = dep.sim.stats();
    let classes: Vec<_> = s.classes().collect();
    let drops: Vec<_> = s.drops_by_cause().collect();
    format!(
        "events={} msgs={} bytes={} drops={drops:?} classes={classes:?} outcomes={outcomes:?}",
        dep.sim.events_processed(),
        s.total_messages(),
        s.total_bytes(),
    )
}

#[test]
fn thread_counts_share_one_schedule() {
    let one = run(1);
    for threads in [2, 3] {
        assert_eq!(
            run(threads),
            one,
            "threads={threads} diverged from the one-domain run"
        );
    }
}
