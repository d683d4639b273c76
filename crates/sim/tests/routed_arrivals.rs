//! Routed arrival streams under migration: an item's arrivals are a pure
//! function of `(seed, item, t)`, so however the item moves between
//! shards — including away and back within one arrival period — it must
//! begin exactly the operations it begins when it never moves.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use qc_sim::{
    run_sharded_elastic, run_sharded_elastic_traced, ElasticPolicy, FaultPlan, MultiConfig,
    PlacementPolicy, ReconfigPolicy, SeedPlacement, SimTime, Workload,
};
use quorum::Majority;

/// Four uniform items on two shards, routed at 50 ms per arrival overall,
/// so each item's period is 200 ms — far longer than a stale retry, so no
/// migration can make an arrival land on a still-retrying operation.
fn base(duration: SimTime) -> MultiConfig {
    let mut c = MultiConfig::new(Arc::new(Majority::new(3)));
    c.items = 4;
    c.shards = 2;
    c.read_fraction = 0.5;
    c.seed = 1;
    c.workload = Workload::Routed {
        interarrival: SimTime::from_millis(50),
    };
    c.duration = duration;
    c.reconfig = ReconfigPolicy::scripted_only();
    // Only the scripted `migrate@` events move items.
    c.placement = PlacementPolicy::Elastic(ElasticPolicy {
        seed: SeedPlacement::RoundRobin,
        max_moves_per_epoch: 0,
        ..ElasticPolicy::new()
    });
    c
}

fn attempts(c: &MultiConfig) -> u64 {
    let (r, _) = run_sharded_elastic(c, 1);
    r.metrics.reads.attempts + r.metrics.writes.attempts
}

/// Per item, the logical operations the traced run began (its distinct
/// per-item operation indices). An operation a barrier aborts still
/// appears, as its `ABORT(stale)`.
fn ops_begun(c: &MultiConfig) -> Vec<BTreeSet<u64>> {
    let (_, traces, _) = run_sharded_elastic_traced(c, 1);
    traces
        .iter()
        .map(|t| t.events.iter().map(|e| e.tid.op).collect())
        .collect()
}

/// Item 0 leaves for shard 1 at 10 ms and returns at 30 ms, both well
/// inside its 200 ms arrival period: its arrival queued on shard 0 before
/// the first barrier is still pending when it returns, and must not fire
/// next to the fresh stream the return starts.
#[test]
fn bounced_item_attempts_equal_the_unmoved_run() {
    let still = base(SimTime::from_secs(3));
    let mut bounced = still.clone();
    bounced.faults = FaultPlan::parse("migrate@10:0->1; migrate@30:0->0").unwrap();
    let (_, placement) = run_sharded_elastic(&bounced, 1);
    assert_eq!(placement.migrations, 2, "both moves applied");
    assert_eq!(attempts(&bounced), attempts(&still));
    assert_eq!(ops_begun(&bounced), ops_begun(&still));
}

fn migrate_plan() -> impl Strategy<Value = Vec<(u64, usize, usize)>> {
    prop::collection::vec((1u64..1_000, 0usize..4, 0usize..2), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any `migrate@` plan — bounces, repeated moves, moves to the
    /// current owner — leaves every item's begun operations exactly those
    /// of the unmoved run: no arrival is lost or duplicated.
    #[test]
    fn routed_operations_are_invariant_under_migration(plan in migrate_plan()) {
        let still = base(SimTime::from_secs(1));
        let mut moved = still.clone();
        let text: Vec<String> = plan
            .iter()
            .map(|(ms, item, to)| format!("migrate@{ms}:{item}->{to}"))
            .collect();
        moved.faults = FaultPlan::parse(&text.join("; ")).unwrap();
        prop_assert_eq!(ops_begun(&moved), ops_begun(&still), "plan {}", text.join("; "));
    }
}
