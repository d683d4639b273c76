//! Layer replay harness: each layer's public functions, timed from
//! outside the engines on inputs shaped like one workload's own.
//!
//! Every function returns nanoseconds per call over repeated batches; the
//! caller reports their [`Samples::median`]. Inputs are generated
//! before timing from a fixed-seed stream, so only the layer call is
//! measured.

use std::hint::black_box;
use std::time::Instant;

use qc_cc::{LockMode, LockTable, PathTid};
use qc_obs::{Histogram, TxnTrace};
use qc_sim::{
    cum_weight_table, plan_moves, CommittedTxn, DmArena, ElasticPolicy, EventQueue, InvariantProbe,
    ItemDist, LatencyModel, PlacementDirectory, QueueImpl, QueueKind, ScheduleTrace, SeedPlacement,
};
use quorum::{QuorumSpec, ReplicaSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::measure::{timed, Samples};

/// Seed of the replay inputs (fixed: the inputs are a function of the
/// workload's shape, not of the run's seed).
const REPLAY_SEED: u64 = 0x5eed_1a7e;

/// Repeat `batch` until `budget_s` is spent (at least 5 times), each call
/// returning how many layer calls it timed and their wall seconds.
fn batches(budget_s: f64, mut batch: impl FnMut() -> (u64, f64)) -> Samples {
    let start = Instant::now();
    let mut s = Samples::default();
    while s.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let (calls, secs) = batch();
        s.push(secs * 1e9 / calls.max(1) as f64);
    }
    s
}

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(REPLAY_SEED)
}

/// `sim::queue`: one hold step (pop the minimum, push a successor at the
/// popped time plus a LAN one-way delay) on the engines' default queue
/// holding `depth` pending events.
pub fn queue_hold_ns(depth: usize, budget_s: f64) -> Samples {
    let mut r = rng();
    let lan = LatencyModel::lan();
    let delays: Vec<_> = (0..4096).map(|_| lan.sample(&mut r)).collect();
    let mut q: QueueImpl<u64> = QueueImpl::new(QueueKind::from_env());
    let mut seq = 0u64;
    for d in delays.iter().take(depth.max(1)) {
        q.push(*d, seq, seq);
        seq += 1;
    }
    const CALLS: u64 = 200_000;
    batches(budget_s, || {
        let start = Instant::now();
        for i in 0..CALLS {
            let (t, _, e) = q.pop().expect("the hold queue never drains");
            seq += 1;
            q.push(t + delays[(i & 4095) as usize], seq, black_box(e));
        }
        (CALLS, start.elapsed().as_secs_f64())
    })
}

/// Live-site masks of `n` sites, each up with probability `up`.
pub fn live_masks(n: usize, up: f64) -> Vec<ReplicaSet> {
    let mut r = rng();
    (0..4096)
        .map(|_| {
            let mut s = ReplicaSet::new();
            for site in 0..n {
                if r.gen_bool(up) {
                    s.insert(site);
                }
            }
            s
        })
        .collect()
}

/// `quorum`: `find_read_quorum_bits` (or `find_write_quorum_bits` when
/// `write`) over the given live-site masks, through the trait object the
/// engines hold.
pub fn quorum_find_ns(
    q: &dyn QuorumSpec,
    masks: &[ReplicaSet],
    write: bool,
    budget_s: f64,
) -> Samples {
    const ROUNDS: usize = 64;
    batches(budget_s, || {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            for &m in masks {
                let found = if write {
                    q.find_write_quorum_bits(black_box(m))
                } else {
                    q.find_read_quorum_bits(black_box(m))
                };
                black_box(found);
            }
        }
        ((ROUNDS * masks.len()) as u64, start.elapsed().as_secs_f64())
    })
}

/// Item draws of a workload's popularity distribution over `items`.
pub fn item_draws(items: usize, dist: ItemDist, count: usize) -> Vec<usize> {
    let all: Vec<usize> = (0..items).collect();
    let (cum, total) = cum_weight_table(&all, dist);
    let mut r = rng();
    (0..count)
        .map(|_| {
            let u = r.gen::<f64>() * total;
            cum.partition_point(|&c| c <= u).min(items - 1)
        })
        .collect()
}

/// `sim::arena`: `(discover ns, install ns)` per call on an arena of
/// `items × n` slots, touching the items in `draws`: discover folds the
/// read quorum's slots, install writes the write quorum's.
pub fn arena_ns(
    q: &dyn QuorumSpec,
    items: usize,
    draws: &[usize],
    budget_s: f64,
) -> (Samples, Samples) {
    let n = q.n();
    let full = ReplicaSet::full(n);
    let read = q
        .find_read_quorum_bits(full)
        .expect("a healthy system has a read quorum");
    let write = q
        .find_write_quorum_bits(full)
        .expect("a healthy system has a write quorum");
    let mut arena = DmArena::new_configured(items * n, n);
    let discover = batches(budget_s / 2.0, || {
        let start = Instant::now();
        for &g in draws {
            black_box(arena.discover(g * n, read.iter()));
        }
        (draws.len() as u64, start.elapsed().as_secs_f64())
    });
    let mut vn = 0u64;
    let install = batches(budget_s / 2.0, || {
        let start = Instant::now();
        for &g in draws {
            vn += 1;
            for s in write.iter() {
                arena.set(g * n + s, vn, vn);
            }
        }
        black_box(&arena);
        (draws.len() as u64, start.elapsed().as_secs_f64())
    });
    (discover, install)
}

/// Lemma monitor (`InvariantProbe` over `LemmaChecker`): one commit check
/// per call on one item's `n` slots, as the engines make it. A read
/// checks its value against the logical state (the store re-check is
/// memoized between writes); a write, installed at a write quorum first,
/// digests into the history and re-scans the stores. Reads come with
/// probability `read_fraction`.
pub fn lemma_check_ns(q: &dyn QuorumSpec, read_fraction: f64, budget_s: f64) -> Samples {
    let n = q.n();
    let write = q
        .find_write_quorum_bits(ReplicaSet::full(n))
        .expect("a healthy system has a write quorum");
    let mut r = rng();
    let reads: Vec<bool> = (0..4096).map(|_| r.gen_bool(read_fraction)).collect();
    let mut arena = DmArena::new(n);
    let mut probe = InvariantProbe::new();
    let mut vn = 0u64;
    batches(budget_s, || {
        let start = Instant::now();
        for &is_read in &reads {
            let ok = if is_read {
                probe.check_read_value(vn)
            } else {
                vn += 1;
                for s in write.iter() {
                    arena.set(s, vn, vn);
                }
                probe
                    .commit_write_digest(vn, vn)
                    .and_then(|()| probe.check_arena(&arena, 0, n, q))
            };
            ok.expect("a faithful replay satisfies the lemmas");
        }
        (reads.len() as u64, start.elapsed().as_secs_f64())
    })
}

/// `cc::lock_table`: one Moss acquire (by a depth-2 subtransaction) plus
/// its release (inherit to the parent, release at top-level commit,
/// rescan) per call, on a table of `items` slots.
pub fn lock_ns(items: usize, read_fraction: f64, budget_s: f64) -> Samples {
    let mut r = rng();
    let ops: Vec<(usize, LockMode)> = (0..4096)
        .map(|_| {
            let mode = if r.gen_bool(read_fraction) {
                LockMode::Read
            } else {
                LockMode::Write
            };
            (r.gen_range(0..items), mode)
        })
        .collect();
    let mut table = LockTable::new(items);
    let mut epoch = 0u32;
    batches(budget_s, || {
        let start = Instant::now();
        for &(item, mode) in &ops {
            epoch = epoch.wrapping_add(1);
            let top = PathTid::top(0, epoch);
            let leaf = top.child(0).child(1);
            black_box(table.acquire(item, leaf, mode));
            table.inherit(item, &leaf);
            table.inherit(item, &leaf.parent().expect("depth-2 leaf"));
            table.release_top(item, 0, epoch);
            black_box(table.rescan(item));
        }
        (ops.len() as u64, start.elapsed().as_secs_f64())
    })
}

/// `sim::placement`: `owner_of` over zipf-ordered item draws on a
/// directory of `items` items over `shards` shards.
pub fn owner_of_ns(items: usize, shards: usize, draws: &[usize], budget_s: f64) -> Samples {
    let dir = PlacementDirectory::seed(items, shards, SeedPlacement::Range);
    batches(budget_s, || {
        let start = Instant::now();
        let mut acc = 0usize;
        for &g in draws {
            acc = acc.wrapping_add(dir.owner_of(black_box(g)));
        }
        black_box(acc);
        (draws.len() as u64, start.elapsed().as_secs_f64())
    })
}

/// `sim::placement`: microseconds per `plan_moves` call on one epoch's
/// per-item commit deltas.
pub fn plan_moves_us(deltas: &[u64], shards: usize, budget_s: f64) -> Samples {
    let pol = ElasticPolicy::new();
    let dir = PlacementDirectory::seed(deltas.len(), shards, pol.seed);
    let s = batches(budget_s, || {
        let start = Instant::now();
        black_box(plan_moves(black_box(deltas), &dir, &pol));
        (1, start.elapsed().as_secs_f64())
    });
    Samples(s.0.iter().map(|ns| ns / 1e3).collect())
}

/// `count` samples (µs) drawn from `hist`'s quantiles, in a fixed order.
pub fn samples_like(hist: &Histogram, count: usize) -> Vec<u64> {
    let mut r = rng();
    (0..count).map(|_| hist.quantile(r.gen::<f64>())).collect()
}

/// `obs::hist`: one `Histogram::record` per call.
pub fn hist_record_ns(values: &[u64], budget_s: f64) -> Samples {
    batches(budget_s, || {
        let mut h = Histogram::new();
        let start = Instant::now();
        for &v in values {
            h.record(black_box(v));
        }
        black_box(&h);
        (values.len() as u64, start.elapsed().as_secs_f64())
    })
}

/// `obs::causal`: `(push_seg ns, critical_path ns)` per call, replaying
/// the recorded span trees of a workload: every segment is pushed again
/// onto a copy of its tree with the segments removed, and every tree's
/// critical path is extracted.
pub fn causal_ns(traces: &[TxnTrace], budget_s: f64) -> (Samples, Samples) {
    let skeletons: Vec<TxnTrace> = traces
        .iter()
        .map(|t| {
            let mut s = t.clone();
            for span in &mut s.spans {
                span.segs.clear();
            }
            s
        })
        .collect();
    let segs: u64 = traces
        .iter()
        .flat_map(|t| &t.spans)
        .map(|s| s.segs.len() as u64)
        .sum();
    let push = batches(budget_s / 2.0, || {
        let mut work = skeletons.clone();
        let start = Instant::now();
        for (dst, src) in work.iter_mut().zip(traces) {
            for (i, span) in src.spans.iter().enumerate() {
                for seg in &span.segs {
                    dst.push_seg(i as u32, seg.kind, seg.at_us, seg.dur_us, seg.blocker);
                }
            }
        }
        let secs = start.elapsed().as_secs_f64();
        black_box(&work);
        (segs, secs)
    });
    let path = batches(budget_s / 2.0, || {
        let start = Instant::now();
        for t in traces {
            black_box(t.critical_path());
        }
        (traces.len() as u64, start.elapsed().as_secs_f64())
    });
    (push, path)
}

/// `core::conformance`: seconds of one Theorem 10 pass over every trace.
pub fn theorem10_pass_s(traces: &[&ScheduleTrace], q: &dyn QuorumSpec) -> f64 {
    timed(|| {
        for t in traces {
            black_box(qc_sim::check_trace(t, q).expect("the gate passed these traces"));
        }
    })
    .1
}

/// `core::serializability`: seconds of one Theorem 11 pass.
pub fn theorem11_pass_s(commits: &[CommittedTxn]) -> f64 {
    timed(|| {
        black_box(
            qc_sim::check_commit_order_serializable(&|_| 0, commits)
                .expect("the gate passed this projection"),
        )
    })
    .1
}
