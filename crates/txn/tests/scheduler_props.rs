//! The serial scheduler's record table against the paper's state sets.
//!
//! `SerialScheduler` keeps one record per transaction and evaluates the
//! set-quantified output preconditions through per-parent counters. This
//! suite drives it and a brute-force transcription of §2.2 — the six
//! state sets, with every precondition evaluated by quantifying over
//! them — through the same arbitrary operation scripts on a small
//! transaction tree. After every step both must accept or refuse alike,
//! enable the same outputs in the same order, and agree on orphans.

use std::collections::{BTreeMap, BTreeSet};

use ioa::Component;
use nested_txn::{AccessSpec, ObjectId, SerialScheduler, Tid, TxnOp, Value};
use proptest::prelude::*;

/// The small transaction tree the scripts name: the root, three
/// children, and a few grandchildren and great-grandchildren.
const UNIVERSE: &[&[u32]] = &[
    &[],
    &[0],
    &[1],
    &[2],
    &[0, 0],
    &[0, 1],
    &[1, 0],
    &[0, 0, 0],
    &[0, 0, 1],
];

/// The paper's scheduler state, verbatim (§2.2).
#[derive(Default)]
struct PaperScheduler {
    create_requested: BTreeMap<Tid, (Option<AccessSpec>, Option<Value>)>,
    created: BTreeSet<Tid>,
    commit_requested: BTreeMap<Tid, Value>,
    committed: BTreeMap<Tid, Value>,
    aborted: BTreeSet<Tid>,
    returned: BTreeSet<Tid>,
}

impl PaperScheduler {
    fn new() -> Self {
        let mut s = PaperScheduler::default();
        s.create_requested.insert(Tid::root(), (None, None));
        s
    }

    /// `T ∈ create-requested − (created ∪ aborted)` and
    /// `siblings(T) ∩ created ⊆ returned`.
    fn create_pre(&self, t: &Tid) -> bool {
        self.create_requested.contains_key(t)
            && !self.created.contains(t)
            && !self.aborted.contains(t)
            && self
                .created
                .iter()
                .filter(|c| c.is_sibling_of(t))
                .all(|c| self.returned.contains(c))
    }

    /// `(T,v) ∈ commit-requested`, `T ∉ returned`, and
    /// `children(T) ∩ create-requested ⊆ returned`; never the root.
    fn commit_pre(&self, t: &Tid, v: &Value) -> bool {
        !t.is_root()
            && self.commit_requested.get(t) == Some(v)
            && !self.returned.contains(t)
            && self
                .create_requested
                .keys()
                .filter(|c| c.is_child_of(t))
                .all(|c| self.returned.contains(c))
    }

    /// `ABORT(T)` shares `CREATE(T)`'s precondition; never the root.
    fn abort_pre(&self, t: &Tid) -> bool {
        !t.is_root() && self.create_pre(t)
    }

    /// Whether some ancestor of `t` (itself included) has aborted.
    fn is_orphan(&self, t: &Tid) -> bool {
        self.aborted.iter().any(|a| a.is_ancestor_of(t))
    }

    /// Creates (each followed by its abort, except the root's), then
    /// commits, each in ascending transaction order.
    fn enabled_outputs(&self) -> Vec<TxnOp> {
        let mut out = Vec::new();
        for (t, (access, param)) in &self.create_requested {
            if self.create_pre(t) {
                out.push(TxnOp::Create {
                    tid: t.clone(),
                    access: access.clone(),
                    param: param.clone(),
                });
                if self.abort_pre(t) {
                    out.push(TxnOp::Abort { tid: t.clone() });
                }
            }
        }
        for (t, v) in &self.commit_requested {
            if self.commit_pre(t, v) {
                out.push(TxnOp::Commit {
                    tid: t.clone(),
                    value: v.clone(),
                });
            }
        }
        out
    }

    /// Perform `op` if enabled; inputs always are (set-union
    /// postconditions). Returns whether the step was taken.
    fn apply(&mut self, op: &TxnOp) -> bool {
        match op {
            TxnOp::RequestCreate { tid, access, param } => {
                self.create_requested
                    .entry(tid.clone())
                    .or_insert_with(|| (access.clone(), param.clone()));
                true
            }
            TxnOp::RequestCommit { tid, value } => {
                self.commit_requested
                    .entry(tid.clone())
                    .or_insert_with(|| value.clone());
                true
            }
            TxnOp::Create { tid, .. } => {
                let ok = self.create_pre(tid);
                if ok {
                    self.created.insert(tid.clone());
                }
                ok
            }
            TxnOp::Commit { tid, value } => {
                let ok = self.commit_pre(tid, value);
                if ok {
                    self.committed.insert(tid.clone(), value.clone());
                    self.returned.insert(tid.clone());
                }
                ok
            }
            TxnOp::Abort { tid } => {
                let ok = self.abort_pre(tid);
                if ok {
                    self.aborted.insert(tid.clone());
                    self.returned.insert(tid.clone());
                }
                ok
            }
        }
    }
}

/// One scripted step: `(kind, transaction, value, payload)`. Kinds 0–4
/// are `REQUEST-CREATE`, `REQUEST-COMMIT`, `CREATE`, `COMMIT`, `ABORT`
/// of the named transaction; kind 5 fires the `k`-th output the paper's
/// scheduler has enabled (`k` = the transaction index), so scripts also
/// walk deep into reachable states.
type Step = (u8, usize, i64, u8);

fn op_of(step: Step, paper: &PaperScheduler) -> Option<TxnOp> {
    let (kind, which, v, payload) = step;
    let tid = Tid::from_path(UNIVERSE[which]);
    let value = Value::Int(v);
    Some(match kind {
        0 => TxnOp::RequestCreate {
            tid,
            access: (payload & 1 == 1).then(|| AccessSpec::write(ObjectId(0), value.clone())),
            param: (payload & 2 == 2).then_some(value),
        },
        1 => TxnOp::RequestCommit { tid, value },
        2 => TxnOp::Create {
            tid,
            access: None,
            param: None,
        },
        3 => TxnOp::Commit { tid, value },
        4 => TxnOp::Abort { tid },
        _ => {
            let enabled = paper.enabled_outputs();
            if enabled.is_empty() {
                return None;
            }
            enabled[which % enabled.len()].clone()
        }
    })
}

fn script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..6, 0usize..UNIVERSE.len(), 0i64..3, 0u8..4), 0..48)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn record_table_matches_the_paper_sets(steps in script()) {
        let mut table = SerialScheduler::new();
        let mut paper = PaperScheduler::new();
        prop_assert_eq!(table.enabled_outputs(), paper.enabled_outputs());
        for (i, &step) in steps.iter().enumerate() {
            let Some(op) = op_of(step, &paper) else { continue };
            let accepted = table.apply(&op).is_ok();
            prop_assert_eq!(accepted, paper.apply(&op), "step {}: {}", i, op);
            prop_assert_eq!(
                table.enabled_outputs(),
                paper.enabled_outputs(),
                "enabled outputs after step {}: {}",
                i,
                op
            );
            for path in UNIVERSE {
                let t = Tid::from_path(path);
                prop_assert_eq!(table.is_orphan(&t), paper.is_orphan(&t), "orphan {}", t);
            }
        }
    }
}
