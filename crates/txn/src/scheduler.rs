//! The serial scheduler automaton (paper §2.2, fully specified).

use std::any::Any;
use std::collections::HashMap;

use ioa::{Component, OpClass};

use crate::fxhash::FxBuild;
use crate::op::{AccessSpec, TxnOp};
use crate::tid::Tid;
use crate::value::Value;

/// The serial scheduler: the fully-specified automaton that controls
/// communication between transactions and basic objects, and thereby defines
/// the allowable (serial) orders in which they may take steps.
///
/// State components follow the paper exactly: `create-requested`, `created`,
/// `commit-requested`, `committed`, `aborted`, and `returned`. Initially
/// `create-requested = {T0}` and the rest are empty. They are stored as
/// one [`Record`] per transaction that has taken part in any of them (see
/// the field docs for the mapping).
///
/// Output preconditions (transcribed):
///
/// * `CREATE(T)`: `T ∈ create-requested − (created ∪ aborted)` and
///   `siblings(T) ∩ created ⊆ returned` — siblings run one at a time, in a
///   depth-first traversal of the transaction tree.
/// * `COMMIT(T,v)`: `(T,v) ∈ commit-requested`, `T ∉ returned`, and
///   `children(T) ∩ create-requested ⊆ returned` — a transaction cannot
///   commit until all its requested children have returned.
/// * `ABORT(T)`: `T ∈ create-requested − (created ∪ aborted)` and
///   `siblings(T) ∩ created ⊆ returned` — the scheduler may spontaneously
///   abort any requested-but-not-yet-created transaction; the semantics of
///   `ABORT(T)` are that `T` was never created.
///
/// The root `T0` "may neither commit nor abort" (it models the external
/// world), so the scheduler never emits `COMMIT`/`ABORT` for it.
///
/// Because siblings run one at a time, this automaton cannot express the
/// concurrent-sibling schedules that parallel program nodes produce in
/// the simulator's nested-transaction harness (multiple in-flight
/// children per client, aborts straddling a running sibling) — those are
/// legal under the per-transaction well-formedness conditions but not
/// under the serial scheduler's sibling rule. `tests/concurrent_siblings.rs`
/// pins both facts; the harness keeps its own per-node state instead.
///
/// The scheduler also ferries the access/parameter payloads from
/// `REQUEST-CREATE(T)` to `CREATE(T)` — those payloads are part of the
/// transaction *name* in the paper's encoding (see
/// [`AccessSpec`](crate::AccessSpec)).
#[derive(Debug, Clone, Default)]
pub struct SerialScheduler {
    records: HashMap<Tid, Record, FxBuild>,
}

/// One transaction's membership in the paper's state sets, plus the two
/// per-parent counters that evaluate the set-quantified preconditions in
/// O(1).
#[derive(Debug, Clone, Default)]
struct Record {
    /// `T ∈ create-requested`, with the `(access, param)` payloads the
    /// request carried (ferried to `CREATE(T)`).
    requested: Option<(Option<AccessSpec>, Option<Value>)>,
    /// `T ∈ created`.
    created: bool,
    /// `T ∈ aborted`.
    aborted: bool,
    /// `T ∈ returned`.
    returned: bool,
    /// `(T, v) ∈ commit-requested`: the first requested value.
    commit_requested: Option<Value>,
    /// `(T, v) ∈ committed`. The `COMMIT` precondition makes `v` the
    /// commit-requested value, so a flag suffices.
    committed: bool,
    // The two output preconditions quantify over siblings/children, and a
    // scan per step makes long flat schedules quadratic (replaying a
    // million-transaction simulator trace never finishes). These counters
    // are the same predicates maintained incrementally:
    /// `|children(T) ∩ created − returned|` (`siblings(C) ∩ created ⊈
    /// returned` for an uncreated child `C` ⇔ counter ≠ 0).
    active_children: u32,
    /// `|children(T) ∩ create-requested − returned|` (`children(T) ∩
    /// create-requested ⊈ returned` ⇔ counter ≠ 0).
    pending_children: u32,
}

/// The parent's path, or `None` for the root: a borrowed key into the
/// record table, so parent lookups allocate nothing.
fn parent_path(t: &Tid) -> Option<&[u32]> {
    t.path().split_last().map(|(_, p)| p)
}

impl SerialScheduler {
    /// A scheduler in its start state (`create-requested = {T0}`).
    pub fn new() -> Self {
        let mut s = SerialScheduler::default();
        s.records.insert(
            Tid::root(),
            Record {
                requested: Some((None, None)),
                ..Record::default()
            },
        );
        s
    }

    /// Whether `tid` is an *orphan*: some ancestor has aborted. (Used for
    /// the non-orphan hypothesis of the paper's Theorem 11.)
    pub fn is_orphan(&self, tid: &Tid) -> bool {
        let path = tid.path();
        (0..=path.len()).any(|d| self.records.get(&path[..d]).is_some_and(|r| r.aborted))
    }

    /// The record at `path`, inserted empty on first touch. A probe with
    /// the borrowed path finds it without allocating; only the first
    /// touch builds an owned key.
    fn record_mut(&mut self, path: &[u32]) -> &mut Record {
        if !self.records.contains_key(path) {
            self.records.insert(Tid::from_path(path), Record::default());
        }
        self.records
            .get_mut(path)
            .expect("present or inserted above")
    }

    /// The record of `t`, whose output operation was just found enabled
    /// (every enabled output names a recorded transaction).
    fn enabled_record(&mut self, t: &Tid) -> &mut Record {
        self.records
            .get_mut(t.path())
            .expect("an enabled output names a recorded transaction")
    }

    /// `siblings(T) ∩ created ⊆ returned`. Only consulted for a `t` that
    /// is not itself created (see [`Self::create_enabled`]), so the
    /// parent's active-children counter counts exactly the created,
    /// unreturned siblings.
    fn siblings_quiet(&self, t: &Tid) -> bool {
        match parent_path(t) {
            Some(p) => self.records.get(p).map_or(0, |r| r.active_children) == 0,
            None => true, // the root has no siblings
        }
    }

    /// `children(T) ∩ create-requested ⊆ returned`, as a counter.
    fn children_returned(&self, t: &Tid) -> bool {
        self.records.get(t.path()).map_or(0, |r| r.pending_children) == 0
    }

    /// Mark `t` returned and maintain the counters: it stops being an
    /// active sibling (if it was created) and a pending child (if
    /// requested). Only the first return counts: `COMMIT` excludes
    /// returned transactions, but `ABORT` excludes only created ones, so
    /// an ill-formed schedule can abort a transaction that committed
    /// without being created — a no-op on the `returned` set.
    fn note_returned(&mut self, t: &Tid) {
        let r = self.enabled_record(t);
        if std::mem::replace(&mut r.returned, true) {
            return;
        }
        let (was_created, was_requested) = (r.created, r.requested.is_some());
        if let Some(p) = parent_path(t).and_then(|p| self.records.get_mut(p)) {
            if was_created {
                p.active_children -= 1;
            }
            if was_requested {
                p.pending_children -= 1;
            }
        }
    }

    fn create_enabled(&self, t: &Tid) -> bool {
        self.records
            .get(t.path())
            .is_some_and(|r| r.requested.is_some() && !r.created && !r.aborted)
            && self.siblings_quiet(t)
    }

    fn commit_enabled(&self, t: &Tid) -> bool {
        !t.is_root()
            && self
                .records
                .get(t.path())
                .is_some_and(|r| r.commit_requested.is_some() && !r.returned)
            && self.children_returned(t)
    }

    fn abort_enabled(&self, t: &Tid) -> bool {
        !t.is_root() && self.create_enabled(t)
    }
}

impl Component<TxnOp> for SerialScheduler {
    fn name(&self) -> String {
        "serial-scheduler".into()
    }

    fn classify(&self, op: &TxnOp) -> OpClass {
        match op {
            TxnOp::RequestCreate { .. } | TxnOp::RequestCommit { .. } => OpClass::Input,
            TxnOp::Create { .. } | TxnOp::Commit { .. } | TxnOp::Abort { .. } => OpClass::Output,
        }
    }

    fn reset(&mut self) {
        *self = SerialScheduler::new();
    }

    /// Every enabled `CREATE(T)` (each followed by `ABORT(T)` unless `T`
    /// is the root), then every enabled `COMMIT(T,v)`, each group in
    /// ascending `Tid` order — the explorer's branching order.
    fn enabled_outputs(&self) -> Vec<TxnOp> {
        let mut creates: Vec<(&Tid, &Record)> = Vec::new();
        let mut commits: Vec<(&Tid, &Value)> = Vec::new();
        for (t, r) in &self.records {
            if r.requested.is_some() && self.create_enabled(t) {
                creates.push((t, r));
            }
            if let Some(v) = &r.commit_requested {
                if self.commit_enabled(t) {
                    commits.push((t, v));
                }
            }
        }
        creates.sort_unstable_by_key(|(t, _)| *t);
        commits.sort_unstable_by_key(|(t, _)| *t);
        let mut out = Vec::with_capacity(2 * creates.len() + commits.len());
        for (t, r) in creates {
            let (access, param) = r.requested.clone().expect("filtered above");
            out.push(TxnOp::Create {
                tid: t.clone(),
                access,
                param,
            });
            if !t.is_root() {
                out.push(TxnOp::Abort { tid: t.clone() });
            }
        }
        for (t, v) in commits {
            out.push(TxnOp::Commit {
                tid: t.clone(),
                value: v.clone(),
            });
        }
        out
    }

    fn apply(&mut self, op: &TxnOp) -> Result<(), String> {
        match op {
            TxnOp::RequestCreate { tid, access, param } => {
                // Postcondition: create-requested ∪= {T}. (Set union: a
                // repeat — which only an ill-formed parent would issue — is
                // idempotent.)
                let r = self.records.entry(tid.clone()).or_default();
                if r.requested.is_none() {
                    r.requested = Some((access.clone(), param.clone()));
                    // A transaction that already returned (a COMMIT needs
                    // only a commit request) never counts as pending.
                    if let (false, Some(p)) = (r.returned, parent_path(tid)) {
                        self.record_mut(p).pending_children += 1;
                    }
                }
                Ok(())
            }
            TxnOp::RequestCommit { tid, value } => {
                self.records
                    .entry(tid.clone())
                    .or_default()
                    .commit_requested
                    .get_or_insert_with(|| value.clone());
                Ok(())
            }
            TxnOp::Create { tid, .. } => {
                if !self.create_enabled(tid) {
                    return Err(format!("CREATE({tid}) precondition fails"));
                }
                let r = self.enabled_record(tid);
                r.created = true;
                // Likewise a transaction created after it returned never
                // counts as active.
                if let (false, Some(p)) = (r.returned, parent_path(tid)) {
                    self.record_mut(p).active_children += 1;
                }
                Ok(())
            }
            TxnOp::Commit { tid, value } => {
                if !self.commit_enabled(tid) {
                    return Err(format!("COMMIT({tid}) precondition fails"));
                }
                let r = self.enabled_record(tid);
                if r.commit_requested.as_ref() != Some(value) {
                    return Err(format!("COMMIT({tid}) value differs from request"));
                }
                r.committed = true;
                self.note_returned(tid);
                Ok(())
            }
            TxnOp::Abort { tid } => {
                if !self.abort_enabled(tid) {
                    return Err(format!("ABORT({tid}) precondition fails"));
                }
                self.enabled_record(tid).aborted = true;
                self.note_returned(tid);
                Ok(())
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn clone_boxed(&self) -> Box<dyn Component<TxnOp>> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(path: &[u32]) -> Tid {
        Tid::from_path(path)
    }

    fn req(path: &[u32]) -> TxnOp {
        TxnOp::request_create(t(path))
    }

    fn create(path: &[u32]) -> TxnOp {
        TxnOp::Create {
            tid: t(path),
            access: None,
            param: None,
        }
    }

    #[test]
    fn initially_only_root_creation_enabled() {
        let s = SerialScheduler::new();
        let outs = s.enabled_outputs();
        assert_eq!(outs, vec![create(&[])]);
    }

    #[test]
    fn root_is_never_aborted_or_committed() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: Tid::root(),
            value: Value::Nil,
        })
        .unwrap();
        assert!(s.enabled_outputs().is_empty());
    }

    #[test]
    fn siblings_run_one_at_a_time() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&req(&[1])).unwrap();
        // Both children creatable...
        let outs = s.enabled_outputs();
        assert!(outs.contains(&create(&[0])));
        assert!(outs.contains(&create(&[1])));
        // ...but once T0.0 is created, T0.1 must wait.
        s.apply(&create(&[0])).unwrap();
        let outs = s.enabled_outputs();
        assert!(!outs.contains(&create(&[1])));
        // T0.1 may still be aborted? No: ABORT shares the sibling condition.
        assert!(!outs.contains(&TxnOp::Abort { tid: t(&[1]) }));
        // After T0.0 commits, T0.1 becomes creatable again.
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Nil,
        })
        .unwrap();
        s.apply(&TxnOp::Commit {
            tid: t(&[0]),
            value: Value::Nil,
        })
        .unwrap();
        assert!(s.enabled_outputs().contains(&create(&[1])));
    }

    #[test]
    fn commit_waits_for_children() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&create(&[0])).unwrap();
        s.apply(&req(&[0, 0])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Int(1),
        })
        .unwrap();
        // Child T0.0.0 requested but not returned: COMMIT(T0.0) disabled.
        assert!(!s
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::Commit { tid, .. } if tid == &t(&[0]))));
        // Abort the child (never created): now the commit can go.
        s.apply(&TxnOp::Abort { tid: t(&[0, 0]) }).unwrap();
        assert!(s
            .enabled_outputs()
            .iter()
            .any(|o| matches!(o, TxnOp::Commit { tid, .. } if tid == &t(&[0]))));
    }

    #[test]
    fn abort_only_before_creation() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        assert!(s.abort_enabled(&t(&[0])));
        s.apply(&create(&[0])).unwrap();
        assert!(!s.abort_enabled(&t(&[0])));
        assert!(s
            .apply(&TxnOp::Abort { tid: t(&[0]) })
            .is_err());
    }

    #[test]
    fn create_requires_request() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        assert!(s.apply(&create(&[5])).is_err());
    }

    #[test]
    fn no_repeat_create() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        assert!(s.apply(&create(&[])).is_err());
    }

    #[test]
    fn commit_value_must_match_request() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&create(&[0])).unwrap();
        s.apply(&TxnOp::RequestCommit {
            tid: t(&[0]),
            value: Value::Int(1),
        })
        .unwrap();
        assert!(s
            .apply(&TxnOp::Commit {
                tid: t(&[0]),
                value: Value::Int(2),
            })
            .is_err());
        assert!(s
            .apply(&TxnOp::Commit {
                tid: t(&[0]),
                value: Value::Int(1),
            })
            .is_ok());
        // No double return.
        assert!(s
            .apply(&TxnOp::Commit {
                tid: t(&[0]),
                value: Value::Int(1),
            })
            .is_err());
    }

    #[test]
    fn orphan_detection() {
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        s.apply(&req(&[0])).unwrap();
        s.apply(&TxnOp::Abort { tid: t(&[0]) }).unwrap();
        assert!(s.is_orphan(&t(&[0])));
        assert!(s.is_orphan(&t(&[0, 3])));
        assert!(!s.is_orphan(&t(&[1])));
    }

    #[test]
    fn payloads_ferried_from_request_to_create() {
        use crate::op::AccessSpec;
        use crate::value::ObjectId;
        let mut s = SerialScheduler::new();
        s.apply(&create(&[])).unwrap();
        let spec = AccessSpec::read(ObjectId(7));
        s.apply(&TxnOp::RequestCreate {
            tid: t(&[0]),
            access: Some(spec.clone()),
            param: Some(Value::Int(9)),
        })
        .unwrap();
        let outs = s.enabled_outputs();
        assert!(outs.contains(&TxnOp::Create {
            tid: t(&[0]),
            access: Some(spec),
            param: Some(Value::Int(9)),
        }));
    }

    /// The incremental counters must agree with brute-force evaluation of
    /// the paper's set-quantified preconditions after every step of a
    /// nested schedule (creation, nesting, commits, and aborts).
    #[test]
    fn counter_predicates_match_the_quantified_preconditions() {
        let brute_quiet = |s: &SerialScheduler, x: &Tid| {
            s.records
                .iter()
                .filter(|(c, r)| r.created && c.is_sibling_of(x))
                .all(|(_, r)| r.returned)
        };
        let brute_children = |s: &SerialScheduler, x: &Tid| {
            s.records
                .iter()
                .filter(|(c, r)| r.requested.is_some() && c.is_child_of(x))
                .all(|(_, r)| r.returned)
        };
        let rc = |path: &[u32], v: Value| TxnOp::RequestCommit {
            tid: t(path),
            value: v,
        };
        let commit = |path: &[u32], v: Value| TxnOp::Commit {
            tid: t(path),
            value: v,
        };
        let script = vec![
            create(&[]),
            req(&[0]),
            req(&[1]),
            req(&[2]),
            create(&[0]),
            req(&[0, 0]),
            req(&[0, 1]),
            create(&[0, 0]),
            rc(&[0, 0], Value::Int(1)),
            commit(&[0, 0], Value::Int(1)),
            TxnOp::Abort { tid: t(&[0, 1]) },
            rc(&[0], Value::Nil),
            commit(&[0], Value::Nil),
            create(&[1]),
            rc(&[1], Value::Int(2)),
            commit(&[1], Value::Int(2)),
            TxnOp::Abort { tid: t(&[2]) },
        ];
        let probes = [
            t(&[]),
            t(&[0]),
            t(&[1]),
            t(&[2]),
            t(&[3]),
            t(&[0, 0]),
            t(&[0, 1]),
        ];
        let mut s = SerialScheduler::new();
        for op in script {
            s.apply(&op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
            for p in &probes {
                // `siblings_quiet` is only consulted for a `p` that is not
                // itself created-and-unreturned (see `create_enabled`); an
                // active `p` counts itself in the parent's counter.
                let r = s.records.get(p.path());
                if !r.is_some_and(|r| r.created) || r.is_some_and(|r| r.returned) {
                    assert_eq!(
                        s.siblings_quiet(p),
                        brute_quiet(&s, p),
                        "siblings_quiet({p}) diverged after {op:?}"
                    );
                }
                assert_eq!(
                    s.children_returned(p),
                    brute_children(&s, p),
                    "children_returned({p}) diverged after {op:?}"
                );
            }
        }
        assert!(s.records.get(&[0u32][..]).is_some_and(|r| r.committed));
        assert!(s.records.get(&[2u32][..]).is_some_and(|r| r.aborted));
    }
}
