//! The correctness gate: every number the benchmark prints comes from
//! runs that pass it.
//!
//! For a workload's traced window the gate runs the plain engine call
//! and the observed, traced and (on the transaction engine)
//! committed-capture calls of the same configuration, and requires
//!
//! * zero Lemma 7/8 monitor violations;
//! * every recorder's run digest equal to the plain run's;
//! * every per-item schedule trace passing the Theorem 10 checker
//!   (`check_trace`);
//! * on the transaction engine, the committed projection passing the
//!   Theorem 11 checker (`check_commit_order_serializable`).

use qc_sim::{check_commit_order_serializable, check_trace, CommittedTxn, ScheduleTrace};
use quorum::QuorumSpec;

use crate::workload::{prepare, run, Config, Mode, Raw};

/// Require every recorder's digest to equal the plain run's.
///
/// # Errors
///
/// Names the first recorder whose digest differs.
pub fn check_digests(plain: u64, recorded: &[(&str, u64)]) -> Result<(), String> {
    for &(name, d) in recorded {
        if d != plain {
            return Err(format!(
                "{name} run digest {d:#018x} differs from the plain run's {plain:#018x}"
            ));
        }
    }
    Ok(())
}

/// Require zero Lemma 7/8 violations.
///
/// # Errors
///
/// The violation count and the first description.
pub fn check_lemmas(raw: &Raw) -> Result<(), String> {
    let o = raw.outcome();
    if o.lemma_violations == 0 {
        return Ok(());
    }
    Err(format!(
        "{} lemma violations, first: {}",
        o.lemma_violations,
        o.violations
            .first()
            .map_or("(none recorded)", String::as_str)
    ))
}

/// Theorem 10 over every per-item schedule; returns the events checked.
///
/// # Errors
///
/// The first item whose schedule diverges from the serial system.
pub fn check_traces(traces: &[&ScheduleTrace], quorum: &dyn QuorumSpec) -> Result<usize, String> {
    let mut events = 0;
    for (item, trace) in traces.iter().enumerate() {
        let report =
            check_trace(trace, quorum).map_err(|d| format!("item {item} fails Theorem 10: {d}"))?;
        events += report.events;
    }
    Ok(events)
}

/// Theorem 11 over the committed projection.
///
/// # Errors
///
/// The first committed read no serial execution explains.
pub fn check_theorem11(commits: &[CommittedTxn]) -> Result<(), String> {
    check_commit_order_serializable(&|_| 0, commits)
        .map(|_| ())
        .map_err(|e| format!("committed projection fails Theorem 11: {e}"))
}

/// What the gate ran, kept for the checker timings and the trace
/// metrics.
pub struct Gated {
    /// The traced run.
    pub traced: Raw,
    /// Trace events the Theorem 10 checker replayed.
    pub events: usize,
    /// The committed-capture run (transaction engine only).
    pub committed: Option<Raw>,
    /// Engine run calls made.
    pub calls: u64,
}

/// Run the gate over `cfg` (the traced window) on `threads` threads.
///
/// # Errors
///
/// The first failed check.
pub fn gate(cfg: &Config, threads: usize) -> Result<Gated, String> {
    let call = |mode: Mode| run(prepare(cfg, mode), mode, threads);
    let plain = call(Mode::Plain);
    check_lemmas(&plain)?;
    let observed = call(Mode::Observed);
    let traced = call(Mode::Traced);
    let committed = matches!(cfg, Config::Nested(_)).then(|| call(Mode::Committed));
    let mut recorded = vec![("observed", observed.digest()), ("traced", traced.digest())];
    if let Some(c) = &committed {
        recorded.push(("committed-capture", c.digest()));
    }
    check_digests(plain.digest(), &recorded)?;
    let events = check_traces(&traced.traces(), cfg.quorum())?;
    if let Some(c) = &committed {
        check_theorem11(c.commits().expect("committed mode captures commits"))?;
    }
    Ok(Gated {
        traced,
        events,
        calls: 3 + u64::from(committed.is_some()),
        committed,
    })
}
