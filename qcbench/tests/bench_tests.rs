//! The benchmark's own tests: configurations are a pure function of the
//! seed, a smoke-sized run passes the full correctness gate, a mutated
//! digest or trace fails it, and the program reports exactly the metrics
//! `BENCHMARK.json` declares.

use qc_sim::{SimTime, TraceAction};
use qcbench::bench::{run_bench, Settings};
use qcbench::gate::{check_digests, check_theorem11, check_traces, gate};
use qcbench::workload::{config, prepare, run, Config, Mode, Workload};

/// Smoke-sized simulated windows: each gate finishes in about a second.
fn smoke_window(w: Workload) -> SimTime {
    match w {
        Workload::GridRowaFailover => SimTime::from_secs(2),
        Workload::ShardedZipfElastic => SimTime::from_millis(300),
        Workload::NestedBanking => SimTime::from_secs(2),
    }
}

fn plain_digest(cfg: &Config, threads: usize) -> u64 {
    run(prepare(cfg, Mode::Plain), Mode::Plain, threads).digest()
}

#[test]
fn configs_are_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        let window = smoke_window(w);
        let a = config(w, 41, window);
        let b = config(w, 41, window);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", w.name());
        let (da, db) = (plain_digest(&a, w.threads()), plain_digest(&b, w.threads()));
        assert_eq!(da, db, "{}: same seed, different run", w.name());
        let other = plain_digest(&config(w, 42, window), w.threads());
        assert_ne!(da, other, "{}: the seed does not reach the run", w.name());
    }
}

#[test]
fn smoke_run_passes_the_full_gate_on_every_workload() {
    for w in Workload::ALL {
        let g = gate(&config(w, w.default_seed(), smoke_window(w)), w.threads())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(
            g.events > 0,
            "{}: the traced pass recorded nothing",
            w.name()
        );
        assert_eq!(g.committed.is_some(), w == Workload::NestedBanking);
    }
}

#[test]
fn digests_are_thread_count_invariant() {
    for w in [Workload::ShardedZipfElastic, Workload::NestedBanking] {
        let cfg = config(w, w.default_seed(), smoke_window(w));
        assert_eq!(plain_digest(&cfg, 1), plain_digest(&cfg, 2), "{}", w.name());
    }
}

#[test]
fn a_mutated_digest_fails_the_gate() {
    let w = Workload::GridRowaFailover;
    let plain = plain_digest(&config(w, 23, smoke_window(w)), 1);
    assert!(check_digests(plain, &[("observed", plain), ("traced", plain)]).is_ok());
    let err = check_digests(plain, &[("observed", plain), ("traced", plain ^ 1)]).unwrap_err();
    assert!(err.contains("traced"), "{err}");
}

#[test]
fn a_failing_trace_fails_the_gate() {
    let w = Workload::GridRowaFailover;
    let cfg = config(w, 23, smoke_window(w));
    let raw = run(prepare(&cfg, Mode::Traced), Mode::Traced, 1);
    let traces = raw.traces();
    assert!(check_traces(&traces, cfg.quorum()).is_ok());
    let mut bad = traces[0].clone();
    let commit = bad
        .events
        .iter_mut()
        .find_map(|e| match &mut e.action {
            TraceAction::RequestCommit { value, .. } => Some(value),
            _ => None,
        })
        .expect("a smoke run commits");
    *commit += 1;
    assert!(check_traces(&[&bad], cfg.quorum()).is_err());
}

#[test]
fn a_non_serializable_projection_fails_the_gate() {
    let w = Workload::NestedBanking;
    let cfg = config(w, 17, smoke_window(w));
    let raw = run(prepare(&cfg, Mode::Committed), Mode::Committed, w.threads());
    let mut commits = raw.commits().expect("committed capture").to_vec();
    assert!(check_theorem11(&commits).is_ok());
    let read = commits
        .iter_mut()
        .flat_map(|t| t.ops.iter_mut())
        .find(|op| !op.write)
        .expect("banking transactions read");
    read.value += 1;
    assert!(check_theorem11(&commits).is_err());
}

/// The metric names of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted name")].to_string())
        .collect()
}

#[test]
fn runs_report_exactly_the_declared_metrics() {
    let w = Workload::NestedBanking;
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let s = Settings {
            workload: w,
            seed: w.default_seed(),
            seconds: 0.2,
            trace,
        };
        let report = run_bench(&s).expect("the gate passes");
        let names: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(names, declared(section), "{section}");
        assert!(report.json().is_ok());
    }
}
