//! One benchmark run: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`, in [`crate::per_layer`]), and the
//! helpers both use.

use qc_sim::SimTime;
use quorum::QuorumSpec;

use crate::gate::{check_digests, gate, Gated};
use crate::layers;
use crate::measure::{nproc, peak_rss_mib, HostClock, HostSpeed, Samples, REFERENCE_NOMINAL_S};
use crate::report::Report;
use crate::workload::{config, prepare, run, Config, Mode, Raw, Workload};

/// A run's command-line settings.
#[derive(Clone, Copy, Debug)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The seed every configuration is generated from.
    pub seed: u64,
    /// Wall seconds the measuring phases take together.
    pub seconds: f64,
    /// Per-layer metrics (`true`) or end-to-end metrics.
    pub trace: bool,
}

pub(crate) fn secs(t: SimTime) -> f64 {
    t.as_micros() as f64 / 1e6
}

pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn reps_base(walls: &Samples, window: SimTime) -> String {
    format!(
        "median of {} scaled calls over {} sim-s on {TIMED_THREADS} thread",
        walls.len(),
        secs(window)
    )
}

/// Threads of every timed end-to-end call. On a host whose cores other
/// tenants share, a call on two threads times whether the second core is
/// free more than it times the program: in 30 s windows over 20 minutes
/// on a 2-vCPU Xeon at 2.1 GHz, the median 2-thread `nested_banking` call
/// ranged over 2.3× (0.064–0.149 s), the interleaved 1-thread call over
/// 1.45×. The workload's own thread count runs in the correctness gate
/// and in the per-layer `par.speedup_2t`.
pub const TIMED_THREADS: usize = 1;

/// Repeated verification passes over the gate's outputs for `budget_s`
/// seconds (at least 3): Theorem 10 on every trace, and Theorem 11 on
/// the transaction engine.
pub(crate) fn checker_passes(
    g: &Gated,
    quorum: &dyn QuorumSpec,
    budget_s: f64,
) -> (Samples, Option<Samples>) {
    let traces = g.traced.traces();
    let commits = g.committed.as_ref().and_then(Raw::commits);
    let (mut t10, mut t11) = (Samples::default(), Samples::default());
    let start = std::time::Instant::now();
    while t10.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        t10.push(layers::theorem10_pass_s(&traces, quorum));
        if let Some(c) = commits {
            t11.push(layers::theorem11_pass_s(c));
        }
    }
    (t10, commits.map(|_| t11))
}

/// Run the benchmark.
///
/// # Errors
///
/// The first failed correctness check; no metric is reported then.
pub fn run_bench(s: &Settings) -> Result<Report, String> {
    if s.trace {
        crate::per_layer::per_layer(s)
    } else {
        end_to_end(s)
    }
}

pub(crate) fn host_line(s: &Settings, phase: &str, threads: usize, h: &HostClock) {
    println!(
        "host: {} {phase}: nproc {} threads {threads} wall {:.3} s on-CPU {:.3} s; process peak RSS {:.1} MiB",
        s.workload.name(),
        nproc(),
        h.wall_s,
        h.cpu_s,
        peak_rss_mib().unwrap_or(0.0)
    );
}

/// One timed call of `mode` on `cfg`; only the engine call is timed.
fn call(cfg: &Config, mode: Mode, threads: usize, host: &mut HostClock) -> (Raw, f64) {
    let c = prepare(cfg, mode);
    host.measure(|| run(c, mode, threads))
}

/// Require a repetition to commit what the first call committed.
pub(crate) fn same_run(first: &Raw, again: &Raw, what: &str) -> Result<(), String> {
    if first.outcome().committed == again.outcome().committed {
        Ok(())
    } else {
        Err(format!("{what} repetitions of one configuration differ"))
    }
}

/// The end-to-end metrics. Every timed metric's calls are interleaved in
/// rounds that span the whole run, so each sees every state the host
/// went through, and each call is scaled to nominal host speed by the
/// reference kernel run after it (see [`crate::measure`]).
fn end_to_end(s: &Settings) -> Result<Report, String> {
    let w = s.workload;
    let threads = TIMED_THREADS;
    let window = w.timed_window();
    let setup_cfg = config(w, s.seed, SimTime(1));
    let timed_cfg = config(w, s.seed, window);
    let trace_cfg = config(w, s.seed, w.trace_window());
    let start = std::time::Instant::now();
    let mut r = Report::default();
    let (mut setup, mut plain, mut observed) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut t10, mut t11) = (Samples::default(), Samples::default());
    let mut host = HostClock::default();

    // Round 0, untimed warm-up: the first calls, the memory reading
    // (before any recorder or trace exists), and the correctness gate.
    let (first_setup, _) = call(&setup_cfg, Mode::Plain, threads, &mut host);
    let (first_plain, _) = call(&timed_cfg, Mode::Plain, threads, &mut host);
    let rss = peak_rss_mib().unwrap_or(0.0);
    let (first_observed, _) = call(&timed_cfg, Mode::Observed, threads, &mut host);
    crate::gate::check_lemmas(&first_plain)?;
    check_digests(
        first_plain.digest(),
        &[("observed", first_observed.digest())],
    )?;
    let gated = gate(&trace_cfg, w.threads())?;
    let traces = gated.traced.traces();
    let commits = gated.committed.as_ref().and_then(Raw::commits);
    let mut calls = 3 + gated.calls;

    // Rounds: setup calls for up to 10 ms, then one plain, one observed
    // and one checker pass each, each followed by the reference kernel.
    let mut speed = HostSpeed::new();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed().as_secs_f64() < s.seconds {
        let setup_start = std::time::Instant::now();
        let mut batch = Vec::new();
        loop {
            let (raw, wall) = call(&setup_cfg, Mode::Plain, threads, &mut host);
            same_run(&first_setup, &raw, "setup")?;
            batch.push(wall);
            calls += 1;
            if setup_start.elapsed().as_secs_f64() > 0.01 {
                break;
            }
        }
        let f = speed.factor();
        batch.into_iter().for_each(|wall| setup.push(wall * f));
        let (raw, wall) = call(&timed_cfg, Mode::Plain, threads, &mut host);
        same_run(&first_plain, &raw, "plain")?;
        plain.push(wall * speed.factor());
        let (raw, wall) = call(&timed_cfg, Mode::Observed, threads, &mut host);
        same_run(&first_observed, &raw, "observed")?;
        observed.push(wall * speed.factor());
        calls += 2;
        let t10_s = layers::theorem10_pass_s(&traces, trace_cfg.quorum());
        let t11_s = commits.map(layers::theorem11_pass_s);
        let f = speed.factor();
        t10.push(t10_s * f);
        if let Some(t) = t11_s {
            t11.push(t * f);
        }
        rounds += 1;
    }
    let o = first_plain.outcome();
    let latency_raw = match w {
        Workload::NestedBanking => {
            calls += 1;
            run(
                prepare(&timed_cfg, Mode::CausalAll),
                Mode::CausalAll,
                threads,
            )
        }
        _ => first_plain,
    };
    let (latency, samples) = latency_raw
        .latency_ms(&[50.0, 99.0])
        .ok_or("the timed window committed nothing")?;
    let committed = o.committed as f64;
    r.timed(
        "committed_per_wall_s",
        committed / plain.median(),
        "1/s",
        plain.spread(),
        format!("{} commits / {}", o.committed, reps_base(&plain, window)),
    );
    r.timed(
        "setup_s",
        setup.median(),
        "s",
        setup.spread(),
        reps_base(&setup, SimTime(1)),
    );
    r.exact(
        "peak_rss_mib",
        rss,
        "MiB",
        "VmHWM after the first setup and timed calls, before any recorder runs".into(),
    );
    r.exact(
        "committed_fraction",
        1.0 - ratio(o.failed as f64, o.attempted as f64),
        "share",
        format!(
            "1 - failed_fraction; {} failed of {} attempted (failed_fraction {:.6})",
            o.failed,
            o.attempted,
            ratio(o.failed as f64, o.attempted as f64)
        ),
    );
    let lat_base = format!("exact, {samples} samples");
    r.exact("sim_latency_p50_ms", latency[0], "ms", lat_base.clone());
    r.exact("sim_latency_p99_ms", latency[1], "ms", lat_base);
    r.exact(
        "committed_per_sim_s",
        committed / secs(window),
        "1/s",
        format!("{} commits over {} sim-s", o.committed, secs(window)),
    );
    r.timed(
        "observed_per_wall_s",
        committed / observed.median(),
        "1/s",
        observed.spread(),
        format!("{} commits / {}", o.committed, reps_base(&observed, window)),
    );
    let verify_s = t10.median() + t11.median();
    let traced_commits = gated.traced.outcome().committed;
    r.timed(
        "verified_per_wall_s",
        traced_commits as f64 / verify_s,
        "1/s",
        t10.spread(),
        format!(
            "{traced_commits} commits, {} trace events over {} sim-s / median of {} scaled checker passes",
            gated.events,
            secs(w.trace_window()),
            t10.len()
        ),
    );
    r.calls = calls;
    host_line(s, "engine calls", threads, &host);
    println!(
        "host: reference kernel median {:.6} s (spread {:.1}%) over {} calls, nominal {REFERENCE_NOMINAL_S} s",
        speed.kernel.median(),
        100.0 * speed.kernel.spread(),
        speed.kernel.len()
    );
    Ok(r)
}
