//! The per-layer metrics (`--trace 1`): engine passes for the recorder,
//! thread and phase numbers, the gate and checker passes for the trace
//! numbers, the layer replay harness on the workload's own shapes, and
//! the attribution of wall time to layers.

use qc_obs::{EdgeKind, Histogram, TxnTrace};
use qc_sim::{ItemDist, Workload as Pacing};

use crate::bench::{checker_passes, host_line, ratio, same_run, secs, Settings};
use crate::gate::{check_digests, check_lemmas, gate};
use crate::layers;
use crate::measure::{nproc, timed, HostClock, Samples};
use crate::report::Report;
use crate::workload::{config, prepare, run, Config, Mode, Outcome, Raw, Workload};

/// Repetitions of one engine call.
struct Reps {
    /// Wall seconds of each call.
    walls: Samples,
    /// The first call's outputs (every call is identical).
    first: Raw,
    /// Wall and on-CPU time over all calls.
    host: HostClock,
}

/// Repeat the `mode` call of `cfg` for `budget_s` seconds (at least 3
/// times), timing only the engine call. Every repetition must commit the
/// same count as the first.
fn reps(cfg: &Config, mode: Mode, threads: usize, budget_s: f64) -> Result<Reps, String> {
    let mut host = HostClock::default();
    let mut walls = Samples::default();
    let mut first: Option<Raw> = None;
    let start = std::time::Instant::now();
    while walls.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let c = prepare(cfg, mode);
        let (raw, wall) = host.measure(|| run(c, mode, threads));
        walls.push(wall);
        match &first {
            None => first = Some(raw),
            Some(f) => same_run(f, &raw, &format!("{mode:?}"))?,
        }
    }
    Ok(Reps {
        walls,
        first: first.expect("at least one repetition"),
        host,
    })
}

/// Alternate two timed calls for `budget_s` seconds (at least 3 pairs).
fn interleaved(
    budget_s: f64,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (Samples, Samples) {
    let (mut sa, mut sb) = (Samples::default(), Samples::default());
    let start = std::time::Instant::now();
    while sa.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        sa.push(a());
        sb.push(b());
    }
    (sa, sb)
}

/// What the layer replays are shaped by, read off the workload's
/// configuration and its plain run.
struct Shape {
    /// Items in the replayed arena.
    items: usize,
    /// Pending events in the replayed queue.
    depth: usize,
    /// Where `depth` comes from.
    depth_base: &'static str,
    /// Probability that a site is up.
    up: f64,
    /// Item popularity.
    dist: ItemDist,
    /// Share of committed accesses that are reads.
    read_fraction: f64,
    /// Items per lock table (transaction engine only).
    lock_items: Option<usize>,
    /// Shard count (elastic placement only).
    shards: Option<usize>,
}

impl Shape {
    fn of(cfg: &Config, o: &Outcome) -> Self {
        let read_fraction = 1.0 - ratio(o.writes as f64, o.accesses as f64);
        match cfg {
            Config::Grid(g) => {
                let mttf = secs(g.mttf.expect("the grid fails sites"));
                Shape {
                    items: 1,
                    depth: g.clients + g.quorum.n() + 1,
                    depth_base: "bound: one event per client, one timer per site, one poll",
                    up: mttf / (mttf + secs(g.mttr)),
                    dist: ItemDist::Uniform,
                    read_fraction,
                    lock_items: None,
                    shards: None,
                }
            }
            Config::Sharded(m) => {
                let depth = o
                    .placement
                    .iter()
                    .flat_map(|p| &p.epochs)
                    .flat_map(|e| e.queue_depths.iter().copied())
                    .max()
                    .unwrap_or(0);
                Shape {
                    items: m.items,
                    depth: usize::try_from(depth).expect("a queue depth fits usize"),
                    depth_base: "max of EpochSample::queue_depths",
                    up: 1.0,
                    dist: m.dist,
                    read_fraction,
                    lock_items: None,
                    shards: Some(m.shards),
                }
            }
            Config::Nested(t) => Shape {
                items: t.items,
                depth: t.clients_per_domain * 4,
                depth_base: "bound: one event per parallel leaf, 4-account audits the widest",
                up: 1.0,
                dist: ItemDist::Uniform,
                read_fraction,
                lock_items: Some(t.items / t.domains),
                shards: None,
            },
        }
    }
}

/// Nanoseconds per call of every replayed layer (microseconds for
/// `plan_moves`); `None` where the layer is not on the workload's path.
struct Replays {
    hold: Samples,
    find_read: Samples,
    find_write: Samples,
    discover: Samples,
    install: Samples,
    lemma: Samples,
    lock: Option<Samples>,
    owner_of: Option<Samples>,
    plan_moves: Option<Samples>,
    hist: Samples,
    push_seg: Samples,
    critical_path: Samples,
}

/// Replay every layer for about `budget_s` seconds in total.
fn replay(
    cfg: &Config,
    shape: &Shape,
    o: &Outcome,
    latency: &Histogram,
    traces: &[TxnTrace],
    budget_s: f64,
) -> Replays {
    let lb = budget_s / 14.0;
    let q = cfg.quorum();
    let draws = layers::item_draws(shape.items, shape.dist, 1 << 16);
    let masks = layers::live_masks(q.n(), shape.up);
    let (discover, install) = layers::arena_ns(q, shape.items, &draws, 2.0 * lb);
    let (push_seg, critical_path) = layers::causal_ns(traces, 2.0 * lb);
    let placement = shape.shards.map(|shards| {
        let epochs = o.placement.as_ref().map_or(1, |p| p.epochs.len().max(1)) as u64;
        let deltas: Vec<u64> = o.item_commits.iter().map(|&n| n / epochs).collect();
        (
            layers::owner_of_ns(shape.items, shards, &draws, lb),
            layers::plan_moves_us(&deltas, shards, lb),
        )
    });
    let (owner_of, plan_moves) = placement.unzip();
    Replays {
        hold: layers::queue_hold_ns(shape.depth, lb),
        find_read: layers::quorum_find_ns(q, &masks, false, lb),
        find_write: layers::quorum_find_ns(q, &masks, true, lb),
        discover,
        install,
        lemma: layers::lemma_check_ns(q, shape.read_fraction, lb),
        lock: shape
            .lock_items
            .map(|items| layers::lock_ns(items, shape.read_fraction, lb)),
        owner_of,
        plan_moves,
        hist: layers::hist_record_ns(&layers::samples_like(latency, 1 << 16), lb),
        push_seg,
        critical_path,
    }
}

/// Report a replayed layer's median time, or 0 with an `n/a` base.
fn layer(
    r: &mut Report,
    name: &'static str,
    s: Option<&Samples>,
    unit: &'static str,
    base: String,
) {
    match s {
        Some(s) => r.timed(name, s.median(), unit, s.spread(), base),
        None => r.timed(name, 0.0, unit, 0.0, "n/a on this workload".into()),
    }
}

/// Run the per-layer pass of `s`.
pub(crate) fn per_layer(s: &Settings) -> Result<Report, String> {
    let w = s.workload;
    let threads = w.threads();
    let b = s.seconds;
    let window = w.timed_window();
    let timed_cfg = config(w, s.seed, window);
    let trace_cfg = config(w, s.seed, w.trace_window());
    let mut r = Report::default();

    // Plain and observed passes over the timed window.
    let plain = reps(&timed_cfg, Mode::Plain, threads, 0.15 * b)?;
    let observed = reps(&timed_cfg, Mode::Observed, threads, 0.1 * b)?;
    check_lemmas(&plain.first)?;
    let digest = plain.first.digest();
    check_digests(digest, &[("observed", observed.first.digest())])?;
    r.calls += (plain.walls.len() + observed.walls.len()) as u64;
    let o = plain.first.outcome();

    // sim::par: the same run on 1 thread and on the workload's threads.
    let speedup = if threads >= 2 {
        let mut digest_1t = None;
        let pair = interleaved(
            0.15 * b,
            || {
                let cfg = prepare(&timed_cfg, Mode::Plain);
                let (raw, wall) = timed(|| run(cfg, Mode::Plain, 1));
                digest_1t.get_or_insert_with(|| raw.digest());
                wall
            },
            || {
                let cfg = prepare(&timed_cfg, Mode::Plain);
                timed(|| run(cfg, Mode::Plain, threads)).1
            },
        );
        r.calls += 2 * pair.0.len() as u64;
        check_digests(digest, &[("1-thread", digest_1t.expect("ran on 1 thread"))])?;
        Some(pair)
    } else {
        None
    };

    // Simulated phase shares: the causal profile of the timed window.
    let profile_raw = if w == Workload::NestedBanking {
        observed.first
    } else {
        r.calls += 1;
        run(prepare(&timed_cfg, Mode::Profile), Mode::Profile, threads)
    };
    check_digests(digest, &[("profile", profile_raw.digest())])?;
    let profile = profile_raw
        .causal()
        .expect("profile mode records the causal profile")
        .profile()
        .clone();
    drop(profile_raw);

    // Traces and checkers over the traced window.
    let gated = gate(&trace_cfg, threads)?;
    r.calls += gated.calls;
    let (plain_tw, traced_tw) = interleaved(
        0.1 * b,
        || {
            let cfg = prepare(&trace_cfg, Mode::Plain);
            timed(|| run(cfg, Mode::Plain, threads)).1
        },
        || {
            let cfg = prepare(&trace_cfg, Mode::Traced);
            timed(|| run(cfg, Mode::Traced, threads)).1
        },
    );
    r.calls += 2 * plain_tw.len() as u64;
    let (t10, t11) = checker_passes(&gated, trace_cfg.quorum(), 0.12 * b);
    let traced_commits = gated.traced.outcome().committed;
    let events = gated.events;
    let commits = gated
        .committed
        .as_ref()
        .and_then(Raw::commits)
        .map_or(0, <[_]>::len);
    drop(gated);
    r.calls += 1;
    let all_traces = run(
        prepare(&trace_cfg, Mode::CausalAll),
        Mode::CausalAll,
        threads,
    )
    .causal()
    .expect("causal mode records")
    .all()
    .to_vec();

    // Layer replays.
    let shape = Shape::of(&timed_cfg, &o);
    let latency = if w == Workload::NestedBanking {
        profile.e2e().clone()
    } else {
        o.latency.clone()
    };
    let x = replay(&timed_cfg, &shape, &o, &latency, &all_traces, 0.3 * b);
    let n = timed_cfg.quorum().n();

    layer(
        &mut r,
        "queue.hold_ns",
        Some(&x.hold),
        "ns",
        format!("depth {}, LAN delays", shape.depth),
    );
    r.exact(
        "queue.depth_max",
        shape.depth as f64,
        "events",
        shape.depth_base.into(),
    );
    let masks = format!("live-set masks, site up p={:.3}", shape.up);
    layer(
        &mut r,
        "quorum.find_read_ns",
        Some(&x.find_read),
        "ns",
        masks.clone(),
    );
    layer(
        &mut r,
        "quorum.find_write_ns",
        Some(&x.find_write),
        "ns",
        masks,
    );
    let slots = format!("{} slots", shape.items * n);
    layer(
        &mut r,
        "arena.discover_ns",
        Some(&x.discover),
        "ns",
        slots.clone(),
    );
    layer(&mut r, "arena.install_ns", Some(&x.install), "ns", slots);
    let reads = format!("read share {:.3}", shape.read_fraction);
    layer(&mut r, "lemma.check_ns", Some(&x.lemma), "ns", reads);
    layer(
        &mut r,
        "lock.acquire_release_ns",
        x.lock.as_ref(),
        "ns",
        "one domain's table".into(),
    );
    r.exact(
        "lock_waits_per_txn",
        ratio(o.lock_waits as f64, o.attempted as f64),
        "waits/txn",
        format!("{} waits / {} started", o.lock_waits, o.attempted),
    );
    r.exact(
        "lock_timeouts",
        o.lock_timeouts as f64,
        "count",
        String::new(),
    );
    r.exact(
        "compensations_per_txn",
        ratio(o.compensations as f64, o.attempted as f64),
        "comps/txn",
        format!("{} compensations", o.compensations),
    );
    layer(
        &mut r,
        "placement.owner_of_ns",
        x.owner_of.as_ref(),
        "ns",
        "zipf-ordered draws".into(),
    );
    layer(
        &mut r,
        "placement.plan_moves_us",
        x.plan_moves.as_ref(),
        "us",
        "one epoch's mean per-item commit deltas".into(),
    );
    let placement = o.placement.clone().unwrap_or_default();
    r.exact(
        "migrations",
        placement.migrations as f64,
        "count",
        String::new(),
    );
    r.exact(
        "migration_failures",
        placement.migration_failures as f64,
        "count",
        String::new(),
    );
    let load_ratio = placement.epochs.last().map_or(0.0, |e| {
        let total: u64 = e.shard_commits.iter().sum();
        let max = e.shard_commits.iter().copied().max().unwrap_or(0);
        ratio(max as f64 * e.shard_commits.len() as f64, total as f64)
    });
    r.exact(
        "placement.load_ratio",
        load_ratio,
        "ratio",
        "max/mean shard commits, last epoch".into(),
    );
    let arrivals = match &timed_cfg {
        Config::Sharded(m) => match m.workload {
            Pacing::Routed { interarrival } => window.as_micros() / interarrival.as_micros().max(1),
            _ => 0,
        },
        _ => 0,
    };
    r.exact(
        "routed.attempts_per_arrival",
        ratio(o.attempted as f64, arrivals as f64),
        "ratio",
        format!(
            "{} attempts / {arrivals} arrivals at the configured rate",
            o.attempted
        ),
    );
    layer(
        &mut r,
        "hist.record_ns",
        Some(&x.hist),
        "ns",
        "samples shaped as the run's latency".into(),
    );
    let trees = format!("{} recorded span trees", all_traces.len());
    layer(
        &mut r,
        "causal.push_seg_ns",
        Some(&x.push_seg),
        "ns",
        trees.clone(),
    );
    layer(
        &mut r,
        "causal.critical_path_ns",
        Some(&x.critical_path),
        "ns",
        trees,
    );
    r.timed(
        "obs.overhead_share",
        observed.walls.median() / plain.walls.median() - 1.0,
        "share",
        observed.walls.spread(),
        "median observed / median plain wall - 1, timed window".into(),
    );
    r.exact(
        "trace.events_per_commit",
        ratio(events as f64, traced_commits as f64),
        "events/commit",
        format!(
            "{events} events / {traced_commits} commits over {} sim-s",
            secs(w.trace_window())
        ),
    );
    r.timed(
        "conformance.check_ns_per_event",
        t10.median() * 1e9 / events.max(1) as f64,
        "ns",
        t10.spread(),
        format!("{} Theorem 10 passes", t10.len()),
    );
    match &t11 {
        Some(t) => r.timed(
            "theorem11.check_ns_per_txn",
            t.median() * 1e9 / commits.max(1) as f64,
            "ns",
            t.spread(),
            format!("{commits} committed transactions"),
        ),
        None => layer(
            &mut r,
            "theorem11.check_ns_per_txn",
            None,
            "ns",
            String::new(),
        ),
    }
    r.timed(
        "trace.overhead_share",
        traced_tw.median() / plain_tw.median() - 1.0,
        "share",
        traced_tw.spread(),
        format!(
            "median traced / median plain wall - 1, {} pairs",
            traced_tw.len()
        ),
    );
    let (speedup_value, speedup_base) = match &speedup {
        Some((one, many)) => (
            one.median() / many.median(),
            format!(
                "median 1-thread / median {threads}-thread wall, nproc {}",
                nproc()
            ),
        ),
        None => (0.0, "n/a on this workload".into()),
    };
    r.exact("par.speedup_2t", speedup_value, "ratio", speedup_base);

    // Protocol counts and simulated phase shares.
    let c = o.committed.max(1) as f64;
    let attempts = o.attempted + o.retries + o.stale_rejections;
    r.exact(
        "msgs_per_commit",
        o.messages as f64 / c,
        "msgs/commit",
        String::new(),
    );
    r.exact(
        "retries_per_op",
        ratio(o.retries as f64, attempts as f64),
        "retries/op",
        String::new(),
    );
    r.exact(
        "stale_rejections",
        o.stale_rejections as f64,
        "count",
        String::new(),
    );
    r.exact(
        "reconfigurations",
        o.reconfigurations as f64,
        "count",
        String::new(),
    );
    let e2e = profile.e2e().sum() as f64;
    for (name, kind) in [
        ("phase.read_gather_share", EdgeKind::ReadGather),
        ("phase.write_install_share", EdgeKind::WriteInstall),
        ("phase.retry_backoff_share", EdgeKind::RetryBackoff),
        ("phase.stale_retry_share", EdgeKind::StaleRetry),
        ("phase.lock_wait_share", EdgeKind::LockWait),
    ] {
        r.exact(
            name,
            ratio(profile.edge(kind).sum() as f64, e2e),
            "share",
            format!(
                "critical-path µs / end-to-end µs over {} txns",
                profile.txns()
            ),
        );
    }
    r.exact(
        "failed_fraction",
        ratio(o.failed as f64, o.attempted as f64),
        "share",
        format!("{} of {}", o.failed, o.attempted),
    );

    // Attribution: calls per committed op (from report counts) × ns per
    // call, as a share of wall ns per committed op. The replays run on
    // one thread, so the base is the 1-thread run's wall time.
    let one_thread = speedup
        .as_ref()
        .map_or(plain.walls.median(), |(one, _)| one.median());
    let wall_ns = one_thread * 1e9 / c;
    let share = |calls: f64, ns: f64| calls / c * ns / wall_ns;
    let median = |s: &Option<Samples>| s.as_ref().map_or(0.0, Samples::median);
    let write_share = ratio(o.writes as f64, o.accesses as f64);
    let nested = w == Workload::NestedBanking;
    // Queue events and quorum accesses per run.
    let (events_run, accesses_run) = if nested {
        let accesses = (o.accesses + o.retries) as f64;
        ((o.attempted + o.lock_waits) as f64 + accesses, accesses)
    } else {
        (attempts as f64, attempts as f64)
    };
    let epochs = placement.epochs.len() as f64;
    let shares = [
        ("attr.queue_share", share(events_run, x.hold.median())),
        (
            "attr.quorum_share",
            share(
                accesses_run,
                x.find_read.median() + write_share * x.find_write.median(),
            ),
        ),
        (
            "attr.arena_share",
            share(accesses_run, x.discover.median()) + share(o.writes as f64, x.install.median()),
        ),
        (
            "attr.lemma_share",
            share(o.accesses as f64, x.lemma.median()),
        ),
        ("attr.lock_share", share(o.accesses as f64, median(&x.lock))),
        (
            "attr.placement_share",
            share(
                epochs,
                shape.items as f64 * median(&x.owner_of) + median(&x.plan_moves) * 1e3,
            ),
        ),
        (
            "attr.hist_share",
            if nested {
                0.0
            } else {
                share(o.committed as f64, x.hist.median())
            },
        ),
    ];
    let explained: f64 = shares.iter().map(|s| s.1).sum();
    for (name, v) in shares {
        r.exact(
            name,
            v,
            "share",
            format!("of {wall_ns:.1} wall ns per committed op, 1 thread"),
        );
    }
    r.exact(
        "attr.residual_share",
        1.0 - explained,
        "share",
        "1 - the layer shares".into(),
    );
    r.exact(
        "host.cpu_over_wall",
        plain.host.cpu_over_wall(),
        "ratio",
        format!(
            "{:.3} s on-CPU / {:.3} s wall, plain pass",
            plain.host.cpu_s, plain.host.wall_s
        ),
    );
    r.exact("host.nproc", nproc() as f64, "cores", String::new());
    r.exact("host.threads", threads as f64, "threads", String::new());
    host_line(s, "plain pass", threads, &plain.host);
    Ok(r)
}
