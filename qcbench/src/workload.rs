//! The three workloads: their configurations (a pure function of the
//! seed and the simulated window) and one adapter over the engines'
//! public entry points.

use std::sync::Arc;

use nested_txn::{BankingGen, WorkloadKind};
use qc_obs::{CausalOptions, CausalReport, Histogram, ObsOptions, TxnTrace};
use qc_sim::{
    run_sharded_elastic, run_sharded_elastic_traced, run_txn, run_txn_causal, run_txn_committed,
    run_txn_traced, CommittedTxn, ContactPolicy, ElasticPolicy, ItemDist, Metrics, MultiConfig,
    PlacementPolicy, PlacementReport, ReconfigPolicy, RetryPolicy, ScheduleTrace, SimConfig,
    SimTime, TxnConfig, TxnReport, Workload as Pacing,
};
use quorum::{Majority, QuorumSpec, Rowa};

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-item ROWA under crash/repair churn with reactive
    /// reconfiguration (`qc_sim::run`).
    GridRowaFailover,
    /// 100k-item zipfian routed load over elastic shards
    /// (`qc_sim::run_sharded_elastic`).
    ShardedZipfElastic,
    /// Nested banking transactions under Moss 2PL (`qc_sim::run_txn`).
    NestedBanking,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::GridRowaFailover,
        Workload::ShardedZipfElastic,
        Workload::NestedBanking,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridRowaFailover => "grid_rowa_failover",
            Workload::ShardedZipfElastic => "sharded_zipf_elastic",
            Workload::NestedBanking => "nested_banking",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the repository's experiments use for this engine.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::GridRowaFailover => 23,
            Workload::ShardedZipfElastic => 29,
            Workload::NestedBanking => 17,
        }
    }

    /// OS threads the engine runs on in the correctness gate and the
    /// per-layer pass: 1 for the single-item engine, else 2, capped at the
    /// cores available. Timed end-to-end calls run on
    /// [`crate::bench::TIMED_THREADS`].
    pub fn threads(self) -> usize {
        match self {
            Workload::GridRowaFailover => 1,
            _ => 2.min(crate::measure::nproc()),
        }
    }

    /// Simulated window of one timed repetition: short enough that many
    /// repetitions spread over a run, so their median sees every state
    /// the host went through (see [`crate::measure`]).
    pub fn timed_window(self) -> SimTime {
        match self {
            Workload::GridRowaFailover => SimTime::from_secs(60),
            Workload::ShardedZipfElastic => SimTime::from_secs(2),
            Workload::NestedBanking => SimTime::from_secs(30),
        }
    }

    /// Simulated window of the traced pass: a trace costs about 190 bytes
    /// per event, so this is shorter than the timed window.
    pub fn trace_window(self) -> SimTime {
        match self {
            Workload::GridRowaFailover => SimTime::from_secs(5),
            Workload::ShardedZipfElastic => SimTime::from_secs(1),
            Workload::NestedBanking => SimTime::from_secs(10),
        }
    }
}

/// A workload's engine configuration.
#[derive(Clone, Debug)]
pub enum Config {
    /// Single-item engine.
    Grid(SimConfig),
    /// Sharded engine with elastic placement.
    Sharded(MultiConfig),
    /// Nested-transaction engine.
    Nested(TxnConfig),
}

/// The configuration of workload `w` for `seed` over `window` simulated
/// time. Every setting the workload does not name keeps the engine's
/// default, so a later change of a default shows in the benchmark.
pub fn config(w: Workload, seed: u64, window: SimTime) -> Config {
    match w {
        Workload::GridRowaFailover => {
            let mut c = SimConfig::new(Arc::new(Rowa::new(5)));
            c.clients = 8;
            c.think_time = SimTime::ZERO;
            c.read_fraction = 0.9;
            c.contact = ContactPolicy::MinimalQuorum;
            c.mttf = Some(SimTime::from_secs(20));
            c.mttr = SimTime::from_secs(2);
            // The default budget of 64 runs out within a long run, after
            // which the failure share depends on the run's length.
            c.reconfig = ReconfigPolicy {
                max_reconfigs: u32::MAX,
                ..ReconfigPolicy::reactive()
            };
            c.retry = RetryPolicy::retries(3, SimTime::from_millis(1));
            c.duration = window;
            c.seed = seed;
            Config::Grid(c)
        }
        Workload::ShardedZipfElastic => {
            let mut c = MultiConfig::new(Arc::new(Majority::new(5)));
            c.items = 100_000;
            c.shards = 8;
            c.workload = Pacing::Routed {
                interarrival: SimTime(50),
            };
            c.dist = ItemDist::Zipfian { theta: 0.99 };
            c.read_fraction = 0.5;
            c.reconfig = ReconfigPolicy::scripted_only();
            c.placement = PlacementPolicy::Elastic(ElasticPolicy::new());
            c.duration = window;
            c.seed = seed;
            Config::Sharded(c)
        }
        Workload::NestedBanking => {
            let mut c = TxnConfig::new(
                Arc::new(Majority::new(3)),
                WorkloadKind::Banking(BankingGen::new(4)),
            );
            c.items = 64;
            c.domains = 16;
            c.clients_per_domain = 4;
            c.think = SimTime::from_millis(2);
            c.lock_timeout = SimTime::from_millis(100);
            c.duration = window;
            c.seed = seed;
            Config::Nested(c)
        }
    }
}

impl Config {
    /// The quorum system every item uses.
    pub fn quorum(&self) -> &dyn QuorumSpec {
        match self {
            Config::Grid(c) => &*c.quorum,
            Config::Sharded(c) => &*c.quorum,
            Config::Nested(c) => &*c.quorum,
        }
    }
}

/// What to record besides the run itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Recorders off: the timed pass.
    Plain,
    /// The user-facing recorder: phase spans on the operation engines,
    /// `CausalOptions::profile()` on the transaction engine.
    Observed,
    /// Phase spans and the causal profile on every engine (simulated
    /// phase shares).
    Profile,
    /// The causal recorder keeping every transaction's span tree.
    CausalAll,
    /// Per-item schedule traces for the Theorem 10 checker.
    Traced,
    /// Committed top-level transactions for the Theorem 11 checker
    /// (transaction engine only).
    Committed,
}

/// The engine's own outputs of one run call.
pub enum Raw {
    /// `qc_sim::run` and its variants.
    Grid {
        metrics: Metrics,
        causal: Option<CausalReport>,
        trace: Option<ScheduleTrace>,
    },
    /// `qc_sim::run_sharded_elastic` and its traced variant.
    Sharded {
        report: Box<qc_sim::ShardReport>,
        placement: PlacementReport,
        traces: Option<Vec<ScheduleTrace>>,
    },
    /// `qc_sim::run_txn` and its variants.
    Nested {
        report: TxnReport,
        causal: Option<CausalReport>,
        traces: Option<Vec<ScheduleTrace>>,
        commits: Option<Vec<CommittedTxn>>,
    },
}

fn obs_options(mode: Mode) -> ObsOptions {
    let spans = ObsOptions {
        spans: true,
        ..ObsOptions::disabled()
    };
    match mode {
        Mode::Observed => spans,
        Mode::Profile => ObsOptions {
            causal: CausalOptions::profile(),
            ..spans
        },
        Mode::CausalAll => ObsOptions {
            causal: CausalOptions::full(),
            ..spans
        },
        _ => ObsOptions::disabled(),
    }
}

/// Prepare the configuration a `mode` run uses (outside any timing).
pub fn prepare(cfg: &Config, mode: Mode) -> Config {
    let mut cfg = cfg.clone();
    match &mut cfg {
        Config::Grid(c) => c.obs = obs_options(mode),
        Config::Sharded(c) => c.obs = obs_options(mode),
        Config::Nested(c) => {
            c.causal = match mode {
                Mode::Observed | Mode::Profile => CausalOptions::profile(),
                Mode::CausalAll => CausalOptions::full(),
                _ => CausalOptions::disabled(),
            }
        }
    }
    cfg
}

/// Run a configuration made by [`prepare`] once, through the engine entry
/// point `mode` names. Only this call is timed by the benchmark.
///
/// # Panics
///
/// On [`Mode::Committed`] for an engine without committed-transaction
/// capture.
pub fn run(cfg: Config, mode: Mode, threads: usize) -> Raw {
    match cfg {
        Config::Grid(c) => match mode {
            Mode::Plain => Raw::Grid {
                metrics: qc_sim::run(c),
                causal: None,
                trace: None,
            },
            Mode::Traced => {
                let (metrics, trace) = qc_sim::run_traced(c);
                Raw::Grid {
                    metrics,
                    causal: None,
                    trace: Some(trace),
                }
            }
            Mode::Committed => panic!("the single-item engine has no committed capture"),
            _ => {
                let (metrics, obs) = qc_sim::run_observed(c);
                let causal = obs.causal.enabled().then_some(obs.causal);
                Raw::Grid {
                    metrics,
                    causal,
                    trace: None,
                }
            }
        },
        Config::Sharded(c) => match mode {
            Mode::Traced => {
                let (report, traces, placement) = run_sharded_elastic_traced(&c, threads);
                Raw::Sharded {
                    report: Box::new(report),
                    placement,
                    traces: Some(traces),
                }
            }
            Mode::Committed => panic!("the sharded engine has no committed capture"),
            _ => {
                let (report, placement) = run_sharded_elastic(&c, threads);
                Raw::Sharded {
                    report: Box::new(report),
                    placement,
                    traces: None,
                }
            }
        },
        Config::Nested(c) => match mode {
            Mode::Plain => Raw::Nested {
                report: run_txn(&c, threads),
                causal: None,
                traces: None,
                commits: None,
            },
            Mode::Traced => {
                let (report, traces) = run_txn_traced(&c, threads);
                Raw::Nested {
                    report,
                    causal: None,
                    traces: Some(traces),
                    commits: None,
                }
            }
            Mode::Committed => {
                let (report, commits) = run_txn_committed(&c, threads);
                Raw::Nested {
                    report,
                    causal: None,
                    traces: None,
                    commits: Some(commits),
                }
            }
            _ => {
                let (report, causal) = run_txn_causal(&c, threads);
                Raw::Nested {
                    report,
                    causal: Some(causal),
                    traces: None,
                    commits: None,
                }
            }
        },
    }
}

/// The counters the metrics are computed from, read off one run's
/// public reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Committed operations, or committed top-level transactions.
    pub committed: u64,
    /// Operations attempted, or top-level transactions started.
    pub attempted: u64,
    /// Failed operations (timeouts, unavailable, aborted), or aborted
    /// top-level transactions.
    pub failed: u64,
    /// Simulated commit latency (µs): reads and writes merged on the
    /// operation engines; empty on a plain transaction-engine run, whose
    /// latency comes from the causal profile.
    pub latency: Histogram,
    /// Messages sent.
    pub messages: u64,
    /// Extra attempts after a failed first attempt.
    pub retries: u64,
    /// §4 stale-generation rejections.
    pub stale_rejections: u64,
    /// Reconfigurations installed.
    pub reconfigurations: u64,
    /// Lemma 7/8 monitor violations.
    pub lemma_violations: u64,
    /// The first recorded violation descriptions.
    pub violations: Vec<String>,
    /// Committed copy-level accesses (reads and writes).
    pub accesses: u64,
    /// Committed writes.
    pub writes: u64,
    /// Lock requests that queued.
    pub lock_waits: u64,
    /// Transactions aborted by a lock timeout.
    pub lock_timeouts: u64,
    /// Compensating restore-writes.
    pub compensations: u64,
    /// Committed operations per item.
    pub item_commits: Vec<u64>,
    /// The elastic control plane's report (sharded engine only).
    pub placement: Option<PlacementReport>,
}

impl Raw {
    /// The run's behavioural digest: the engine's own report digest
    /// (plus the placement digest on the sharded engine). Recorders must
    /// leave it unchanged.
    pub fn digest(&self) -> u64 {
        match self {
            Raw::Grid { metrics, .. } => metrics.digest(),
            Raw::Sharded {
                report, placement, ..
            } => {
                qc_obs::fnv1a(format!("{:x}|{:x}", report.digest(), placement.digest()).as_bytes())
            }
            Raw::Nested { report, .. } => report.digest(),
        }
    }

    /// The counters of this run.
    pub fn outcome(&self) -> Outcome {
        match self {
            Raw::Grid { metrics, .. } => ops_outcome(metrics, vec![], None),
            Raw::Sharded {
                report, placement, ..
            } => ops_outcome(
                &report.metrics,
                report.item_commits.clone(),
                Some(placement.clone()),
            ),
            Raw::Nested { report, causal, .. } => {
                let s = &report.stats;
                Outcome {
                    committed: s.txns_committed,
                    attempted: s.txns_started,
                    failed: s.txns_aborted,
                    latency: causal
                        .as_ref()
                        .map(|c| c.profile().e2e().clone())
                        .unwrap_or_default(),
                    messages: s.messages,
                    retries: s.retries,
                    stale_rejections: 0,
                    reconfigurations: s.reconfigurations,
                    lemma_violations: s.lemma_violations,
                    violations: s.violations.clone(),
                    accesses: s.reads_committed + s.writes_committed,
                    writes: s.writes_committed,
                    lock_waits: s.lock_waits,
                    lock_timeouts: s.lock_timeouts,
                    compensations: s.compensations,
                    item_commits: report.item_commits.clone(),
                    placement: None,
                }
            }
        }
    }

    /// The per-item schedule traces of a traced run.
    pub fn traces(&self) -> Vec<&ScheduleTrace> {
        match self {
            Raw::Grid { trace, .. } => trace.iter().collect(),
            Raw::Sharded { traces, .. } | Raw::Nested { traces, .. } => {
                traces.iter().flatten().collect()
            }
        }
    }

    /// The committed top-level transactions of a committed-capture run.
    pub fn commits(&self) -> Option<&[CommittedTxn]> {
        match self {
            Raw::Nested { commits, .. } => commits.as_deref(),
            _ => None,
        }
    }

    /// The causal recording, if the mode kept one.
    pub fn causal(&self) -> Option<&CausalReport> {
        match self {
            Raw::Grid { causal, .. } | Raw::Nested { causal, .. } => causal.as_ref(),
            Raw::Sharded { report, .. } => {
                report.obs.causal.enabled().then_some(&report.obs.causal)
            }
        }
    }

    /// Exact simulated commit-latency percentiles in ms (`ps` in 0–100,
    /// ranked as `OpStats::percentile_ms` ranks them) and the sample
    /// count. The samples are every committed op, reads and writes
    /// merged, on the operation engines, and every finished top-level
    /// transaction (the samples `CritProfile::e2e` buckets) on the
    /// transaction engine, which needs a [`Mode::CausalAll`] run.
    pub fn latency_ms(&self, ps: &[f64]) -> Option<(Vec<f64>, u64)> {
        let metrics = match self {
            Raw::Grid { metrics, .. } => metrics,
            Raw::Sharded { report, .. } => &report.metrics,
            Raw::Nested { causal, .. } => {
                let mut us: Vec<u64> = causal
                    .as_ref()?
                    .all()
                    .iter()
                    .map(TxnTrace::latency_us)
                    .collect();
                if us.is_empty() {
                    return None;
                }
                us.sort_unstable();
                let at = |p: f64| {
                    let rank = ((p / 100.0) * (us.len() - 1) as f64).round() as usize;
                    us[rank.min(us.len() - 1)] as f64 / 1e3
                };
                return Some((ps.iter().map(|&p| at(p)).collect(), us.len() as u64));
            }
        };
        let mut all = metrics.reads.clone();
        all.merge(&metrics.writes);
        let values = ps.iter().map(|&p| all.percentile_ms(p)).collect();
        Some((values, all.successes))
    }
}

fn ops_outcome(m: &Metrics, item_commits: Vec<u64>, placement: Option<PlacementReport>) -> Outcome {
    let mut latency = m.reads.latency_hist().clone();
    latency.merge(m.writes.latency_hist());
    let failed = |s: &qc_sim::OpStats| s.timeouts + s.unavailable + s.aborted;
    Outcome {
        committed: m.reads.successes + m.writes.successes,
        attempted: m.reads.attempts + m.writes.attempts,
        failed: failed(&m.reads) + failed(&m.writes),
        latency,
        messages: m.reads.messages + m.writes.messages,
        retries: m.reads.retries + m.writes.retries,
        stale_rejections: m.stale_rejections,
        reconfigurations: m.reconfigurations,
        lemma_violations: m.lemma_violations,
        violations: m.violations.clone(),
        accesses: m.reads.successes + m.writes.successes,
        writes: m.writes.successes,
        lock_waits: 0,
        lock_timeouts: 0,
        compensations: 0,
        item_commits,
        placement,
    }
}
