//! The workloads: what each sets up, what a session is, which
//! outputs are checked and how the metrics are made.

use crate::json::Json;
use crate::offline::{replay_sharded, type_label, CountedSim, ProbedSim, ProbedTuner};
use crate::probe::{check_nesting, self_times, Counts, Probe, Span};
use crate::serving::{check_stats, count_served, serve, MemoBackend};
use crate::stats::{mean, median, percentile, tail_percentile};
use anns::params::IndexType;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use vdms::{PinningPolicy, VdmsConfig, WriteKnobs};
use vdtuner_core::{SpaceSpec, TuningOutcome, VdTuner};
use vecdata::rng::derive;
use vecdata::{ground_truth, DatasetKind, DatasetSpec};
use workload::{
    run_tuner, EvalBackend, Evaluator, Observation, Outcome, ServingBackend, ServingSpec,
    SimBackend, TopologyBackend, Tuner, Workload,
};

/// Recall floor of `best_qps_at_recall_0.9`.
pub const RECALL_FLOOR: f64 = 0.9;
/// Reference point of `pareto_hv`: (0 QPS, recall 0). Every successful
/// observation dominates it, so the hypervolume is the area under the
/// observed QPS/recall staircase, in QPS x recall.
pub const HV_REFERENCE: [f64; 2] = [0.0, 0.0];
/// p99 SLO of the serving sweep (the write-path experiment's 25 ms).
const SERVING_SLO_P99_SECS: f64 = 0.025;
/// Insert share of the serving sweep's traffic.
const INSERT_FRACTION: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperGlove,
    MixedRwServing,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::PaperGlove, Kind::MixedRwServing];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperGlove => "paper-glove",
            Kind::MixedRwServing => "mixed-rw-serving",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Sizes of one workload.
#[derive(Debug, Clone)]
pub struct Plan {
    pub kind: Kind,
    pub data: DatasetSpec,
    /// Neighbours retrieved per query.
    pub top_k: usize,
    /// Tuner iterations per session (tuning workloads).
    pub iters: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Requests per served evaluation.
    pub requests: usize,
    /// Arrival rates, as multiples of the anchor QPS: the default
    /// configuration's offline QPS for the sweep, the recommended
    /// configuration's for the tuning workloads.
    pub rates: Vec<f64>,
    /// Deployments of the serving sweep.
    pub deployments: Vec<VdmsConfig>,
}

/// The sweep's deployments: the default index configuration on one shard,
/// varying replicas, pinning and the write-path knobs.
fn deployments(
    replicas: &[usize],
    pinning: &[PinningPolicy],
    knobs: &[WriteKnobs],
) -> Vec<VdmsConfig> {
    let mut out = Vec::new();
    for &r in replicas {
        for &p in pinning {
            for &k in knobs {
                out.push(VdmsConfig {
                    shards: Some(1),
                    replicas: Some(r),
                    pinning: Some(p),
                    writepath: Some(k),
                    ..VdmsConfig::default_config()
                });
            }
        }
    }
    out
}

/// The write-path experiment's eager and lazy fixed-flush arms.
const EAGER: WriteKnobs =
    WriteKnobs { wal_batch_rows: 16, flush_interval_secs: 0.005, seal_rows: 128 };
const LAZY: WriteKnobs =
    WriteKnobs { wal_batch_rows: 1024, flush_interval_secs: 0.2, seal_rows: 4096 };

impl Plan {
    /// The benchmark's sizes, or (`smoke`) a scaled-down version that runs
    /// in seconds for the self-tests.
    pub fn new(kind: Kind, smoke: bool) -> Plan {
        let glove = DatasetSpec::scaled(DatasetKind::Glove);
        let tiny = DatasetSpec::tiny(DatasetKind::Glove);
        // `Workload::paper_default`'s top-k for the tuning workloads.
        let paper_top_k = |d: DatasetSpec| 100.min(d.n / 10).max(10);
        let all_knobs = [EAGER, LAZY, WriteKnobs::DEFAULT];
        let both_pinning = [PinningPolicy::Shared, PinningPolicy::SmtAvoid];
        let base = Plan {
            kind,
            data: glove,
            top_k: paper_top_k(glove),
            iters: 0,
            setup_reps: 1,
            requests: 40_000,
            rates: vec![0.25, 0.5, 0.75],
            deployments: Vec::new(),
        };
        match (kind, smoke) {
            (Kind::PaperGlove, false) => Plan { iters: 40, setup_reps: 25, ..base },
            // Serving queries retrieve the top 10.
            (Kind::MixedRwServing, false) => Plan {
                top_k: 10,
                setup_reps: 9,
                requests: 20_000,
                rates: vec![0.5, 1.0, 2.0],
                deployments: deployments(&[1, 2], &both_pinning, &all_knobs),
                ..base
            },
            (Kind::PaperGlove, true) => {
                Plan { data: tiny, top_k: paper_top_k(tiny), iters: 10, requests: 500, ..base }
            }
            (Kind::MixedRwServing, true) => Plan {
                data: tiny,
                top_k: 10,
                requests: 500,
                rates: vec![1.0, 2.0],
                deployments: deployments(&[1, 2], &[PinningPolicy::SmtAvoid], &[EAGER]),
                ..base
            },
        }
    }

    fn prepare(&self, probe: &Probe) -> Workload {
        // `Workload::prepare`, with generation and ground truth timed apart.
        let dataset = probe.span("vecdata.generate", None, || self.data.generate());
        let gt = probe.span("vecdata.ground_truth", None, || {
            ground_truth::ground_truth(&dataset, self.top_k)
        });
        Workload { dataset, ground_truth: gt, top_k: self.top_k, cost_model: Default::default() }
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.to_string(), unit, value }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub details: Vec<(String, Json)>,
    /// Spans of the reported traced session and of the set-ups.
    pub spans: Vec<(String, Vec<Span>)>,
}

impl Report {
    fn detail(&mut self, key: &str, value: Json) {
        self.details.push((key.to_string(), value));
    }
}

/// One timed session.
struct Session {
    session_s: f64,
    steps: Vec<f64>,
    counts: Counts,
    spans: Vec<Span>,
    /// Session window on the probe's clock.
    window: (f64, f64),
    /// Per-step output fingerprints, compared against the reference.
    fingerprints: Vec<String>,
    failed_obs: u64,
}

/// Bitwise identity of an observation, minus its wall-clock field.
fn obs_fingerprint(o: &Observation) -> String {
    format!(
        "{} {:?} {:x} {:x} {:x} {} {:x} {:?}",
        o.iter,
        o.config,
        o.qps.to_bits(),
        o.recall.to_bits(),
        o.memory_gib.to_bits(),
        o.failed,
        o.replay_secs.to_bits(),
        o.serving
    )
}

/// Bitwise identity of an outcome.
fn outcome_fingerprint(o: &Outcome) -> String {
    format!(
        "{:x} {:x} {:x} {:x} {:?} {:?}",
        o.qps.to_bits(),
        o.recall.to_bits(),
        o.memory_gib.to_bits(),
        o.simulated_secs.to_bits(),
        o.failure,
        o.serving
    )
}

/// Timed set-ups. The first one makes the inputs the sessions run on; the
/// others run between sessions, spread over the measuring window, so that
/// `setup_s` samples the host's slow and fast periods alike rather than
/// the second after start-up.
struct Setups<F> {
    trace: bool,
    setup: F,
    times: Vec<f64>,
    spans: Vec<Vec<Span>>,
}

impl<T, F: FnMut(&Probe) -> T> Setups<F> {
    fn new(trace: bool, setup: F) -> Setups<F> {
        Setups { trace, setup, times: Vec::new(), spans: Vec::new() }
    }

    /// Run and time one set-up.
    fn run(&mut self) -> T {
        let probe = Probe::new(self.trace);
        let t0 = Instant::now();
        let value = (self.setup)(&probe);
        self.times.push(t0.elapsed().as_secs_f64());
        self.spans.push(probe.spans());
        value
    }
}

/// Median over set-ups of the time spent in spans named `name`.
fn setup_layer_s(spans: &[Vec<Span>], name: &str) -> f64 {
    let per_rep: Vec<f64> = spans
        .iter()
        .map(|s| total(s.iter().filter(|sp| sp.name == name).map(Span::duration_s)))
        .collect();
    median(&per_rep)
}

/// Run sessions until `seconds` of them have been measured (at least one
/// untraced, and with `trace` one traced after each untraced one). Between
/// sessions, `setup` runs until `setups` set-ups (the one already made
/// included) are done, spread evenly over the window.
fn measure(
    seconds: f64,
    trace: bool,
    report: &mut Report,
    setups: usize,
    mut setup: impl FnMut(),
    mut session: impl FnMut(bool) -> Session,
) -> (Vec<Session>, Vec<Session>) {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut setups_done = 1;
    loop {
        let due = if seconds > 0.0 {
            (setups as f64 * start.elapsed().as_secs_f64() / seconds).ceil() as usize
        } else {
            setups
        };
        while setups_done < due.min(setups) {
            setup();
            setups_done += 1;
        }
        for tracing in [false, true] {
            if tracing && !trace {
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| session(tracing))) {
                Ok(s) if tracing => traced.push(s),
                Ok(s) => untraced.push(s),
                Err(_) => {
                    report.errors.push("a session panicked".to_string());
                    report.failed += 1;
                    report.attempted += 1;
                    return (untraced, traced);
                }
            }
        }
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            while setups_done < setups {
                setup();
                setups_done += 1;
            }
            return (untraced, traced);
        }
    }
}

/// Compare every session's step outputs with the expected ones, counting
/// each differing step as failed, and its work counts with the first
/// session's: all counts within the traced and within the untraced
/// sessions, the shared ones between the two.
fn check_sessions(
    report: &mut Report,
    untraced: &[Session],
    traced: &[Session],
    want: &[String],
    what: &str,
) {
    for s in untraced.iter().chain(traced) {
        report.attempted += s.fingerprints.len() as u64;
        let bad = s.fingerprints.iter().zip(want).filter(|(a, b)| a != b).count()
            + s.fingerprints.len().abs_diff(want.len());
        if bad > 0 {
            report.failed += bad as u64;
            report.errors.push(format!("{bad} steps differ from {what}"));
        }
    }
    for group in [untraced, traced] {
        if group.iter().any(|s| s.counts != group[0].counts) {
            report.errors.push("work counts differ between sessions".to_string());
        }
    }
    if let (Some(u), Some(t)) = (untraced.first(), traced.first()) {
        if u.counts.shared() != t.counts.shared() {
            report.errors.push("work counts differ between traced and untraced sessions".into());
        }
    }
}

/// Run one workload.
pub fn run(plan: &Plan, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| match plan.kind {
        Kind::PaperGlove => run_tuning(plan, seed, seconds, trace, &mut report),
        Kind::MixedRwServing => run_serving(plan, seed, seconds, trace, &mut report),
    }));
    if outcome.is_err() {
        report.errors.push("the run panicked".to_string());
        report.failed += 1;
        report.attempted = report.attempted.max(1);
    }
    if report.attempted == 0 {
        report.errors.push("no step was attempted".to_string());
        report.attempted = 1;
        report.failed += 1;
    }
    report
}

/// Seed of the tuner (and, derived from it, of the evaluator): the paper
/// profile's, so every run tunes the same problem.
fn tuner_seed() -> u64 {
    bench::Profile::default().seed
}

/// Run `iters` tuner steps over `backend`; returns the history and the
/// instant the last step ended.
fn drive(
    tuner: &mut impl Tuner,
    backend: impl EvalBackend,
    seed: u64,
    iters: usize,
) -> (Vec<Observation>, Instant) {
    let mut evaluator = Evaluator::with_backend(backend, seed);
    run_tuner(tuner, &mut evaluator, iters);
    let end = Instant::now();
    (evaluator.history().to_vec(), end)
}

fn tuning_session(w: &Workload, plan: &Plan, tracing: bool) -> Session {
    let probe = Probe::new(tracing);
    let seed = tuner_seed();
    let mut tuner = VdTuner::new(bench::vdtuner_paper_options(plan.iters), seed);
    let mut wrapped = ProbedTuner { inner: &mut tuner, probe: &probe };
    // The evaluator seed `VdTuner::run_on` uses.
    let eval_seed = derive(seed, 0xEBA1);
    let w0 = probe.now_s();
    let t0 = Instant::now();
    // Untraced sessions evaluate through the library's `SimBackend`; traced
    // ones through its decomposition, which gives each layer call a span.
    let (history, end) = if tracing {
        drive(&mut wrapped, ProbedSim { workload: w, probe: &probe }, eval_seed, plan.iters)
    } else {
        let sim = CountedSim { inner: SimBackend::new(w), probe: &probe };
        drive(&mut wrapped, sim, eval_seed, plan.iters)
    };
    let w1 = probe.now_s();
    Session {
        session_s: end.duration_since(t0).as_secs_f64(),
        steps: probe.step_durations(end),
        counts: probe.counts(),
        spans: probe.spans(),
        window: (w0, w1),
        fingerprints: history.iter().map(obs_fingerprint).collect(),
        failed_obs: history.iter().filter(|o| o.failed).count() as u64,
    }
}

fn sweep_spec(plan: &Plan, rate: f64) -> ServingSpec {
    let base =
        ServingSpec { requests: plan.requests, queue_capacity: 32, ..ServingSpec::default() };
    match plan.kind {
        Kind::MixedRwServing => {
            base.with_inserts(INSERT_FRACTION).with_slo(SERVING_SLO_P99_SECS).at_rate(rate)
        }
        _ => base.at_rate(rate),
    }
}

/// Served means over a set of outcomes: (goodput QPS, p99 ms). Checks
/// every trace's conservation laws.
fn served_means(report: &mut Report, outs: &[Outcome], specs: &[ServingSpec]) -> (f64, f64) {
    let mut goodput = Vec::new();
    let mut p99 = Vec::new();
    for (o, spec) in outs.iter().zip(specs) {
        match &o.serving {
            Some(s) => {
                if let Err(e) = check_stats(s, spec) {
                    report.errors.push(e);
                }
                goodput.push(s.goodput_qps);
                p99.push(s.p99_latency_secs * 1e3);
            }
            None => report.errors.push("a served evaluation carries no serving stats".into()),
        }
    }
    if goodput.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    (mean(&goodput), mean(&p99))
}

fn pareto_hv(points: impl Iterator<Item = [f64; 2]>) -> f64 {
    let pts: Vec<[f64; 2]> = points.collect();
    mobo::hypervolume::hv2d(&pts, &HV_REFERENCE)
}

fn run_tuning(plan: &Plan, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut setups = Setups::new(trace, |p: &Probe| plan.prepare(p));
    let w = setups.run();

    // The library's own tuning loop: the reference every session must match.
    // It also warms caches before anything is timed.
    let reference: TuningOutcome =
        VdTuner::new(bench::vdtuner_paper_options(plan.iters), tuner_seed())
            .run_on(SimBackend::new(&w), plan.iters);
    let want: Vec<String> = reference.observations.iter().map(obs_fingerprint).collect();

    let (untraced, traced) = measure(
        seconds,
        trace,
        report,
        plan.setup_reps,
        || {
            setups.run();
        },
        |t| tuning_session(&w, plan, t),
    );
    check_sessions(report, &untraced, &traced, &want, "VdTuner::run_on");

    // The recommended configuration, replayed through the library.
    let evaluator_seed = derive(tuner_seed(), 0xEBA1);
    let best = reference.best_balanced().cloned();
    let Some(best) = best.filter(|o| !o.failed) else {
        report.errors.push("no successful recommended configuration".into());
        return;
    };
    let again = workload::evaluate(&w, &best.config, evaluator_seed);
    let reproduced = again.is_ok()
        && again.qps.to_bits() == best.qps.to_bits()
        && again.recall.to_bits() == best.recall.to_bits()
        && again.memory_gib.max(vdms::memory::MIN_MEMORY_GIB).to_bits()
            == best.memory_gib.to_bits()
        && again.simulated_secs.to_bits() == best.replay_secs.to_bits();
    if !reproduced {
        report.errors.push("the recommended configuration does not reproduce".into());
    }

    // What a user of the recommendation would see served: the
    // recommended configuration at fractions of its offline QPS, under
    // arrival streams drawn from the workload seed.
    let memo = MemoBackend {
        info: SimBackend::new(&w).info(),
        entries: vec![(best.config.sanitized(w.dataset.dim(), w.top_k), again.clone())],
    };
    let specs: Vec<ServingSpec> =
        plan.rates.iter().map(|m| sweep_spec(plan, m * again.qps)).collect();
    let served: Vec<Outcome> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            ServingBackend::new(&w, &memo, *spec).evaluate(&best.config, derive(seed, i as u64))
        })
        .collect();
    let (goodput, p99_ms) = served_means(report, &served, &specs);

    let hv =
        pareto_hv(reference.observations.iter().filter(|o| !o.failed).map(|o| [o.qps, o.recall]));
    let modeled = Modeled {
        best_qps: reference.best_qps_with_recall(RECALL_FLOOR).unwrap_or(f64::NAN),
        pareto_hv: hv,
        sim_tuning_s: reference.total_replay_secs,
        goodput,
        p99_ms,
    };
    report.detail("recommended_config", Json::str(&best.config.summary()));
    finish_report(report, &setups.times, &setups.spans, &untraced, &traced, &modeled, trace);

    if trace {
        let fit_ms = shadow_gp_fit_ms(&reference.observations);
        set_layer(report, "gp.fit_final_ms", fit_ms);
    }
}

/// A `gp::fit_gp` refit of both objectives on the final history, timed
/// outside the session (median of three fits).
fn shadow_gp_fit_ms(history: &[Observation]) -> f64 {
    let space = SpaceSpec::legacy();
    let x: Vec<Vec<f64>> = history.iter().map(|o| space.encode(&o.config)).collect();
    let y_speed: Vec<f64> = history.iter().map(|o| o.qps.max(1e-9).ln()).collect();
    let y_recall: Vec<f64> = history.iter().map(|o| o.recall).collect();
    let opts = bench::vdtuner_paper_options(history.len()).fit;
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let a = gp::fit_gp(&x, &y_speed, &opts);
            let b = gp::fit_gp(&x, &y_recall, &opts);
            std::hint::black_box((a, b));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

fn run_serving(plan: &Plan, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let offline_seed = tuner_seed();
    let max_replicas = plan.deployments.iter().filter_map(|c| c.replicas).max().unwrap_or(1);
    let mut setups = Setups::new(trace, |probe: &Probe| {
        let w = plan.prepare(probe);
        let anchor = workload::evaluate(&w, &VdmsConfig::default_config(), offline_seed).qps;
        let topo = TopologyBackend::with_writepath(&w, 1, max_replicas);
        let mut entries: Vec<(VdmsConfig, Outcome)> = Vec::new();
        for cfg in &plan.deployments {
            let cfg = cfg.sanitized(w.dataset.dim(), w.top_k);
            // The offline outcome does not depend on the write knobs,
            // so deployments that differ only in them share one
            // measurement (the real-path check below confirms it).
            let shared = entries
                .iter()
                .find(|(c, _)| c.replicas == cfg.replicas && c.pinning == cfg.pinning)
                .map(|(_, o)| o.clone());
            // Traced set-ups measure through the decomposed replay, to
            // time the cluster load and search; untraced ones call the
            // library's backend.
            let out = shared.unwrap_or_else(|| {
                if trace {
                    let spec = topo.cluster_spec_for(&cfg).expect("deployment is realizable");
                    replay_sharded(&w, &cfg, offline_seed, spec, probe)
                } else {
                    topo.evaluate(&cfg, offline_seed)
                }
            });
            entries.push((cfg, out));
        }
        (w, anchor, entries)
    });
    let (w, anchor, entries) = setups.run();
    let topo = TopologyBackend::with_writepath(&w, 1, max_replicas);
    let memo = MemoBackend { info: topo.info(), entries };

    // Real path vs memoised path, one rate per deployment, bitwise: the
    // library's ServingBackend over the real TopologyBackend and over the
    // memo, at the offline seed.
    for (d, (cfg, _)) in memo.entries.iter().enumerate() {
        let spec = sweep_spec(plan, plan.rates[d % plan.rates.len()] * anchor);
        let memoised = ServingBackend::new(&w, &memo, spec).evaluate(cfg, offline_seed);
        let real = ServingBackend::new(&w, &topo, spec).evaluate(cfg, offline_seed);
        if outcome_fingerprint(&memoised) != outcome_fingerprint(&real) {
            report
                .errors
                .push(format!("deployment {d}: memoised serving differs from the real path"));
        }
    }

    let specs: Vec<ServingSpec> = memo
        .entries
        .iter()
        .flat_map(|_| plan.rates.iter().map(|m| sweep_spec(plan, m * anchor)))
        .collect();
    let session = |tracing: bool| {
        let probe = Probe::new(tracing);
        let w0 = probe.now_s();
        let t0 = Instant::now();
        let mut outs = Vec::with_capacity(specs.len());
        let steps = memo.entries.iter().flat_map(|(cfg, _)| plan.rates.iter().map(move |_| cfg));
        for (step, (cfg, spec)) in steps.zip(&specs).enumerate() {
            probe.begin_step();
            probe.count(|c| c.evaluate_calls += 1);
            let step_seed = derive(seed, step as u64);
            // Untraced sessions serve through the library's ServingBackend;
            // traced ones through its decomposition, which gives the
            // simulator call a span.
            outs.push(if tracing {
                probe.span("workload.evaluate", None, || {
                    serve(&w, &memo, &memo.info, spec, cfg, step_seed, &probe)
                })
            } else {
                let out = ServingBackend::new(&w, &memo, *spec).evaluate(cfg, step_seed);
                count_served(&probe, &out);
                out
            });
        }
        let end = Instant::now();
        let w1 = probe.now_s();
        let fingerprints: Vec<String> = outs
            .iter()
            .zip(&specs)
            .map(|(o, spec)| match o.serving.as_ref().map(|s| check_stats(s, spec)) {
                Some(Ok(())) => outcome_fingerprint(o),
                Some(Err(e)) => format!("invariant violated: {e}"),
                None => "not served".to_string(),
            })
            .collect();
        let failed_obs = outs.iter().filter(|o| !o.is_ok()).count() as u64;
        (
            Session {
                session_s: end.duration_since(t0).as_secs_f64(),
                steps: probe.step_durations(end),
                counts: probe.counts(),
                spans: probe.spans(),
                window: (w0, w1),
                fingerprints,
                failed_obs,
            },
            outs,
        )
    };
    // The first session's outputs are what every later one must repeat.
    let mut first: Option<Vec<Outcome>> = None;
    let (untraced, traced) = measure(
        seconds,
        trace,
        report,
        plan.setup_reps,
        || {
            setups.run();
        },
        |t| {
            let (s, outs) = session(t);
            first.get_or_insert(outs);
            s
        },
    );
    let Some(outs) = first else { return };
    let want: Vec<String> = outs
        .iter()
        .zip(&specs)
        .map(|(o, spec)| match o.serving.as_ref().map(|s| check_stats(s, spec)) {
            Some(Ok(())) => outcome_fingerprint(o),
            _ => "expected a served, consistent outcome".to_string(),
        })
        .collect();
    check_sessions(report, &untraced, &traced, &want, "the first session and the trace invariants");

    let (goodput, p99_ms) = served_means(report, &outs, &specs);
    let offline: Vec<&Outcome> = memo.entries.iter().map(|(_, o)| o).collect();
    let modeled = Modeled {
        best_qps: offline
            .iter()
            .filter(|o| o.is_ok() && o.recall >= RECALL_FLOOR)
            .map(|o| o.qps)
            .fold(f64::NAN, f64::max),
        pareto_hv: pareto_hv(offline.iter().filter(|o| o.is_ok()).map(|o| [o.qps, o.recall])),
        sim_tuning_s: offline.iter().map(|o| o.simulated_secs).sum(),
        goodput,
        p99_ms,
    };
    report.detail("anchor_qps", Json::Num(anchor));
    report.detail("offline_qps", nums(&offline.iter().map(|o| o.qps).collect::<Vec<_>>()));
    report.detail("offline_recall", nums(&offline.iter().map(|o| o.recall).collect::<Vec<_>>()));
    finish_report(report, &setups.times, &setups.spans, &untraced, &traced, &modeled, trace);
}

/// The modeled outputs of a run (deterministic given the seed).
struct Modeled {
    best_qps: f64,
    pareto_hv: f64,
    sim_tuning_s: f64,
    goodput: f64,
    p99_ms: f64,
}

fn set_layer(report: &mut Report, name: &str, value: f64) {
    if let Some(m) = report.per_layer.iter_mut().find(|m| m.name == name) {
        m.value = value;
    }
}

/// The session with the median session time.
fn median_session(sessions: &[Session]) -> &Session {
    let mut idx: Vec<usize> = (0..sessions.len()).collect();
    idx.sort_by(|&a, &b| sessions[a].session_s.total_cmp(&sessions[b].session_s));
    &sessions[idx[idx.len() / 2]]
}

#[allow(clippy::too_many_arguments)]
fn finish_report(
    report: &mut Report,
    setup_times: &[f64],
    setup_spans: &[Vec<Span>],
    untraced: &[Session],
    traced: &[Session],
    modeled: &Modeled,
    trace: bool,
) {
    if untraced.is_empty() || (trace && traced.is_empty()) {
        report.errors.push("no session completed".into());
        return;
    }
    let steps_per_session = untraced[0].steps.len();
    let q = tail_percentile(steps_per_session);
    let session_s: Vec<f64> = untraced.iter().map(|s| s.session_s).collect();
    // Every session repeats the same steps, so each step's time is taken
    // as its median over the sessions before the step statistics are made.
    let step_medians: Vec<f64> = (0..steps_per_session)
        .map(|i| median(&untraced.iter().map(|s| s.steps[i]).collect::<Vec<_>>()))
        .collect();

    report.end_to_end = vec![
        metric("setup_s", "s", median(setup_times)),
        metric("session_s", "s", median(&session_s)),
        metric("step_p50_ms", "ms", median(&step_medians) * 1e3),
        metric("step_tail_ms", "ms", percentile(&step_medians, q) * 1e3),
        metric("peak_rss_mib", "MiB", crate::host::peak_rss_mib()),
        metric("best_qps_at_recall_0.9", "qps", modeled.best_qps),
        metric("pareto_hv", "qps", modeled.pareto_hv),
        metric("sim_tuning_s", "sim_s", modeled.sim_tuning_s),
        metric("sim_goodput_qps", "qps", modeled.goodput),
        metric("sim_p99_ms", "sim_ms", modeled.p99_ms),
    ];
    for m in &report.end_to_end {
        if !(m.value.is_finite() && m.value > 0.0) {
            report.errors.push(format!("end-to-end metric {} is {}", m.name, m.value));
        }
    }
    report.detail("setup_s_samples", nums(setup_times));
    report.detail("session_s_samples", nums(&session_s));
    report.detail("step_s_samples", Json::Arr(untraced.iter().map(|s| nums(&s.steps)).collect()));
    report.detail("steps_per_session", Json::Int(steps_per_session as u64));
    report.detail("step_tail_percentile", Json::Int(u64::from(q)));
    report.detail("sessions_timed", Json::Int(untraced.len() as u64));
    report.detail("failed_obs", Json::Int(untraced[0].failed_obs));
    report.detail("hv_reference", nums(&HV_REFERENCE));
    report.detail("counts", Json::Str(format!("{:?}", untraced[0].counts)));

    if !trace {
        return;
    }
    let t = median_session(traced);
    let traced_s: Vec<f64> = traced.iter().map(|s| s.session_s).collect();
    report.detail("traced_session_s_samples", nums(&traced_s));
    report.per_layer = layer_metrics(t, untraced, setup_spans, report);
    report.spans.push(("session".to_string(), t.spans.clone()));
    for (i, s) in setup_spans.iter().enumerate() {
        report.spans.push((format!("setup{i}"), s.clone()));
    }
}

/// Sum that is +0.0 (not -0.0) when empty.
fn total(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(0.0, |a, b| a + b)
}

fn nums(v: &[f64]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())
}

/// Per-layer rows of one traced session. The self-time rows plus
/// `bench.unattributed_s` add up to the traced session's wall time by
/// construction (self times telescope); what is checked is that the spans
/// nest and that the unattributed time stays under 5%.
fn layer_metrics(
    t: &Session,
    untraced: &[Session],
    setup_spans: &[Vec<Span>],
    report: &mut Report,
) -> Vec<Metric> {
    let selfs = self_times(&t.spans);
    let self_of = |name: &str| -> f64 {
        total(t.spans.iter().zip(&selfs).filter(|(s, _)| s.name == name).map(|(_, d)| *d))
    };
    let total_of = |name: &str| -> f64 {
        total(t.spans.iter().filter(|s| s.name == name).map(Span::duration_s))
    };
    let session_s = t.window.1 - t.window.0;
    let top_level = total(t.spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_s));
    let unattributed = session_s - top_level;

    // Every span name a session records; the self times of each land in the
    // `<name>_s` row (`workload.evaluate` in `workload.evaluate_self_s`).
    const SELF_SPANS: [&str; 8] = [
        "core.propose",
        "core.observe",
        "workload.evaluate",
        "anns.build",
        "vdms.search",
        "vdms.cost",
        "vecdata.recall",
        "workload.serving",
    ];
    for span in &t.spans {
        if !SELF_SPANS.contains(&span.name) {
            report.errors.push(format!("span {} has no per-layer row", span.name));
        }
    }
    if let Err(e) = check_nesting(&t.spans, t.window) {
        report.errors.push(format!("traced session: {e}"));
    }
    if unattributed >= 0.05 * session_s {
        report.errors.push(format!(
            "bench.unattributed_s is {:.1}% of session_s (bound 5%)",
            100.0 * unattributed / session_s
        ));
    }

    let c = &t.counts;
    let steps = c.steps as f64;
    let cache_hits = c.steps.saturating_sub(c.evaluate_calls) as f64;
    let proposes: Vec<f64> =
        t.spans.iter().filter(|s| s.name == "core.propose").map(Span::duration_s).collect();
    let last10 = &proposes[proposes.len().saturating_sub(10)..];
    let untraced_s = median(&untraced.iter().map(|s| s.session_s).collect::<Vec<_>>());
    let serving_s = self_of("workload.serving");

    let mut m = vec![
        metric("vecdata.generate_s", "s", setup_layer_s(setup_spans, "vecdata.generate")),
        metric("vecdata.ground_truth_s", "s", setup_layer_s(setup_spans, "vecdata.ground_truth")),
        metric("vecdata.recall_s", "s", self_of("vecdata.recall")),
        metric("anns.build_s", "s", self_of("anns.build")),
    ];
    for ty in IndexType::ALL {
        let label = type_label(ty);
        let v = total(
            t.spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.name == "anns.build" && s.label == Some(label))
                .map(|(_, d)| *d),
        );
        m.push(metric(&format!("anns.build_s.{label}"), "s", v));
    }
    m.extend([
        metric("anns.build_calls", "count", c.build_calls as f64),
        metric("anns.train_dims", "dims", c.train_dims as f64),
        metric("vdms.search_s", "s", self_of("vdms.search")),
        metric("vdms.search_queries", "count", c.search_queries as f64),
        metric("vdms.search_f32_dims", "dims", c.f32_dims as f64),
        metric("vdms.search_graph_dims", "dims", c.graph_dims as f64),
        metric("vdms.search_graph_hops", "count", c.graph_hops as f64),
        metric("vdms.search_u8_dims", "dims", c.u8_dims as f64),
        metric("vdms.search_pq_lookups", "count", c.pq_lookups as f64),
        metric("vdms.search_heap_pushes", "count", c.heap_pushes as f64),
        metric("vdms.cost_s", "s", self_of("vdms.cost")),
        metric("vdms.cluster_load_s", "s", setup_layer_s(setup_spans, "vdms.cluster_load")),
        metric("vdms.cluster_search_s", "s", setup_layer_s(setup_spans, "vdms.cluster_search")),
        metric("vdms.wal_flushes_full_batch", "count", c.wal_flushes_full_batch as f64),
        metric("vdms.wal_flushes_end_of_tick", "count", c.wal_flushes_end_of_tick as f64),
        metric("vdms.segments_sealed", "count", c.segments_sealed as f64),
        metric("vdms.compactions", "count", c.compactions as f64),
        metric("vdms.write_shed", "count", c.write_shed as f64),
        metric("workload.evaluate_s", "s", total_of("workload.evaluate")),
        metric("workload.evaluate_self_s", "s", self_of("workload.evaluate")),
        metric("workload.evaluate_calls", "count", c.evaluate_calls as f64),
        metric("workload.cache_hits", "count", cache_hits),
        metric(
            "workload.cache_hit_ratio",
            "ratio",
            if steps > 0.0 { cache_hits / steps } else { 0.0 },
        ),
        metric("workload.failed_obs", "count", t.failed_obs as f64),
        metric("workload.serving_s", "s", serving_s),
        metric("workload.serving_events", "count", c.serving_events as f64),
        metric(
            "workload.serving_ns_per_event",
            "ns/event",
            if c.serving_events > 0 { serving_s * 1e9 / c.serving_events as f64 } else { 0.0 },
        ),
        metric("core.propose_s", "s", self_of("core.propose")),
        metric("core.propose_calls", "count", c.propose_calls as f64),
        metric(
            "core.propose_last10_ms",
            "ms",
            if last10.is_empty() { 0.0 } else { mean(last10) * 1e3 },
        ),
        metric("core.observe_s", "s", self_of("core.observe")),
        metric("gp.fit_final_ms", "ms", 0.0),
        metric("bench.session_s", "s", session_s),
        metric("bench.unattributed_s", "s", unattributed),
        metric("bench.trace_overhead", "ratio", t.session_s / untraced_s - 1.0),
        metric("bench.steps", "count", steps),
        metric("bench.step_tail_pct", "pct", f64::from(tail_percentile(t.steps.len()))),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// Names listed under `section` of BENCHMARK.json, in file order.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = text.find(&format!("\"{section}\"")).expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section is a list");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    /// A scaled-down run of `kind`, untraced and traced: every output
    /// check passes and every declared metric is printed, with a valid
    /// name and unit.
    fn smoke(kind: Kind) {
        for trace in [false, true] {
            let r = run(&Plan::new(kind, true), 7, 0.0, trace);
            assert!(r.errors.is_empty(), "{} trace={trace}: {:?}", kind.name(), r.errors);
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0);
            let (metrics, section) =
                if trace { (&r.per_layer, "per_layer") } else { (&r.end_to_end, "end_to_end") };
            let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
            assert_eq!(names, declared(section), "{} {section}", kind.name());
            for m in metrics {
                assert!(valid_name(&m.name), "bad metric name {}", m.name);
                assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
    }

    #[test]
    fn smoke_paper_glove() {
        smoke(Kind::PaperGlove);
    }

    #[test]
    fn smoke_mixed_rw_serving() {
        smoke(Kind::MixedRwServing);
    }

    #[test]
    fn declared_workloads_are_the_ones_implemented() {
        let names: Vec<String> = Kind::ALL.iter().map(|k| k.name().to_string()).collect();
        assert_eq!(declared("workloads"), names);
        for n in declared("workloads").iter().chain(&declared("end_to_end")) {
            assert!(valid_name(n), "{n}");
        }
    }
}
