//! The serving simulator's contracts, stated across crates:
//!
//! * the event loop is deterministic — same seed ⇒ bit-identical trace on
//!   1 vs N rayon worker threads (by property),
//! * `ServingBackend` with `arrival_qps → 0` degrades to the wrapped
//!   offline backend's QPS/recall,
//! * `gracefulTime` is finally load-bearing: the knob moves serving p99 in
//!   a regime where the offline mean-field model attributes *exactly zero*
//!   to it (the SHAP contrast the motivation figure needs),
//! * a golden digest pins the read-only schedule of every entry point —
//!   shared pool and reactors, both routers, waiting and shedding.

use proptest::prelude::*;
use vdtuner::core::shap::shapley_attribution;
use vdtuner::core::{TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::vdms::cost_model::CostModel;
use vdtuner::vdms::system_params::SystemParams;
use vdtuner::vdms::writepath::WriteKnobs;
use vdtuner::vdms::PinningPolicy;
use vdtuner::workload::serving::{
    simulate, simulate_pinned, simulate_pinned_mixed, simulate_replicated,
    simulate_replicated_mixed, ServingTrace,
};
use vdtuner::workload::{Evaluator, ServingBackend, ServingSpec, SimBackend, WriteStats};

fn tiny_workload() -> Workload {
    Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ bit-identical event trace no matter how many worker
    /// threads execute the simulation: every draw is a pure function of
    /// the query index and the event loop (including JSQ replica routing,
    /// which reads per-group queue depths serially) is serial.
    #[test]
    fn serving_trace_is_thread_count_invariant(
        rate in 50.0f64..2_000.0,
        burst in 0.0f64..3.0,
        graceful in 0.0f64..5_000.0,
        buf in 16.0f64..2_048.0,
        conc in 1usize..64,
        service_ms in 0.5f64..20.0,
        replicas in 1usize..=4,
        random_routing in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let model = CostModel::default();
        let sys = SystemParams {
            graceful_time_ms: graceful,
            insert_buf_size_mb: buf,
            max_read_concurrency: conc,
            ..Default::default()
        };
        let routing = if random_routing == 1 {
            RoutingPolicy::Random { seed: seed ^ 0xABCD }
        } else {
            RoutingPolicy::JoinShortestQueue
        };
        let spec = ServingSpec {
            arrival_qps: rate,
            burstiness: burst,
            requests: 300,
            routing,
            ..Default::default()
        };
        let service = service_ms / 1_000.0;
        let serial =
            with_threads(1, || simulate_replicated(&model, &sys, service, &spec, seed, replicas));
        let parallel =
            with_threads(4, || simulate_replicated(&model, &sys, service, &spec, seed, replicas));
        prop_assert_eq!(&serial, &parallel);
        // Bit-level, not just PartialEq: fingerprint the latency trace and
        // the routing decisions.
        let bits = |t: &vdtuner::workload::ServingTrace| -> Vec<(u64, usize)> {
            t.events.iter().map(|e| (e.latency_secs().to_bits(), e.replica)).collect()
        };
        prop_assert_eq!(bits(&serial), bits(&parallel));
        // And the unreplicated entry point is the one-replica simulation.
        if replicas == 1 {
            let plain = with_threads(4, || simulate(&model, &sys, service, &spec, seed));
            prop_assert_eq!(&serial, &plain);
        }
    }

    /// The tuner-facing objectives of a served evaluation are the wrapped
    /// offline backend's, bit for bit — at any arrival rate, for any seed.
    #[test]
    fn served_objectives_equal_offline_objectives(
        rate in 0.0f64..200.0,
        seed in 0u64..1_000,
    ) {
        let w = tiny_workload();
        let spec = ServingSpec { arrival_qps: rate, requests: 150, ..Default::default() };
        let served = ServingBackend::over_sim(&w, spec).evaluate(&VdmsConfig::default_config(), seed);
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), seed);
        prop_assert_eq!(served.qps.to_bits(), offline.qps.to_bits());
        prop_assert_eq!(served.recall.to_bits(), offline.recall.to_bits());
        prop_assert_eq!(served.memory_gib.to_bits(), offline.memory_gib.to_bits());
    }
}

#[test]
fn rate_zero_serving_backend_is_bitwise_the_offline_backend() {
    let w = tiny_workload();
    let b = ServingBackend::over_sim(&w, ServingSpec::default().at_rate(0.0));
    for seed in [0u64, 7, 99] {
        let served = b.evaluate(&VdmsConfig::default_config(), seed);
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), seed);
        assert_eq!(served, offline, "rate 0 must disable the serving phase entirely");
    }
}

/// Regression for the dead knob: `graceful_time_ms` is clamped and encoded
/// but — before the serving simulator — never moved any evaluated metric
/// once it exceeded the ingestion lag. Under serving it must move p99.
#[test]
fn graceful_time_moves_serving_p99() {
    let model = CostModel::default();
    let spec = ServingSpec { arrival_qps: 300.0, requests: 1_500, ..Default::default() };
    let p99_at = |graceful_ms: f64| {
        let sys = SystemParams { graceful_time_ms: graceful_ms, ..Default::default() };
        simulate(&model, &sys, 0.004, &spec, 17).stats(&spec).p99_latency_secs
    };
    // Default buffer: ingestion lag ≈ 101 ms, flush interval ≈ 77 ms.
    let covered = p99_at(5_000.0); // watermark always old enough: no waits
    let inside_window = p99_at(60.0); // below the lag: waits for a covering flush
    let stalled = p99_at(0.0); // every query waits ≈ the full lag
    assert!(
        inside_window > covered + 0.010,
        "graceful inside the staleness window must add tail latency: {inside_window} vs {covered}"
    );
    assert!(stalled > inside_window, "smaller graceful waits longer: {stalled}");

    // A graceful window that already covers the lag never waits — not
    // even for flush quantization: 120 ms (barely past the ~101 ms lag)
    // and 5000 ms are bit-identical under serving.
    assert_eq!(
        p99_at(120.0).to_bits(),
        covered.to_bits(),
        "a covered config must not pay quantized waits"
    );

    // The offline mean-field stall is *identical* (zero) for 120 ms and
    // 5000 ms; serving agrees on those, but only serving resolves the
    // *phase-dependent* flush wait below the lag — the offline stall is
    // one uniform number there, blind to the tail the quantization adds.
    let sys_a = SystemParams { graceful_time_ms: 120.0, ..Default::default() };
    let sys_b = SystemParams { graceful_time_ms: 5_000.0, ..Default::default() };
    let cost = anns::SearchCost {
        f32_dims: 8_000 * 48,
        heap_pushes: 8_000,
        segments: 1,
        ..Default::default()
    };
    let off_a = model.query_perf(&cost, &sys_a).latency_secs;
    let off_b = model.query_perf(&cost, &sys_b).latency_secs;
    assert_eq!(off_a.to_bits(), off_b.to_bits(), "offline model cannot tell them apart");
}

/// SHAP attribution contrast: the offline latency model charges
/// `gracefulTime` only its uniform mean-field stall; serving p99 adds the
/// phase-dependent flush-quantization tail on top, so the serving
/// attribution is strictly larger — and dominant, since nothing else
/// differs.
#[test]
fn shap_attributes_serving_p99_to_graceful_time() {
    let model = CostModel::default();
    let spec = ServingSpec { arrival_qps: 300.0, requests: 800, ..Default::default() };
    let cost = anns::SearchCost {
        f32_dims: 2_000 * 48,
        heap_pushes: 2_000,
        segments: 1,
        ..Default::default()
    };
    // Target and baseline differ ONLY in gracefulTime: the target sits
    // below the ingestion lag (~101 ms), where queries wait for a
    // covering flush; the baseline is fully covered (no waits).
    let mut target = VdmsConfig::default_config();
    target.system.graceful_time_ms = 60.0;
    let baseline = VdmsConfig::default_config(); // graceful 5000 ms

    let offline_attr = shapley_attribution(
        |c| model.query_perf(&cost, &c.system).latency_secs,
        &target,
        &baseline,
        2,
        5,
    );
    let serving_attr = shapley_attribution(
        |c| simulate(&model, &c.system, 0.004, &spec, 17).stats(&spec).p99_latency_secs,
        &target,
        &baseline,
        2,
        5,
    );
    let graceful = |attr: &vdtuner::core::shap::Attribution| {
        attr.contributions
            .iter()
            .find(|(name, _)| *name == "gracefulTime")
            .map(|(_, v)| *v)
            .expect("gracefulTime dimension exists")
    };
    // The offline model sees only the (lag − graceful) mean stall ≈ 41 ms;
    // serving p99 lands on the worst flush phase and must exceed it.
    assert!(
        graceful(&offline_attr).abs() > 0.001,
        "offline model: the uniform mean-field stall is attributed: {}",
        graceful(&offline_attr)
    );
    assert!(
        graceful(&serving_attr).abs() > graceful(&offline_attr).abs() + 0.010,
        "serving p99 must add the quantized tail on top of the mean stall: {} vs {}",
        graceful(&serving_attr),
        graceful(&offline_attr)
    );
    // And it is the *dominant* dimension — nothing else differs.
    assert_eq!(serving_attr.ranked()[0].0, "gracefulTime");
}

/// Full-pipeline smoke: VDTuner drives an SLO-constrained serving backend;
/// violations surface as failed observations with stats attached, and the
/// run still finds feasible configurations.
#[test]
fn slo_constrained_tuning_records_rejections_as_failures() {
    let w = tiny_workload();
    // Tiny-workload service times are sub-millisecond; a 2 ms SLO at a
    // rate near capacity rejects slow configs but admits fast ones.
    let spec =
        ServingSpec { arrival_qps: 500.0, requests: 600, ..Default::default() }.with_slo(0.002);
    let backend = ServingBackend::over_sim(&w, spec);
    let mut tuner = VdTuner::new(
        TunerOptions {
            mc_samples: 8,
            candidates: vdtuner::mobo::optimize::CandidateOptions {
                n_lhs: 8,
                n_uniform: 4,
                n_local_per_incumbent: 2,
                local_sigma: 0.1,
            },
            ..Default::default()
        },
        3,
    );
    let out = tuner.run_on(backend, 10);
    assert_eq!(out.observations.len(), 10);
    assert!(
        out.observations.iter().any(|o| !o.failed && o.serving.is_some()),
        "some config must satisfy the SLO"
    );
    // Every successful observation satisfied the SLO at evaluation time.
    for o in out.observations.iter().filter(|o| !o.failed) {
        let s = o.serving.expect("served evaluations carry stats");
        assert!(s.p99_latency_secs <= 0.002, "recorded p99 {} breaks the SLO", s.p99_latency_secs);
    }
    assert_eq!(
        out.slo_rejections(),
        out.observations.iter().filter(|o| o.failed && o.serving.is_some()).count()
    );
    // The SLO-aware headline metrics are consistent with the history.
    if let Some(p99) = out.best_p99_with_recall(0.0) {
        assert!(p99 <= 0.002);
    }
}

/// Serving composes with topology co-tuning: a 17-dim candidate deploys
/// its own cluster *and* is exercised by the serving simulator.
#[test]
fn serving_over_topology_backend_supports_co_tuning() {
    let w = tiny_workload();
    let spec = ServingSpec { arrival_qps: 100.0, requests: 200, ..Default::default() };
    let inner = TopologyBackend::new(&w, 4);
    let backend = ServingBackend::new(&w, inner, spec);
    let mut ev = Evaluator::with_backend(backend, 1);
    assert_eq!(ev.info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
    let mut cfg = VdmsConfig::default_config();
    cfg.shards = Some(2);
    let obs = ev.observe(&cfg, 0.0);
    assert!(!obs.failed);
    assert!(obs.serving.is_some(), "sharded serving still records stats");
}

/// FNV-1a over 64-bit words — a digest stable across platforms and runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Every field of the trace the schedule determines: each event bit
    /// for bit, the deployment shape, the queue high-water mark and the
    /// write ledger (all zero on the read-only path).
    fn trace(&mut self, t: &ServingTrace) {
        for e in &t.events {
            self.word(e.arrival_secs.to_bits());
            self.word(e.consistency_wait_secs.to_bits());
            self.word(e.service_secs.to_bits());
            self.word(e.finish_secs.to_bits());
            self.word(u64::from(e.shed));
            self.word(e.replica as u64);
        }
        self.word(t.events.len() as u64);
        self.word(t.slots as u64);
        self.word(t.replicas as u64);
        self.word(t.max_queue_depth as u64);
        let w = t.writes;
        for v in [
            w.offered,
            w.accepted,
            w.shed,
            w.flushes_full_batch,
            w.flushes_end_of_tick,
            w.segments_sealed,
            w.compactions,
        ] {
            self.word(v as u64);
        }
        self.word(w.last_durable_lsn);
    }
}

/// Every public entry point over one deployment: the unreplicated and
/// replicated shared pools, each pinning policy, and the mixed entry points
/// under `spec` (read-only whenever `spec` offers no inserts). The
/// read-only entry points also run under a spec that *does* offer inserts,
/// which they must ignore.
fn every_entry_point(
    model: &CostModel,
    sys: &SystemParams,
    spec: &ServingSpec,
    replicas: usize,
    knobs: WriteKnobs,
) -> Vec<ServingTrace> {
    let mut traces = Vec::new();
    for s in [*spec, spec.with_inserts(0.7)] {
        traces.push(simulate(model, sys, 0.004, &s, 11));
        traces.push(simulate_replicated(model, sys, 0.004, &s, 11, replicas));
        for policy in PinningPolicy::ALL {
            traces.push(simulate_pinned(model, sys, 0.004, &s, 11, replicas, policy, 10));
        }
    }
    traces.push(simulate_replicated_mixed(model, sys, 0.004, spec, 11, replicas, knobs));
    for policy in PinningPolicy::ALL {
        traces
            .push(simulate_pinned_mixed(model, sys, 0.004, spec, 11, replicas, policy, 10, knobs));
    }
    traces
}

/// Golden pin of the read-only serving schedule: every event field, the
/// deployment shape and the queue high-water mark of all five entry points
/// over every pinning policy × JSQ and random routing × one and three
/// replicas × a gracefulTime of zero, a short one and one that covers the
/// ingest lag, against a four-deep queue bound — plus the empty runs of a
/// zero arrival rate and a zero request budget. Any change to routing,
/// tie-breaking, consistency waits or pricing moves the digest; a
/// restructuring of the loop must leave it untouched.
#[test]
fn read_only_serving_schedule_matches_golden_digest() {
    let model = CostModel::default();
    let base = ServingSpec {
        arrival_qps: 1_500.0,
        burstiness: 1.0,
        requests: 400,
        queue_capacity: 4,
        ..Default::default()
    };
    let knobs = WriteKnobs { wal_batch_rows: 4, flush_interval_secs: 0.01, seal_rows: 16 };
    let mut fnv = Fnv::new();
    let (mut events, mut shed, mut waited) = (0usize, 0usize, 0usize);
    for routing in [RoutingPolicy::JoinShortestQueue, RoutingPolicy::Random { seed: 5 }] {
        for replicas in [1, 3] {
            for graceful_time_ms in [0.0, 3.0, 500.0] {
                let sys = SystemParams {
                    max_read_concurrency: 4,
                    graceful_time_ms,
                    ..Default::default()
                };
                let spec = base.with_routing(routing);
                for t in every_entry_point(&model, &sys, &spec, replicas, knobs) {
                    assert_eq!(t.writes, WriteStats::default(), "read-only runs write nothing");
                    fnv.trace(&t);
                    events += t.events.len();
                    shed += t.events.iter().filter(|e| e.shed).count();
                    waited += t.events.iter().filter(|e| e.consistency_wait_secs > 0.0).count();
                }
            }
        }
    }
    // Nothing arrives, yet each trace still reports its deployment shape.
    let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
    for spec in [base.at_rate(0.0), ServingSpec { requests: 0, ..base }] {
        for t in every_entry_point(&model, &sys, &spec.with_inserts(0.7), 3, knobs) {
            assert!(t.events.is_empty());
            fnv.trace(&t);
        }
    }
    // The grid really reaches every branch the digest is meant to pin.
    assert_eq!(events, 2 * 2 * 3 * 17 * 400);
    assert!(shed > 0, "the queue bound must shed queries");
    assert!(waited > 0, "a short gracefulTime must make queries wait for the watermark");
    assert_eq!(
        fnv.0, 0x451d_e535_3c38_dc1a,
        "golden digest of the read-only schedule: {:#018x}",
        fnv.0
    );
}
