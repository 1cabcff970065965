//! The serving path of `workload::ServingBackend`, decomposed so the
//! mixed read/write simulator call gets its own span (traced sessions
//! only; untraced ones call `ServingBackend::evaluate` itself), plus the
//! memoised inner backend the `mixed-rw-serving` sweep serves through.

use crate::probe::Probe;
use vdms::{VdmsConfig, VdmsError, WriteKnobs};
use vecdata::rng::derive;
use workload::serving::{simulate_pinned_mixed, simulate_replicated_mixed};
use workload::{BackendInfo, EvalBackend, Outcome, ServingSpec, ServingStats, Workload};

/// An inner backend that returns outcomes measured once in set-up (the
/// deployments' `TopologyBackend` outcomes). It answers only the
/// configurations it holds.
pub struct MemoBackend {
    pub info: BackendInfo,
    pub entries: Vec<(VdmsConfig, Outcome)>,
}

impl EvalBackend for MemoBackend {
    fn info(&self) -> BackendInfo {
        self.info.clone()
    }

    fn evaluate(&self, config: &VdmsConfig, _seed: u64) -> Outcome {
        let cfg = config.sanitized(self.info.dim, self.info.top_k);
        self.entries
            .iter()
            .find(|(c, _)| *c == cfg)
            .map(|(_, o)| o.clone())
            .expect("memo holds every deployment the sweep serves")
    }
}

/// Count the serving work of a served outcome: every offered request and
/// insert is one simulator event, plus the write-path ledger. Traced and
/// untraced sessions both count this way, so their counts must agree.
pub fn count_served(probe: &Probe, out: &Outcome) {
    let Some(stats) = &out.serving else { return };
    let w = &stats.writes;
    probe.count(|c| {
        c.serving_events += (stats.completed + stats.shed + w.offered) as u64;
        c.wal_flushes_full_batch += w.flushes_full_batch as u64;
        c.wal_flushes_end_of_tick += w.flushes_end_of_tick as u64;
        c.segments_sealed += w.segments_sealed as u64;
        c.compactions += w.compactions as u64;
        c.write_shed += w.shed as u64;
    });
}

/// `ServingBackend::<B>::evaluate` over `inner`, with the simulator call
/// (and the trace statistics) in a `workload.serving` span.
pub fn serve<B: EvalBackend>(
    w: &Workload,
    inner: &B,
    inner_info: &BackendInfo,
    spec: &ServingSpec,
    config: &VdmsConfig,
    seed: u64,
    probe: &Probe,
) -> Outcome {
    let mut out = inner.evaluate(config, seed);
    if !out.is_ok() || spec.arrival_qps <= 0.0 {
        return out;
    }
    let cfg = config.sanitized(inner_info.dim, inner_info.top_k);
    let sys = cfg.system;
    let replicas = cfg.replicas.unwrap_or(inner_info.replicas);
    let model = &w.cost_model;
    let service = model.service_secs_from_qps_replicated(out.qps, &sys, replicas);
    let serving_seed = derive(seed, 0x5E2B);
    let knobs = cfg.writepath.unwrap_or(WriteKnobs::DEFAULT);
    let stats = probe.span("workload.serving", None, || {
        let trace = match cfg.pinning {
            Some(policy) => simulate_pinned_mixed(
                model,
                &sys,
                service,
                spec,
                serving_seed,
                replicas,
                policy,
                inner_info.top_k,
                knobs,
            ),
            None => {
                simulate_replicated_mixed(model, &sys, service, spec, serving_seed, replicas, knobs)
            }
        };
        trace.stats(spec)
    });
    if stats.violates_slo(spec) {
        out.failure = Some(VdmsError::SloViolation {
            p99_secs: stats.p99_latency_secs,
            slo_secs: spec.slo_p99_secs.unwrap_or(f64::INFINITY),
            shed: stats.shed,
        });
        out.qps = stats.goodput_qps;
    }
    out.serving = Some(stats);
    count_served(probe, &out);
    out
}

/// The conservation and ordering laws every served trace must satisfy.
/// Returns the first violated law.
pub fn check_stats(stats: &ServingStats, spec: &ServingSpec) -> Result<(), String> {
    let w = &stats.writes;
    if stats.completed + stats.shed != spec.requests {
        return Err(format!(
            "completed {} + shed {} != offered {}",
            stats.completed, stats.shed, spec.requests
        ));
    }
    if w.accepted + w.shed != w.offered {
        return Err(format!(
            "writes accepted {} + shed {} != offered {}",
            w.accepted, w.shed, w.offered
        ));
    }
    if w.last_durable_lsn != w.accepted as u64 {
        return Err(format!("last durable lsn {} != accepted {}", w.last_durable_lsn, w.accepted));
    }
    let (p50, p95, p99) = (stats.p50_latency_secs, stats.p95_latency_secs, stats.p99_latency_secs);
    if !(p50 <= p95 && p95 <= p99) {
        return Err(format!("percentiles out of order: p50 {p50} p95 {p95} p99 {p99}"));
    }
    Ok(())
}
