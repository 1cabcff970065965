//! The offline evaluation path, decomposed so each layer call gets a span.
//!
//! Only traced sessions and traced set-ups run through this module;
//! untraced ones call the library's `SimBackend` and `TopologyBackend`
//! directly, so the end-to-end times are those of the program itself.
//!
//! [`replay`] makes the same public calls `workload::replay::evaluate` makes
//! (`Collection::load`, `Collection::run_queries`, `CostModel::query_perf`,
//! `Workload::mean_recall`) and assembles the same `Outcome`;
//! [`replay_sharded`] does the same for `workload::replay::evaluate_sharded`.
//! The pricing tail (measurement noise, replay-time cap) is private to the
//! library, so it is restated here. Every traced run checks that its
//! sessions are bit-identical to the library's own tuning loop, so any
//! drift between the two fails the run.

use crate::probe::Probe;
use anns::params::IndexType;
use anns::SearchCost;
use vdms::cluster::{ClusterSpec, ShardedCollection};
use vdms::cost_model::REPLAY_TIME_CAP_SECS;
use vdms::{Collection, QueryPerf, VdmsConfig, VdmsError};
use workload::{BackendInfo, EvalBackend, Observation, Outcome, SimBackend, Tuner, Workload};

/// Metric-name suffix of an index type (`anns.build_s.<suffix>`).
pub fn type_label(t: IndexType) -> &'static str {
    match t {
        IndexType::Flat => "flat",
        IndexType::IvfFlat => "ivf_flat",
        IndexType::IvfSq8 => "ivf_sq8",
        IndexType::IvfPq => "ivf_pq",
        IndexType::Hnsw => "hnsw",
        IndexType::Scann => "scann",
        IndexType::AutoIndex => "autoindex",
    }
}

/// Relative sigma of the simulator's deterministic throughput noise
/// (`workload::replay::QPS_NOISE_SIGMA`).
const QPS_NOISE_SIGMA: f64 = workload::replay::QPS_NOISE_SIGMA;

/// Deterministic pseudo-noise factor for a configuration, as the replay
/// path computes it.
fn qps_noise_factor(config: &VdmsConfig, seed: u64) -> f64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut mix = |v: u64| {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    };
    mix(config.index_type.ordinal() as u64);
    mix(config.index.nlist as u64);
    mix(config.index.nprobe as u64);
    mix(config.index.m as u64 ^ (config.index.nbits as u64) << 8);
    mix(config.index.hnsw_m as u64 ^ (config.index.ef_construction as u64) << 16);
    mix(config.index.ef as u64 ^ (config.index.reorder_k as u64) << 16);
    mix((config.system.segment_max_size_mb * 4.0) as u64);
    mix((config.system.segment_seal_proportion * 1000.0) as u64);
    mix(config.system.graceful_time_ms as u64);
    mix((config.system.insert_buf_size_mb * 4.0) as u64);
    mix(config.system.max_read_concurrency as u64 ^ (config.system.chunk_rows as u64) << 8);
    mix(config.system.build_parallelism as u64);
    let u1 = ((h >> 11) as f64 / (1u64 << 53) as f64).clamp(1e-12, 1.0);
    let u2 = (h.wrapping_mul(0xD2B7_4407_B1CE_6E93) >> 11) as f64 / (1u64 << 53) as f64;
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (1.0 + QPS_NOISE_SIGMA * z).clamp(0.5, 1.5)
}

fn load_failure_outcome(e: VdmsError) -> Outcome {
    Outcome {
        qps: 0.0,
        recall: 0.0,
        memory_gib: 0.0,
        simulated_secs: REPLAY_TIME_CAP_SECS * 0.25,
        failure: Some(e),
        serving: None,
    }
}

fn mean_cost(total: &SearchCost, nq: u64) -> SearchCost {
    SearchCost {
        f32_dims: total.f32_dims / nq,
        graph_dims: total.graph_dims / nq,
        u8_dims: total.u8_dims / nq,
        pq_lookups: total.pq_lookups / nq,
        graph_hops: total.graph_hops / nq,
        lists_probed: total.lists_probed / nq,
        heap_pushes: total.heap_pushes / nq,
        segments: total.segments / nq,
    }
}

fn count_search(probe: &Probe, queries: usize, total: &SearchCost) {
    probe.count(|c| {
        c.search_queries += queries as u64;
        c.f32_dims += total.f32_dims;
        c.graph_dims += total.graph_dims;
        c.graph_hops += total.graph_hops;
        c.u8_dims += total.u8_dims;
        c.pq_lookups += total.pq_lookups;
        c.heap_pushes += total.heap_pushes;
    });
}

/// Shared tail of both replay paths: noise, recall, timing cap.
#[allow(clippy::too_many_arguments)]
fn finish(
    w: &Workload,
    cfg: &VdmsConfig,
    seed: u64,
    mut perf: QueryPerf,
    results: &[Vec<u32>],
    build_load: f64,
    memory_gib: f64,
    probe: &Probe,
) -> Outcome {
    perf.qps *= qps_noise_factor(cfg, seed);
    let recall = probe.span("vecdata.recall", None, || w.mean_recall(results));
    let simulated_secs = build_load + w.cost_model.replay_secs(perf.qps);
    let failure = if simulated_secs > REPLAY_TIME_CAP_SECS {
        Some(VdmsError::ReplayTimeout { simulated_seconds: simulated_secs })
    } else {
        None
    };
    Outcome {
        qps: perf.qps,
        recall,
        memory_gib,
        simulated_secs: simulated_secs.min(REPLAY_TIME_CAP_SECS),
        failure,
        serving: None,
    }
}

/// `workload::replay::evaluate`, one span per layer call.
pub fn replay(w: &Workload, config: &VdmsConfig, seed: u64, probe: &Probe) -> Outcome {
    let cfg = config.sanitized(w.dataset.dim(), w.top_k);
    let t = cfg.index_type;
    probe.count(|c| {
        c.build_calls += 1;
        c.build_calls_by_type[t.ordinal()] += 1;
    });
    let loaded =
        probe.span("anns.build", Some(type_label(t)), || Collection::load(&w.dataset, &cfg, seed));
    let collection = match loaded {
        Ok(c) => c,
        Err(e) => return load_failure_outcome(e),
    };
    probe.count(|c| c.train_dims += collection.build_stats.train_dims);
    let (total, results) = probe.span("vdms.search", None, || collection.run_queries(w.top_k));
    count_search(probe, results.len(), &total);
    let nq = w.dataset.n_queries().max(1) as u64;
    let perf = probe
        .span("vdms.cost", None, || w.cost_model.query_perf(&mean_cost(&total, nq), &cfg.system));
    finish(
        w,
        &cfg,
        seed,
        perf,
        &results,
        collection.build_and_load_secs(&w.cost_model),
        collection.memory.total_gib(),
        probe,
    )
}

/// `workload::replay::evaluate_sharded`, with the cluster load and search
/// in their own spans.
pub fn replay_sharded(
    w: &Workload,
    config: &VdmsConfig,
    seed: u64,
    spec: ClusterSpec,
    probe: &Probe,
) -> Outcome {
    let cfg = config.sanitized(w.dataset.dim(), w.top_k);
    let loaded = probe.span("vdms.cluster_load", Some(type_label(cfg.index_type)), || {
        ShardedCollection::load(&w.dataset, &cfg, seed, spec)
    });
    let cluster = match loaded {
        Ok(c) => c,
        Err(e) => return load_failure_outcome(e),
    };
    let (node_totals, results) =
        probe.span("vdms.cluster_search", None, || cluster.run_queries(w.top_k));
    let nq = w.dataset.n_queries().max(1) as u64;
    let shards = cluster.shards();
    let mut shard_totals = vec![SearchCost::default(); shards];
    for (n, c) in node_totals.iter().enumerate() {
        shard_totals[n % shards].add(c);
    }
    let shard_means: Vec<SearchCost> = shard_totals.iter().map(|c| mean_cost(c, nq)).collect();
    let perf = probe.span("vdms.cost", None, || match cfg.pinning {
        Some(policy) => w.cost_model.pinned_cluster_perf(
            &shard_means,
            &cluster.shard_segment_counts(),
            &cfg.system,
            w.top_k,
            cluster.replicas(),
            policy,
        ),
        None => w.cost_model.replicated_cluster_perf(
            &shard_means,
            &cfg.system,
            w.top_k,
            cluster.replicas(),
        ),
    });
    finish(
        w,
        &cfg,
        seed,
        perf,
        &results,
        cluster.build_and_load_secs(&w.cost_model),
        cluster.total_memory_gib(),
        probe,
    )
}

/// The library's `SimBackend`, called as is; it only counts the calls.
/// Untraced sessions evaluate through it.
pub struct CountedSim<'a> {
    pub inner: SimBackend<'a>,
    pub probe: &'a Probe,
}

impl EvalBackend for CountedSim<'_> {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        self.probe.count(|c| c.evaluate_calls += 1);
        self.inner.evaluate(config, seed)
    }
}

/// The single-node simulator backend, evaluated through [`replay`].
pub struct ProbedSim<'a> {
    pub workload: &'a Workload,
    pub probe: &'a Probe,
}

impl EvalBackend for ProbedSim<'_> {
    fn info(&self) -> BackendInfo {
        SimBackend::new(self.workload).info()
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        self.probe.count(|c| c.evaluate_calls += 1);
        self.probe
            .span("workload.evaluate", None, || replay(self.workload, config, seed, self.probe))
    }
}

/// A forwarding tuner: each `propose` opens a step and a `core.propose`
/// span, each `observe` a `core.observe` span.
pub struct ProbedTuner<'a, T: Tuner> {
    pub inner: &'a mut T,
    pub probe: &'a Probe,
}

impl<T: Tuner> Tuner for ProbedTuner<'_, T> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, history: &[Observation]) -> VdmsConfig {
        self.probe.begin_step();
        self.probe.count(|c| c.propose_calls += 1);
        self.probe.span("core.propose", None, || self.inner.propose(history))
    }

    fn observe(&mut self, obs: &Observation) {
        self.probe.span("core.observe", None, || self.inner.observe(obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};
    use workload::TopologyBackend;

    #[test]
    fn decomposed_replay_is_bitwise_the_library_replay() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let probe = Probe::new(true);
        for t in IndexType::ALL {
            let cfg = VdmsConfig::default_for(t);
            assert_eq!(replay(&w, &cfg, 5, &probe), workload::evaluate(&w, &cfg, 5), "{t:?}");
        }
        assert_eq!(probe.counts().build_calls, 7);
    }

    #[test]
    fn decomposed_sharded_replay_is_bitwise_the_topology_backend() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let backend = TopologyBackend::with_pinning(&w, 2, 2);
        let probe = Probe::new(false);
        for (shards, replicas) in [(1, 1), (2, 2)] {
            let cfg = VdmsConfig {
                shards: Some(shards),
                replicas: Some(replicas),
                pinning: Some(vdms::PinningPolicy::SmtAvoid),
                ..VdmsConfig::default_config()
            };
            let spec = backend.cluster_spec_for(&cfg).expect("realizable");
            assert_eq!(replay_sharded(&w, &cfg, 3, spec, &probe), backend.evaluate(&cfg, 3));
        }
    }
}
