//! A deterministic discrete-event *serving* simulator: the live-traffic
//! counterpart to the offline batch replay.
//!
//! Every evaluation so far replays the workload as a closed batch and
//! derives QPS analytically — `maxReadConcurrency` and `gracefulTime` are
//! *costed*, never *exercised*, so tail latency (the metric production
//! VDBMSs are provisioned for) is invisible to the tuner. This module
//! simulates the system serving an **open-loop** arrival process instead:
//!
//! * a seeded arrival process ([`ServingSpec::arrival_qps`], hyperexponential
//!   burstiness via [`ServingSpec::burstiness`]) generates request arrivals;
//! * arrivals wait for *consistency* — a query may start only once a flush
//!   has published a tsafe watermark covering `arrival - gracefulTime`
//!   ([`vdms::CostModel::consistency_wait_secs`]); this is where
//!   `gracefulTime` finally becomes load-bearing, and the flush-cycle phase
//!   dependence is what creates its latency *tail*;
//! * eligible requests queue (bounded — overflow is **shed**) for one of
//!   [`vdms::CostModel::serving_slots`] worker slots (`maxReadConcurrency`
//!   capped by the node's cores, over-provisioning paying a scheduling
//!   penalty);
//! * per-query service times come from the cost model's measured QPS
//!   ([`vdms::CostModel::service_secs_from_qps`] — the straggler and
//!   proxy-merge terms of the cluster path are already folded into a
//!   sharded backend's QPS) with deterministic per-query jitter;
//! * when the spec carries an insert fraction
//!   ([`ServingSpec::insert_fraction`]), a second seeded arrival stream
//!   offers **inserts** to a [`vdms::WalSim`] write path: WAL group
//!   commits (full-batch or end-of-tick), segment seals and compactions
//!   are priced by the same cost model and occupy the same worker slots
//!   queries contend for, backpressure from a full insert window parks
//!   arrivals against the primary queue, and `gracefulTime` consistency
//!   waits resolve against the WAL's *actual* durability events
//!   ([`vdms::WalSim::durable_time_of`]) instead of the analytic
//!   quantized watermark.
//!
//! **One event loop** serves every entry point. Two plain values select
//! what it simulates:
//!
//! * the *worker pool* — per replica group, either one shared pool of
//!   [`vdms::CostModel::serving_slots`] slots ([`PinningPolicy::Shared`])
//!   or single-owner shard reactors (any other pinning policy);
//! * the *consistency model* — without write knobs, queries wait for the
//!   analytic watermark
//!   ([`vdms::CostModel::consistency_wait_secs_replicated`]) and no insert
//!   arrives; with them, inserts flow through a [`vdms::WalSim`] and
//!   queries wait for its durability events.
//!
//! | entry point | pool | consistency |
//! |---|---|---|
//! | [`simulate`] | shared, one group | watermark |
//! | [`simulate_replicated`] | shared | watermark |
//! | [`simulate_pinned`] | by pinning policy | watermark |
//! | [`simulate_replicated_mixed`] | shared | WAL when inserts are offered |
//! | [`simulate_pinned_mixed`] | by pinning policy | WAL when inserts are offered |
//!
//! **Determinism is the contract**: every random draw is a pure function of
//! `(seed, query index)`, the parallel service-time precomputation uses an
//! order-stable collect, and the event loop itself is serial — so the same
//! seed yields a bit-identical [`ServingTrace`] no matter how many rayon
//! worker threads execute the simulation (`tests/serving.rs` proves 1 vs N
//! thread invariance by property).

use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vdms::cluster::RoutingPolicy;
use vdms::cost_model::CostModel;
use vdms::system_params::SystemParams;
use vdms::topology::PinningPolicy;
use vdms::writepath::{FlushJob, FlushReason, WalSim, WriteKnobs};
use vecdata::rng::derive;

/// The open-loop arrival process and serving-level objectives of one
/// simulation run. `Copy` so backends can embed it freely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingSpec {
    /// Mean request arrival rate (requests/second). `<= 0` disables the
    /// simulation entirely: the backend degrades to pure offline semantics.
    pub arrival_qps: f64,
    /// Arrival burstiness `>= 0`: inter-arrival gaps are exponential draws
    /// scaled by a two-point mixture with mean 1 — half the gaps shrink by
    /// `1/(1+b)`, half stretch by `2 - 1/(1+b)` — so the mean rate is
    /// preserved while the squared coefficient of variation grows with
    /// `b`. `0.0` is a plain Poisson process.
    pub burstiness: f64,
    /// Number of requests to simulate.
    pub requests: usize,
    /// Bound of each replica's scheduler queue (requests waiting for a
    /// slot, not counting those in service). An arrival that finds its
    /// routed queue full is shed — counted, and charged its penalty
    /// latency in the percentile stream, but never served.
    pub queue_capacity: usize,
    /// Latency above which a completed request counts as a timeout — and
    /// the penalty latency a shed request is charged in the percentile
    /// stream (the client gives up after this long either way).
    pub timeout_secs: f64,
    /// Optional p99 service-level objective. When set, the serving backend
    /// records configs whose p99 exceeds it — or that shed *or time out*
    /// more than [`ServingSpec::max_shed_fraction`] of requests — as
    /// *failed* observations ([`vdms::VdmsError::SloViolation`]).
    pub slo_p99_secs: Option<f64>,
    /// Largest tolerable dropped fraction — shed, and (separately) timed
    /// out — before the SLO counts as violated.
    pub max_shed_fraction: f64,
    /// How arrivals choose a replica group when the deployment is
    /// replicated. [`RoutingPolicy::JoinShortestQueue`] inspects the real
    /// per-replica queue depths at arrival time;
    /// [`RoutingPolicy::Random`] draws a group per request. Irrelevant
    /// (and bit-invisible) for unreplicated deployments.
    pub routing: RoutingPolicy,
    /// Insert traffic as a fraction of the query arrival rate: inserts
    /// arrive in an independent seeded stream at `arrival_qps *
    /// insert_fraction`, and `requests * insert_fraction` (rounded) of
    /// them are simulated — so the insert:query mix is a scenario axis,
    /// not a split of the query budget. `0.0` (the default) disables the
    /// write path entirely: the mixed entry points then wait on the
    /// analytic watermark and serve the read-only schedule bit for bit.
    /// The read-only entry points ignore this field.
    pub insert_fraction: f64,
}

impl Default for ServingSpec {
    fn default() -> Self {
        ServingSpec {
            arrival_qps: 500.0,
            burstiness: 0.5,
            requests: 2_000,
            queue_capacity: 256,
            timeout_secs: 1.0,
            slo_p99_secs: None,
            max_shed_fraction: 0.01,
            routing: RoutingPolicy::JoinShortestQueue,
            insert_fraction: 0.0,
        }
    }
}

impl ServingSpec {
    /// This spec at a different arrival rate.
    pub fn at_rate(self, arrival_qps: f64) -> ServingSpec {
        ServingSpec { arrival_qps, ..self }
    }

    /// This spec with a p99 SLO (seconds).
    pub fn with_slo(self, slo_p99_secs: f64) -> ServingSpec {
        ServingSpec { slo_p99_secs: Some(slo_p99_secs), ..self }
    }

    /// This spec with a different replica-routing policy.
    pub fn with_routing(self, routing: RoutingPolicy) -> ServingSpec {
        ServingSpec { routing, ..self }
    }

    /// This spec with insert traffic at `insert_fraction` times the query
    /// arrival rate — the write axis of a mixed read/write scenario.
    pub fn with_inserts(self, insert_fraction: f64) -> ServingSpec {
        ServingSpec { insert_fraction, ..self }
    }
}

/// One request's life in the event trace. Times are simulated seconds from
/// the start of the run; a shed request records only its arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryEvent {
    /// Arrival time of the request.
    pub arrival_secs: f64,
    /// Consistency wait before the request became eligible for a slot.
    pub consistency_wait_secs: f64,
    /// Time spent executing on a worker slot (0 when shed).
    pub service_secs: f64,
    /// Completion time (equals `arrival_secs` when shed).
    pub finish_secs: f64,
    /// True when the routed bounded queue rejected this arrival.
    pub shed: bool,
    /// Replica group the router sent this request to (0 when
    /// unreplicated; recorded even for shed requests).
    pub replica: usize,
}

impl QueryEvent {
    /// End-to-end latency: consistency wait + queue wait + service.
    pub fn latency_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }
}

/// Aggregate write-path counters of one mixed simulation — all zero for a
/// read-only run, so the read-only paths stay bitwise comparable. `Copy`
/// so it rides inside [`ServingStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WriteStats {
    /// Inserts that arrived.
    pub offered: usize,
    /// Inserts the write path accepted (admitted immediately, or parked by
    /// backpressure and admitted later). `accepted + shed == offered`, and
    /// every accepted insert is durable by the end of the run.
    pub accepted: usize,
    /// Inserts rejected because the backpressure parking queue overflowed.
    pub shed: usize,
    /// Group commits triggered by a full WAL batch.
    pub flushes_full_batch: usize,
    /// Group commits triggered by the flush-interval deadline (including
    /// the end-of-run drain).
    pub flushes_end_of_tick: usize,
    /// Growing segments sealed at [`WriteKnobs::seal_rows`].
    pub segments_sealed: usize,
    /// Compactions triggered (every
    /// [`vdms::writepath::COMPACT_SEALS_PER_MERGE`]-th seal).
    pub compactions: usize,
    /// Highest WAL LSN durable when the run drained — equals `accepted`,
    /// the never-drop invariant stated as data.
    pub last_durable_lsn: u64,
}

/// The full event trace of one simulation — the bit-identical artifact the
/// determinism contract is stated over.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingTrace {
    /// Per-request events, in arrival order.
    pub events: Vec<QueryEvent>,
    /// Worker slots *per replica group* (`maxReadConcurrency` capped by
    /// cores).
    pub slots: usize,
    /// Replica groups the simulation served.
    pub replicas: usize,
    /// Largest scheduler-queue depth observed at any arrival, across all
    /// replica groups.
    pub max_queue_depth: usize,
    /// Write-path counters (all zero for a read-only run).
    pub writes: WriteStats,
}

/// Aggregate serving metrics of one trace — what the tuner and the reports
/// consume. `Copy` so it can ride inside every `Outcome`/`Observation`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingStats {
    /// Offered load: the spec's mean arrival rate.
    pub offered_qps: f64,
    /// Completed requests divided by the makespan — *including* the ones
    /// that blew the timeout.
    pub achieved_qps: f64,
    /// **Goodput**: completions under [`ServingSpec::timeout_secs`]
    /// divided by the makespan — the throughput a client actually
    /// experienced. Always `<= achieved_qps`.
    pub goodput_qps: f64,
    /// Mean latency over the shed-charged stream (see
    /// [`ServingTrace::stats`]).
    pub mean_latency_secs: f64,
    /// Median latency of the shed-charged stream.
    pub p50_latency_secs: f64,
    /// 95th-percentile latency of the shed-charged stream.
    pub p95_latency_secs: f64,
    /// 99th-percentile latency of the shed-charged stream — the SLO
    /// metric. Shed requests are charged their penalty latency here, so an
    /// overloaded config cannot understate its tail by dropping traffic
    /// (coordinated omission).
    pub p99_latency_secs: f64,
    /// Largest scheduler-queue depth observed (across replica groups).
    pub max_queue_depth: usize,
    /// Requests that completed.
    pub completed: usize,
    /// Requests rejected by a full bounded queue.
    pub shed: usize,
    /// Completed requests whose latency exceeded the timeout.
    pub timeouts: usize,
    /// Simulated wall time from the first arrival to the last completion.
    pub makespan_secs: f64,
    /// Write-path counters of the run (all zero when the spec offered no
    /// inserts), so reports can state flush reasons, seals, compactions
    /// and the never-drop invariant next to the query metrics.
    pub writes: WriteStats,
}

impl ServingStats {
    /// Fraction of offered requests that were shed.
    pub fn shed_fraction(&self) -> f64 {
        self.shed as f64 / (self.completed + self.shed).max(1) as f64
    }

    /// Fraction of offered requests that completed but blew the timeout.
    pub fn timeout_fraction(&self) -> f64 {
        self.timeouts as f64 / (self.completed + self.shed).max(1) as f64
    }

    /// Whether these stats violate `spec`'s SLO (when one is set): p99
    /// over the objective, or more than the tolerated fraction of requests
    /// shed, or more than the tolerated fraction timed out — a config that
    /// "serves" everything too late is as violating as one that drops it.
    pub fn violates_slo(&self, spec: &ServingSpec) -> bool {
        match spec.slo_p99_secs {
            Some(slo) => {
                self.p99_latency_secs > slo
                    || self.shed_fraction() > spec.max_shed_fraction
                    || self.timeout_fraction() > spec.max_shed_fraction
            }
            None => false,
        }
    }
}

/// Draw `index` of a per-request random stream: [`derive`] keyed by the
/// index, so every draw is a pure function of `(seed, stream, index)` —
/// what makes the precomputation thread-count invariant.
fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    derive(seed ^ index.wrapping_mul(0xD2B7_4407_B1CE_6E93), stream)
}

/// A uniform draw in `(0, 1]` from 53 high bits (never exactly zero, so
/// `ln` stays finite).
fn unit(bits: u64) -> f64 {
    (((bits >> 11) + 1) as f64) / (1u64 << 53) as f64
}

/// Gap and burst streams of the query arrival process.
const QUERY_STREAMS: (u64, u64) = (0x5E21, 0x5E22);
/// Gap and burst streams of the insert arrival process.
const INSERT_STREAMS: (u64, u64) = (0x5E25, 0x5E26);
const STREAM_JITTER: u64 = 0x5E23;
const STREAM_ROUTE: u64 = 0x5E24;

/// Inter-arrival gap before request `i` of a process at mean `rate`: an
/// exponential draw scaled by the two-point burstiness mixture (mean
/// exactly 1). Queries and inserts run this process on independent
/// `streams`.
fn interarrival_secs(rate: f64, burstiness: f64, streams: (u64, u64), seed: u64, i: u64) -> f64 {
    let exp = -unit(draw(seed, streams.0, i)).ln() / rate.max(1e-9);
    let tight = 1.0 / (1.0 + burstiness.max(0.0));
    let scale = if draw(seed, streams.1, i) & 1 == 0 { tight } else { 2.0 - tight };
    exp * scale
}

/// Per-query service-time jitter: lognormal around 1, clamped — stragglers
/// exist even without queueing, so p99 > p50 at idle.
fn service_jitter(seed: u64, i: u64) -> f64 {
    let u1 = unit(draw(seed, STREAM_JITTER, i));
    let u2 = unit(draw(seed, STREAM_JITTER, i ^ 0x8000_0000_0000_0000));
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (0.25 * z).exp().clamp(0.5, 3.0)
}

/// Serve `spec` read-only on one shared slot pool —
/// [`simulate_replicated`] with a single replica group.
pub fn simulate(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
) -> ServingTrace {
    simulate_mixed(
        model,
        sys,
        base_service_secs,
        spec,
        seed,
        SlotPool::new(model, sys, 1, PinningPolicy::Shared, 0),
        None,
    )
}

/// Serve `spec` read-only on `replicas` groups of shared worker slots,
/// waiting for the analytic consistency watermark. `base_service_secs` is
/// the per-query service time the cost model derived for this
/// configuration ([`vdms::CostModel::service_secs_from_qps_replicated`]);
/// arrivals, replica routing, consistency waits, bounded queueing and slot
/// scheduling happen here.
///
/// The deployment is `replicas` identical groups (at least one), each
/// with its own bounded scheduler queue and
/// [`vdms::CostModel::serving_slots`] worker slots. At every arrival the
/// router ([`ServingSpec::routing`]) picks one group: join-shortest-queue
/// reads the *real* per-group queue depths — this is where load-aware
/// routing actually drains queues — while random routing draws a group
/// from the seed. Consistency waits include the slowest replica's WAL
/// staleness ([`vdms::CostModel::consistency_wait_secs_replicated`]).
/// [`ServingSpec::insert_fraction`] is ignored: no insert arrives.
///
/// Same `(spec, seed, replicas)` ⇒ bit-identical trace on any thread
/// count, and one replica is bit-identical to [`simulate`].
pub fn simulate_replicated(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
) -> ServingTrace {
    simulate_mixed(
        model,
        sys,
        base_service_secs,
        spec,
        seed,
        SlotPool::new(model, sys, replicas, PinningPolicy::Shared, 0),
        None,
    )
}

/// Serve `spec` read-only on the worker pool `policy` selects, waiting for
/// the analytic consistency watermark like [`simulate_replicated`].
///
/// Any policy but [`PinningPolicy::Shared`] runs each replica group as
/// [`vdms::CostModel::reactor_count`] single-owner **shard reactors**
/// instead of one shared pool of worker slots. Every reactor is its own
/// single-slot queue — there is no work stealing, which is the
/// shared-nothing property — so the router chooses among `replicas ×
/// reactors` queues: join-shortest-queue reads the real per-reactor
/// depths, random routing draws a flat queue index. A request served by
/// reactor `r` pays the reactor's SMT scan penalty on its service time
/// ([`vdms::CostModel::reactor_scan_penalties`]) plus the delegator-merge
/// handoff ([`vdms::CostModel::reactor_handoff_secs`]).
///
/// Degenerate cases, both bit-exact:
/// * [`PinningPolicy::Shared`] selects the shared slot pool, so it is
///   [`simulate_replicated`];
/// * a 1-reactor deployment (single-core [`vdms::HostTopology`]) walks the
///   identical schedule as a 1-slot shared pool: penalty 1.0 and handoff
///   0.0 leave every service time bitwise untouched.
#[allow(clippy::too_many_arguments)]
pub fn simulate_pinned(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
    policy: PinningPolicy,
    top_k: usize,
) -> ServingTrace {
    simulate_mixed(
        model,
        sys,
        base_service_secs,
        spec,
        seed,
        SlotPool::new(model, sys, replicas, policy, top_k),
        None,
    )
}

/// Serve **mixed read/write traffic** on `replicas` groups of shared
/// worker slots: inserts arrive at `arrival_qps * insert_fraction` and
/// flow through a [`WalSim`] write path with the candidate's
/// [`WriteKnobs`] — group commits, seals and compactions compete with
/// queries for the primary group's worker slots, and consistency waits
/// resolve against real durability events.
///
/// `insert_fraction <= 0.0` selects the analytic watermark instead and
/// offers no inserts, so the write-rate→0 case is [`simulate_replicated`]
/// bit for bit.
pub fn simulate_replicated_mixed(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
    knobs: WriteKnobs,
) -> ServingTrace {
    simulate_mixed(
        model,
        sys,
        base_service_secs,
        spec,
        seed,
        SlotPool::new(model, sys, replicas, PinningPolicy::Shared, 0),
        writes_if_offered(spec, knobs),
    )
}

/// Serve **mixed read/write traffic** on the worker pool `policy` selects
/// — [`simulate_pinned`]'s reactors, with the [`WalSim`] write path on
/// reactor 0 of group 0 (the shard's primary reactor owns its WAL, the
/// shared-nothing way), or [`simulate_replicated_mixed`]'s shared pool
/// for [`PinningPolicy::Shared`].
///
/// `insert_fraction <= 0.0` selects the analytic watermark instead and
/// offers no inserts, so the write-rate→0 case is [`simulate_pinned`] bit
/// for bit.
#[allow(clippy::too_many_arguments)]
pub fn simulate_pinned_mixed(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    replicas: usize,
    policy: PinningPolicy,
    top_k: usize,
    knobs: WriteKnobs,
) -> ServingTrace {
    simulate_mixed(
        model,
        sys,
        base_service_secs,
        spec,
        seed,
        SlotPool::new(model, sys, replicas, policy, top_k),
        writes_if_offered(spec, knobs),
    )
}

/// The consistency model a mixed entry point selects: the WAL path with
/// `knobs` when the spec offers inserts, the analytic watermark otherwise.
fn writes_if_offered(spec: &ServingSpec, knobs: WriteKnobs) -> Option<WriteKnobs> {
    if spec.insert_fraction <= 0.0 {
        None
    } else {
        Some(knobs)
    }
}

/// The worker slots the loop schedules on. Each replica group has
/// `per_group` queues: one shared pool of `slots` slots, or one
/// single-owner reactor (a single slot, no work stealing) per queue.
/// Write work (commits, seals, compactions) always lands on queue 0 — the
/// primary's slots — which is exactly where it competes with queries.
struct SlotPool {
    /// Free times of each queue's slots, keyed by `f64::to_bits` —
    /// monotone for the non-negative times the simulation produces, so
    /// the cheapest u64 ordering is the time ordering.
    free: Vec<BinaryHeap<Reverse<u64>>>,
    /// Queues per replica group: 1 for the shared pool, else the reactors.
    per_group: usize,
    /// Slots per group — what [`ServingTrace::slots`] reports.
    slots: usize,
    /// Per-reactor SMT scan penalty and delegator-handoff seconds; empty
    /// for the shared pool, which serves at base.
    reactor_cost: Vec<(f64, f64)>,
}

impl SlotPool {
    /// `replicas` groups (at least one) of the pool `policy` selects:
    /// [`CostModel::serving_slots`] shared slots for
    /// [`PinningPolicy::Shared`], [`CostModel::reactor_count`] reactors
    /// priced for `top_k` otherwise.
    fn new(
        model: &CostModel,
        sys: &SystemParams,
        replicas: usize,
        policy: PinningPolicy,
        top_k: usize,
    ) -> SlotPool {
        let replicas = replicas.max(1);
        if policy == PinningPolicy::Shared {
            let slots = model.serving_slots(sys);
            let free = vec![BinaryHeap::from(vec![Reverse(0); slots]); replicas];
            return SlotPool { free, per_group: 1, slots, reactor_cost: Vec::new() };
        }
        let reactors = model.reactor_count(policy, sys);
        let scan = model.reactor_scan_penalties(policy, reactors);
        let handoff = model.reactor_handoff_secs(policy, reactors, top_k);
        SlotPool {
            free: vec![BinaryHeap::from(vec![Reverse(0)]); replicas * reactors],
            per_group: reactors,
            slots: reactors,
            reactor_cost: scan.into_iter().zip(handoff).collect(),
        }
    }

    fn group_of(&self, q: usize) -> usize {
        q / self.per_group
    }

    /// Earliest-free time of queue `q`'s next slot (removed; pair with
    /// [`SlotPool::push_slot`]).
    fn pop_slot(&mut self, q: usize) -> f64 {
        let Reverse(bits) = self.free[q].pop().expect("slots >= 1 by construction");
        f64::from_bits(bits)
    }

    fn push_slot(&mut self, q: usize, busy_until: f64) {
        self.free[q].push(Reverse(busy_until.to_bits()));
    }

    /// Per-query service time on queue `q`: reactors pay their SMT scan
    /// penalty and delegator handoff, the shared pool serves at base.
    fn service_secs(&self, q: usize, base: f64) -> f64 {
        match self.reactor_cost.get(q % self.per_group) {
            Some(&(scan, handoff)) => base * scan + handoff,
            None => base,
        }
    }
}

/// One event of the serving loop. Arrivals come from the two pre-sorted
/// [`Arrivals`] streams; only the events the write path schedules while
/// the loop runs (ticks, commit completions, retries) go on the
/// [`Agenda`]. Inserts are indistinguishable until the WAL assigns an
/// LSN, so their event carries no payload.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    /// Query `i` arrives.
    Query(usize),
    /// An insert arrives and is offered to the write path.
    Insert,
    /// Flush-interval deadline: group-commit whatever the full-batch
    /// trigger left pending.
    Tick,
    /// A recorded group commit finished — rows up to the LSN are durable.
    FlushDone(u64),
    /// Query `query`, routed to `queue` but deferred because no triggered
    /// commit covered its consistency cutoff `lsn`, retries right after
    /// the tick that triggers the covering commit.
    Retry { query: usize, queue: usize, lsn: u64 },
}

/// An event's place in the loop's order: its time's bits — monotone for
/// the non-negative times the simulation produces — above its sequence
/// number. `u128::MAX` sorts after every event and marks an empty source.
fn order_key(time: f64, seq: u64) -> u128 {
    (u128::from(time.to_bits()) << 64) | u128::from(seq)
}

/// The events the loop schedules as it runs, earliest [`order_key`]
/// first: FIFO on time ties, so a tick pushed before a same-instant retry
/// fires first and the loop is fully deterministic. Sequence numbers are
/// unique, so the event itself never decides the order.
struct Agenda {
    heap: BinaryHeap<Reverse<(u128, Ev)>>,
    seq: u64,
}

impl Agenda {
    fn push(&mut self, at: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(Reverse((order_key(at, self.seq), ev)));
    }
}

/// One arrival stream of the loop, walked by a cursor. The times are
/// prefix sums of non-negative gaps, hence already sorted — no heap
/// needed. Entry `k` carries sequence number `seq_base + k + 1`, so its
/// [`order_key`] compares against the [`Agenda`]'s exactly as if every
/// arrival had been pushed onto one heap before the first tick.
struct Arrivals {
    times: Vec<f64>,
    next: usize,
    seq_base: u64,
}

impl Arrivals {
    /// Accumulate `gaps` serially, in index order: the arrival clock.
    fn new(gaps: impl Iterator<Item = f64>, seq_base: u64) -> Arrivals {
        let mut clock = 0.0f64;
        let times = gaps
            .map(|gap| {
                clock += gap;
                clock
            })
            .collect();
        Arrivals { times, next: 0, seq_base }
    }

    /// [`order_key`] of the next arrival (`u128::MAX` once exhausted).
    fn head(&self) -> u128 {
        self.times
            .get(self.next)
            .map_or(u128::MAX, |&t| order_key(t, self.seq_base + self.next as u64 + 1))
    }

    /// Consume the head; returns its index in the stream.
    fn advance(&mut self) -> usize {
        self.next += 1;
        self.next - 1
    }

    fn pending(&self) -> bool {
        self.next < self.times.len()
    }
}

/// Take the earliest pending event by [`order_key`] across both arrival
/// streams and the agenda — a three-way merge that replays exactly the
/// order one heap over all events would pop.
fn pop_next(
    queries: &mut Arrivals,
    inserts: &mut Arrivals,
    agenda: &mut Agenda,
) -> Option<(f64, Ev)> {
    let (query, insert) = (queries.head(), inserts.head());
    let dynamic = agenda.heap.peek().map_or(u128::MAX, |Reverse((key, _))| *key);
    let key = query.min(insert).min(dynamic);
    let ev = if key == u128::MAX {
        return None;
    } else if key == query {
        Ev::Query(queries.advance())
    } else if key == insert {
        inserts.advance();
        Ev::Insert
    } else {
        let Reverse((_, ev)) = agenda.heap.pop().expect("the earliest key is the agenda's top");
        ev
    };
    Some((f64::from_bits((key >> 64) as u64), ev))
}

/// The write path's state: the WAL, and when its last group commit
/// finishes (commits to one WAL serialize).
struct WritePath {
    wal: WalSim,
    last_commit_finish: f64,
}

impl WritePath {
    /// Price and schedule a triggered group commit: it contends for a
    /// primary (queue 0) worker slot like any query, serializes after the
    /// previous commit, and its completion is a future event.
    fn commit(
        &mut self,
        model: &CostModel,
        pool: &mut SlotPool,
        agenda: &mut Agenda,
        job: FlushJob,
        trigger_secs: f64,
    ) {
        let start = trigger_secs.max(pool.pop_slot(0)).max(self.last_commit_finish);
        let finish = start + model.wal_flush_secs(job.rows);
        pool.push_slot(0, finish);
        self.last_commit_finish = finish;
        self.wal.record_flush(job, trigger_secs, finish);
        agenda.push(finish, Ev::FlushDone(job.upto_lsn));
    }

    /// Commit every full batch pending at `now`.
    fn commit_full_batches(
        &mut self,
        model: &CostModel,
        pool: &mut SlotPool,
        agenda: &mut Agenda,
        now: f64,
    ) {
        while let Some(job) = self.wal.full_batch_job() {
            self.commit(model, pool, agenda, job, now);
        }
    }
}

/// When a query that arrived at `arrival_secs` may start under the WAL
/// model, and its consistency wait: the rows it must see are durable at
/// `durable_secs` on the primary (group 0) and one replication lag later
/// on a replica.
fn wal_eligible(arrival_secs: f64, durable_secs: f64, group: usize, lag_secs: f64) -> (f64, f64) {
    let visible = if group == 0 { durable_secs } else { durable_secs + lag_secs };
    let eligible = arrival_secs.max(visible);
    (eligible, eligible - arrival_secs)
}

/// Start a query on queue `q`: its consistency wait (`wait_secs`) is over
/// at `eligible_secs`, so it takes a slot and completes. The wait is
/// passed in, not recomputed as `eligible - arrival`, because the
/// watermark model records its analytic wait exactly.
fn serve_query(
    pool: &mut SlotPool,
    waiting: &mut [BinaryHeap<Reverse<u64>>],
    q: usize,
    arrival_secs: f64,
    (eligible_secs, wait_secs): (f64, f64),
    base_service: f64,
) -> QueryEvent {
    let service = pool.service_secs(q, base_service);
    let start = eligible_secs.max(pool.pop_slot(q));
    let finish = start + service;
    pool.push_slot(q, finish);
    waiting[q].push(Reverse(start.to_bits()));
    QueryEvent {
        arrival_secs,
        consistency_wait_secs: wait_secs,
        service_secs: service,
        finish_secs: finish,
        shed: false,
        replica: pool.group_of(q),
    }
}

/// The serving event loop — the one every entry point runs. `pool`
/// selects shared slots or reactors; `writes` selects the consistency
/// model:
///
/// * `None` — the analytic watermark: each query waits
///   [`CostModel::consistency_wait_secs_replicated`] after its arrival;
///   no [`WalSim`], no ticks, and the insert stream stays empty whatever
///   [`ServingSpec::insert_fraction`] says;
/// * `Some(knobs)` — the write path: inserts arrive, WAL group commits,
///   seals and compactions occupy the primary's slots, and each query
///   waits for the commit that makes its `arrival - gracefulTime` cutoff
///   durable ([`WalSim::durable_time_of`]).
///
/// Query and insert arrivals are two pre-sorted [`Arrivals`] streams;
/// flush ticks, commit completions and deferred consistency retries live
/// on the [`Agenda`]. Every step takes the earliest `(time, seq)` key
/// among the two stream heads and the agenda's top ([`pop_next`]); the
/// sequence numbers are the ones a single heap over all events would
/// assign (arrivals pushed first, queries before inserts), so the merge
/// pops exactly that heap's order. The loop is serial (all draws are
/// precomputed pure functions of their index), so the trace is
/// bit-identical across thread counts.
fn simulate_mixed(
    model: &CostModel,
    sys: &SystemParams,
    base_service_secs: f64,
    spec: &ServingSpec,
    seed: u64,
    mut pool: SlotPool,
    writes: Option<WriteKnobs>,
) -> ServingTrace {
    let queues = pool.free.len();
    let replicas = queues / pool.per_group;
    let n = spec.requests;
    if n == 0 || spec.arrival_qps <= 0.0 {
        return ServingTrace {
            events: Vec::new(),
            slots: pool.slots,
            replicas,
            max_queue_depth: 0,
            writes: WriteStats::default(),
        };
    }
    let n_inserts = match writes {
        Some(_) => (n as f64 * spec.insert_fraction.max(0.0)).round() as usize,
        None => 0,
    };

    // Parallel fan-out: each draw is a pure function of its index, and the
    // shim's collect preserves input order, so this is thread-invariant.
    let draws: Vec<(f64, f64)> = (0..n)
        .into_par_iter()
        .map(|i| {
            let i = i as u64;
            (
                interarrival_secs(spec.arrival_qps, spec.burstiness, QUERY_STREAMS, seed, i),
                base_service_secs * service_jitter(seed, i),
            )
        })
        .collect();
    let insert_rate = spec.arrival_qps * spec.insert_fraction;
    let insert_gaps: Vec<f64> = (0..n_inserts)
        .into_par_iter()
        .map(|j| interarrival_secs(insert_rate, spec.burstiness, INSERT_STREAMS, seed, j as u64))
        .collect();

    // Backpressure and query queueing share the bound: the parking queue
    // holds at most `queue_capacity` inserts, and parked inserts occupy
    // the primary queue in the router's eyes.
    let mut path = writes.map(|knobs| WritePath {
        wal: WalSim::new(knobs, spec.queue_capacity),
        last_commit_finish: 0.0,
    });
    let graceful_secs = sys.graceful_time_ms.max(0.0) / 1_000.0;
    let replica_lag_secs = CostModel::replica_lag_ms(replicas) / 1_000.0;

    // Arrivals take sequence numbers `1..=n` (queries) and
    // `n+1..=n+n_inserts` (inserts); the agenda numbers on from there, so
    // same-instant ties resolve queries first, then inserts, then ticks,
    // commit completions and retries in scheduling order. Only the write
    // path ticks.
    let mut queries = Arrivals::new(draws.iter().map(|&(gap, _)| gap), 0);
    let mut inserts = Arrivals::new(insert_gaps.into_iter(), n as u64);
    let mut agenda = Agenda { heap: BinaryHeap::new(), seq: (n + n_inserts) as u64 };
    let mut next_tick = 0.0;
    if let Some(path) = &path {
        next_tick = path.wal.knobs().flush_interval_secs;
        agenda.push(next_tick, Ev::Tick);
    }

    let mut waiting: Vec<BinaryHeap<Reverse<u64>>> = vec![BinaryHeap::new(); queues];
    // Retries resolve out of arrival order: each query fills its own entry.
    let mut events: Vec<Option<QueryEvent>> = vec![None; n];
    let mut max_queue_depth = 0usize;

    while let Some((now, ev)) = pop_next(&mut queries, &mut inserts, &mut agenda) {
        match (ev, path.as_mut()) {
            (Ev::Query(i), path) => {
                // Requests admitted earlier whose service has started by
                // now have left their scheduler queues — drain every
                // queue, so the router sees current depths.
                for queue in waiting.iter_mut() {
                    while queue.peek().is_some_and(|&Reverse(bits)| f64::from_bits(bits) <= now) {
                        queue.pop();
                    }
                }
                // Backpressure is visible to reads: parked inserts occupy
                // the primary queue, steering JSQ away and shedding
                // queries once the shared bound fills.
                let parked = path.as_ref().map_or(0, |path| path.wal.parked());
                let depth = |q: usize| waiting[q].len() + if q == 0 { parked } else { 0 };
                // Route: JSQ joins the shallowest queue (ties to the
                // lowest index — group 0, reactor 0 first); random draws a
                // pure function of the request index.
                let q = match spec.routing {
                    RoutingPolicy::JoinShortestQueue => (0..queues)
                        .min_by_key(|&q| (depth(q), q))
                        .expect("queues >= 1 by construction"),
                    RoutingPolicy::Random { seed: route_seed } => {
                        (draw(route_seed, STREAM_ROUTE, i as u64) % queues as u64) as usize
                    }
                };
                max_queue_depth = max_queue_depth.max((0..queues).map(&depth).max().unwrap_or(0));
                if depth(q) >= spec.queue_capacity {
                    events[i] = Some(QueryEvent {
                        arrival_secs: now,
                        consistency_wait_secs: 0.0,
                        service_secs: 0.0,
                        finish_secs: now,
                        shed: true,
                        replica: pool.group_of(q),
                    });
                    continue;
                }
                let eligible = match path {
                    None => {
                        let wait = CostModel::consistency_wait_secs_replicated(sys, now, replicas);
                        (now + wait, wait)
                    }
                    // The query must see every row admitted at or before
                    // `arrival - gracefulTime` durable.
                    Some(path) => {
                        let lsn = path.wal.last_lsn_at_or_before(now - graceful_secs);
                        match path.wal.durable_time_of(lsn) {
                            Some(durable) => {
                                wal_eligible(now, durable, pool.group_of(q), replica_lag_secs)
                            }
                            // No triggered commit covers the cutoff yet.
                            // The next tick triggers everything pending
                            // (and fires before the retry — pushed
                            // earlier, same instant), so one retry always
                            // resolves.
                            None => {
                                agenda.push(next_tick, Ev::Retry { query: i, queue: q, lsn });
                                continue;
                            }
                        }
                    }
                };
                let base = draws[i].1;
                events[i] = Some(serve_query(&mut pool, &mut waiting, q, now, eligible, base));
            }
            (Ev::Insert, Some(path)) => {
                let _ = path.wal.offer_insert(now);
                path.commit_full_batches(model, &mut pool, &mut agenda, now);
            }
            (Ev::Tick, Some(path)) => {
                if let Some(job) = path.wal.tick_job() {
                    path.commit(model, &mut pool, &mut agenda, job, now);
                }
                // Keep ticking while anything can still need a deadline
                // flush: arrivals or events ahead, or un-drained write
                // state. This is the end-of-run drain — backpressure
                // delays, never drops.
                if queries.pending()
                    || inserts.pending()
                    || !agenda.heap.is_empty()
                    || !path.wal.drained()
                {
                    next_tick = now + path.wal.knobs().flush_interval_secs;
                    agenda.push(next_tick, Ev::Tick);
                }
            }
            (Ev::FlushDone(upto_lsn), Some(path)) => {
                let done = path.wal.flush_done(upto_lsn, now);
                // Seals and compactions occupy a primary worker slot too.
                let rebuild = model.segment_seal_secs(done.sealed_rows)
                    + model.compaction_secs(done.compacted_rows);
                if rebuild > 0.0 {
                    let start = now.max(pool.pop_slot(0));
                    pool.push_slot(0, start + rebuild);
                }
                // Un-parked admissions can fill whole batches at once.
                path.commit_full_batches(model, &mut pool, &mut agenda, now);
            }
            (Ev::Retry { query, queue, lsn }, Some(path)) => {
                let durable = path
                    .wal
                    .durable_time_of(lsn)
                    .expect("the tick preceding a retry triggers every pending commit");
                let arrival = queries.times[query];
                let eligible =
                    wal_eligible(arrival, durable, pool.group_of(queue), replica_lag_secs);
                let base = draws[query].1;
                events[query] =
                    Some(serve_query(&mut pool, &mut waiting, queue, arrival, eligible, base));
            }
            (_, None) => unreachable!("only the write path schedules write events"),
        }
    }

    let writes = path
        .map(|WritePath { wal, .. }| {
            debug_assert!(wal.drained(), "the tick chain drains every accepted insert");
            WriteStats {
                offered: n_inserts,
                accepted: wal.accepted(),
                shed: wal.shed(),
                flushes_full_batch: wal.flush_count(FlushReason::FullBatch),
                flushes_end_of_tick: wal.flush_count(FlushReason::EndOfTick),
                segments_sealed: wal.seals(),
                compactions: wal.compactions(),
                last_durable_lsn: wal.durable_lsn(),
            }
        })
        .unwrap_or_default();
    let events = events
        .into_iter()
        .map(|e| e.expect("every query resolves by the end of the run"))
        .collect();
    ServingTrace { events, slots: pool.slots, replicas, max_queue_depth, writes }
}

/// `sorted[q]`-style percentile over an ascending slice (nearest-rank);
/// empty input yields `INFINITY` so an SLO can never be "satisfied" by a
/// run that completed nothing.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::INFINITY;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl ServingTrace {
    /// Aggregate the trace into [`ServingStats`].
    ///
    /// The latency stream is **shed-charged** (the HdrHistogram-style
    /// coordinated-omission correction): every *offered* request
    /// contributes one sample — completed requests their intended-start
    /// latency (arrival is the intended start of an open-loop process, so
    /// `finish - arrival` already includes all queueing), shed requests
    /// their penalty latency [`ServingSpec::timeout_secs`] (the client
    /// gives up after that long). An earlier revision computed percentiles
    /// over completed requests only, so a config that shed 40% of its
    /// traffic could report a *better* p99 than one that served
    /// everything — overload tails were systematically understated.
    pub fn stats(&self, spec: &ServingSpec) -> ServingStats {
        let mut latencies: Vec<f64> = self
            .events
            .iter()
            .map(|e| if e.shed { spec.timeout_secs } else { e.latency_secs() })
            .collect();
        latencies.sort_by(f64::total_cmp);
        let completed = self.events.iter().filter(|e| !e.shed).count();
        let shed = self.events.len() - completed;
        let timeouts =
            self.events.iter().filter(|e| !e.shed && e.latency_secs() > spec.timeout_secs).count();
        // The measurement window runs from the first arrival to the last
        // completion, so a long idle lead-in (low rates, few requests)
        // does not deflate the achieved throughput.
        let first_arrival = self.events.first().map_or(0.0, |e| e.arrival_secs);
        let last_finish = self.events.iter().map(|e| e.finish_secs).fold(0.0f64, f64::max);
        let makespan = (last_finish - first_arrival).max(0.0);
        let mean = if latencies.is_empty() {
            f64::INFINITY
        } else {
            latencies.iter().sum::<f64>() / latencies.len() as f64
        };
        ServingStats {
            offered_qps: spec.arrival_qps,
            achieved_qps: completed as f64 / makespan.max(1e-9),
            goodput_qps: (completed - timeouts) as f64 / makespan.max(1e-9),
            mean_latency_secs: mean,
            p50_latency_secs: percentile(&latencies, 0.50),
            p95_latency_secs: percentile(&latencies, 0.95),
            p99_latency_secs: percentile(&latencies, 0.99),
            max_queue_depth: self.max_queue_depth,
            completed,
            shed,
            timeouts,
            makespan_secs: makespan,
            writes: self.writes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(rate: f64) -> ServingSpec {
        ServingSpec { arrival_qps: rate, requests: 800, ..Default::default() }
    }

    fn sim(rate: f64, sys: &SystemParams) -> ServingStats {
        let model = CostModel::default();
        let s = spec(rate);
        simulate(&model, sys, 0.004, &s, 7).stats(&s)
    }

    #[test]
    fn idle_system_has_no_queueing() {
        let sys = SystemParams::default();
        let stats = sim(5.0, &sys);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.completed, 800);
        assert_eq!(stats.max_queue_depth, 0, "arrivals far apart never queue");
        // Latency is just service + jitter: p50 near the base service time.
        assert!(stats.p50_latency_secs < 0.004 * 1.5, "{}", stats.p50_latency_secs);
        assert!(stats.p99_latency_secs >= stats.p50_latency_secs);
    }

    #[test]
    fn overload_sheds_and_bounds_the_queue() {
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let model = CostModel::default();
        // Service 10 ms on one slot = 100 QPS capacity; offer 5000 QPS.
        let s = ServingSpec {
            arrival_qps: 5_000.0,
            requests: 2_000,
            queue_capacity: 16,
            ..Default::default()
        };
        let trace = simulate(&model, &sys, 0.010, &s, 3);
        let stats = trace.stats(&s);
        assert!(stats.shed > 0, "overload must shed");
        assert!(stats.max_queue_depth <= 16, "queue bound respected");
        assert!(stats.achieved_qps < 150.0, "one 10ms slot serves ~100 QPS");
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let sys = SystemParams::default();
        let model = CostModel::default();
        let s = spec(800.0);
        let a = simulate(&model, &sys, 0.004, &s, 11);
        let b = simulate(&model, &sys, 0.004, &s, 11);
        assert_eq!(a, b);
        assert_ne!(a, simulate(&model, &sys, 0.004, &s, 12), "seed matters");
    }

    #[test]
    fn more_slots_cut_tail_latency_under_load() {
        let narrow = SystemParams { max_read_concurrency: 2, ..Default::default() };
        let wide = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let loaded = sim(900.0, &narrow);
        let relieved = sim(900.0, &wide);
        assert!(
            relieved.p99_latency_secs < loaded.p99_latency_secs,
            "16 slots must beat 2 under load: {} vs {}",
            relieved.p99_latency_secs,
            loaded.p99_latency_secs
        );
    }

    #[test]
    fn over_provisioned_slots_pay_overhead_not_parallelism() {
        let model = CostModel::default();
        let at_cores = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let over = SystemParams { max_read_concurrency: 64, ..Default::default() };
        assert_eq!(model.serving_slots(&at_cores), 16);
        assert_eq!(model.serving_slots(&over), 16, "slots cap at the node's cores");
        assert!(model.serving_overhead_factor(&over) > model.serving_overhead_factor(&at_cores));
    }

    #[test]
    fn graceful_time_shapes_the_consistency_tail() {
        // gracefulTime below the ingestion lag: every query waits, and the
        // flush-cycle phase spreads the waits into a tail.
        let stalled = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        let covered = SystemParams::default(); // graceful 5000ms >> lag
        let with_stall = sim(200.0, &stalled);
        let without = sim(200.0, &covered);
        assert!(
            with_stall.p99_latency_secs > without.p99_latency_secs + 0.05,
            "gracefulTime=0 must add ~lag to the tail: {} vs {}",
            with_stall.p99_latency_secs,
            without.p99_latency_secs
        );
        // The wait is phase-dependent, not constant: p99 strictly above p50
        // by more than the service-jitter spread alone.
        let spread_stalled = with_stall.p99_latency_secs - with_stall.p50_latency_secs;
        let spread_covered = without.p99_latency_secs - without.p50_latency_secs;
        assert!(spread_stalled > spread_covered, "{spread_stalled} vs {spread_covered}");
    }

    #[test]
    fn burstiness_inflates_the_tail_at_fixed_mean_rate() {
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let model = CostModel::default();
        let smooth = ServingSpec {
            arrival_qps: 700.0,
            burstiness: 0.0,
            requests: 2_000,
            ..Default::default()
        };
        let bursty = ServingSpec { burstiness: 3.0, ..smooth };
        let a = simulate(&model, &sys, 0.004, &smooth, 5).stats(&smooth);
        let b = simulate(&model, &sys, 0.004, &bursty, 5).stats(&bursty);
        assert!(
            b.p99_latency_secs > a.p99_latency_secs,
            "bursts queue deeper: {} vs {}",
            b.p99_latency_secs,
            a.p99_latency_secs
        );
    }

    #[test]
    fn empty_run_yields_infinite_percentiles() {
        let sys = SystemParams::default();
        let model = CostModel::default();
        let s = ServingSpec { requests: 0, ..Default::default() };
        let stats = simulate(&model, &sys, 0.004, &s, 1).stats(&s);
        assert_eq!(stats.completed, 0);
        assert!(stats.p99_latency_secs.is_infinite(), "no completions can satisfy an SLO");
        assert!(stats.violates_slo(&s.with_slo(10.0)));
    }

    #[test]
    fn timeouts_count_slow_completions() {
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let model = CostModel::default();
        let s = ServingSpec {
            arrival_qps: 400.0,
            requests: 500,
            timeout_secs: 0.02,
            queue_capacity: 10_000,
            ..Default::default()
        };
        let stats = simulate(&model, &sys, 0.010, &s, 9).stats(&s);
        assert!(stats.timeouts > 0, "queueing at 4x capacity must blow a 20ms timeout");
        assert!(stats.timeouts <= stats.completed);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_infinite());
    }

    /// Regression (coordinated omission): an overloaded config that sheds
    /// a large fraction of its traffic must not report a *lower* p99 than
    /// a config that serves the same load entirely. Before the
    /// shed-charging fix, the shedding config's percentile stream held
    /// only the requests lucky enough to clear its tiny queue — a fast
    /// tail built from dropped evidence.
    #[test]
    fn shedding_config_cannot_report_a_better_p99_than_a_serving_one() {
        let model = CostModel::default();
        // An aggressive config: 1 ms service on one slot = 1000 QPS
        // capacity against 2000 QPS offered, behind a one-deep queue — it
        // sheds about half the traffic, and what it does serve, it serves
        // nearly instantly.
        let starved = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let shedding = ServingSpec {
            arrival_qps: 2_000.0,
            requests: 2_000,
            queue_capacity: 1,
            ..Default::default()
        };
        let shed_trace = simulate(&model, &starved, 0.001, &shedding, 3);
        let shed_stats = shed_trace.stats(&shedding);
        assert!(
            shed_stats.shed_fraction() > 0.3,
            "the overload must actually shed: {}",
            shed_stats.shed_fraction()
        );
        // A conservative config: slower per query (5 ms) but with enough
        // slots to serve the same load outright.
        let provisioned = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let serving_spec = ServingSpec { queue_capacity: 10_000, ..shedding };
        let ok_stats = simulate(&model, &provisioned, 0.005, &serving_spec, 3).stats(&serving_spec);
        assert_eq!(ok_stats.shed, 0);
        assert_eq!(ok_stats.timeouts, 0, "the serving arm must be genuinely healthy");
        assert!(
            shed_stats.p99_latency_secs >= ok_stats.p99_latency_secs,
            "shed-charged p99 must not flatter the overloaded config: {} vs {}",
            shed_stats.p99_latency_secs,
            ok_stats.p99_latency_secs
        );
        // The pre-fix metric really would have reported the opposite —
        // completed-only percentiles of the shedding trace beat the
        // provisioned config's tail.
        let mut served_only: Vec<f64> =
            shed_trace.events.iter().filter(|e| !e.shed).map(|e| e.latency_secs()).collect();
        served_only.sort_by(f64::total_cmp);
        let uncorrected_p99 = percentile(&served_only, 0.99);
        assert!(
            uncorrected_p99 < ok_stats.p99_latency_secs,
            "regression precondition: the old metric flattered shedding ({uncorrected_p99} vs {})",
            ok_stats.p99_latency_secs
        );
    }

    /// Pin (goodput): timed-out completions count toward `achieved_qps`
    /// but not `goodput_qps`, and a timeout fraction beyond the tolerance
    /// violates the SLO even when the p99 objective itself is generous.
    #[test]
    fn goodput_excludes_timeouts_and_the_slo_counts_them() {
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let model = CostModel::default();
        let s = ServingSpec {
            arrival_qps: 400.0,
            requests: 500,
            timeout_secs: 0.02,
            queue_capacity: 10_000,
            ..Default::default()
        };
        let stats = simulate(&model, &sys, 0.010, &s, 9).stats(&s);
        assert!(stats.timeouts > 0 && stats.shed == 0);
        assert!(
            stats.goodput_qps < stats.achieved_qps,
            "{} vs {}",
            stats.goodput_qps,
            stats.achieved_qps
        );
        let expected = (stats.completed - stats.timeouts) as f64 / stats.makespan_secs;
        assert!((stats.goodput_qps - expected).abs() < 1e-9);
        assert!(stats.timeout_fraction() > s.max_shed_fraction);
        // A sky-high p99 SLO alone would pass; the timeout fraction trips it.
        assert!(stats.violates_slo(&s.with_slo(f64::MAX)));
    }

    #[test]
    fn one_replica_simulation_is_bitwise_the_unreplicated_one() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        for routing in [RoutingPolicy::JoinShortestQueue, RoutingPolicy::Random { seed: 4 }] {
            let s =
                ServingSpec { arrival_qps: 700.0, requests: 600, routing, ..Default::default() };
            let a = simulate(&model, &sys, 0.004, &s, 11);
            let b = simulate_replicated(&model, &sys, 0.004, &s, 11, 1);
            assert_eq!(a, b);
            assert_eq!(a.replicas, 1);
            assert!(a.events.iter().all(|e| e.replica == 0));
        }
    }

    #[test]
    fn replicas_relieve_an_overloaded_group() {
        // 4 slots at 4 ms = 1000 QPS per group; offer 1800 QPS.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let s = ServingSpec { arrival_qps: 1_800.0, requests: 3_000, ..Default::default() };
        let one = simulate_replicated(&model, &sys, 0.004, &s, 5, 1).stats(&s);
        let three = simulate_replicated(&model, &sys, 0.004, &s, 5, 3).stats(&s);
        assert!(
            three.p99_latency_secs < one.p99_latency_secs,
            "three replicas must cut the overload tail: {} vs {}",
            three.p99_latency_secs,
            one.p99_latency_secs
        );
        assert!(three.shed_fraction() < one.shed_fraction() + 1e-12);
    }

    #[test]
    fn jsq_routing_beats_random_routing_on_the_tail() {
        // Near saturation, random routing overloads some group by chance;
        // JSQ spreads by construction.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 2, ..Default::default() };
        let base = ServingSpec { arrival_qps: 1_300.0, requests: 4_000, ..Default::default() };
        let jsq = base.with_routing(RoutingPolicy::JoinShortestQueue);
        let rand = base.with_routing(RoutingPolicy::Random { seed: 21 });
        let a = simulate_replicated(&model, &sys, 0.004, &jsq, 13, 3).stats(&jsq);
        let b = simulate_replicated(&model, &sys, 0.004, &rand, 13, 3).stats(&rand);
        assert!(
            a.p99_latency_secs <= b.p99_latency_secs,
            "JSQ must not lose to blind routing: {} vs {}",
            a.p99_latency_secs,
            b.p99_latency_secs
        );
        assert!(a.max_queue_depth <= b.max_queue_depth);
    }

    #[test]
    fn routed_replicas_each_serve_traffic() {
        let model = CostModel::default();
        // One slot per group at 4 ms = 250 QPS/group; offering 600 QPS to
        // 3 groups keeps queues non-empty, so JSQ has depths to compare
        // (an idle fleet ties every arrival to group 0).
        let sys = SystemParams { max_read_concurrency: 1, ..Default::default() };
        let jsq = ServingSpec { arrival_qps: 600.0, requests: 1_200, ..Default::default() };
        let trace = simulate_replicated(&model, &sys, 0.004, &jsq, 7, 3);
        assert_eq!(trace.replicas, 3);
        for g in 0..3 {
            let served = trace.events.iter().filter(|e| e.replica == g && !e.shed).count();
            assert!(served > 120, "JSQ: group {g} must carry a share of the load ({served})");
        }
        // Random routing spreads even an idle fleet.
        let idle = SystemParams::default();
        let rand = ServingSpec { arrival_qps: 200.0, requests: 900, ..Default::default() }
            .with_routing(RoutingPolicy::Random { seed: 17 });
        let trace = simulate_replicated(&model, &idle, 0.004, &rand, 7, 3);
        for g in 0..3 {
            let served = trace.events.iter().filter(|e| e.replica == g).count();
            assert!(served > 100, "random: group {g} must carry a share of the load ({served})");
        }
    }

    #[test]
    fn shared_pinning_is_bitwise_the_shared_pool() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        for replicas in [1, 3] {
            let s = ServingSpec { arrival_qps: 700.0, requests: 600, ..Default::default() };
            let pinned =
                simulate_pinned(&model, &sys, 0.004, &s, 11, replicas, PinningPolicy::Shared, 10);
            let pool = simulate_replicated(&model, &sys, 0.004, &s, 11, replicas);
            assert_eq!(pinned, pool);
        }
    }

    #[test]
    fn one_reactor_pinned_serving_is_bitwise_the_one_slot_pool() {
        // On a single-core host every policy degenerates to one reactor,
        // penalty 1.0, handoff 0.0 — the same schedule as a 1-slot pool.
        let model = CostModel {
            topology: vdms::HostTopology::SINGLE_CORE,
            query_node_cores: 1,
            ..Default::default()
        };
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        for policy in PinningPolicy::ALL {
            for replicas in [1, 2] {
                let s = ServingSpec { arrival_qps: 900.0, requests: 800, ..Default::default() };
                let pinned = simulate_pinned(&model, &sys, 0.004, &s, 17, replicas, policy, 10);
                let pool = simulate_replicated(&model, &sys, 0.004, &s, 17, replicas);
                assert_eq!(pinned, pool, "{policy:?} x{replicas}");
            }
        }
    }

    #[test]
    fn smt_sharing_reactors_pay_a_tail_over_dedicated_cores() {
        // Compact fills SMT sibling pairs first (every reactor pays the
        // sibling scan penalty); smt-avoid spreads over dedicated physical
        // cores. Same arrival process, same reactor count.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let s = ServingSpec { arrival_qps: 1_500.0, requests: 2_000, ..Default::default() };
        let compact = simulate_pinned(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::Compact, 10);
        let avoid = simulate_pinned(&model, &sys, 0.004, &s, 5, 1, PinningPolicy::SmtAvoid, 10);
        assert_eq!(compact.slots, avoid.slots, "both run 8 reactors");
        let (c, a) = (compact.stats(&s), avoid.stats(&s));
        assert!(
            c.p99_latency_secs > a.p99_latency_secs,
            "SMT-sharing reactors must show in the tail: {} vs {}",
            c.p99_latency_secs,
            a.p99_latency_secs
        );
    }

    #[test]
    fn zero_insert_fraction_delegates_bitwise_to_the_read_only_simulators() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec { arrival_qps: 700.0, requests: 600, ..Default::default() };
        assert_eq!(s.insert_fraction, 0.0, "read-only is the default");
        for replicas in [1, 2] {
            let a = simulate_replicated(&model, &sys, 0.004, &s, 11, replicas);
            let b = simulate_replicated_mixed(
                &model,
                &sys,
                0.004,
                &s,
                11,
                replicas,
                WriteKnobs::DEFAULT,
            );
            assert_eq!(a, b, "write-rate 0 must be the read-only simulator, bit for bit");
            assert_eq!(b.writes, WriteStats::default());
            let c =
                simulate_pinned(&model, &sys, 0.004, &s, 11, replicas, PinningPolicy::Compact, 10);
            let d = simulate_pinned_mixed(
                &model,
                &sys,
                0.004,
                &s,
                11,
                replicas,
                PinningPolicy::Compact,
                10,
                WriteKnobs::DEFAULT,
            );
            assert_eq!(c, d);
        }
    }

    #[test]
    fn mixed_traffic_commits_seals_and_compacts_deterministically() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec { arrival_qps: 900.0, requests: 800, ..Default::default() }
            .with_inserts(0.5);
        let knobs = WriteKnobs { wal_batch_rows: 16, flush_interval_secs: 0.02, seal_rows: 32 };
        let a = simulate_replicated_mixed(&model, &sys, 0.004, &s, 7, 1, knobs);
        let b = simulate_replicated_mixed(&model, &sys, 0.004, &s, 7, 1, knobs);
        assert_eq!(a, b, "same seed, same mixed trace");
        let w = a.writes;
        assert_eq!(w.offered, 400);
        assert_eq!(w.accepted + w.shed, w.offered, "every insert is admitted or shed, never lost");
        assert_eq!(
            w.last_durable_lsn as usize, w.accepted,
            "the end-of-run drain makes every accepted insert durable"
        );
        assert!(w.flushes_full_batch > 0, "16-row batches must fill at 450 inserts/s");
        assert!(w.flushes_end_of_tick > 0, "stragglers must flush at the tick");
        assert_eq!(w.segments_sealed, w.accepted / 32);
        assert_eq!(w.compactions, w.segments_sealed / 4, "every 4th seal compacts");
        assert_eq!(a.stats(&s).writes, w, "stats carry the write counters through");
    }

    #[test]
    fn per_insert_fsyncs_tax_the_tail_over_group_commits() {
        // batch 1 fsyncs every row (serialized commits stealing primary
        // slots); batch 256 amortizes the same traffic into a handful of
        // commits. Same arrivals, same service draws.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let s = ServingSpec { arrival_qps: 900.0, requests: 2_000, ..Default::default() }
            .with_inserts(1.0);
        let churny = WriteKnobs { wal_batch_rows: 1, flush_interval_secs: 0.05, seal_rows: 4096 };
        let amortized = WriteKnobs { wal_batch_rows: 256, ..churny };
        let taxed = simulate_replicated_mixed(&model, &sys, 0.004, &s, 5, 1, churny).stats(&s);
        let calm = simulate_replicated_mixed(&model, &sys, 0.004, &s, 5, 1, amortized).stats(&s);
        assert!(
            taxed.writes.flushes_full_batch > 10 * calm.writes.flushes_full_batch,
            "{} vs {}",
            taxed.writes.flushes_full_batch,
            calm.writes.flushes_full_batch
        );
        assert!(
            taxed.p99_latency_secs > calm.p99_latency_secs,
            "per-row fsyncs must show in the query tail: {} vs {}",
            taxed.p99_latency_secs,
            calm.p99_latency_secs
        );
    }

    #[test]
    fn tight_graceful_time_waits_on_real_durability_events() {
        let model = CostModel::default();
        let tight = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        let covered = SystemParams::default(); // graceful 5000ms >> the run
        let s = ServingSpec { arrival_qps: 600.0, requests: 800, ..Default::default() }
            .with_inserts(0.5);
        let knobs = WriteKnobs { wal_batch_rows: 64, flush_interval_secs: 0.04, seal_rows: 4096 };
        let t = simulate_replicated_mixed(&model, &tight, 0.004, &s, 9, 1, knobs);
        let c = simulate_replicated_mixed(&model, &covered, 0.004, &s, 9, 1, knobs);
        assert!(
            t.events.iter().any(|e| !e.shed && e.consistency_wait_secs > 0.0),
            "gracefulTime=0 must wait on commits that haven't finished yet"
        );
        assert!(
            c.events.iter().all(|e| e.consistency_wait_secs == 0.0),
            "a graceful window covering the whole run never waits"
        );
        let (ts, cs) = (t.stats(&s), c.stats(&s));
        assert!(
            ts.p99_latency_secs > cs.p99_latency_secs,
            "durability waits must show in the tail: {} vs {}",
            ts.p99_latency_secs,
            cs.p99_latency_secs
        );
    }

    #[test]
    fn backpressure_parks_against_the_primary_queue_and_sheds_only_on_overflow() {
        // 2000 inserts/s against serialized ~0.5ms commits: a 4-row window
        // (batch 1) backs up, parks, and overflows the shared bound; a
        // 1024-row window absorbs the same traffic without shedding.
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec {
            arrival_qps: 2_000.0,
            requests: 2_000,
            queue_capacity: 8,
            ..Default::default()
        }
        .with_inserts(1.0);
        let tiny = WriteKnobs { wal_batch_rows: 1, flush_interval_secs: 0.05, seal_rows: 4096 };
        let wide = WriteKnobs { wal_batch_rows: 256, ..tiny };
        let cramped = simulate_replicated_mixed(&model, &sys, 0.004, &s, 13, 1, tiny);
        let roomy = simulate_replicated_mixed(&model, &sys, 0.004, &s, 13, 1, wide);
        assert!(cramped.writes.shed > 0, "the 4-row window must overflow at 2000 inserts/s");
        assert_eq!(roomy.writes.shed, 0, "a 1024-row window absorbs the burst");
        for trace in [&cramped, &roomy] {
            let w = trace.writes;
            assert_eq!(w.accepted + w.shed, w.offered);
            assert_eq!(w.last_durable_lsn as usize, w.accepted, "accepted inserts never drop");
        }
        // Parked inserts occupy the primary queue: reads shed alongside.
        let q = cramped.stats(&s);
        let calm = roomy.stats(&s);
        assert!(
            q.shed > calm.shed,
            "write backpressure must push back on reads: {} vs {}",
            q.shed,
            calm.shed
        );
    }

    #[test]
    fn shared_pinning_mixed_is_bitwise_the_shared_pool_mixed() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let s = ServingSpec { arrival_qps: 700.0, requests: 600, ..Default::default() }
            .with_inserts(0.3);
        for replicas in [1, 3] {
            let pinned = simulate_pinned_mixed(
                &model,
                &sys,
                0.004,
                &s,
                11,
                replicas,
                PinningPolicy::Shared,
                10,
                WriteKnobs::DEFAULT,
            );
            let pool = simulate_replicated_mixed(
                &model,
                &sys,
                0.004,
                &s,
                11,
                replicas,
                WriteKnobs::DEFAULT,
            );
            assert_eq!(pinned, pool);
        }
    }

    #[test]
    fn reactor_mixed_serving_commits_on_the_primary_reactor() {
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let s = ServingSpec { arrival_qps: 1_200.0, requests: 1_500, ..Default::default() }
            .with_inserts(0.4);
        // ~14 inserts arrive per 30ms tick: 8-row batches fill between
        // ticks, stragglers flush at the deadline — both reasons fire.
        let knobs = WriteKnobs { wal_batch_rows: 8, flush_interval_secs: 0.03, seal_rows: 128 };
        let trace = simulate_pinned_mixed(
            &model,
            &sys,
            0.004,
            &s,
            5,
            1,
            PinningPolicy::SmtAvoid,
            10,
            knobs,
        );
        let w = trace.writes;
        assert_eq!(w.offered, 600);
        assert_eq!(w.accepted + w.shed, w.offered);
        assert_eq!(w.last_durable_lsn as usize, w.accepted);
        assert!(w.segments_sealed > 0 && w.flushes_full_batch > 0);
        assert!(
            trace.events.iter().any(|e| !e.shed && e.replica == 0),
            "the primary group still serves queries alongside its write work"
        );
    }

    #[test]
    fn burstiness_mixture_preserves_the_mean_rate() {
        let s = ServingSpec { arrival_qps: 1_000.0, burstiness: 2.0, ..Default::default() };
        let n = 200_000u64;
        let total: f64 = (0..n)
            .map(|i| interarrival_secs(s.arrival_qps, s.burstiness, QUERY_STREAMS, 42, i))
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.001).abs() < 5e-5, "mean gap {mean} should be ~1ms");
    }
}
