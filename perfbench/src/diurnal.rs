//! `diurnal-1t`: one tenant in the paper's closed loop.
//!
//! A `google_like` trace (diurnal, 2-hourly spikes, block noise; 72 h at
//! traffic scale 1.0) runs through the simulator with `harness_demo`'s
//! tuned HP configuration, refits every 5 minutes and the plan cache armed
//! at 0.05. Set-up
//! generates the trace, replays the reactive baseline, ingests the first
//! 48 h and fits the first model; the warm scaler is checkpointed. Each
//! episode restores that scaler and replays the remaining 24 h (about 8.6k
//! planning ticks), so every episode does identical work and the timed
//! loop repeats episodes while another one fits in the time budget.
//!
//! The policy below is `OnlinePolicy`'s tick with clocks around it; the
//! run checks that it reproduces `run_closed_loop` exactly.
//!
//! Set-up samples are spread through the run (see `Schedule`); each times
//! `SETUP_REPEATS` set-ups back to back, since one is only about 40 ms of
//! work, and restores the warm scaler `RESTORES` times.

use crate::common::{
    end_to_end, median, percentile, ratio, secs_since, setup_note, time_setups, Digest, EndToEnd,
    MemStorage, Outcome, Schedule, Settings, Spans,
};
use crate::layers::{layer_metrics, overhead_pct, LayerValues};
use robustscaler_core::{relative_cost, RobustScalerConfig, RobustScalerVariant};
use robustscaler_online::{
    run_closed_loop, ArrivalBus, BusConfig, CheckpointStore, HarnessConfig, OnlineConfig,
    OnlineScaler, OnlineStats, QueueStats, TenantSnapshot, DEFAULT_QUEUE_CAPACITY,
};
use robustscaler_simulator::{
    Autoscaler, PendingTimeDistribution, Reactive, ScalingCommand, SimulationConfig, Simulator,
    SystemState, Trace,
};
use robustscaler_traces::{google_like, ProcessingTimeModel, TraceConfig};
use std::sync::Arc;
use std::time::Instant;

/// Set-up samples per run, spread through it by `Schedule`. Samples are
/// taken between episodes, and an episode takes about 5 s (its 288 refits
/// take most of it), so a 50 s run has room for about eight.
const SETUP_SAMPLES: usize = 8;
const HOURS: f64 = 72.0;
const PLAN_REUSE: f64 = 0.05;
/// Set-ups timed back to back in one set-up sample.
const SETUP_REPEATS: usize = 5;
/// Timed restores of the warm scaler's checkpoint per set-up sample.
const RESTORES: usize = 11;

/// Seconds between scheduled refits. `harness_demo` refits every 30 min,
/// which makes refit ticks 0.57% of ticks: the p99 then sat in the plan
/// mode's sparse tail next to the refit mode and spread 25% between runs.
/// Refitting every 5 min puts about 3.4% of ticks in the refit mode, so
/// the p99 is a percentile of the ADMM refit times, well inside that mode.
const REFIT_INTERVAL: f64 = 300.0;

/// `harness_demo`'s configuration, with the plan cache armed and refits
/// every `REFIT_INTERVAL` seconds.
fn harness_config() -> HarnessConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.mean_processing = 20.0;
    pipeline.monte_carlo_samples = 300;
    pipeline.planning_interval = 10.0;
    pipeline.admm.max_iterations = 80;
    pipeline.seed = 7;
    let mut online = OnlineConfig::new(pipeline);
    online.refit_interval = REFIT_INTERVAL;
    HarnessConfig {
        online,
        sim: SimulationConfig {
            pending: PendingTimeDistribution::Deterministic(13.0),
            seed: 9,
            recent_history_window: 600.0,
        },
        warmup: (HOURS - 24.0) * 3_600.0,
        faults: None,
        plan_reuse: Some(PLAN_REUSE),
    }
}

/// Everything an episode starts from.
struct Prepared {
    trace: Trace,
    live: Trace,
    config: HarnessConfig,
    reactive_cost: f64,
    store: CheckpointStore,
    /// Wall time of the warm-up boundary fit.
    fit_s: f64,
}

fn setup(seed: u64) -> Prepared {
    let trace = google_like(&TraceConfig {
        duration: HOURS * 3_600.0,
        traffic_scale: 1.0,
        processing: ProcessingTimeModel::Exponential { mean: 20.0 },
        seed,
    });
    let config = harness_config();
    let boundary = trace.start() + config.warmup;
    let (warm, live) = trace.split_at(boundary).expect("warm-up inside the trace");
    let simulator = Simulator::new(config.sim).expect("valid simulation config");
    let reactive = simulator
        .run(&live, &mut Reactive::new())
        .expect("reactive baseline runs");

    let mut scaler = OnlineScaler::new(config.online, trace.start()).expect("valid config");
    scaler
        .enable_plan_reuse(PLAN_REUSE)
        .expect("valid tolerance");
    let warm_times = warm.arrival_times();
    let bus = ArrivalBus::new(
        1,
        BusConfig {
            capacity_per_tenant: warm_times.len().max(1),
            tenants_per_group: 1,
            ..BusConfig::default()
        },
    )
    .expect("valid bus");
    bus.push_batch(0, &warm_times)
        .expect("bus sized to the warm window");
    let mut buf = Vec::new();
    bus.drain_into(0, &mut buf).expect("tenant 0 exists");
    scaler.ingest_batch(&buf);
    let fit = Instant::now();
    scaler.refit_now(boundary).expect("warm-up window fits");
    let fit_s = secs_since(fit);

    let store = CheckpointStore::with_storage("diurnal", Arc::new(MemStorage::default()));
    store
        .write(&[TenantSnapshot::new(0, scaler.snapshot())], 1, 1)
        .expect("checkpoint the warm scaler");
    Prepared {
        trace,
        live,
        config,
        reactive_cost: reactive.total_cost(),
        store,
        fit_s,
    }
}

/// `OnlinePolicy`'s planning tick with a clock around it; when traced, the
/// drain, refit check and plan are timed one by one. Both kinds of tick run
/// the refit check before `plan_round` (which repeats it, finding nothing
/// due), so they do the same work and differ only by their clocks.
struct TimedPolicy {
    scaler: OnlineScaler,
    bus: ArrivalBus,
    buf: Vec<f64>,
    traced: bool,
    ticks: Vec<f64>,
    ok_plans: u64,
    refit_ticks: u64,
    drain: Spans,
    refit: Spans,
    /// Refit-check spans of the ticks that did refit.
    refit_hits: Vec<f64>,
    plan: Spans,
    digest: Digest,
}

impl TimedPolicy {
    fn new(scaler: OnlineScaler, traced: bool) -> Self {
        let bus = ArrivalBus::new(
            1,
            BusConfig {
                capacity_per_tenant: DEFAULT_QUEUE_CAPACITY,
                tenants_per_group: 1,
                ..BusConfig::default()
            },
        )
        .expect("a 1-tenant bus is valid");
        Self {
            scaler,
            bus,
            buf: Vec::new(),
            traced,
            ticks: Vec::new(),
            ok_plans: 0,
            refit_ticks: 0,
            drain: Spans::default(),
            refit: Spans::default(),
            refit_hits: Vec::new(),
            plan: Spans::default(),
            digest: Digest::default(),
        }
    }
}

impl Autoscaler for TimedPolicy {
    fn name(&self) -> &str {
        "online-robustscaler-hp"
    }

    fn planning_interval(&self) -> Option<f64> {
        Some(self.scaler.config().pipeline.planning_interval)
    }

    fn on_planning_tick(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let refits_before = self.scaler.stats().refits;
        let start = Instant::now();
        let result = if self.traced {
            let (bus, buf, scaler) = (&self.bus, &mut self.buf, &mut self.scaler);
            self.drain.time(|| {
                if matches!(bus.drain_into(0, buf), Ok(1..)) {
                    scaler.ingest_batch(buf);
                }
            });
            let refitted = self.refit.time(|| self.scaler.maybe_refit(state.now));
            if matches!(refitted, Ok(true)) {
                self.refit_hits
                    .push(*self.refit.0.last().expect("just recorded"));
            }
            self.plan
                .time(|| self.scaler.plan_round(state.now, state.covered()))
        } else {
            if matches!(self.bus.drain_into(0, &mut self.buf), Ok(1..)) {
                self.scaler.ingest_batch(&self.buf);
            }
            let _ = self.scaler.maybe_refit(state.now);
            self.scaler.plan_round(state.now, state.covered())
        };
        let commands = match &result {
            Ok(round) => round
                .decisions
                .iter()
                .map(|d| ScalingCommand::CreateAt(d.creation_time))
                .collect(),
            Err(_) => {
                self.scaler.record_failed_round();
                Vec::new()
            }
        };
        self.ticks.push(secs_since(start));
        self.ok_plans += u64::from(result.is_ok());
        self.refit_ticks += u64::from(self.scaler.stats().refits > refits_before);
        self.digest.plan(0, result.as_ref().ok());
        commands
    }

    fn on_query_arrival(&mut self, state: &SystemState) -> Vec<ScalingCommand> {
        let _ = self.bus.push(0, state.now);
        Vec::new()
    }

    fn cancel_scheduled_on_cold_start(&self) -> bool {
        true
    }
}

/// What one episode produced.
struct Episode {
    policy: TimedPolicy,
    loop_s: f64,
    hit_rate: f64,
    relative_cost: f64,
    stats: OnlineStats,
    queue: QueueStats,
}

/// The warm scaler, loaded from its checkpoint and re-armed.
fn restore_scaler(prepared: &Prepared) -> OnlineScaler {
    let snapshot = prepared
        .store
        .load(1)
        .expect("warm checkpoint loads")
        .pop()
        .expect("one tenant");
    let mut scaler =
        OnlineScaler::restore(snapshot.scaler, prepared.config.online).expect("scaler restores");
    scaler
        .enable_plan_reuse(PLAN_REUSE)
        .expect("valid tolerance");
    scaler
}

fn episode(prepared: &Prepared, traced: bool) -> Episode {
    let scaler = restore_scaler(prepared);
    let simulator = Simulator::new(prepared.config.sim).expect("valid simulation config");
    let mut policy = TimedPolicy::new(scaler, traced);
    let start = Instant::now();
    let metrics = simulator
        .run(&prepared.live, &mut policy)
        .expect("closed loop runs");
    let loop_s = secs_since(start);
    Episode {
        loop_s,
        hit_rate: metrics.hit_rate(),
        relative_cost: relative_cost(metrics.total_cost(), prepared.reactive_cost),
        stats: *policy.scaler.stats(),
        queue: policy.bus.stats(),
        policy,
    }
}

/// The set-up samples and restores a run takes on its schedule.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    fit: Vec<f64>,
    restore: Vec<f64>,
}

impl Samples {
    /// Time `SETUP_REPEATS` set-ups; returns the last one.
    fn setup(&mut self, seed: u64) -> Prepared {
        let (prepared, setup_s) = time_setups(SETUP_REPEATS, || setup(seed));
        self.setup.push(setup_s);
        self.fit.push(prepared.fit_s);
        prepared
    }

    /// Time `RESTORES` restores of the warm scaler.
    fn restore(&mut self, prepared: &Prepared) {
        for _ in 0..RESTORES {
            let start = Instant::now();
            let restored = restore_scaler(prepared);
            self.restore.push(secs_since(start));
            drop(restored);
        }
    }

    /// One scheduled sample: a set-up (its result dropped) and restores.
    fn take(&mut self, seed: u64, prepared: &Prepared) {
        drop(self.setup(seed));
        self.restore(prepared);
    }
}

pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::new();
    let mut samples = Samples::default();
    let prepared = samples.setup(settings.seed);
    samples.restore(&prepared);
    out.note(format!(
        "input: google_like {HOURS} h at scale 1.0, {} queries, {} live",
        prepared.trace.len(),
        prepared.live.len()
    ));

    // Untraced runs time whole ticks only; traced runs alternate untraced
    // and traced episodes so the tracing overhead is a same-process delta.
    let mut schedule = Schedule::new(SETUP_SAMPLES, settings.seconds);
    let mut episodes: Vec<Episode> = Vec::new();
    let mut last = 0.0;
    while episodes.len() < 2 || schedule.fits(last) {
        let start = Instant::now();
        if schedule.due() {
            samples.take(settings.seed, &prepared);
        }
        let traced = settings.trace && episodes.len() % 2 == 1;
        episodes.push(episode(&prepared, traced));
        last = secs_since(start);
    }
    for _ in 0..schedule.rest() {
        samples.take(settings.seed, &prepared);
    }
    out.note(setup_note(&samples.setup));

    let reference = run_closed_loop(&prepared.trace, &prepared.config)
        .expect("reference closed loop runs")
        .0;
    let first = &episodes[0];
    let mut identical = true;
    for e in &episodes {
        identical &= e.hit_rate == reference.hit_rate
            && e.relative_cost == reference.relative_cost
            && e.stats == reference.stats
            && Some(e.queue) == reference.queue
            && e.policy.digest == first.policy.digest;
    }
    out.check("timed loop equals run_closed_loop", identical);

    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.policy.traced).collect();
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.policy.traced).collect();
    let ticks: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.policy.ticks.iter().copied())
        .collect();
    let tick_count = first.policy.ticks.len() as f64;
    let refit_share = ratio(first.policy.refit_ticks as f64, tick_count);

    out.attempted = episodes
        .iter()
        .map(|e| e.policy.ticks.len() as u64 + e.queue.enqueued)
        .sum();
    out.failed = episodes
        .iter()
        .map(|e| e.stats.failed_rounds + e.queue.dropped_full)
        .sum();
    out.note(format!(
        "digest: {:016x} over {} ticks per episode, {} episodes ({} traced)",
        first.policy.digest.value(),
        first.policy.ticks.len(),
        episodes.len(),
        traced.len()
    ));
    out.note(format!(
        "reuse: plan-cache hits {:.4} of ticks; refits {:.4} of ticks ({} refits, {} drift)",
        ratio(first.stats.plan_cache_hits as f64, tick_count),
        refit_share,
        first.stats.refits,
        first.stats.drift_refits
    ));
    out.note(format!(
        "qos: hit_rate {:.6}, relative_cost {:.6}",
        first.hit_rate, first.relative_cost
    ));
    out.note(format!(
        "p99 mode: refit ticks are {:.2}% of ticks against the 1% tail, so round_p99_ms {}",
        refit_share * 100.0,
        if refit_share < 0.005 {
            "is the plan mode's tail, clear of the refit mode"
        } else if refit_share < 0.02 {
            "sits near the boundary of the plan and refit modes"
        } else {
            "is inside the refit mode"
        }
    ));

    if !settings.trace {
        let p50s: Vec<f64> = untraced.iter().map(|e| median(&e.policy.ticks)).collect();
        let rates: Vec<f64> = untraced
            .iter()
            .map(|e| ratio(e.policy.ok_plans as f64, e.loop_s))
            .collect();
        end_to_end(
            &mut out,
            &EndToEnd {
                setup: &samples.setup,
                p50s: &p50s,
                ticks: &ticks,
                rates: &rates,
                restores: &samples.restore,
            },
        );
        return out;
    }

    let all = |f: fn(&TimedPolicy) -> &Spans| -> Vec<f64> {
        traced
            .iter()
            .flat_map(|e| f(&e.policy).0.iter().copied())
            .collect()
    };
    let drains = all(|p| &p.drain);
    let plans = all(|p| &p.plan);
    let refit_hits: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.policy.refit_hits.iter().copied())
        .collect();
    let traced_ticks: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.policy.ticks.iter().copied())
        .collect();
    let tick_sum: f64 = traced_ticks.iter().sum();
    let span_sum: f64 = traced
        .iter()
        .map(|e| e.policy.drain.total() + e.policy.refit.total() + e.policy.plan.total())
        .sum();
    let self_s: Vec<f64> = traced
        .iter()
        .map(|e| e.loop_s - e.policy.ticks.iter().sum::<f64>())
        .collect();
    // Live refits only: the warm-up boundary fit happened in set-up.
    let refits = first.stats.refits.saturating_sub(1);
    layer_metrics(
        &mut out,
        &LayerValues {
            drain_p50_us: median(&drains) * 1e6,
            refit_p50_ms: median(&refit_hits) * 1e3,
            refits: refits as f64,
            drift_refits: first.stats.drift_refits as f64,
            plan_round_p50_ms: median(&plans) * 1e3,
            plan_round_p99_ms: percentile(&plans, 0.99) * 1e3,
            plan_cache_hit_ratio: ratio(first.stats.plan_cache_hits as f64, tick_count),
            engine_self_s: median(&self_s),
            template_fit_s: median(&samples.fit),
            hit_rate: first.hit_rate,
            relative_cost: first.relative_cost,
            refit_share,
            residual_ms: ratio(tick_sum - span_sum, traced_ticks.len() as f64) * 1e3,
            span_share: ratio(span_sum, tick_sum),
            overhead_pct: overhead_pct(&ticks, &traced_ticks),
            ..LayerValues::default()
        },
    );
    out
}
