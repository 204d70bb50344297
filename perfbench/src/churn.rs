//! `fleet-churn`: the cold and durable path.
//!
//! 100 registered tenants with duty-cycled forecasts: each is on for 3 to
//! 6 of every 20 one-minute buckets, at its own phase, level (0.1 to 1
//! QPS; all three stratified over the fleet, see `duty_models`) and
//! per-bucket shape, so clusters are small and about a quarter
//! of the fleet is awake at any time. Residency is on, with hibernation
//! pages and checkpoints in in-memory storage. Set-up runs the
//! cold round plus 30 rounds and checkpoints the fleet. Each
//! episode restores that checkpoint, runs a few untimed rounds and a full
//! checkpoint, then 240 timed rounds with an incremental checkpoint every
//! 10 rounds, then times a few restores of its last checkpoint. Midway
//! through the first episode the fleet is restored from its latest
//! checkpoint and the restored twin must plan the next rounds
//! bit-identically. Set-up samples are spread through the run (see
//! `Schedule`). Traced runs also time `TenantFleet::drain_bus` before each
//! round, and the same episode at 1 worker for the pool speed-up.

use crate::common::{
    end_to_end, median, percentile, ratio, secs_since, setup_note, time_setups, Digest, EndToEnd,
    MemStorage, Outcome, Schedule, Settings, Spans,
};
use crate::fleet::{fleet_config, mix, unit, Arrivals, Tally, INTERVAL};
use crate::layers::{layer_metrics, overhead_pct, LayerValues};
use robustscaler_nhpp::NhppModel;
use robustscaler_online::{
    BusConfig, CheckpointStorage, CheckpointStore, HibernationStore, OnlineScaler, OnlineStats,
    ResidencyConfig, ResidencyStats, RestoreOptions, SharingConfig, TenantFleet,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Set-up samples per run, spread through it by `Schedule` (an episode
/// takes about 0.7 s, so samples fall between episodes at even steps).
const SETUP_SAMPLES: usize = 13;
/// Set-ups timed back to back in one set-up sample: one is only about
/// 0.08 s of work, too little to rise above start-up jitter.
const SETUP_REPEATS: usize = 4;
/// Fleet size: small enough that a round takes about 2 ms and a 50 s run
/// holds about 60 episodes, so each timing has enough samples spread
/// through the run for some to meet quiet phases of a shared host.
const TENANTS: usize = 100;
const PERIOD_BUCKETS: usize = 20;
const MODEL_PERIODS: usize = 4;
const BUCKET: f64 = 60.0;
/// Set-up rounds after the cold round: long enough for every tenant that
/// starts off-duty to go cold.
const SETUP_ROUNDS: usize = 30;
const EPISODE_WARMUP: usize = 3;
const EPISODE_ROUNDS: usize = 240;
const CHECKPOINT_EVERY: usize = 10;
/// Rounds the restored twin must match the live fleet.
const VERIFY_ROUNDS: usize = 20;
/// Timed restores of the last checkpoint at the end of each episode. A
/// restore is about 5 ms and fans its shards out to fresh threads, so one
/// restore moves by 30% or more from episode to episode; `restore_s` is
/// the `QUIET` percentile of every restore of the run.
const RESTORES: usize = 8;
/// Resident tenants paged out and in by the traced probe per checkpoint.
const PROBES: usize = 4;

/// A permutation of `0..n` drawn from `seed`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (mix(seed ^ i as u64) % (i as u64 + 1)) as usize);
    }
    order
}

/// Every tenant's duty-cycled model: `MODEL_PERIODS` repeats of a
/// 20-bucket period that is on for 3 to 6 buckets. On-lengths, phases and
/// levels are stratified: every seed gives the fleet the same multiset of
/// each (a quarter of the tenants per on-length, as many per phase, levels
/// evenly spaced on a log scale), and the seed decides which tenant gets
/// which, and the per-bucket shapes. Drawn independently, a 100-tenant
/// fleet's load varies by several percent from seed to seed, and every
/// timing with it.
fn duty_models(seed: u64) -> Vec<NhppModel> {
    let on = permutation(mix(seed ^ 1), TENANTS);
    let phase = permutation(mix(seed ^ 2), TENANTS);
    let level = permutation(mix(seed ^ 3), TENANTS);
    (0..TENANTS)
        .map(|tenant| {
            let key = seed ^ mix(tenant as u64);
            let on = 3 + on[tenant] % 4;
            let phase = phase[tenant] % PERIOD_BUCKETS;
            let qps = 0.1 * 10f64.powf((level[tenant] as f64 + 0.5) / TENANTS as f64);
            let log_rates = (0..PERIOD_BUCKETS * MODEL_PERIODS)
                .map(|b| {
                    let p = (b + phase) % PERIOD_BUCKETS;
                    if p < on {
                        let shape = 0.6 + 0.8 * unit(key ^ (3 + p as u64));
                        (qps * shape).ln()
                    } else {
                        -30.0
                    }
                })
                .collect();
            NhppModel::from_log_rates(0.0, BUCKET, log_rates, Some(PERIOD_BUCKETS))
                .expect("duty model is valid")
        })
        .collect()
}

/// Where the run keeps its durable state: one in-memory storage, with a
/// directory per checkpoint and page store.
struct Dirs {
    storage: Arc<MemStorage>,
    base: PathBuf,
    base_pages: PathBuf,
    episode: PathBuf,
    episode_pages: PathBuf,
    twin_pages: PathBuf,
    probe_pages: PathBuf,
}

impl Dirs {
    fn new() -> Self {
        let dir = |name: &str| PathBuf::from("churn").join(name);
        Self {
            storage: Arc::new(MemStorage::default()),
            base: dir("base"),
            base_pages: dir("base-pages"),
            episode: dir("checkpoint"),
            episode_pages: dir("pages"),
            twin_pages: dir("twin-pages"),
            probe_pages: dir("probe-pages"),
        }
    }

    fn storage(&self) -> Arc<dyn CheckpointStorage> {
        self.storage.clone()
    }

    /// Delete a directory tree, if present.
    fn clear(&self, dir: &Path) {
        let _ = self.storage.remove_dir_all(dir);
    }

    /// Restore the checkpoint in `dir`, paging into `pages`, re-armed with
    /// the run's sharing policy and worker count.
    fn restore(&self, dir: &Path, pages: &Path) -> TenantFleet {
        let options = RestoreOptions {
            storage: Some(self.storage()),
            hibernation_dir: Some(pages.to_path_buf()),
            ..RestoreOptions::default()
        };
        let (mut fleet, _) =
            TenantFleet::restore_with(dir, &fleet_config(), options).expect("restores");
        fleet
            .set_sharing(SharingConfig::on())
            .expect("valid sharing");
        fleet.set_workers(2);
        fleet
    }
}

struct Prepared {
    arrivals: Arrivals,
    origin: f64,
    cold_round_s: f64,
}

fn setup(seed: u64, dirs: &Dirs) -> Prepared {
    let config = fleet_config();
    let origin = BUCKET * (PERIOD_BUCKETS * MODEL_PERIODS) as f64;
    let models = duty_models(seed);
    let arrivals = Arrivals::generate(
        &models,
        &config,
        seed,
        origin + INTERVAL,
        1 + SETUP_ROUNDS + EPISODE_WARMUP + EPISODE_ROUNDS,
    );
    dirs.clear(&dirs.base);
    dirs.clear(&dirs.base_pages);
    let mut fleet = TenantFleet::new(&config, origin, TENANTS, seed).expect("valid fleet");
    fleet.attach_bus(BusConfig::default()).expect("fresh fleet");
    fleet.set_checkpoint_storage(dirs.storage());
    fleet
        .enable_residency(ResidencyConfig {
            cold_after: 3,
            idle_epsilon: 1e-6,
            start_cold: false,
        })
        .expect("valid residency");
    fleet
        .set_hibernation_dir(&dirs.base_pages)
        .expect("residency is on");
    fleet
        .set_sharing(SharingConfig::on())
        .expect("valid sharing");
    fleet.set_workers(2);
    for (i, model) in models.into_iter().enumerate() {
        fleet
            .tenant_mut(i)
            .expect("index in range")
            .scaler
            .install_model(model, origin)
            .expect("model installs");
    }
    let bus = Arc::clone(fleet.bus().expect("bus attached"));
    let mut cold_round_s = 0.0;
    for round in 0..=SETUP_ROUNDS {
        arrivals.push(&bus, round);
        let start = Instant::now();
        fleet
            .run_round_uniform(now_of(origin, round), 0)
            .expect("round runs");
        if round == 0 {
            cold_round_s = secs_since(start);
        }
    }
    fleet
        .checkpoint(&dirs.base)
        .expect("base checkpoint writes");
    Prepared {
        arrivals,
        origin,
        cold_round_s,
    }
}

fn now_of(origin: f64, round: usize) -> f64 {
    origin + INTERVAL * (round as f64 + 1.0)
}

/// The mid-run kill-and-restore of the first episode.
#[derive(Default)]
struct RestoreProbe {
    restored: bool,
    identical: bool,
}

/// How an episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Mode {
    workers: usize,
    traced: bool,
}

/// The timed loop's mode; traced runs also time it traced, and traced at
/// 1 worker for the pool speed-up.
const BASE: Mode = Mode {
    workers: 2,
    traced: false,
};
const TRACED: Mode = Mode {
    workers: 2,
    traced: true,
};
const ONE_WORKER: Mode = Mode {
    workers: 1,
    traced: true,
};

#[derive(Default)]
struct Episode {
    mode: Mode,
    ticks: Vec<f64>,
    push: Spans,
    drain: Spans,
    run_round: Spans,
    checkpoint: Spans,
    page_out: Spans,
    page_in: Spans,
    restore: Vec<f64>,
    load: Vec<f64>,
    shards_rewritten: Vec<f64>,
    loop_s: f64,
    tally: Tally,
    digest: Digest,
    offered: u64,
    accepted: u64,
    before: OnlineStats,
    after: OnlineStats,
    residency_before: ResidencyStats,
    residency_after: ResidencyStats,
    deduped: u64,
    durable_ops: u64,
    durable_failures: u64,
}

/// Page a few resident tenants out and back in through the benchmark's own
/// store: page-out of a live snapshot, then page-in plus scaler restore.
fn probe_pages(fleet: &TenantFleet, store: &HibernationStore, e: &mut Episode, offset: usize) {
    let config = fleet_config();
    let resident = (0..TENANTS)
        .map(|k| (offset + k) % TENANTS)
        .filter_map(|i| fleet.tenant(i))
        .take(PROBES);
    for tenant in resident {
        let snapshot = tenant.scaler.snapshot();
        let receipt = e
            .page_out
            .time(|| store.page_out(tenant.id, &snapshot))
            .expect("probe page-out");
        e.page_in
            .time(|| {
                store
                    .page_in(tenant.id, receipt)
                    .and_then(|s| OnlineScaler::restore(s, config))
            })
            .expect("probe page-in");
        e.durable_ops += 2;
    }
}

fn episode(
    prepared: &Prepared,
    dirs: &Dirs,
    mode: Mode,
    mut probe: Option<&mut RestoreProbe>,
) -> Episode {
    dirs.clear(&dirs.episode);
    let mut fleet = dirs.restore(&dirs.base, &dirs.episode_pages);
    fleet.set_workers(mode.workers);
    let bus = Arc::clone(fleet.bus().expect("bus restored"));
    let first = 1 + SETUP_ROUNDS;
    for round in first..first + EPISODE_WARMUP {
        prepared.arrivals.push(&bus, round);
        fleet
            .run_round_uniform(now_of(prepared.origin, round), 0)
            .expect("round runs");
    }
    fleet.checkpoint(&dirs.episode).expect("full checkpoint");
    let probe_store = HibernationStore::with_storage(&dirs.probe_pages, dirs.storage());
    let mut e = Episode {
        mode,
        before: fleet.aggregate_stats(),
        residency_before: fleet.residency_stats(),
        ..Episode::default()
    };
    let deduped_before = fleet.deduped_plan_rounds();
    let mut twin: Option<TenantFleet> = None;
    let timed = first + EPISODE_WARMUP;
    for (k, round) in (timed..timed + EPISODE_ROUNDS).enumerate() {
        let (offered, accepted) = e.push.time(|| prepared.arrivals.push(&bus, round));
        e.offered += offered;
        e.accepted += accepted;
        let now = now_of(prepared.origin, round);
        let checkpoint_tick = (k + 1) % CHECKPOINT_EVERY == 0;
        let start = Instant::now();
        if mode.traced {
            e.drain.time(|| fleet.drain_bus().expect("drain runs"));
        }
        let results = e
            .run_round
            .time(|| fleet.run_round_uniform(now, 0).expect("round runs"));
        if checkpoint_tick {
            let manifest = e
                .checkpoint
                .time(|| fleet.checkpoint(&dirs.episode))
                .expect("checkpoint writes");
            let rewritten = manifest
                .shards
                .iter()
                .filter(|s| s.reused_from.is_none())
                .count();
            e.shards_rewritten.push(rewritten as f64);
            e.durable_ops += 1;
        }
        e.ticks.push(secs_since(start));
        e.tally.add(&results, &mut e.digest);

        if let Some(twin) = twin.as_mut() {
            let twin_bus = Arc::clone(twin.bus().expect("bus restored"));
            prepared.arrivals.push(&twin_bus, round);
            let twin_results = twin.run_round_uniform(now, 0).expect("twin round runs");
            if let Some(probe) = probe.as_deref_mut() {
                let (mut a, mut b) = (Digest::default(), Digest::default());
                Tally::default().add(&results, &mut a);
                Tally::default().add(&twin_results, &mut b);
                probe.identical &= a == b;
            }
        }
        if checkpoint_tick && mode.traced {
            probe_pages(&fleet, &probe_store, &mut e, k * 7);
        }
        if checkpoint_tick && k + 1 == EPISODE_ROUNDS / 2 {
            if let Some(probe) = probe.as_deref_mut() {
                dirs.clear(&dirs.twin_pages);
                twin = Some(dirs.restore(&dirs.episode, &dirs.twin_pages));
                probe.restored = true;
                probe.identical = true;
                e.durable_ops += 1;
            }
        }
        if twin.is_some() && k + 1 == EPISODE_ROUNDS / 2 + VERIFY_ROUNDS {
            twin = None;
        }
    }
    e.loop_s = e.push.total() + e.ticks.iter().sum::<f64>();
    for _ in 0..RESTORES {
        let start = Instant::now();
        let store = CheckpointStore::with_storage(&dirs.episode, dirs.storage());
        store.load(2).expect("checkpoint loads");
        e.load.push(secs_since(start));
        dirs.clear(&dirs.twin_pages);
        let start = Instant::now();
        let restored = dirs.restore(&dirs.episode, &dirs.twin_pages);
        e.restore.push(secs_since(start));
        drop(restored);
        e.durable_ops += 2;
    }
    e.after = fleet.aggregate_stats();
    e.residency_after = fleet.residency_stats();
    e.deduped = fleet.deduped_plan_rounds() - deduped_before;
    let io = fleet.checkpoint_io_stats();
    let pages = e.residency_after;
    e.durable_ops += pages.page_outs + pages.page_ins;
    e.durable_failures += io.retries
        + io.reuse_fallbacks
        + io.generation_fallbacks
        + pages.page_out_failures
        + pages.page_in_failures;
    e
}

/// The set-up samples a run takes on its schedule.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    cold: Vec<f64>,
}

impl Samples {
    /// Time one set-up; returns it.
    fn setup(&mut self, seed: u64, dirs: &Dirs) -> Prepared {
        let (prepared, setup_s) = time_setups(SETUP_REPEATS, || setup(seed, dirs));
        self.setup.push(setup_s);
        self.cold.push(prepared.cold_round_s);
        prepared
    }
}

pub fn run(settings: &Settings) -> Outcome {
    let mut out = Outcome::new();
    let dirs = Dirs::new();
    let mut samples = Samples::default();
    let prepared = samples.setup(settings.seed, &dirs);
    out.note(format!(
        "input: {TENANTS} duty-cycled tenants, {EPISODE_ROUNDS} rounds per episode, \
         checkpoint every {CHECKPOINT_EVERY} rounds, residency and sharing on"
    ));

    // Traced runs cycle the untraced mode, the traced mode and the traced
    // mode at 1 worker: overhead and pool speed-up are same-process
    // deltas, and all three must give the same plans.
    let modes: &[Mode] = if settings.trace {
        &[BASE, TRACED, ONE_WORKER]
    } else {
        &[BASE]
    };
    let mut schedule = Schedule::new(SETUP_SAMPLES, settings.seconds);
    let mut probe = RestoreProbe::default();
    let mut episodes: Vec<Episode> = Vec::new();
    let mut last = 0.0;
    while episodes.len() < 2 * modes.len() || schedule.fits(last) {
        let start = Instant::now();
        if schedule.due() {
            drop(samples.setup(settings.seed, &dirs));
        }
        let mode = modes[episodes.len() % modes.len()];
        let probe = episodes.is_empty().then_some(&mut probe);
        episodes.push(episode(&prepared, &dirs, mode, probe));
        last = secs_since(start);
    }
    for _ in 0..schedule.rest() {
        drop(samples.setup(settings.seed, &dirs));
    }
    out.note(setup_note(&samples.setup));

    let first = &episodes[0];
    out.check(
        "every episode, worker count and tracing mode gives the same plans",
        episodes.iter().all(|e| e.digest == first.digest),
    );
    out.check(
        "restored fleet plans bit-identically to the uninterrupted one",
        probe.identical && probe.restored,
    );
    out.attempted = episodes
        .iter()
        .map(|e| e.tally.attempted + e.offered + e.durable_ops)
        .sum();
    out.failed = episodes
        .iter()
        .map(|e| e.tally.failed + (e.offered - e.accepted) + e.durable_failures)
        .sum();
    let ok = first.tally.ok as f64;
    let hits = (first.after.plan_cache_hits - first.before.plan_cache_hits) as f64;
    let shared = (first.after.shared_planning_rounds - first.before.shared_planning_rounds) as f64;
    let woken = (first.residency_after.woken_total - first.residency_before.woken_total) as f64;
    out.note(format!(
        "digest: {:016x} over {EPISODE_ROUNDS} rounds x {TENANTS} tenants, {} episodes",
        first.digest.value(),
        episodes.len()
    ));
    out.note(format!(
        "reuse: plan-cache hits {:.4}, shared {:.4}, deduped {:.4} of {} planned tenant-rounds; \
         awake {:.4} of tenant-rounds; {:.2} wakes per round; checkpoints {:.4} of ticks",
        hits / ok,
        shared / ok,
        first.deduped as f64 / ok,
        first.tally.ok,
        ok / first.tally.attempted as f64,
        woken / EPISODE_ROUNDS as f64,
        1.0 / CHECKPOINT_EVERY as f64
    ));

    let untraced: Vec<&Episode> = episodes.iter().filter(|e| e.mode == BASE).collect();
    let ticks: Vec<f64> = untraced
        .iter()
        .flat_map(|e| e.ticks.iter().copied())
        .collect();
    if !settings.trace {
        let rates: Vec<f64> = untraced
            .iter()
            .map(|e| ratio(e.tally.ok as f64, e.loop_s))
            .collect();
        let p50s: Vec<f64> = untraced.iter().map(|e| median(&e.ticks)).collect();
        let restores: Vec<f64> = untraced
            .iter()
            .flat_map(|e| e.restore.iter().copied())
            .collect();
        end_to_end(
            &mut out,
            &EndToEnd {
                setup: &samples.setup,
                p50s: &p50s,
                ticks: &ticks,
                rates: &rates,
                restores: &restores,
            },
        );
        return out;
    }

    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.mode == TRACED).collect();
    let all = |f: fn(&Episode) -> &Spans| -> Vec<f64> {
        traced.iter().flat_map(|e| f(e).0.iter().copied()).collect()
    };
    let rounds = all(|e| &e.run_round);
    let traced_ticks: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.ticks.iter().copied())
        .collect();
    let tick_sum: f64 = traced_ticks.iter().sum();
    let span_sum: f64 = traced
        .iter()
        .map(|e| e.drain.total() + e.run_round.total() + e.checkpoint.total())
        .sum();
    let one_worker_rounds: Vec<f64> = episodes
        .iter()
        .filter(|e| e.mode == ONE_WORKER)
        .flat_map(|e| e.run_round.0.iter().copied())
        .collect();
    let shards: Vec<f64> = traced
        .iter()
        .flat_map(|e| e.shards_rewritten.iter().copied())
        .collect();
    let load = median(&traced.iter().map(|e| median(&e.load)).collect::<Vec<_>>());
    let restore = median(
        &traced
            .iter()
            .map(|e| median(&e.restore))
            .collect::<Vec<_>>(),
    );
    layer_metrics(
        &mut out,
        &LayerValues {
            refits: (first.after.refits - first.before.refits) as f64,
            drift_refits: (first.after.drift_refits - first.before.drift_refits) as f64,
            plan_cache_hit_ratio: hits / ok,
            cold_round_ms: median(&samples.cold) * 1e3,
            push_p50_ms: median(&all(|e| &e.push)) * 1e3,
            fleet_drain_p50_ms: median(&all(|e| &e.drain)) * 1e3,
            run_round_p50_ms: median(&rounds) * 1e3,
            run_round_p99_ms: percentile(&rounds, 0.99) * 1e3,
            shared_ratio: shared / ok,
            dedup_ratio: first.deduped as f64 / ok,
            pool_speedup: ratio(median(&one_worker_rounds), median(&rounds)),
            wakes_per_round: woken / EPISODE_ROUNDS as f64,
            page_ins: (first.residency_after.page_ins - first.residency_before.page_ins) as f64,
            page_outs: (first.residency_after.page_outs - first.residency_before.page_outs) as f64,
            page_out_p50_us: median(&all(|e| &e.page_out)) * 1e6,
            page_in_p50_us: median(&all(|e| &e.page_in)) * 1e6,
            checkpoint_write_p50_ms: median(&all(|e| &e.checkpoint)) * 1e3,
            shards_rewritten: median(&shards),
            checkpoint_load_ms: load * 1e3,
            checkpoint_rebuild_ms: (restore - load) * 1e3,
            checkpoint_share: 1.0 / CHECKPOINT_EVERY as f64,
            residual_ms: ratio(tick_sum - span_sum, traced_ticks.len() as f64) * 1e3,
            span_share: ratio(span_sum, tick_sum),
            overhead_pct: overhead_pct(&ticks, &traced_ticks),
            ..LayerValues::default()
        },
    );
    out
}
