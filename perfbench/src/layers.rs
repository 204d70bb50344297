//! The per-layer metrics a traced run reports, in `BENCHMARK.json` order.

use crate::common::{median, ratio, Outcome};

/// Tracing overhead: how much slower the median traced tick is than the
/// median untraced tick of the same run, in percent.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    let base = median(untraced);
    ratio(median(traced) - base, base) * 100.0
}

/// Every per-layer metric. A workload that does not enter a layer leaves
/// its value at 0.
#[derive(Debug, Default)]
pub struct LayerValues {
    pub drain_p50_us: f64,
    pub refit_p50_ms: f64,
    pub refits: f64,
    pub drift_refits: f64,
    pub plan_round_p50_ms: f64,
    pub plan_round_p99_ms: f64,
    pub plan_cache_hit_ratio: f64,
    pub engine_self_s: f64,
    pub template_fit_s: f64,
    pub cold_round_ms: f64,
    pub push_p50_ms: f64,
    pub fleet_drain_p50_ms: f64,
    pub run_round_p50_ms: f64,
    pub run_round_p99_ms: f64,
    pub shared_ratio: f64,
    pub dedup_ratio: f64,
    pub pool_speedup: f64,
    pub wakes_per_round: f64,
    pub page_ins: f64,
    pub page_outs: f64,
    pub page_out_p50_us: f64,
    pub page_in_p50_us: f64,
    pub checkpoint_write_p50_ms: f64,
    pub shards_rewritten: f64,
    pub checkpoint_load_ms: f64,
    pub checkpoint_rebuild_ms: f64,
    pub hit_rate: f64,
    pub relative_cost: f64,
    pub refit_share: f64,
    pub checkpoint_share: f64,
    pub residual_ms: f64,
    pub span_share: f64,
    pub overhead_pct: f64,
}

/// Emit the per-layer metrics in `BENCHMARK.json` order.
pub fn layer_metrics(out: &mut Outcome, v: &LayerValues) {
    let rows: [(&str, f64, &'static str); 33] = [
        ("online.ingest.drain_p50_us", v.drain_p50_us, "us"),
        ("nhpp.admm.refit_p50_ms", v.refit_p50_ms, "ms"),
        ("nhpp.admm.refits", v.refits, "count"),
        ("nhpp.admm.drift_refits", v.drift_refits, "count"),
        ("online.scaler.plan_round_p50_ms", v.plan_round_p50_ms, "ms"),
        ("online.scaler.plan_round_p99_ms", v.plan_round_p99_ms, "ms"),
        (
            "online.scaler.plan_cache_hit_ratio",
            v.plan_cache_hit_ratio,
            "ratio",
        ),
        ("simulator.engine.self_s", v.engine_self_s, "s"),
        ("nhpp.admm.template_fit_s", v.template_fit_s, "s"),
        ("online.fleet.cold_round_ms", v.cold_round_ms, "ms"),
        ("online.ingest.push_p50_ms", v.push_p50_ms, "ms"),
        ("online.ingest.drain_p50_ms", v.fleet_drain_p50_ms, "ms"),
        ("online.fleet.run_round_p50_ms", v.run_round_p50_ms, "ms"),
        ("online.fleet.run_round_p99_ms", v.run_round_p99_ms, "ms"),
        ("online.sharing.shared_ratio", v.shared_ratio, "ratio"),
        ("online.sharing.dedup_ratio", v.dedup_ratio, "ratio"),
        ("parallel.pool.speedup", v.pool_speedup, "ratio"),
        (
            "online.residency.wakes_per_round",
            v.wakes_per_round,
            "count",
        ),
        ("online.residency.page_ins", v.page_ins, "count"),
        ("online.residency.page_outs", v.page_outs, "count"),
        (
            "online.hibernation.page_out_p50_us",
            v.page_out_p50_us,
            "us",
        ),
        ("online.hibernation.page_in_p50_us", v.page_in_p50_us, "us"),
        (
            "online.checkpoint.write_p50_ms",
            v.checkpoint_write_p50_ms,
            "ms",
        ),
        (
            "online.checkpoint.shards_rewritten",
            v.shards_rewritten,
            "count",
        ),
        ("online.checkpoint.load_ms", v.checkpoint_load_ms, "ms"),
        (
            "online.checkpoint.rebuild_ms",
            v.checkpoint_rebuild_ms,
            "ms",
        ),
        ("simulator.qos.hit_rate", v.hit_rate, "ratio"),
        ("simulator.qos.relative_cost", v.relative_cost, "ratio"),
        ("bench.tick.refit_share", v.refit_share, "ratio"),
        ("bench.tick.checkpoint_share", v.checkpoint_share, "ratio"),
        ("online.fleet.residual_ms", v.residual_ms, "ms"),
        ("bench.trace.span_share", v.span_share, "ratio"),
        ("bench.trace.overhead_pct", v.overhead_pct, "%"),
    ];
    for (name, value, unit) in rows {
        out.metric(name, value, unit);
    }
}
