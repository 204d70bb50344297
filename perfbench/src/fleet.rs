//! The fleet workload's serving configuration, its per-tenant arrival
//! streams, and the bookkeeping of one round's outcomes.

use crate::common::{is_benign, Digest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use robustscaler_core::{RobustScalerConfig, RobustScalerVariant};
use robustscaler_nhpp::{sample_arrivals, Forecaster, NhppModel};
use robustscaler_online::{ArrivalBus, OnlineConfig, OnlineError};
use robustscaler_scaling::PlanningRound;

/// Seconds between planning rounds.
pub const INTERVAL: f64 = 10.0;

/// The fleet's serving configuration: the HP rule at 0.9 with
/// `fleet_demo`'s Monte Carlo budget. Scheduled refits are a day apart, so
/// none falls inside a run: the fleet measures serving, not training.
pub fn fleet_config() -> OnlineConfig {
    let mut pipeline =
        RobustScalerConfig::for_variant(RobustScalerVariant::HittingProbability { target: 0.9 });
    pipeline.planning_interval = INTERVAL;
    pipeline.monte_carlo_samples = 250;
    pipeline.mean_processing = 20.0;
    let mut config = OnlineConfig::new(pipeline);
    config.refit_interval = 86_400.0;
    config
}

/// SplitMix64 finalizer: decorrelates derived seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1) from a derived seed.
pub fn unit(seed: u64) -> f64 {
    (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Every round's arrivals for every tenant, generated once in set-up.
pub struct Arrivals {
    /// Per round: all arrival times, tenant after tenant.
    times: Vec<Vec<f64>>,
    /// Per round: `(tenant, start, end)` ranges into `times`.
    ranges: Vec<Vec<(usize, usize, usize)>>,
}

impl Arrivals {
    /// Draw each tenant's arrivals from the intensity its own forecaster
    /// predicts, for `rounds` rounds ending at `first_now + k * INTERVAL`.
    /// Round `k` holds the arrivals in `[now_k - INTERVAL, now_k)`. Each
    /// tenant's stream depends only on `(seed, tenant)`.
    pub fn generate(
        models: &[NhppModel],
        config: &OnlineConfig,
        seed: u64,
        first_now: f64,
        rounds: usize,
    ) -> Self {
        let from = first_now - INTERVAL;
        let to = from + INTERVAL * rounds as f64;
        let mut times = vec![Vec::new(); rounds];
        let mut ranges = vec![Vec::new(); rounds];
        for (tenant, model) in models.iter().enumerate() {
            let intensity = Forecaster::new(model.clone(), config.pipeline.forecast)
                .and_then(|f| f.forecast(from, to - from))
                .expect("every tenant model forecasts");
            let mut rng = StdRng::seed_from_u64(mix(seed ^ ((tenant as u64) << 24)));
            let stream = sample_arrivals(&intensity, from, to, &mut rng);
            let mut rest = stream.as_slice();
            while let Some(&first) = rest.first() {
                let round = (((first - from) / INTERVAL) as usize).min(rounds - 1);
                let end = from + INTERVAL * (round + 1) as f64;
                let count = rest.iter().take_while(|&&t| t < end).count().max(1);
                let buf: &mut Vec<f64> = &mut times[round];
                ranges[round].push((tenant, buf.len(), buf.len() + count));
                buf.extend_from_slice(&rest[..count]);
                rest = &rest[count..];
            }
        }
        Self { times, ranges }
    }

    /// Push round `round`'s arrivals on `bus`, one batch per tenant.
    /// Returns `(offered, accepted)`.
    pub fn push(&self, bus: &ArrivalBus, round: usize) -> (u64, u64) {
        let times = &self.times[round];
        let mut accepted = 0;
        for &(tenant, start, end) in &self.ranges[round] {
            accepted += bus
                .push_batch(tenant, &times[start..end])
                .expect("tenant index in range") as u64;
        }
        (times.len() as u64, accepted)
    }
}

/// Counts of one or more rounds' tenant outcomes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Tenant-rounds that returned a plan (planned, cached or adopted).
    pub ok: u64,
    /// Tenant-rounds that failed for a reason other than being cold or
    /// untrained.
    pub failed: u64,
    /// Tenant-rounds attempted.
    pub attempted: u64,
}

impl Tally {
    /// Fold one round's outcomes into the tally and the digest.
    pub fn add(&mut self, results: &[Result<PlanningRound, OnlineError>], digest: &mut Digest) {
        for (tenant, result) in results.iter().enumerate() {
            self.attempted += 1;
            match result {
                Ok(plan) => {
                    self.ok += 1;
                    digest.plan(tenant, Some(plan));
                }
                Err(error) => {
                    self.failed += u64::from(!is_benign(error));
                    digest.plan(tenant, None);
                }
            }
        }
    }
}
