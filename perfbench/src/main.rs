//! End-to-end benchmark of the RobustScaler serving stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` they
//! are the per-layer spans and counters. `run.py` builds this binary, runs
//! it in its own process per workload and adds the process's peak RSS.

mod churn;
mod common;
mod diurnal;
mod fleet;
mod layers;

use common::Settings;

const USAGE: &str = "usage: perfbench --workload <diurnal-1t|fleet-churn> \
--seed <n> --seconds <s> --trace <0|1>";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2);
}

fn bad_value(flag: &str, value: &str) -> ! {
    fail(&format!("bad value for {flag}: {value}"))
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .unwrap_or_else(|_| bad_value(&flag, &value)),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| bad_value(&flag, &value)),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad_value(&flag, &value),
                })
            }
            _ => fail(&format!("unknown flag {flag}")),
        }
    }
    let settings = Settings {
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: trace.unwrap_or_else(|| fail("--trace is required")),
    };
    let outcome = match workload.as_deref() {
        Some("diurnal-1t") => diurnal::run(&settings),
        Some("fleet-churn") => churn::run(&settings),
        Some(other) => fail(&format!("unknown workload {other}")),
        None => fail("--workload is required"),
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.to_json());
}
