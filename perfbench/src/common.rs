//! Shared pieces of the workloads: timing statistics, the plan
//! digest, the in-memory storage for durable state, and the result record
//! every workload fills in.

use robustscaler_online::{CheckpointStorage, OnlineError};
use robustscaler_scaling::PlanningRound;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Seconds since `start`, as `f64`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in (0, 1] of `values` (0 for an empty slice).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Share of a run's samples below [`quiet`]'s estimate.
pub const QUIET: f64 = 0.1;

/// The run's estimate of a time sampled at many moments of the run: its
/// [`QUIET`] percentile. Interference from a shared host only adds time,
/// and it comes in phases of tens of seconds in which every timing of the
/// fleet is 20-60% slower (the per-episode p50 ticks of one 12 s run of a
/// 100-tenant fleet at 1 worker stepped from 3.8 to 2.5 ms), so a median,
/// and a lower quartile too, moved with the share of the run the host spent
/// slow. This percentile follows the program's own cost once a tenth of
/// the run falls in a quiet phase, and still rests on several samples, not
/// on the single fastest.
pub fn quiet(samples: &[f64]) -> f64 {
    percentile(samples, QUIET)
}

/// Ticks per block of [`blocked_p99`]: ten of them lie beyond its p99.
pub const P99_BLOCK: usize = 1_000;

/// The [`quiet`] estimate, over consecutive blocks of `P99_BLOCK` ticks,
/// of each block's nearest-rank p99; `None` without one full block (the
/// percentile would rest on a handful of outliers).
pub fn blocked_p99(ticks: &[f64]) -> Option<f64> {
    let p99s: Vec<f64> = ticks
        .chunks_exact(P99_BLOCK)
        .map(|block| percentile(block, 0.99))
        .collect();
    (!p99s.is_empty()).then(|| quiet(&p99s))
}

/// The samples behind an untraced run's end-to-end metrics, each taken at
/// many moments of the run.
pub struct EndToEnd<'a> {
    /// Seconds of each set-up sample.
    pub setup: &'a [f64],
    /// Median tick of each episode, in seconds.
    pub p50s: &'a [f64],
    /// Every timed tick, in run order, in seconds.
    pub ticks: &'a [f64],
    /// `Ok` tenant plans per wall second of each episode's timed loop.
    pub rates: &'a [f64],
    /// Seconds of each timed restore.
    pub restores: &'a [f64],
}

/// Record the end-to-end metrics, each the [`quiet`] estimate of its
/// samples (for the rate, the mirror-image upper percentile); a run whose
/// p99 rests on fewer than ten ticks fails its check.
pub fn end_to_end(out: &mut Outcome, samples: &EndToEnd) {
    let p99 = blocked_p99(samples.ticks);
    out.check("p99 has ten samples beyond it", p99.is_some());
    out.metric("setup_s", quiet(samples.setup), "s");
    out.metric("round_p50_ms", quiet(samples.p50s) * 1e3, "ms");
    out.metric("round_p99_ms", p99.unwrap_or(0.0) * 1e3, "ms");
    out.metric(
        "tenant_rounds_per_s",
        percentile(samples.rates, 1.0 - QUIET),
        "1/s",
    );
    out.metric("restore_s", quiet(samples.restores), "s");
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// FNV-1a 64 over the decision creation times of a stream of plans: the
/// benchmark's plan digest. Equal digests mean bit-identical decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one tenant's round outcome: its decision times when it
    /// planned, or a marker byte when it did not.
    pub fn plan(&mut self, tenant: usize, plan: Option<&PlanningRound>) {
        self.bytes(&(tenant as u64).to_le_bytes());
        match plan {
            Some(round) => {
                self.bytes(&[1]);
                for decision in &round.decisions {
                    self.bytes(&decision.creation_time.to_bits().to_le_bytes());
                }
            }
            None => self.bytes(&[0]),
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Whether a tenant-round error is an expected non-failure: a cold tenant
/// skipping its round, or a tenant with no model yet.
pub fn is_benign(error: &OnlineError) -> bool {
    matches!(
        error,
        OnlineError::Hibernated { .. } | OnlineError::NotTrained
    )
}

/// Checkpoint and page storage held in process memory: a file tree of byte
/// buffers behind the program's public storage trait, the role tmpfs would
/// play. The benchmark reads and writes only inside its checkout, so it
/// cannot put durable state on `/dev/shm`, and on a disk-backed checkout
/// the program's own `OsStorage` would time fsync and writeback of a
/// shared virtual disk. Here checkpoint and page timings measure the
/// program's serialize, checksum, generation-swap and parse work, and a
/// run writes nothing to disk. The operations keep `std::fs` semantics:
/// writes and renames need an existing parent, hard links refuse an
/// existing target, and missing paths are `NotFound`.
#[derive(Debug, Default)]
pub struct MemStorage {
    nodes: Mutex<BTreeMap<PathBuf, Node>>,
}

#[derive(Debug, Clone)]
enum Node {
    Dir,
    File(Arc<Vec<u8>>),
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, path.display().to_string())
}

impl MemStorage {
    fn nodes(&self) -> MutexGuard<'_, BTreeMap<PathBuf, Node>> {
        self.nodes.lock().expect("storage lock poisoned")
    }

    fn file(&self, path: &Path) -> io::Result<Arc<Vec<u8>>> {
        match self.nodes().get(path) {
            Some(Node::File(bytes)) => Ok(Arc::clone(bytes)),
            _ => Err(not_found(path)),
        }
    }
}

/// Whether `path`'s parent exists as a directory in `nodes`.
fn parent_exists(nodes: &BTreeMap<PathBuf, Node>, path: &Path) -> bool {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            matches!(nodes.get(parent), Some(Node::Dir))
        }
        _ => true,
    }
}

/// Every key at or below `path`.
fn subtree(nodes: &BTreeMap<PathBuf, Node>, path: &Path) -> Vec<PathBuf> {
    nodes
        .range(path.to_path_buf()..)
        .take_while(|(key, _)| key.starts_with(path))
        .map(|(key, _)| key.clone())
        .collect()
}

impl CheckpointStorage for MemStorage {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut nodes = self.nodes();
        for dir in path.ancestors().filter(|p| !p.as_os_str().is_empty()) {
            match nodes.get(dir) {
                Some(Node::Dir) => break,
                Some(Node::File(_)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        dir.display().to_string(),
                    ))
                }
                None => {
                    nodes.insert(dir.to_path_buf(), Node::Dir);
                }
            }
        }
        Ok(())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut nodes = self.nodes();
        if !parent_exists(&nodes, path) || matches!(nodes.get(path), Some(Node::Dir)) {
            return Err(not_found(path));
        }
        nodes.insert(path.to_path_buf(), Node::File(Arc::new(bytes.to_vec())));
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut nodes = self.nodes();
        if !nodes.contains_key(from) || !parent_exists(&nodes, to) {
            return Err(not_found(from));
        }
        for key in subtree(&nodes, from) {
            let node = nodes.remove(&key).expect("key listed above");
            let moved = to.join(key.strip_prefix(from).expect("key is below from"));
            nodes.insert(moved, node);
        }
        Ok(())
    }

    fn hard_link(&self, src: &Path, dst: &Path) -> io::Result<()> {
        let bytes = self.file(src)?;
        let mut nodes = self.nodes();
        if nodes.contains_key(dst) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                dst.display().to_string(),
            ));
        }
        if !parent_exists(&nodes, dst) {
            return Err(not_found(dst));
        }
        nodes.insert(dst.to_path_buf(), Node::File(bytes));
        Ok(())
    }

    fn copy(&self, src: &Path, dst: &Path) -> io::Result<()> {
        let bytes = self.file(src)?;
        self.write(dst, &bytes)
    }

    fn remove_dir_all(&self, path: &Path) -> io::Result<()> {
        let mut nodes = self.nodes();
        if !matches!(nodes.get(path), Some(Node::Dir)) {
            return Err(not_found(path));
        }
        for key in subtree(&nodes, path) {
            nodes.remove(&key);
        }
        Ok(())
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.nodes().get(path) {
            Some(Node::Dir) => Ok(()),
            _ => Err(not_found(path)),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.file(path).map(|bytes| bytes.as_ref().clone())
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let nodes = self.nodes();
        if !matches!(nodes.get(path), Some(Node::Dir)) {
            return Err(not_found(path));
        }
        Ok(subtree(&nodes, path)
            .iter()
            .filter(|key| key.parent() == Some(path))
            .filter_map(|key| key.file_name()?.to_str().map(str::to_string))
            .collect())
    }

    fn file_size(&self, path: &Path) -> io::Result<u64> {
        self.file(path).map(|bytes| bytes.len() as u64)
    }
}

/// When a run's side measurements (set-up samples and restores) are due:
/// sample 0 before the timed loop, sample `k` once `k / count` of the time
/// budget has passed, so the samples meet different phases of a shared
/// host, not one. A run takes every sample, however fast the machine, so
/// the sample count is fixed.
#[derive(Debug)]
pub struct Schedule {
    start: Instant,
    seconds: f64,
    taken: usize,
    count: usize,
}

impl Schedule {
    /// A schedule of `count` samples over `seconds`, the first already
    /// taken.
    pub fn new(count: usize, seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            taken: 1,
            count,
        }
    }

    /// Whether the next sample is due; a due sample counts as taken.
    pub fn due(&mut self) -> bool {
        let at = self.seconds * self.taken as f64 / self.count as f64;
        let due = self.taken < self.count && secs_since(self.start) >= at;
        self.taken += usize::from(due);
        due
    }

    /// Whether a step of the timed loop as long as the last one, `last`
    /// seconds, still ends inside the time budget, so the loop does not
    /// overrun it by most of a step.
    pub fn fits(&self, last: f64) -> bool {
        secs_since(self.start) + last <= self.seconds
    }

    /// Samples still to take once the timed loop has ended; counts them
    /// as taken.
    pub fn rest(&mut self) -> usize {
        let rest = self.count.saturating_sub(self.taken);
        self.taken = self.count;
        rest
    }
}

/// Run `setup` `repeats` times back to back; returns the last result and
/// the mean seconds of one set-up.
pub fn time_setups<T>(repeats: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut last = setup();
    for _ in 1..repeats {
        drop(last);
        last = setup();
    }
    (last, secs_since(start) / repeats as f64)
}

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Traced run: per-layer spans instead of end-to-end metrics.
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (tenant-rounds, arrivals, durable operations).
    pub attempted: u64,
    /// Operations that failed, were dropped, or had to be retried.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Free-form `key: value` lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// A fresh outcome, correct until a check fails.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a correctness check; a failed one marks the run incorrect.
    pub fn check(&mut self, name: &str, passed: bool) {
        self.note(format!(
            "check {name}: {}",
            if passed { "ok" } else { "FAILED" }
        ));
        self.correct &= passed;
    }

    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        out
    }
}

/// Seconds of every span of one kind, in record order.
#[derive(Debug, Default, Clone)]
pub struct Spans(pub Vec<f64>);

impl Spans {
    /// Time `f` and record its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0.push(secs_since(start));
        out
    }

    /// Sum of the recorded spans, in seconds.
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// Median of per-repetition set-up times, with the raw values for the notes.
pub fn setup_note(times: &[f64]) -> String {
    let list: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    format!("setup_s samples: [{}]", list.join(", "))
}
