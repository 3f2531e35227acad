//! Pieces every workload shares: run settings, the correctness gate,
//! the steadiness self-check, and the end-to-end metric block.

use crate::ledger::Ledger;
use crate::stats::{self, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
    /// Scratch output inside the benchmark's own directory.
    pub out_dir: PathBuf,
}

impl RunCfg {
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// Requests attempted and failed, with the first failure messages.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Gate {
    pub fn fail(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.messages.push(msg);
    }

    /// Count one request: passes when every check in `problems` is
    /// absent.
    pub fn record(&mut self, problems: Vec<String>) {
        if problems.is_empty() {
            self.attempted += 1;
        } else {
            self.fail(problems.join("; "));
        }
    }
}

/// The first answer seen for each input; later answers must match it.
#[derive(Default)]
pub struct Fingerprints(BTreeMap<String, String>);

impl Fingerprints {
    /// `None` when `fp` matches the first answer for `input` (or is
    /// the first), otherwise a description of the mismatch.
    pub fn check(&mut self, input: &str, fp: String) -> Option<String> {
        match self.0.get(input) {
            None => {
                self.0.insert(input.to_string(), fp);
                None
            }
            Some(first) if *first == fp => None,
            Some(_) => Some(format!(
                "answer for input {input} differs from its first answer"
            )),
        }
    }
}

/// Deterministic work counts that must repeat exactly at one thread:
/// within a run across repeats of one input, and across runs of the
/// same workload and seed (the last run's counts are kept in the
/// benchmark's output directory).
#[derive(Default)]
pub struct Steadiness {
    counts: BTreeMap<String, BTreeMap<String, String>>,
    pub flags: Vec<String>,
}

impl Steadiness {
    pub fn observe(&mut self, input: &str, name: &str, value: String) {
        let per_input = self.counts.entry(input.to_string()).or_default();
        match per_input.get(name) {
            None => {
                per_input.insert(name.to_string(), value);
            }
            Some(first) if *first == value => {}
            Some(first) => {
                let flag = format!("{name} on input {input}: {first} then {value}");
                if !self.flags.contains(&flag) {
                    self.flags.push(flag);
                }
            }
        }
    }

    /// Compare with the previous run of the same workload, seed and
    /// mode, then store this run's counts for the next one.
    pub fn compare_with_previous(&mut self, cfg: &RunCfg) {
        // Debug builds add cross-validation calls: keep their counts apart.
        let build = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let path = cfg.out_dir.join(format!(
            "counts-{}-seed{}-trace{}-{build}.txt",
            cfg.workload,
            cfg.seed,
            u8::from(cfg.trace)
        ));
        let mut now = String::new();
        for (input, names) in &self.counts {
            for (name, value) in names {
                now.push_str(&format!("{input} {name} {value}\n"));
            }
        }
        if let Ok(before) = std::fs::read_to_string(&path) {
            let old: BTreeMap<&str, &str> =
                before.lines().filter_map(|l| l.rsplit_once(' ')).collect();
            for line in now.lines() {
                if let Some((key, value)) = line.rsplit_once(' ') {
                    if let Some(prev) = old.get(key) {
                        if *prev != value {
                            self.flags
                                .push(format!("{key}: {prev} in the previous run, {value} now"));
                        }
                    }
                }
            }
        }
        let _ = std::fs::write(&path, now);
    }
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub gate: Gate,
    pub threads: usize,
    pub notes: Vec<String>,
    pub flags: Vec<String>,
    pub spans_jsonl: Option<String>,
}

impl Outcome {
    /// A run whose set-up failed: no metrics, one failed request.
    pub fn failed(threads: usize, msg: String) -> Outcome {
        let mut gate = Gate::default();
        gate.fail(msg);
        Outcome {
            e2e: Metrics::default(),
            layers: Metrics::default(),
            gate,
            threads,
            notes: Vec::new(),
            flags: Vec::new(),
            spans_jsonl: None,
        }
    }
}

/// Timings of the untraced requests of a run.
#[derive(Default)]
pub struct Timed {
    pub latencies_ms: Vec<f64>,
    pub traced_latencies_ms: Vec<f64>,
    pub completed: u64,
    pub loop_wall: Duration,
    pub loop_cpu: Duration,
    pub invocations: u64,
}

/// The end-to-end block every workload reports.
pub fn e2e_metrics(
    timed: &Timed,
    whatif_calls: f64,
    quality_pct: f64,
    setup_samples: &[f64],
    gate: &Gate,
    notes: &mut Vec<String>,
) -> Metrics {
    let mut m = Metrics::default();
    let (tail, pct, n) = stats::tail(&timed.latencies_ms);
    m.put("latency_ms.p50", stats::median(&timed.latencies_ms), "ms");
    m.put("latency_ms.tail", tail, "ms");
    notes.push(format!(
        "latency_ms.tail is p{pct:.1} of {n} untraced requests"
    ));
    let wall = timed.loop_wall.as_secs_f64();
    m.put(
        "throughput_per_s",
        stats::ratio(timed.completed as f64, wall),
        "1/s",
    );
    m.put("whatif_calls", whatif_calls, "calls/request");
    m.put("quality_pct", quality_pct, "%");
    notes.push(format!(
        "failed_ratio {} ({} of {} requests)",
        stats::ratio(gate.failed as f64, gate.attempted as f64),
        gate.failed,
        gate.attempted
    ));
    m.put("setup_s", stats::median(setup_samples), "s");
    m.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    m
}

/// Per-request self time of every ledger row, the rows' sum, and the
/// traced request wall they must add up to.
pub fn ledger_rows(
    ledger: &Ledger,
    requests: usize,
    layers: &mut Metrics,
    notes: &mut Vec<String>,
) {
    let (by_name, wall) = ledger.self_ms_by_name();
    let n = requests.max(1) as f64;
    let mut sum = 0.0;
    notes.push(format!(
        "ledger: self time per traced request ({requests} requests)"
    ));
    for (name, total) in &by_name {
        notes.push(format!("  {:<30} {:>12.4} ms", name, total / n));
        sum += total / n;
    }
    notes.push(format!(
        "  {:<30} {:>12.4} ms (traced request wall {:.4} ms)",
        "sum of self times",
        sum,
        wall / n
    ));
    layers.put("ledger.request_wall_ms", wall / n, "ms");
    layers.put("ledger.self_sum_ms", sum, "ms");
}

/// Run `setup` [`SETUP_REPEATS`] times, keeping the last result and
/// every duration in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for i in 0..SETUP_REPEATS {
        // Drop the previous set-up before timing the next one.
        drop(last.take());
        let start = Instant::now();
        let value = setup(i);
        samples.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (last.expect("at least one set-up"), samples)
}

/// The share by which traced requests are slower than untraced ones.
pub fn trace_overhead_pct(timed: &Timed) -> f64 {
    let untraced = stats::median(&timed.latencies_ms);
    let traced = stats::median(&timed.traced_latencies_ms);
    if untraced > 0.0 && traced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}
