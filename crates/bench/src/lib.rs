//! # pdt-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section 4),
//! plus a parallel-scaling run. Every binary prints the rows/series
//! the paper reports and writes machine-readable JSON to `results/`.
//!
//! | binary       | reproduces |
//! |--------------|------------|
//! | `exp_table1` | Table 1 — index/view requests for the TPC-H workload |
//! | `exp_table2` | Table 2 — databases and workloads of the corpus |
//! | `exp_table3` | Table 3 — tuning time, CTT vs PTT, top-10 workloads |
//! | `exp_fig3`   | Fig. 3 — bottom-up best-configuration-over-time |
//! | `exp_fig4`   | Fig. 4 — relaxation size/cost trajectory |
//! | `exp_fig6`   | Fig. 6 — candidate transformations per iteration |
//! | `exp_fig8`   | Fig. 8 — ΔImprovement, no constraints |
//! | `exp_fig9`   | Fig. 9 — ΔImprovement, UPDATE workloads |
//! | `exp_fig10`  | Fig. 10 — quality vs storage constraint |
//! | `exp_ablation` | design-choice ablations (DESIGN.md §5) |
//! | `exp_parallel` | thread/cache scaling → `BENCH_parallel.json` |
//! | `exp_incremental` | historical: incremental candidate engine on/off; removed with the reference modes (EXPERIMENTS.md keeps its numbers) |
//! | `exp_derived` | historical: derived what-if costing on/off; removed with the reference modes |
//! | `exp_hotpath` | historical: flat hot path on/off; removed with the reference modes |
//! | `exp_budget` | what-if call-budget frontier → `BENCH_budget.json` |
//! | `exp_serve_shared` | cross-session shared what-if store → `BENCH_shared.json` |
//! | `exp_replay` | warm re-tuning under workload drift → `BENCH_replay.json` |

pub mod json;

use json::ToJson;
use pdt_catalog::Database;
use pdt_sql::Statement;
use pdt_tuner::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Directory where experiment outputs land.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("PDT_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("create results dir");
    path
}

/// Persist a JSON result next to the printed output.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().pretty()).expect("write results");
    eprintln!("[saved {}]", path.display());
}

/// Timed repeats for every wall-clock row an experiment reports; the
/// reported value is the median.
pub const TIMING_REPEATS: usize = 3;

/// Median-of-[`TIMING_REPEATS`] wall-clock milliseconds of `f`. The
/// closure's result is discarded — run the workload once beforehand if
/// its output (report, trace) is needed for anything besides timing.
pub fn median_wall_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut walls = Vec::with_capacity(TIMING_REPEATS);
    for _ in 0..TIMING_REPEATS {
        let start = std::time::Instant::now();
        let _ = f();
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

/// Render a fixed-width ASCII table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:width$} ", h, width = widths[i]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// A simple ASCII histogram of ΔImprovement values (Fig. 8/9 style:
/// one bar per workload, sorted descending).
pub fn render_delta_bars(deltas: &[f64]) -> String {
    let mut sorted = deltas.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let mut out = String::new();
    let scale = 0.5; // one char per 2 percentage points
    for d in sorted {
        let n = (d.abs() / scale).round().min(60.0) as usize;
        if d >= 0.0 {
            let _ = writeln!(
                out,
                "{:>7.2} | {}",
                d,
                "#".repeat(n.max(usize::from(d > 0.05)))
            );
        } else {
            let _ = writeln!(out, "{:>7.2} | {}", d, "-".repeat(n));
        }
    }
    out
}

/// Summary statistics for a ΔImprovement panel.
#[derive(Debug)]
pub struct DeltaSummary {
    pub workloads: usize,
    pub ties_within_1pct: usize,
    pub ptt_wins_over_1pct: usize,
    pub ptt_losses_over_1pct: usize,
    pub max_delta: f64,
    pub min_delta: f64,
    pub mean_delta: f64,
}

json_struct!(DeltaSummary {
    workloads,
    ties_within_1pct,
    ptt_wins_over_1pct,
    ptt_losses_over_1pct,
    max_delta,
    min_delta,
    mean_delta,
});

impl DeltaSummary {
    pub fn from(deltas: &[f64]) -> DeltaSummary {
        let n = deltas.len().max(1);
        DeltaSummary {
            workloads: deltas.len(),
            ties_within_1pct: deltas.iter().filter(|d| d.abs() <= 1.0).count(),
            ptt_wins_over_1pct: deltas.iter().filter(|d| **d > 1.0).count(),
            ptt_losses_over_1pct: deltas.iter().filter(|d| **d < -1.0).count(),
            max_delta: deltas.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            min_delta: deltas.iter().copied().fold(f64::INFINITY, f64::min),
            mean_delta: deltas.iter().sum::<f64>() / n as f64,
        }
    }
}

/// Bind statements, skipping the (rare) generated statements that fall
/// outside the supported subset, and panicking only if nothing binds.
pub fn bind_workload(db: &Database, statements: &[Statement]) -> Workload {
    Workload::bind(db, statements).expect("corpus workloads always bind")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["a", "long header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("| a "));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn delta_summary_counts() {
        let s = DeltaSummary::from(&[0.0, 0.5, 3.0, -2.0, 12.0]);
        assert_eq!(s.ties_within_1pct, 2);
        assert_eq!(s.ptt_wins_over_1pct, 2);
        assert_eq!(s.ptt_losses_over_1pct, 1);
        assert_eq!(s.max_delta, 12.0);
    }

    #[test]
    fn bars_render_negative_and_positive() {
        let bars = render_delta_bars(&[5.0, -3.0]);
        assert!(bars.contains('#'));
        assert!(bars.contains('-'));
    }
}
