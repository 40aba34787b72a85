//! Metric names and units, the order statistics behind them, and the
//! result line.
//!
//! The two tables below are the benchmark's interface: `BENCHMARK.json`
//! at the repository root lists exactly these names and units (a test
//! keeps the two in step). An untraced run prints every end-to-end metric,
//! a traced run every per-layer metric; a layer a workload does not load
//! reads 0.

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_tail_ms", "ms"),
    ("cpu_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("arith.build_ms", "ms"),
    ("arith.gates", "count"),
    ("arith.qubits", "count"),
    ("compile.lower_ms", "ms"),
    ("compile.peephole_ms", "ms"),
    ("compile.fusion_ms", "ms"),
    ("compile.reclaim_ms", "ms"),
    ("compile.total_ms", "ms"),
    ("compile.share", "ratio"),
    ("compile.instrs_per_s", "1/s"),
    ("compile.lowered_instrs", "count"),
    ("compile.emitted_instrs", "count"),
    ("compile.removed", "count"),
    ("compile.fused_blocks", "count"),
    ("compile.dead_qubits_reclaimed", "count"),
    ("compile.segments", "count"),
    ("verify.validate_ms", "ms"),
    ("verify.findings", "count"),
    ("plan.profile_ms", "ms"),
    ("plan.plan_ms", "ms"),
    ("plan.dense", "count"),
    ("plan.sparse", "count"),
    ("plan.phase", "count"),
    ("plan.mispredict", "ratio"),
    ("exec.phase.run_ms", "ms"),
    ("exec.phase.gates", "count"),
    ("exec.phase.gates_per_s", "1/s"),
    ("exec.phase.occupancy_peak", "count"),
    ("exec.phase.peak_amplitudes", "count"),
    ("exec.tracker.run_ms", "ms"),
    ("exec.tracker.gates", "count"),
    ("exec.tracker.gates_per_s", "1/s"),
    ("exec.tracker.occupancy_peak", "count"),
    ("exec.tracker.peak_amplitudes", "count"),
    ("exec.dense.run_ms", "ms"),
    ("exec.dense.gates", "count"),
    ("exec.dense.gates_per_s", "1/s"),
    ("exec.dense.occupancy_peak", "count"),
    ("exec.dense.peak_amplitudes", "count"),
    ("exec.auto.run_ms", "ms"),
    ("exec.auto.gates", "count"),
    ("exec.auto.gates_per_s", "1/s"),
    ("exec.auto.occupancy_peak", "count"),
    ("exec.auto.peak_amplitudes", "count"),
    ("exec.interp_ms", "ms"),
    ("exec.compiled_over_interp", "ratio"),
    ("kernels.bytes_computed", "B"),
    ("kernels.gb_per_s", "GB/s"),
    ("branch.tree_ms", "ms"),
    ("branch.leaves", "count"),
    ("branch.fork_nodes", "count"),
    ("branch.pruned_mass", "ratio"),
    ("branch.ms_per_leaf", "ms"),
    ("shots.run_ms", "ms"),
    ("shots.us_per_shot", "us"),
    ("shots.threads", "count"),
    ("shots.distinct_records", "count"),
    ("shots.parallel_ms", "ms"),
    ("shots.parallel_speedup", "ratio"),
    ("hybrid.switches", "count"),
    ("hybrid.peak_occupancy", "count"),
    ("hybrid.dense_ms", "ms"),
    ("hybrid.vs_dense", "ratio"),
    ("trace.job_ms", "ms"),
    ("trace.untraced_job_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans_per_job", "count"),
];

/// The median (mean of the middle pair for even counts); 0 for no data.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The sample with `beyond` samples larger than it, or the largest when
/// there are not that many; 0 for no data.
pub fn largest_but(values: &[f64], beyond: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n > beyond => v[n - 1 - beyond],
        n => v[n - 1],
    }
}

/// The highest percentile with [`TAIL_BEYOND`] samples beyond it: the
/// `(TAIL_BEYOND + 1)`-th largest sample, returned with its percentile.
/// With too few samples for that, the maximum at percentile 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let pct = if n > TAIL_BEYOND {
        100.0 * (n - TAIL_BEYOND) as f64 / n as f64
    } else {
        100.0
    };
    (largest_but(values, TAIL_BEYOND), pct)
}

/// The last line of every run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|x| **x > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-12);
        assert_eq!(tail(&[5.0, 7.0]), (7.0, 100.0));
        assert_eq!(tail(&[]), (0.0, 100.0));
        assert_eq!(largest_but(&[3.0, 9.0, 1.0, 4.0], 1), 4.0);
        assert_eq!(largest_but(&[3.0], 1), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("a", "ms", 1.5), ("b", "s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
