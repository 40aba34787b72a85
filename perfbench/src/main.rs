//! One benchmark for the MBU simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload qft_modadd --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run draws its job inputs from `--seed`, runs closed-loop jobs from
//! this one process for `--seconds` seconds, checks every job's output and
//! prints, as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! See `README.md` beside this file for the workloads and the metrics.

mod metrics;
mod sys;
mod trace;
mod workloads;

use metrics::{largest_but, median, result_line, tail, END_TO_END, PER_LAYER};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{DenseChain, MbuShots, MixedAuto, QftModAdd, Workload};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["qft_modadd", "mbu_shots", "dense_chain", "mixed_auto"];

/// Set-ups per untraced run; see `untraced` for how `setup_s` uses them.
const SETUP_REPS: usize = 11;

/// Wall-clock cap on one run, set-up included: the timed loop stops here
/// even if the jobs have not yet filled the window.
const MAX_RUN: Duration = Duration::from_secs(150);

/// Failure messages echoed to stderr per run (all failures are counted).
const SHOWN_FAILURES: u64 = 5;

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run measured.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// Human-readable notes printed before the result line.
    notes: Vec<String>,
    tracer: Tracer,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn count(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= SHOWN_FAILURES {
                eprintln!("perfbench: {what} failed: {e}");
            }
        }
    }
}

/// One job input with its golden (or the reason the golden failed).
type Case<W> = (
    <W as Workload>::Input,
    Result<<W as Workload>::Golden, String>,
);

/// One job, timed from its first call to its output, then checked against
/// the golden. Wall and CPU time cover the job only, never the check.
fn attempt<W: Workload>(
    w: &W,
    case: &Case<W>,
    tr: &mut Tracer,
) -> (f64, f64, Result<W::Output, String>) {
    let (input, golden) = case;
    let cpu0 = sys::cpu_ms();
    let t0 = Instant::now();
    let out = tr.span("job", |tr| w.job(input, tr));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = sys::cpu_ms() - cpu0;
    let checked = out.and_then(|o| {
        let golden = golden.as_ref().map_err(|e| format!("no golden: {e}"))?;
        w.check(input, golden, &o).map(|()| o)
    });
    (wall_ms, cpu_ms, checked)
}

/// What one set-up measured.
struct Setup<W: Workload> {
    pool: Vec<Case<W>>,
    /// Set-up time in seconds.
    secs: f64,
    /// Peak resident set size of the warm-up job, in MiB.
    job_peak_mb: f64,
    /// Whether the kernel accepted the `VmHWM` reset before the warm-up.
    peak_reset: bool,
}

/// Set-up: draw the input pool from the seed, compute every input's
/// golden, then run one untimed, checked warm-up job. The heap is trimmed
/// and `VmHWM` reset between the goldens and the warm-up job (outside the
/// set-up time), so the warm-up job's peak is the job's own. A set-up
/// counts as one attempt, failed if a golden or the warm-up job failed.
fn setup<W: Workload>(w: &W, seed: u64, tally: &mut Tally) -> Setup<W> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Case<W>> = (0..w.pool())
        .map(|i| {
            let input = w.draw(&mut rng, i);
            let golden = w.golden(&input);
            (input, golden)
        })
        .collect();
    let goldens_s = t0.elapsed().as_secs_f64();
    let peak_reset = sys::reset_peak_rss();
    let t1 = Instant::now();
    let (_, _, warm) = attempt(w, &pool[0], &mut Tracer::off());
    let secs = goldens_s + t1.elapsed().as_secs_f64();
    let job_peak_mb = sys::peak_rss_mb();
    let goldens = match pool.iter().find_map(|(_, g)| g.as_ref().err()) {
        Some(e) => Err(format!("golden: {e}")),
        None => Ok(()),
    };
    tally.count("set-up", goldens.and(warm.map(|_| ())));
    Setup {
        pool,
        secs,
        job_peak_mb,
        peak_reset,
    }
}

fn untraced<W: Workload>(w: &W, args: &Args, start: Instant) -> Report {
    let mut tally = Tally::default();
    let first = setup(w, args.seed, &mut tally);
    let to_first_job_s = start.elapsed().as_secs_f64();
    let pool = first.pool;
    // The first set-up comes before the first timed job. The others are
    // spread evenly through the window, between jobs, so that they meet
    // the host in the same mix of quiet and contended states as the jobs
    // do. `setup_s` is the slowest set-up but one: like the job tail, it
    // lands in the contended state in almost every run, whereas a median
    // follows whichever state dominates the run. `peak_rss_mb` is the
    // first warm-up job's peak, a job's own footprint in a fresh process:
    // later jobs start from a heap that earlier jobs fragmented, and their
    // peaks climb by 4 MiB steps to a different height in each run.
    let mut setups = vec![first.secs];
    let mut peaks = vec![first.job_peak_mb];
    let peak_reset = first.peak_reset;
    let mut off = Tracer::off();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let window_ms = args.seconds as f64 * 1e3;
    let mut busy_ms = 0.0;
    // Until the jobs alone have run for the window, or the run has used
    // its wall-clock cap.
    while walls.is_empty() || (busy_ms < window_ms && start.elapsed() < MAX_RUN) {
        if setups.len() < SETUP_REPS
            && busy_ms >= window_ms * setups.len() as f64 / SETUP_REPS as f64
        {
            let again = setup(w, args.seed, &mut tally);
            setups.push(again.secs);
            peaks.push(again.job_peak_mb);
        }
        let i = walls.len();
        let (wall, cpu, out) = attempt(w, &pool[i % pool.len()], &mut off);
        tally.count(&format!("job {i}"), out.map(|_| ()));
        busy_ms += wall;
        walls.push(wall);
        cpus.push(cpu);
    }
    let peak_mb = peaks[0];
    let (tail_ms, tail_pct) = tail(&walls);
    let (cpu_tail_ms, _) = tail(&cpus);
    let values = [largest_but(&setups, 1), tail_ms, cpu_tail_ms, peak_mb];
    let jobs = walls.len() as f64;
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect(),
        notes: vec![
            format!(
                "{} set-ups (s): {setups:?}; warm-up job peaks (MiB): {peaks:?}; process \
                 start to the first timed job {to_first_job_s} s{}",
                setups.len(),
                if peak_reset {
                    ""
                } else {
                    "; VmHWM could not be reset, so peak_rss_mb includes set-up"
                }
            ),
            format!(
                "{} timed jobs; the tails are p{tail_pct:.2} (the {}-th largest value)",
                walls.len(),
                metrics::TAIL_BEYOND + 1
            ),
            format!(
                "not contract metrics (they swing with host contention): job_p50_ms {} \
                 jobs_per_s {} cpu_ms_per_job {}",
                median(&walls),
                jobs / (busy_ms / 1e3),
                cpus.iter().sum::<f64>() / jobs
            ),
        ],
        tracer: off,
    }
}

/// The traced run: each iteration runs a job untraced, then the same job
/// traced, then the probe's side measurements. Per-layer metrics are
/// medians over the traced jobs.
fn traced<W: Workload>(w: &W, args: &Args) -> Report {
    let mut tally = Tally::default();
    let pool = setup(w, args.seed, &mut tally).pool;
    let mut off = Tracer::off();
    let mut tr = Tracer::on();
    let window = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let mut i = 0usize;
    while i == 0 || t0.elapsed() < window {
        let case = &pool[i % pool.len()];
        let (untraced_ms, _, out) = attempt(w, case, &mut off);
        tally.count(&format!("job {i} (untraced twin)"), out.map(|_| ()));
        tr.begin_job(i as u64);
        let spans_before = tr.spans().len();
        let (traced_ms, _, out) = attempt(w, case, &mut tr);
        let probed = out.and_then(|o| w.probe(&case.0, &o, &mut tr));
        tally.count(&format!("job {i} (traced)"), probed);
        tr.record("trace.untraced_job_ms", untraced_ms);
        tr.record("trace.job_ms", traced_ms);
        tr.record(
            "trace.spans_per_job",
            (tr.spans().len() - spans_before) as f64,
        );
        i += 1;
    }
    let overhead = median(&tr.series("trace.job_ms")) - median(&tr.series("trace.untraced_job_ms"));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_ms" {
                overhead
            } else {
                median(&tr.series(name))
            };
            (name, unit, value)
        })
        .collect();
    Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes: vec![format!("{i} traced jobs, each after an untraced twin")],
        tracer: tr,
    }
}

fn drive<W: Workload>(w: &W, args: &Args, start: Instant) -> Report {
    if args.trace {
        traced(w, args)
    } else {
        untraced(w, args, start)
    }
}

/// The full-size workload named `name`.
fn run_named(name: &str, args: &Args, start: Instant) -> Report {
    match name {
        "qft_modadd" => drive(&QftModAdd { n: 64 }, args, start),
        "mbu_shots" => drive(&MbuShots { n: 64, shots: 1024 }, args, start),
        "dense_chain" => drive(&DenseChain { n: 3, stages: 2 }, args, start),
        _ => drive(&MixedAuto { n: 5 }, args, start),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let knobs = sys::mbu_env_vars();
    if !knobs.is_empty() {
        eprintln!(
            "perfbench: refusing to record while {} is set: MBU_* knobs change the program \
             under test",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let report = run_named(&args.workload, &args, start);

    println!(
        "# provenance {}",
        sys::provenance(&args.workload, args.seed, args.seconds, args.trace)
    );
    for note in &report.notes {
        println!("# {note}");
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match report.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "# {} spans written to {}",
                report.tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# attempted {} failed {} failed_ratio {failed_ratio}",
        report.attempted, report.failed
    );
    for (name, unit, value) in &report.metrics {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{}",
        result_line(
            report.failed == 0,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "mbu_shots",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "mbu_shots".to_string(),
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "mbu_shots", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "mbu_shots",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "mbu_shots",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    /// `(name, unit)` pairs of one metric array of `BENCHMARK.json`, read
    /// with a scan that relies only on the file's `"key": "value"` layout.
    fn contract_metrics(json: &str, array: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{array}\"")).expect("array present");
        let end = start + json[start..].find(']').expect("array closes");
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let open = at + obj[at..].find('"').expect("value opens") + 1;
            let close = open + obj[open..].find('"').expect("value closes");
            obj[open..close].to_string()
        };
        json[start..end]
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn contract() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory")
    }

    #[test]
    fn printed_metrics_are_the_contract_metrics() {
        let json = contract();
        let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(contract_metrics(&json, "end_to_end"), owned(END_TO_END));
        assert_eq!(contract_metrics(&json, "per_layer"), owned(PER_LAYER));
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    /// Seed 424242 was never used while tuning the benchmark.
    const HELD_OUT_SEED: u64 = 424_242;

    fn smoke<W: Workload>(w: &W, workload: &str) {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: HELD_OUT_SEED,
                seconds: 1,
                trace,
            };
            let t0 = Instant::now();
            let report = drive(w, &args, Instant::now());
            assert!(t0.elapsed() < Duration::from_secs(20), "{workload} is slow");
            assert_eq!(
                report.failed, 0,
                "{workload} (trace {trace}) failed a check"
            );
            assert!(report.attempted > 2);
            let table = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            let want: Vec<&str> = table.iter().map(|m| m.0).collect();
            assert_eq!(names, want);
            assert!(report.metrics.iter().all(|m| m.2.is_finite()));
        }
    }

    #[test]
    fn every_workload_runs_at_smoke_size_traced_and_untraced() {
        smoke(&QftModAdd { n: 8 }, "qft_modadd");
        smoke(&MbuShots { n: 8, shots: 64 }, "mbu_shots");
        smoke(&DenseChain { n: 3, stages: 1 }, "dense_chain");
        smoke(&MixedAuto { n: 3 }, "mixed_auto");
    }
}
