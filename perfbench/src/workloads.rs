//! The four workloads: what one job does, how its output is checked, and
//! which per-layer counts the traced run adds.
//!
//! A job is the closed-loop unit of work, timed end to end: circuit
//! construction, compilation where the job compiles, execution and
//! aggregation. Each input's golden — what a correct job must produce —
//! is computed at set-up by a reference that does not share the code path
//! under test. Checks compare a job's output with its golden after the
//! job's clock has stopped. Probes run only in the traced run and make the
//! side measurements a layer metric needs (the cumulative pass
//! configurations, an interpreted run, a parallel ensemble, a forced dense
//! run).

use crate::trace::Tracer;
use mbu_arith::modular::{self, ModAdd, ModAddSpec};
use mbu_arith::resources::Table1Row;
use mbu_arith::Uncompute;
use mbu_bench::{benchmark_modulus, build_row_circuit};
use mbu_bitstring::BitString;
use mbu_circuit::{
    Angle, Basis, Circuit, CircuitBuilder, CompiledCircuit, PassConfig, PassStats, PlanConfig,
    PlannedRepr, QubitId,
};
use mbu_sim::{
    BasisTracker, BranchDistribution, BranchEnsemble, Ensemble, Executed, HybridState,
    PhaseAccumulator, ShotRunner, Simulator, StateVector,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt::Display;

/// Bytes per complex amplitude in the dense kernels (two `f64`s).
const AMPLITUDE_BYTES: f64 = 16.0;

/// The thread budget of every timed job, pinned with `with_threads` on
/// the ensembles and `set_amp_threads` on the dense and hybrid states.
/// One thread: on the shared 2-vCPU host this was tuned on, the host
/// steals either vCPU for seconds at a time (up to a quarter of all CPU
/// time while tuning), and a job spread over both waits for the stolen
/// one. Over ten runs the two-thread wall-time tails of `mbu_shots` and
/// `dense_chain` spread by 0.28 and 0.37 of their median; with one
/// thread by 0.041 and 0.048, in line with CPU time.
pub const JOB_THREADS: usize = 1;

/// Threads of the parallel ensemble the traced `mbu_shots` run compares
/// against: the CPU count, at most two.
fn parallel_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

pub trait Workload {
    type Input;
    /// What a correct job on one input must produce.
    type Golden;
    type Output;

    /// Distinct job inputs per run; jobs cycle through them.
    fn pool(&self) -> usize {
        60
    }

    /// Draws the inputs of job `index` from the run's input stream.
    fn draw(&self, rng: &mut StdRng, index: usize) -> Self::Input;

    /// The golden of `input`, from a reference that does not share the
    /// code path under test. Computed once per input, at set-up.
    fn golden(&self, input: &Self::Input) -> Result<Self::Golden, String>;

    /// Runs one job.
    fn job(&self, input: &Self::Input, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks a job's output against its input's golden.
    fn check(
        &self,
        input: &Self::Input,
        golden: &Self::Golden,
        out: &Self::Output,
    ) -> Result<(), String>;

    /// Traced run only: side measurements and counts for the layer metrics.
    fn probe(&self, input: &Self::Input, out: &Self::Output, tr: &mut Tracer)
        -> Result<(), String>;
}

fn err(e: impl Display) -> String {
    e.to_string()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

/// Records the size of the circuits one job built: gates summed, qubits
/// of the widest.
fn record_build(tr: &mut Tracer, circuits: &[&Circuit]) {
    let gates: u64 = circuits.iter().map(|c| c.counts().total_gates()).sum();
    let qubits = circuits.iter().map(|c| c.num_qubits()).max().unwrap_or(0);
    tr.record("arith.gates", gates as f64);
    tr.record("arith.qubits", qubits as f64);
}

/// Records the pass statistics of the programs one job compiled, summed
/// over the programs; together they took `total_ms` to compile.
fn record_compile(tr: &mut Tracer, compiled: &[&CompiledCircuit], total_ms: f64) {
    let sum = |f: fn(&PassStats) -> f64| -> f64 { compiled.iter().map(|c| f(c.stats())).sum() };
    let lowered = sum(|s| s.lowered_instrs as f64);
    tr.record("compile.total_ms", total_ms);
    tr.record("compile.instrs_per_s", ratio(lowered, total_ms / 1e3));
    tr.record("compile.lowered_instrs", lowered);
    tr.record("compile.emitted_instrs", sum(|s| s.emitted_instrs as f64));
    tr.record("compile.removed", sum(|s| s.removed() as f64));
    tr.record("compile.fused_blocks", sum(|s| s.fused_blocks as f64));
    tr.record(
        "compile.dead_qubits_reclaimed",
        sum(|s| s.dead_qubits_reclaimed as f64),
    );
    tr.record("compile.segments", sum(|s| s.segments as f64));
    tr.record("compile.share", ratio(total_ms, tr.ms("job")));
}

/// Times the default pipeline stage by stage: each stage's cost is the
/// difference between two `with_config` calls that differ only in that
/// stage.
fn cumulative_compile(tr: &mut Tracer, circuit: &Circuit) -> Result<(), String> {
    let full = PassConfig::default();
    let peephole = PassConfig {
        fuse_max_qubits: 0,
        reclaim_dead_qubits: false,
        ..full
    };
    let fusion = PassConfig {
        reclaim_dead_qubits: false,
        ..full
    };
    tr.span("compile.lower", |_| CompiledCircuit::lower(circuit))
        .map_err(err)?;
    tr.span("compile.upto_peephole", |_| {
        CompiledCircuit::with_config(circuit, &peephole)
    })
    .map_err(err)?;
    tr.span("compile.upto_fusion", |_| {
        CompiledCircuit::with_config(circuit, &fusion)
    })
    .map_err(err)?;
    tr.span("compile.upto_reclaim", |_| {
        CompiledCircuit::with_config(circuit, &full)
    })
    .map_err(err)?;
    let lower = tr.ms("compile.lower");
    let upto_peephole = tr.ms("compile.upto_peephole");
    let upto_fusion = tr.ms("compile.upto_fusion");
    tr.record("compile.peephole_ms", upto_peephole - lower);
    tr.record("compile.fusion_ms", upto_fusion - upto_peephole);
    tr.record(
        "compile.reclaim_ms",
        tr.ms("compile.upto_reclaim") - upto_fusion,
    );
    Ok(())
}

/// The planner's view of `compiled`, timed, against the occupancy peak a
/// run actually observed.
fn record_plan(tr: &mut Tracer, compiled: &CompiledCircuit, observed_peak: u64) {
    let profiles = tr.span("plan.profile", |_| compiled.segment_profiles());
    let plan = tr.span("plan.plan", |_| {
        compiled.representation_plan(&PlanConfig::default())
    });
    let count = |repr| plan.iter().filter(|r| **r == repr).count() as f64;
    tr.record("plan.dense", count(PlannedRepr::Dense));
    tr.record("plan.sparse", count(PlannedRepr::Sparse));
    tr.record("plan.phase", count(PlannedRepr::Phase));
    let predicted = profiles
        .iter()
        .map(|p| p.predicted_entries())
        .max()
        .unwrap_or(0);
    tr.record(
        "plan.mispredict",
        ratio(predicted as f64, observed_peak as f64),
    );
}

/// What the exec metrics need of one run: its record and the backend's
/// peaks, read once the run is over.
struct ExecRun {
    executed: Executed,
    occupancy_peak: Option<u64>,
    peak_amplitudes: Option<u64>,
}

impl ExecRun {
    fn of(sim: &dyn Simulator, executed: Executed) -> Self {
        Self {
            executed,
            occupancy_peak: sim.occupancy_peak(),
            peak_amplitudes: sim.peak_amplitudes(),
        }
    }
}

/// Execution counts of the runs one job made on backend `name`, whose
/// spans were `exec.<name>.run`: gates summed, peaks of the largest run.
fn record_exec<'a>(tr: &mut Tracer, name: &str, runs: impl IntoIterator<Item = &'a ExecRun>) {
    let runs: Vec<&ExecRun> = runs.into_iter().collect();
    let gates: u64 = runs.iter().map(|r| r.executed.counts.total_gates()).sum();
    let peak = |f: fn(&ExecRun) -> Option<u64>| -> f64 {
        runs.iter().filter_map(|r| f(r)).max().unwrap_or(0) as f64
    };
    let run_ms = tr.ms(&format!("exec.{name}.run"));
    tr.record(&format!("exec.{name}.gates"), gates as f64);
    tr.record(
        &format!("exec.{name}.gates_per_s"),
        ratio(gates as f64, run_ms / 1e3),
    );
    tr.record(
        &format!("exec.{name}.occupancy_peak"),
        peak(|r| r.occupancy_peak),
    );
    tr.record(
        &format!("exec.{name}.peak_amplitudes"),
        peak(|r| r.peak_amplitudes),
    );
}

/// Dense-kernel traffic of one run: executed gates × live amplitudes ×
/// 16 B. This is the traffic the kernels compute over, not a hardware
/// counter reading.
fn record_kernels(tr: &mut Tracer, executed: &Executed, live_amplitudes: u64, run_ms: f64) {
    let bytes = executed.counts.total_gates() as f64 * live_amplitudes as f64 * AMPLITUDE_BYTES;
    tr.record("kernels.bytes_computed", bytes);
    tr.record("kernels.gb_per_s", ratio(bytes / 1e9, run_ms / 1e3));
}

fn record_interp(tr: &mut Tracer, backend: &str) {
    let compiled_ms = tr.ms(&format!("exec.{backend}.run"));
    tr.record(
        "exec.compiled_over_interp",
        ratio(compiled_ms, tr.ms("exec.interp")),
    );
}

fn draw_below(rng: &mut StdRng, p: u128) -> u128 {
    rng.gen_range(0..p)
}

// ---------------------------------------------------------------------------
// qft_modadd
// ---------------------------------------------------------------------------

/// Beauregard QFT modular adder (the Table-1 Draper row) per job: build,
/// compile with the default passes, Layer-1 verify, run on the phase
/// accumulator. Uncomputation alternates MBU / unitary by job index.
pub struct QftModAdd {
    pub n: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub struct QftInput {
    x: u128,
    y: u128,
    uncompute: Uncompute,
    seed: u64,
}

pub struct QftOutput {
    layout: ModAdd,
    compiled: CompiledCircuit,
    findings: usize,
    sim: PhaseAccumulator,
    executed: Executed,
}

impl Workload for QftModAdd {
    type Input = QftInput;
    /// `(x + y) mod p`, by classical modular arithmetic.
    type Golden = u128;
    type Output = QftOutput;

    fn draw(&self, rng: &mut StdRng, index: usize) -> QftInput {
        let p = benchmark_modulus(self.n);
        QftInput {
            x: draw_below(rng, p),
            y: draw_below(rng, p),
            uncompute: if index.is_multiple_of(2) {
                Uncompute::Mbu
            } else {
                Uncompute::Unitary
            },
            seed: rng.next_u64(),
        }
    }

    fn golden(&self, input: &QftInput) -> Result<u128, String> {
        Ok((input.x + input.y) % benchmark_modulus(self.n))
    }

    fn job(&self, input: &QftInput, tr: &mut Tracer) -> Result<QftOutput, String> {
        let p = benchmark_modulus(self.n);
        let layout = tr
            .span("arith.build", |_| {
                build_row_circuit(Table1Row::Draper, input.uncompute, self.n, p)
            })
            .ok_or("the Draper row has no layout")?;
        let compiled = tr
            .span("compile.total", |_| {
                CompiledCircuit::compile(&layout.circuit)
            })
            .map_err(err)?;
        let findings = tr.span("verify.validate", |_| {
            compiled.verify().err().map_or(0, |e| e.findings().len())
        });
        let (sim, executed) = tr.span("exec.phase.run", |_| {
            let mut sim = PhaseAccumulator::zeros(compiled.num_qubits()).map_err(err)?;
            sim.set_value(layout.x.qubits(), input.x).map_err(err)?;
            sim.set_value(layout.y.qubits(), input.y).map_err(err)?;
            let mut rng = StdRng::seed_from_u64(input.seed);
            let executed = sim.run_compiled(&compiled, &mut rng).map_err(err)?;
            Ok::<_, String>((sim, executed))
        })?;
        Ok(QftOutput {
            layout,
            compiled,
            findings,
            sim,
            executed,
        })
    }

    fn check(&self, input: &QftInput, sum: &u128, out: &QftOutput) -> Result<(), String> {
        expect_eq("verifier findings", out.findings, 0)?;
        let x = out.sim.value(out.layout.x.qubits()).map_err(err)?;
        let y = out.sim.value(out.layout.y.qubits()).map_err(err)?;
        expect_eq("x after the adder", x, input.x)?;
        expect_eq("y after the adder", y, *sum)?;
        let top = out.layout.y.qubits()[self.n];
        expect_eq("top bit of y", out.sim.bit(top).map_err(err)?, false)
    }

    fn probe(&self, input: &QftInput, out: &QftOutput, tr: &mut Tracer) -> Result<(), String> {
        let circuit = &out.layout.circuit;
        record_build(tr, &[circuit]);
        record_compile(tr, &[&out.compiled], tr.ms("compile.total"));
        tr.record("verify.findings", out.findings as f64);
        cumulative_compile(tr, circuit)?;
        record_plan(tr, &out.compiled, out.sim.occupancy_peak().unwrap_or(0));
        record_exec(tr, "phase", &[ExecRun::of(&out.sim, out.executed.clone())]);
        let mut sim = PhaseAccumulator::zeros(circuit.num_qubits()).map_err(err)?;
        sim.set_value(out.layout.x.qubits(), input.x).map_err(err)?;
        sim.set_value(out.layout.y.qubits(), input.y).map_err(err)?;
        let mut rng = StdRng::seed_from_u64(input.seed);
        tr.span("exec.interp", |_| sim.run(circuit, &mut rng))
            .map_err(err)?;
        expect_eq(
            "interpreted y",
            sim.value(out.layout.y.qubits()).map_err(err)?,
            out.sim.value(out.layout.y.qubits()).map_err(err)?,
        )?;
        record_interp(tr, "phase");
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// mbu_shots
// ---------------------------------------------------------------------------

/// The ripple Table-1 rows, all five in every job.
const RIPPLE_ROWS: [Table1Row; 5] = [
    Table1Row::Vbe5,
    Table1Row::Vbe4,
    Table1Row::Cdkpm,
    Table1Row::Gidney,
    Table1Row::CdkpmGidney,
];

/// A `ShotRunner` ensemble on the basis tracker for each ripple Table-1
/// row under MBU, the five rows one after another in every job, every
/// shot probed for its final registers. Every job does the same work, so
/// the job-time tail is a tail over all jobs, not over the slowest row's.
pub struct MbuShots {
    pub n: usize,
    /// Shots per row.
    pub shots: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct ShotsInput {
    x: u128,
    y: u128,
    /// The master seed of each row's ensemble, in `RIPPLE_ROWS` order.
    seeds: [u64; RIPPLE_ROWS.len()],
}

type RegisterValues = (
    Result<u128, mbu_sim::SimError>,
    Result<u128, mbu_sim::SimError>,
);

/// One row's ensemble within a job.
pub struct RowRun {
    row: Table1Row,
    seed: u64,
    layout: ModAdd,
    ensemble: Ensemble,
    values: Vec<RegisterValues>,
}

pub struct ShotsOutput {
    rows: Vec<RowRun>,
}

impl MbuShots {
    fn tracker(&self, layout: &ModAdd, input: &ShotsInput) -> Result<BasisTracker, String> {
        let mut t = BasisTracker::zeros(layout.circuit.num_qubits());
        t.set_value(layout.x.qubits(), input.x).map_err(err)?;
        t.set_value(layout.y.qubits(), input.y).map_err(err)?;
        Ok(t)
    }

    fn runner(&self, seed: u64, threads: usize) -> ShotRunner {
        ShotRunner::new(self.shots)
            .with_master_seed(seed)
            .with_threads(threads)
    }

    /// Every shot must leave `x` alone and hold `(x + y) mod p` in `y`.
    /// The mean Toffoli count must lie within 5σ of the analytic
    /// expectation, with σ bounded analytically: each shot's count lies
    /// in a range of width at most `2 (static − expected)` (conditional
    /// blocks at full weight versus at weight ½), so by Popoviciu's
    /// inequality its standard deviation is at most `static − expected`.
    fn check_row(&self, input: &ShotsInput, want: u128, run: &RowRun) -> Result<(), String> {
        let row = run.row;
        expect_eq(
            &format!("{row:?}: shots folded"),
            run.ensemble.shots(),
            self.shots,
        )?;
        expect_eq(
            &format!("{row:?}: shots probed"),
            run.values.len() as u64,
            self.shots,
        )?;
        for (shot, (x, y)) in run.values.iter().enumerate() {
            let x = x.clone().map_err(err)?;
            let y = y.clone().map_err(err)?;
            expect_eq(&format!("{row:?} shot {shot}: x"), x, input.x)?;
            expect_eq(&format!("{row:?} shot {shot}: y"), y, want)?;
        }
        let circuit = &run.layout.circuit;
        let expected = circuit.expected_counts().toffoli;
        let sigma_shot = circuit.counts().toffoli as f64 - expected;
        let bound = 5.0 * sigma_shot / (self.shots as f64).sqrt() + 1e-9 * expected.max(1.0);
        let mean = run.ensemble.mean().toffoli;
        if (mean - expected).abs() > bound {
            return Err(format!(
                "{row:?}: mean Toffolis {mean} not within {bound} of {expected}"
            ));
        }
        Ok(())
    }
}

impl Workload for MbuShots {
    type Input = ShotsInput;
    /// `(x + y) mod p`, by classical modular arithmetic.
    type Golden = u128;
    type Output = ShotsOutput;

    fn draw(&self, rng: &mut StdRng, _: usize) -> ShotsInput {
        let p = benchmark_modulus(self.n);
        ShotsInput {
            x: draw_below(rng, p),
            y: draw_below(rng, p),
            seeds: std::array::from_fn(|_| rng.next_u64()),
        }
    }

    fn golden(&self, input: &ShotsInput) -> Result<u128, String> {
        Ok((input.x + input.y) % benchmark_modulus(self.n))
    }

    fn job(&self, input: &ShotsInput, tr: &mut Tracer) -> Result<ShotsOutput, String> {
        let p = benchmark_modulus(self.n);
        let mut rows = Vec::with_capacity(RIPPLE_ROWS.len());
        for (row, seed) in RIPPLE_ROWS.into_iter().zip(input.seeds) {
            let layout = tr
                .span("arith.build", |_| {
                    build_row_circuit(row, Uncompute::Mbu, self.n, p)
                })
                .ok_or("ripple rows always have a layout")?;
            let (ensemble, values) = tr.span("shots.run", |_| {
                let template = self.tracker(&layout, input)?;
                let (x, y) = (layout.x.qubits(), layout.y.qubits());
                self.runner(seed, JOB_THREADS)
                    .run_probed(
                        &layout.circuit,
                        || Box::new(template.clone()) as Box<dyn Simulator>,
                        |sim, _| (sim.value(x), sim.value(y)),
                    )
                    .map_err(err)
            })?;
            rows.push(RowRun {
                row,
                seed,
                layout,
                ensemble,
                values,
            });
        }
        Ok(ShotsOutput { rows })
    }

    /// Every row's ensemble, checked as [`MbuShots::check_row`] says.
    fn check(&self, input: &ShotsInput, want: &u128, out: &ShotsOutput) -> Result<(), String> {
        expect_eq("rows run", out.rows.len(), RIPPLE_ROWS.len())?;
        out.rows
            .iter()
            .try_for_each(|run| self.check_row(input, *want, run))
    }

    /// Per-job samples are sums over the five rows (peaks: the largest).
    fn probe(&self, input: &ShotsInput, out: &ShotsOutput, tr: &mut Tracer) -> Result<(), String> {
        let circuits: Vec<&Circuit> = out.rows.iter().map(|r| &r.layout.circuit).collect();
        record_build(tr, &circuits);
        // The runner only lowers; this is the same call it makes inside.
        let lowered = circuits
            .iter()
            .map(|c| tr.span("compile.lower", |_| CompiledCircuit::lower(c)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        record_compile(
            tr,
            &lowered.iter().collect::<Vec<_>>(),
            tr.ms("compile.lower"),
        );

        let shots = self.shots as f64 * out.rows.len() as f64;
        tr.record("shots.us_per_shot", tr.ms("shots.run") * 1e3 / shots);
        let distinct: usize = out.rows.iter().map(|r| r.ensemble.distinct_records()).sum();
        tr.record("shots.distinct_records", distinct as f64);
        let threads = parallel_threads();
        tr.record("shots.threads", threads as f64);

        let mut trackers = Vec::with_capacity(out.rows.len());
        for (run, lowered) in out.rows.iter().zip(&lowered) {
            let circuit = &run.layout.circuit;
            let template = self.tracker(&run.layout, input)?;
            // The same ensemble on the machine's thread budget, checked
            // equal.
            let parallel = tr
                .span("shots.parallel", |_| {
                    self.runner(run.seed, threads)
                        .run(circuit, || Box::new(template.clone()) as Box<dyn Simulator>)
                })
                .map_err(err)?;
            expect_eq("parallel ensemble equals serial", &parallel, &run.ensemble)?;

            // One shot outside the runner: the per-shot execution cost the
            // runner's dispatch and aggregation sit on top of.
            let seed = self.runner(run.seed, JOB_THREADS).seed_for_shot(0);
            let mut sim = template.clone();
            let executed = tr
                .span("exec.tracker.run", |_| {
                    sim.run_compiled(lowered, &mut StdRng::seed_from_u64(seed))
                })
                .map_err(err)?;
            let mut interp = template;
            let interp_executed = tr
                .span("exec.interp", |_| {
                    interp.run(circuit, &mut StdRng::seed_from_u64(seed))
                })
                .map_err(err)?;
            expect_eq("interpreted record", &interp_executed, &executed)?;
            trackers.push(ExecRun::of(&sim, executed));
        }
        tr.record(
            "shots.parallel_speedup",
            ratio(tr.ms("shots.run"), tr.ms("shots.parallel")),
        );
        record_exec(tr, "tracker", &trackers);
        record_interp(tr, "tracker");
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// dense_chain
// ---------------------------------------------------------------------------

/// An exact branch-tree distribution per job: a CDKPM-MBU modular-adder
/// chain on dense state vectors, default settings (lowered program,
/// gate-at-a-time kernels).
pub struct DenseChain {
    pub n: usize,
    pub stages: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub struct ChainInput {
    x: u128,
    y: u128,
    seed: u64,
}

pub struct ChainOutput {
    layout: ModAdd,
    dist: BranchDistribution,
}

impl DenseChain {
    fn state(&self, layout: &ModAdd, input: &ChainInput) -> Result<StateVector, String> {
        let mut sv = StateVector::zeros(layout.circuit.num_qubits()).map_err(err)?;
        sv.set_value(layout.x.qubits(), input.x).map_err(err)?;
        sv.set_value(layout.y.qubits(), input.y).map_err(err)?;
        Ok(sv)
    }
}

impl Workload for DenseChain {
    type Input = ChainInput;
    /// None beyond the analytic counts: every input must give the same
    /// tree shape and the circuit's `expected_counts()`.
    type Golden = ();
    type Output = ChainOutput;

    fn draw(&self, rng: &mut StdRng, _: usize) -> ChainInput {
        let p = benchmark_modulus(self.n);
        ChainInput {
            x: draw_below(rng, p),
            y: draw_below(rng, p),
            seed: rng.next_u64(),
        }
    }

    fn golden(&self, _: &ChainInput) -> Result<(), String> {
        Ok(())
    }

    fn job(&self, input: &ChainInput, tr: &mut Tracer) -> Result<ChainOutput, String> {
        let p = benchmark_modulus(self.n);
        let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
        let layout = tr
            .span("arith.build", |_| {
                modular::modadd_chain_circuit(&spec, self.n, p, self.stages)
            })
            .map_err(err)?;
        let dist = tr.span("branch.tree", |_| {
            let template = self.state(&layout, input)?;
            BranchEnsemble::new(0)
                .with_threads(JOB_THREADS)
                .distribution(&layout.circuit, || {
                    Box::new(template.clone()) as Box<dyn Simulator + Send>
                })
                .map_err(err)
        })?;
        Ok(ChainOutput { layout, dist })
    }

    /// One MBU flag fork per stage, no pruning, and the exact mean
    /// Toffoli count equal to the analytic expectation.
    fn check(&self, _: &ChainInput, _: &(), out: &ChainOutput) -> Result<(), String> {
        expect_eq("leaves", out.dist.num_leaves(), 1usize << self.stages)?;
        expect_eq("total weight", out.dist.total_weight(), 1.0)?;
        expect_eq("pruned mass", out.dist.pruned_mass(), 0.0)?;
        expect_eq(
            "exact mean Toffolis",
            out.dist.mean_counts().toffoli,
            out.layout.circuit.expected_counts().toffoli,
        )
    }

    fn probe(&self, input: &ChainInput, out: &ChainOutput, tr: &mut Tracer) -> Result<(), String> {
        let circuit = &out.layout.circuit;
        record_build(tr, &[circuit]);
        // The branch engine only lowers; this is the same call it makes.
        let lowered = tr
            .span("compile.lower", |_| CompiledCircuit::lower(circuit))
            .map_err(err)?;
        record_compile(tr, &[&lowered], tr.ms("compile.lower"));

        let leaves = out.dist.num_leaves() as f64;
        tr.record("branch.leaves", leaves);
        tr.record("branch.fork_nodes", out.dist.fork_nodes() as f64);
        tr.record("branch.pruned_mass", out.dist.pruned_mass());
        tr.record("branch.ms_per_leaf", ratio(tr.ms("branch.tree"), leaves));

        // One trajectory outside the tree, on the same thread budget: the
        // dense kernels' cost per executed gate.
        let mut sv = self
            .state(&out.layout, input)?
            .with_amp_threads(JOB_THREADS);
        let executed = tr
            .span("exec.dense.run", |_| {
                sv.run_compiled(&lowered, &mut StdRng::seed_from_u64(input.seed))
            })
            .map_err(err)?;
        record_exec(tr, "dense", &[ExecRun::of(&sv, executed.clone())]);
        let live = sv.peak_amplitudes().unwrap_or(0);
        record_kernels(tr, &executed, live, tr.ms("exec.dense.run"));
        let mut interp = self
            .state(&out.layout, input)?
            .with_amp_threads(JOB_THREADS);
        let interp_executed = tr
            .span("exec.interp", |_| {
                interp.run(circuit, &mut StdRng::seed_from_u64(input.seed))
            })
            .map_err(err)?;
        expect_eq("interpreted record", &interp_executed, &executed)?;
        record_interp(tr, "dense");
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// mixed_auto
// ---------------------------------------------------------------------------

/// The three-phase circuit of the `hybrid_planner` bench: an MBU modular
/// adder on basis inputs, an all-qubit fan-out core, a measure-all
/// collapse, then a second MBU modular adder.
struct MixedCircuit {
    circuit: Circuit,
    x: Vec<QubitId>,
    y: Vec<QubitId>,
}

/// The benchmark modulus of width `n`, and 31 (the prime `2^5 − 1`) for
/// the width the benchmark tables skip.
fn mixed_modulus(n: usize) -> u128 {
    if n == 5 {
        31
    } else {
        benchmark_modulus(n)
    }
}

fn mixed_circuit(n: usize) -> Result<MixedCircuit, String> {
    let p = BitString::from_u128(mixed_modulus(n), n);
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let mut b = CircuitBuilder::new();
    let x = b.qreg("x", n);
    let y = b.qreg("y", n + 1);
    modular::modadd(&mut b, &spec, x.qubits(), y.qubits(), &p).map_err(err)?;
    let all: Vec<QubitId> = (0..b.num_qubits() as u32).map(QubitId).collect();
    for &q in &all {
        b.h(q);
    }
    for w in all.windows(2) {
        b.cx(w[0], w[1]);
    }
    let theta = Angle::turn_over_power_of_two(3);
    for &q in &all {
        b.phase(q, theta);
    }
    for w in all.windows(3).step_by(3) {
        b.ccx(w[0], w[1], w[2]);
    }
    for &q in &all {
        let _ = b.measure(q, Basis::Z);
    }
    modular::modadd(&mut b, &spec, x.qubits(), y.qubits(), &p).map_err(err)?;
    Ok(MixedCircuit {
        circuit: b.finish(),
        x: x.qubits().to_vec(),
        y: y.qubits().to_vec(),
    })
}

/// The mixed circuit on the planning hybrid backend per job, with a
/// per-job RNG seed; checked against an interpreted dense run of the same
/// circuit, inputs and seed.
pub struct MixedAuto {
    pub n: usize,
}

#[derive(Clone, Debug, PartialEq)]
pub struct MixedInput {
    x: u128,
    y: u128,
    seed: u64,
}

/// The classical record and final `y` of a forced dense run.
#[derive(Clone, Debug, PartialEq)]
pub struct MixedGolden {
    classical: Vec<Option<bool>>,
    y: u128,
}

/// Distinct inputs per `mixed_auto` run: each costs one interpreted dense
/// golden, about as long as three jobs, at every set-up.
const MIXED_POOL: usize = 4;

pub struct MixedOutput {
    mixed: MixedCircuit,
    compiled: CompiledCircuit,
    sim: HybridState,
    executed: Executed,
}

impl MixedAuto {
    fn prepare(
        &self,
        sim: &mut dyn Simulator,
        mixed: &MixedCircuit,
        input: &MixedInput,
    ) -> Result<(), String> {
        sim.set_amp_threads(JOB_THREADS);
        sim.set_value(&mixed.x, input.x).map_err(err)?;
        sim.set_value(&mixed.y, input.y).map_err(err)
    }
}

impl Workload for MixedAuto {
    type Input = MixedInput;
    type Golden = MixedGolden;
    type Output = MixedOutput;

    fn pool(&self) -> usize {
        MIXED_POOL
    }

    fn draw(&self, rng: &mut StdRng, _: usize) -> MixedInput {
        let p = mixed_modulus(self.n);
        MixedInput {
            x: draw_below(rng, p),
            y: draw_below(rng, p),
            seed: rng.next_u64(),
        }
    }

    /// The circuit interpreted gate by gate on a forced `StateVector`:
    /// no compiler pass, no planner and no representation switch on this
    /// path.
    fn golden(&self, input: &MixedInput) -> Result<MixedGolden, String> {
        let mixed = mixed_circuit(self.n)?;
        let mut dense = StateVector::zeros(mixed.circuit.num_qubits()).map_err(err)?;
        self.prepare(&mut dense, &mixed, input)?;
        let executed = dense
            .run(&mixed.circuit, &mut StdRng::seed_from_u64(input.seed))
            .map_err(err)?;
        Ok(MixedGolden {
            classical: executed.classical,
            y: dense.value(&mixed.y).map_err(err)?,
        })
    }

    fn job(&self, input: &MixedInput, tr: &mut Tracer) -> Result<MixedOutput, String> {
        let mixed = tr.span("arith.build", |_| mixed_circuit(self.n))?;
        let compiled = tr
            .span("compile.total", |_| {
                CompiledCircuit::compile(&mixed.circuit)
            })
            .map_err(err)?;
        let (sim, executed) = tr.span("exec.auto.run", |_| {
            let mut sim = HybridState::zeros(compiled.num_qubits()).map_err(err)?;
            self.prepare(&mut sim, &mixed, input)?;
            let mut rng = StdRng::seed_from_u64(input.seed);
            let executed = sim.run_compiled(&compiled, &mut rng).map_err(err)?;
            Ok::<_, String>((sim, executed))
        })?;
        Ok(MixedOutput {
            mixed,
            compiled,
            sim,
            executed,
        })
    }

    /// The classical record and the final `y` must equal the golden's.
    fn check(&self, _: &MixedInput, golden: &MixedGolden, out: &MixedOutput) -> Result<(), String> {
        expect_eq(
            "classical record",
            &out.executed.classical,
            &golden.classical,
        )?;
        expect_eq(
            "final y",
            out.sim.value(&out.mixed.y).map_err(err)?,
            golden.y,
        )
    }

    fn probe(&self, input: &MixedInput, out: &MixedOutput, tr: &mut Tracer) -> Result<(), String> {
        let circuit = &out.mixed.circuit;
        record_build(tr, &[circuit]);
        record_compile(tr, &[&out.compiled], tr.ms("compile.total"));
        cumulative_compile(tr, circuit)?;
        let observed = out.sim.last_run_peak_occupancy().unwrap_or(0);
        record_plan(tr, &out.compiled, observed);
        record_exec(tr, "auto", &[ExecRun::of(&out.sim, out.executed.clone())]);
        tr.record(
            "hybrid.switches",
            out.sim.last_run_switches().unwrap_or(0) as f64,
        );
        tr.record("hybrid.peak_occupancy", observed as f64);

        // The job's own program on a forced dense state: what the planner
        // saves over staying dense, and the dense kernels' traffic.
        let mut dense = StateVector::zeros(out.compiled.num_qubits()).map_err(err)?;
        self.prepare(&mut dense, &out.mixed, input)?;
        let executed = tr
            .span("hybrid.dense", |_| {
                dense.run_compiled(&out.compiled, &mut StdRng::seed_from_u64(input.seed))
            })
            .map_err(err)?;
        expect_eq("dense record", &executed.classical, &out.executed.classical)?;
        let live = dense.peak_amplitudes().unwrap_or(0);
        record_kernels(tr, &executed, live, tr.ms("hybrid.dense"));
        tr.record(
            "hybrid.vs_dense",
            ratio(tr.ms("exec.auto.run"), tr.ms("hybrid.dense")),
        );
        let mut interp = HybridState::zeros(circuit.num_qubits()).map_err(err)?;
        self.prepare(&mut interp, &out.mixed, input)?;
        let interp_executed = tr
            .span("exec.interp", |_| {
                interp.run(circuit, &mut StdRng::seed_from_u64(input.seed))
            })
            .map_err(err)?;
        expect_eq(
            "interpreted record",
            &interp_executed.classical,
            &out.executed.classical,
        )?;
        record_interp(tr, "auto");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool<W: Workload>(w: &W, seed: u64) -> Vec<W::Input> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..8).map(|i| w.draw(&mut rng, i)).collect()
    }

    /// Runs job `index` of `seed` and checks it against its golden.
    fn checked<W: Workload>(w: &W, seed: u64, index: usize) -> W::Output {
        let input = &pool(w, seed)[index];
        let golden = w.golden(input).expect("golden computes");
        let out = w.job(input, &mut Tracer::off()).expect("job runs");
        w.check(input, &golden, &out).expect("output checks");
        out
    }

    /// Runs job 0 of `seed` twice, checking both, and returns both outputs.
    fn twice<W: Workload>(w: &W, seed: u64) -> (W::Output, W::Output) {
        (checked(w, seed, 0), checked(w, seed, 0))
    }

    #[test]
    fn the_same_seed_draws_the_same_inputs() {
        let qft = QftModAdd { n: 64 };
        assert_eq!(pool(&qft, 3), pool(&qft, 3));
        assert_ne!(pool(&qft, 3), pool(&qft, 4));
        let shots = MbuShots { n: 64, shots: 16 };
        assert_eq!(pool(&shots, 3), pool(&shots, 3));
        assert_ne!(pool(&shots, 3), pool(&shots, 4));
        let chain = DenseChain { n: 3, stages: 2 };
        assert_eq!(pool(&chain, 3), pool(&chain, 3));
        assert_ne!(pool(&chain, 3), pool(&chain, 4));
        let mixed = MixedAuto { n: 5 };
        assert_eq!(pool(&mixed, 3), pool(&mixed, 3));
        assert_ne!(pool(&mixed, 3), pool(&mixed, 4));
    }

    #[test]
    fn qft_jobs_repeat_exactly_and_alternate_uncomputation() {
        let w = QftModAdd { n: 8 };
        let inputs = pool(&w, 5);
        assert_eq!(inputs[0].uncompute, Uncompute::Mbu);
        assert_eq!(inputs[1].uncompute, Uncompute::Unitary);
        let (a, b) = twice(&w, 5);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.compiled, b.compiled);
    }

    #[test]
    fn shot_ensembles_repeat_exactly() {
        let w = MbuShots { n: 8, shots: 256 };
        let (a, b) = twice(&w, 5);
        assert_eq!(a.rows.len(), RIPPLE_ROWS.len());
        for (a, b) in a.rows.iter().zip(&b.rows) {
            assert_eq!(a.ensemble, b.ensemble);
        }
    }

    #[test]
    fn branch_distributions_repeat_exactly() {
        let w = DenseChain { n: 3, stages: 1 };
        let (a, b) = twice(&w, 5);
        let leaves = |d: &BranchDistribution| -> Vec<(f64, Executed)> {
            d.leaves().map(|(p, e)| (p, e.clone())).collect()
        };
        assert_eq!(leaves(&a.dist), leaves(&b.dist));
        assert_eq!(a.dist.mean_counts(), b.dist.mean_counts());
    }

    #[test]
    fn hybrid_runs_repeat_exactly_and_switch_representation() {
        let w = MixedAuto { n: 3 };
        let (a, b) = twice(&w, 5);
        assert_eq!(a.executed, b.executed);
        assert!(a.sim.last_run_switches().unwrap_or(0) > 0);
    }

    /// The golden skips every compiler pass and the planner, and the job
    /// runs the default passes on the hybrid backend: both must agree on
    /// the record and `y`, at smoke size and at full size.
    #[test]
    fn the_interpreted_dense_golden_matches_the_compiled_hybrid_job() {
        let small = MixedAuto { n: 3 };
        for seed in [1, 2, 3] {
            for index in 0..MIXED_POOL {
                checked(&small, seed, index);
            }
        }
        checked(&MixedAuto { n: 5 }, 7, 0);
    }

    #[test]
    fn the_popoviciu_bound_covers_every_ripple_row() {
        // The 5σ check bounds a shot's standard deviation by
        // `static − expected` Toffolis; the sample deviation must respect it.
        let w = MbuShots { n: 8, shots: 512 };
        let out = w
            .job(&pool(&w, 9)[0], &mut Tracer::off())
            .expect("job runs");
        for run in &out.rows {
            let c = &run.layout.circuit;
            let sigma = c.counts().toffoli as f64 - c.expected_counts().toffoli;
            let sample = run.ensemble.variance().toffoli.sqrt();
            assert!(sample <= sigma + 1e-9, "{:?}: {sample} > {sigma}", run.row);
        }
    }

    #[test]
    fn a_wrong_output_fails_its_check() {
        let w = QftModAdd { n: 8 };
        let input = &pool(&w, 5)[0];
        let out = w.job(input, &mut Tracer::off()).expect("job runs");
        let sum = w.golden(input).expect("golden computes");
        assert!(w.check(input, &sum, &out).is_ok());
        let wrong = (sum + 1) % benchmark_modulus(8);
        assert!(w.check(input, &wrong, &out).is_err());

        let w = MbuShots { n: 8, shots: 64 };
        let input = &pool(&w, 5)[0];
        let out = w.job(input, &mut Tracer::off()).expect("job runs");
        let sum = w.golden(input).expect("golden computes");
        assert!(w.check(input, &sum, &out).is_ok());
        let wrong = (sum + 1) % benchmark_modulus(8);
        assert!(w.check(input, &wrong, &out).is_err());

        let w = MixedAuto { n: 3 };
        let input = &pool(&w, 5)[0];
        let out = w.job(input, &mut Tracer::off()).expect("job runs");
        let mut golden = w.golden(input).expect("golden computes");
        assert!(w.check(input, &golden, &out).is_ok());
        let bit = golden
            .classical
            .iter_mut()
            .find_map(Option::as_mut)
            .expect("the collapse measures every qubit");
        *bit = !*bit;
        assert!(w.check(input, &golden, &out).is_err());
    }
}
