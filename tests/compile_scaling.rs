//! Cost bounds on the compiler's peephole passes.
//!
//! A QFT interior is one long run of mutually commuting diagonal gates, the
//! shape on which a per-gate backward scan is quadratic. These tests bound
//! the passes by [`PassStats::peephole_work`] — a deterministic count of
//! slot visits and index probes, not a clock — at `c · G · log₂ G` for a
//! lowered stream of `G` instructions.

use mbu_arith::resources::Table1Row;
use mbu_arith::{adders, AdderKind, Uncompute};
use mbu_bench::{benchmark_modulus, build_row_circuit};
use mbu_circuit::{Angle, Basis, Circuit, CircuitBuilder, CompiledCircuit, PassConfig, PassStats};

/// The constant of the `c · G · log₂ G` bound. The indexed passes measure
/// 0.16–0.31 on the streams below (about 4.6 probes per instruction on the
/// Draper modadd); a per-gate rescan would exceed it by orders of
/// magnitude.
const C: f64 = 0.5;

/// The peephole window and the phase-dead pass, with fusion and
/// reclamation off (they are not counted).
fn counted_passes() -> PassConfig {
    PassConfig {
        fuse_max_qubits: 0,
        reclaim_dead_qubits: false,
        ..PassConfig::aggressive()
    }
}

/// Asserts `work ≤ C · G · log₂ G` for the lowered size `G` of `stats`.
fn assert_bounded(stats: &PassStats, label: &str) {
    let g = stats.lowered_instrs as f64;
    let bound = C * g * g.log2();
    assert!(
        (stats.peephole_work as f64) <= bound,
        "{label}: {} probes for G = {g} exceeds {C}·G·log₂G = {bound:.0}",
        stats.peephole_work
    );
}

/// The Beauregard/Draper modular adder, the paper's Table-1 QFT row.
fn draper_modadd(n: usize) -> Circuit {
    build_row_circuit(Table1Row::Draper, Uncompute::Mbu, n, benchmark_modulus(n))
        .unwrap()
        .circuit
}

#[test]
fn peephole_work_on_the_draper_modadd_is_within_g_log_g() {
    for n in [64, 128, 256] {
        let compiled = CompiledCircuit::with_config(&draper_modadd(n), &counted_passes()).unwrap();
        assert_bounded(compiled.stats(), &format!("Draper modadd n = {n}"));
    }
}

/// `k` `Phase`+`CZ` pairs on one qubit before its `Z` measurement: every
/// phase is dead, and a forward scan from each walks the whole run.
fn phase_dead_run(k: usize) -> Circuit {
    let t = Angle::turn_over_power_of_two(4);
    let mut b = CircuitBuilder::new();
    let r = b.qreg("q", 2);
    for _ in 0..k {
        b.phase(r[0], t);
        b.cz(r[0], r[1]);
    }
    b.measure(r[0], Basis::Z);
    b.finish()
}

#[test]
fn phase_dead_work_on_a_long_diagonal_run_is_linear() {
    let only_phase_dead = PassConfig {
        phase_dead_before_measure: true,
        ..PassConfig::none()
    };
    for k in [2000, 8000] {
        let compiled = CompiledCircuit::with_config(&phase_dead_run(k), &only_phase_dead).unwrap();
        assert_eq!(compiled.stats().phase_dead_removed, k as u64);
        assert_bounded(compiled.stats(), &format!("phase-dead run k = {k}"));
    }
}

/// The Draper plain adder at the paper's largest scaling width compiles and
/// re-verifies. Too slow for the debug test profile; CI runs it in release
/// with `--include-ignored`.
#[test]
#[ignore = "release-profile scaling check"]
fn draper_plain_adder_compiles_and_verifies_at_n1024() {
    let adder = adders::plain_adder(AdderKind::Draper, 1024).unwrap();
    let compiled = CompiledCircuit::compile(&adder.circuit).unwrap();
    compiled
        .verify()
        .expect("the n = 1024 program verifies clean");
    assert_bounded(compiled.stats(), "Draper plain adder n = 1024");
}
