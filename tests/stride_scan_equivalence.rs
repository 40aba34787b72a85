//! Observational invisibility of the SoA stride kernels against the
//! full-sweep reference.
//!
//! [`KernelMode::Stride`] walks only the amplitudes a gate can move, as
//! lane-grouped runs over the structure-of-arrays buffers;
//! [`KernelMode::Scan`] sweeps all `2^n` entries with a per-index branch.
//! The two differ in *iteration*, never arithmetic: every per-amplitude
//! operation keeps its exact sequence of floating-point steps, and every
//! reduction keeps ascending-index order. So Stride vs Scan must be
//! **bit-identical** — amplitudes, RNG consumption, classical records,
//! executed counts and ensemble aggregates — across fusion on/off,
//! reclamation on/off and amplitude-lane counts, on the paper's random
//! MBU modular adders. (The one exception is the sign of an exact zero in
//! a branch the reclaiming stride run dropped: see
//! [`assert_bit_identical`].)
//!
//! The second proptest drives tiny adaptive circuits (1–3 qubits, 2–8
//! amplitudes) where whole states are shorter than one 8-wide lane
//! group, plus mid-circuit measurement and reset: the remainder-handling
//! edge the wide modadds never hit. Reclamation in the first proptest
//! covers the post-`Drop` compacted lengths.

use mbu_arith::{
    modular::{self, ModAddSpec},
    Uncompute,
};
use mbu_circuit::{Angle, Basis, Circuit, ClbitId, CompiledCircuit, Gate, Op, PassConfig, QubitId};
use mbu_sim::{Ensemble, KernelMode, ShotRunner, Simulator, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn arch_spec(arch: u8, unc: Uncompute) -> ModAddSpec {
    match arch % 3 {
        0 => ModAddSpec::cdkpm(unc),
        1 => ModAddSpec::gidney(unc),
        _ => ModAddSpec::gidney_cdkpm(unc),
    }
}

fn passes(fuse: usize) -> PassConfig {
    PassConfig {
        fuse_max_qubits: fuse,
        ..PassConfig::default()
    }
}

/// Asserts bit-identical state and draws between a finished stride run
/// and its scan twin.
///
/// With `reclaimed`, the stride run compacted its dropped qubits away and
/// re-expands their discarded branches as `+0.0`, while the scan
/// reference (which ignores `Drop`) still holds the signed zeros the
/// measurement projection left there. Exact zeros then compare by value;
/// every other amplitude still compares by bits.
fn assert_bit_identical(
    label: &str,
    reclaimed: bool,
    sv_stride: &StateVector,
    sv_scan: &StateVector,
    rng_stride: &mut StdRng,
    rng_scan: &mut StdRng,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        rng_stride.next_u64(),
        rng_scan.next_u64(),
        "{}: RNG streams diverged",
        label
    );
    let amps_stride = sv_stride.amplitudes();
    let amps_scan = sv_scan.amplitudes();
    prop_assert_eq!(amps_stride.len(), amps_scan.len(), "{}: lengths", label);
    let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (reclaimed && x == 0.0 && y == 0.0);
    for (i, (a, b)) in amps_stride.iter().zip(&amps_scan).enumerate() {
        prop_assert!(
            same(a.re, b.re),
            "{}: re of amp {}: {:e} vs {:e}",
            label,
            i,
            a.re,
            b.re
        );
        prop_assert!(
            same(a.im, b.im),
            "{}: im of amp {}: {:e} vs {:e}",
            label,
            i,
            a.im,
            b.im
        );
    }
    Ok(())
}

proptest! {
    // Each case simulates an up-to-18-qubit modadd 8 times (fused/unfused
    // × reclamation on/off × stride/scan).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stride_matches_scan_on_mbu_modadds(
        n in 2usize..=4,
        pk in 0u128..1_000_000,
        xk in 0u128..1_000_000,
        yk in 0u128..1_000_000,
        arch in 0u8..3,
        lane_pick in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let lanes = [1usize, 4][lane_pick];
        let pmax = (1u128 << n) - 1;
        let p = 2 + pk % (pmax - 1);
        let x = xk % p;
        let y = yk % p;
        let spec = arch_spec(arch, Uncompute::Mbu);
        let layout = modular::modadd_circuit(&spec, n, p).unwrap();
        let nq = layout.circuit.num_qubits();
        let input = StateVector::index_with(&[
            (layout.x.qubits(), u64::try_from(x).unwrap()),
            (layout.y.qubits(), u64::try_from(y).unwrap()),
        ]);

        for fuse in [0usize, 3] {
            let compiled =
                CompiledCircuit::with_config(&layout.circuit, &passes(fuse)).unwrap();
            for reclaim in [true, false] {
                let label = format!("fuse={fuse} reclaim={reclaim} lanes={lanes}");
                let build = |mode: KernelMode| {
                    StateVector::basis(nq, input)
                        .unwrap()
                        .with_kernel_mode(mode)
                        .with_reclamation(reclaim)
                        .with_amp_threads(lanes)
                };

                let mut sv_stride = build(KernelMode::Stride);
                let mut rng_stride = StdRng::seed_from_u64(seed);
                let ex_stride = sv_stride.run_compiled(&compiled, &mut rng_stride).unwrap();

                let mut sv_scan = build(KernelMode::Scan);
                let mut rng_scan = StdRng::seed_from_u64(seed);
                let ex_scan = sv_scan.run_compiled(&compiled, &mut rng_scan).unwrap();

                prop_assert_eq!(&ex_stride, &ex_scan, "{}", &label);
                assert_bit_identical(
                    &label,
                    reclaim,
                    &sv_stride,
                    &sv_scan,
                    &mut rng_stride,
                    &mut rng_scan,
                )?;
                // Both still compute the paper's modular sum.
                prop_assert_eq!(sv_stride.value(layout.x.qubits()).unwrap(), x);
                prop_assert_eq!(sv_stride.value(layout.y.qubits()).unwrap(), (x + y) % p);
            }
        }
    }
}

/// Builds a tiny adaptive circuit over `nq` qubits from raw specs: every
/// gate family, Z/X measurements and resets.
fn tiny_circuit(nq: usize, specs: &[(u8, u32, u32, u32)]) -> Circuit {
    let nqu = u32::try_from(nq).unwrap();
    let mut ops = Vec::new();
    let mut next_clbit = 0u32;
    for &(kind, a, b, c) in specs {
        let qa = QubitId(a % nqu);
        let qb = QubitId((qa.0 + 1 + b % nqu.max(2).saturating_sub(1)) % nqu.max(2));
        let theta = Angle::from_fraction(u128::from(c % 16), 2);
        match kind % 12 {
            0 => ops.push(Op::Gate(Gate::X(qa))),
            1 => ops.push(Op::Gate(Gate::Z(qa))),
            2 => ops.push(Op::Gate(Gate::H(qa))),
            3 => ops.push(Op::Gate(Gate::Phase(qa, theta))),
            4 | 5 if nq >= 2 && qa != qb => ops.push(Op::Gate(if kind % 12 == 4 {
                Gate::Cx(qa, qb)
            } else {
                Gate::Cz(qa, qb)
            })),
            6 if nq >= 2 && qa != qb => ops.push(Op::Gate(Gate::Swap(qa, qb))),
            7 if nq >= 2 && qa != qb => ops.push(Op::Gate(Gate::CPhase(qa, qb, theta))),
            8 | 9 => {
                let clbit = ClbitId(next_clbit);
                next_clbit += 1;
                ops.push(Op::Measure {
                    qubit: qa,
                    basis: if kind % 12 == 8 { Basis::Z } else { Basis::X },
                    clbit,
                });
            }
            10 => ops.push(Op::Reset(qa)),
            _ => ops.push(Op::Gate(Gate::H(qa))),
        }
    }
    Circuit::from_ops(nq, next_clbit as usize, ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole states below one lane group: 1–3 qubits is 2–8 amplitudes,
    /// so the SoA kernels run nothing but their remainder paths here.
    #[test]
    fn stride_matches_scan_below_one_lane_group(
        nq in 1usize..=3,
        specs in collection::vec((0u8..12, 0u32..8, 0u32..8, 0u32..16), 0..24usize),
        seed in 0u64..u64::MAX,
    ) {
        let circuit = tiny_circuit(nq, &specs);

        let mut sv_stride = StateVector::zeros(nq).unwrap();
        let mut rng_stride = StdRng::seed_from_u64(seed);
        let ex_stride = sv_stride.run(&circuit, &mut rng_stride).unwrap();

        let mut sv_scan = StateVector::zeros(nq)
            .unwrap()
            .with_kernel_mode(KernelMode::Scan);
        let mut rng_scan = StdRng::seed_from_u64(seed);
        let ex_scan = sv_scan.run(&circuit, &mut rng_scan).unwrap();

        prop_assert_eq!(&ex_stride, &ex_scan);
        assert_bit_identical(
            "tiny",
            false,
            &sv_stride,
            &sv_scan,
            &mut rng_stride,
            &mut rng_scan,
        )?;
    }
}

/// The classical face of an ensemble (peak-memory stats excluded).
fn classical_view(e: &Ensemble) -> impl PartialEq + std::fmt::Debug {
    let records: Vec<(Vec<Option<bool>>, u64)> = e
        .record_frequencies()
        .map(|(r, n)| (r.to_vec(), n))
        .collect();
    (e.shots(), e.mean(), e.variance(), records)
}

#[test]
fn ensemble_aggregates_match_across_kernel_modes() {
    // A 2-stage MBU modadd chain under the shot engine: aggregates from
    // factories differing only in the kernel mode must be bit-identical.
    let spec = ModAddSpec::cdkpm(Uncompute::Mbu);
    let chain = modular::modadd_chain_circuit(&spec, 2, 3, 2).unwrap();
    let nq = chain.circuit.num_qubits();
    let factory = |mode: KernelMode| {
        let chain = &chain;
        move || {
            let mut sv = StateVector::zeros(nq).unwrap().with_kernel_mode(mode);
            sv.set_value(chain.x.qubits(), 2).unwrap();
            sv.set_value(chain.y.qubits(), 1).unwrap();
            Box::new(sv) as Box<dyn Simulator>
        }
    };

    let stride = ShotRunner::new(48)
        .run(&chain.circuit, factory(KernelMode::Stride))
        .unwrap();
    let scan = ShotRunner::new(48)
        .run(&chain.circuit, factory(KernelMode::Scan))
        .unwrap();
    assert_eq!(classical_view(&stride), classical_view(&scan));
    for clbit in 0..stride.num_clbits() {
        assert_eq!(
            stride.outcome_frequency(clbit),
            scan.outcome_frequency(clbit),
            "clbit {clbit}"
        );
    }
}
