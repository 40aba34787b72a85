//! Golden digests of the compiled programs of every Table 1–6 circuit.
//!
//! Each digest covers what a compile emits: the instruction stream
//! (`instrs()`), the support of every fused block, and the pass counters
//! of [`PassStats`] that describe the program — lowered/emitted sizes,
//! cancellations, merges, identities, phase-dead removals, reclaimed
//! qubits, fused blocks and gates, segments, fork points and the planner's
//! dense/sparse/phase split. Two fields stay out: the verification flags,
//! which depend on the build profile, and the peephole work counter, which
//! measures how the passes search rather than what they emit.
//!
//! The digests were generated with the backward-scan peephole pass (commit
//! `a21bd3b`), before that pass was replaced by the indexed one. Equal
//! digests therefore pin that the indexed pass makes exactly the old
//! decisions on the paper's workloads: every Table 2–6 primitive for all
//! four adder kinds and every Table-1 modular-adder row under both
//! uncomputation strategies, at n ∈ {8, 32, 64, 128}, under the default
//! pipeline, the peephole window alone and the aggressive configuration.
//!
//! To print the table after an intended change to the emitted programs:
//! `cargo test --release --test peephole_golden -- --ignored --nocapture`.

use mbu_arith::{adders, compare, resources::Table1Row, AdderKind, Uncompute};
use mbu_bench::{benchmark_modulus, build_row_circuit};
use mbu_circuit::{Circuit, CompiledCircuit, PassConfig, PassStats};

const ALL_KINDS: [AdderKind; 4] = [
    AdderKind::Vbe,
    AdderKind::Cdkpm,
    AdderKind::Gidney,
    AdderKind::Draper,
];

const ROWS: [Table1Row; 6] = [
    Table1Row::Vbe5,
    Table1Row::Vbe4,
    Table1Row::Cdkpm,
    Table1Row::Gidney,
    Table1Row::CdkpmGidney,
    Table1Row::Draper,
];

/// The three pass configurations, fusion pinned to the default window so
/// an `MBU_FUSION` override in the environment cannot change the program.
fn configs() -> [PassConfig; 3] {
    let default = PassConfig {
        fuse_max_qubits: 3,
        ..PassConfig::default()
    };
    let peephole_only = PassConfig {
        fuse_max_qubits: 0,
        reclaim_dead_qubits: false,
        ..default
    };
    let aggressive = PassConfig {
        phase_dead_before_measure: true,
        ..default
    };
    [default, peephole_only, aggressive]
}

/// Every Table 1–6 circuit at width `n`, labelled.
fn circuits(n: usize) -> Vec<(String, Circuit)> {
    let a = benchmark_modulus(n);
    let mut out = Vec::new();
    for kind in ALL_KINDS {
        let label = |what: &str| format!("{kind:?} {what}");
        out.push((
            label("plain adder"),
            adders::plain_adder(kind, n).unwrap().circuit,
        ));
        out.push((
            label("subtractor"),
            adders::subtractor(kind, n).unwrap().circuit,
        ));
        out.push((
            label("controlled adder"),
            adders::controlled_adder(kind, n).unwrap().circuit,
        ));
        out.push((
            label("const adder"),
            adders::const_adder(kind, n, a).unwrap().circuit,
        ));
        out.push((
            label("controlled const adder"),
            adders::controlled_const_adder(kind, n, a).unwrap().circuit,
        ));
        out.push((
            label("comparator"),
            compare::comparator(kind, n).unwrap().circuit,
        ));
    }
    for row in ROWS {
        for unc in [Uncompute::Mbu, Uncompute::Unitary] {
            let layout = build_row_circuit(row, unc, n, a).unwrap();
            out.push((format!("{row:?} modadd {unc}"), layout.circuit));
        }
    }
    out
}

/// 64-bit FNV-1a, folded over byte slices.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The pass counters a digest covers (every field but the verification
/// flags and the work counter).
fn counters(s: &PassStats) -> [u64; 14] {
    [
        s.lowered_instrs as u64,
        s.cancelled,
        s.merged,
        s.identities_removed,
        s.phase_dead_removed,
        s.dead_qubits_reclaimed,
        s.fused_blocks,
        s.fused_gates,
        s.emitted_instrs as u64,
        s.segments as u64,
        s.fork_points as u64,
        s.planned_dense as u64,
        s.planned_sparse as u64,
        s.planned_phase as u64,
    ]
}

fn digest(compiled: &CompiledCircuit) -> u64 {
    let mut h = Fnv::new();
    for instr in compiled.instrs() {
        h.bytes(format!("{instr:?};").as_bytes());
    }
    for block in compiled.fused_unitaries() {
        h.bytes(b"fused");
        for q in block.qubits() {
            h.num(u64::from(q.0));
        }
    }
    for c in counters(compiled.stats()) {
        h.num(c);
    }
    h.0
}

/// The digests of every circuit at width `n`, one per configuration.
fn digests(n: usize) -> Vec<(String, [u64; 3])> {
    circuits(n)
        .into_iter()
        .map(|(label, circuit)| {
            let d = configs()
                .map(|config| digest(&CompiledCircuit::with_config(&circuit, &config).unwrap()));
            (label, d)
        })
        .collect()
}

fn check(n: usize) {
    let golden: Vec<_> = GOLDEN.iter().filter(|g| g.1 == n).collect();
    let got = digests(n);
    assert_eq!(got.len(), golden.len(), "circuits at n = {n}");
    for ((label, d), want) in got.iter().zip(golden) {
        assert_eq!(label, want.0, "circuit order at n = {n}");
        for (c, name) in ["default", "peephole only", "aggressive"]
            .iter()
            .enumerate()
        {
            assert_eq!(
                d[c], want.2[c],
                "{label} (n = {n}) [{name}]: compiled program differs from the golden"
            );
        }
    }
}

#[test]
fn table_1_to_6_programs_match_goldens_n8() {
    check(8);
}

#[test]
fn table_1_to_6_programs_match_goldens_n32() {
    check(32);
}

#[test]
fn table_1_to_6_programs_match_goldens_n64() {
    check(64);
}

#[test]
fn table_1_to_6_programs_match_goldens_n128() {
    check(128);
}

/// Prints the golden table in source form.
#[test]
#[ignore = "prints the golden table; run on demand"]
fn print_golden_table() {
    for n in [8, 32, 64, 128] {
        for (label, d) in digests(n) {
            println!(
                "    (\"{label}\", {n}, [{:#018x}, {:#018x}, {:#018x}]),",
                d[0], d[1], d[2]
            );
        }
    }
}

/// `(circuit, n, [default, peephole only, aggressive])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, usize, [u64; 3])] = &[
    ("Vbe plain adder", 8, [0xc8c299c35dd07299, 0x17534e63ec1952fd, 0xc8c299c35dd07299]),
    ("Vbe subtractor", 8, [0xc8c299c35dd07299, 0xf926c4c2ae8349ab, 0xc8c299c35dd07299]),
    ("Vbe controlled adder", 8, [0x60144a5ab6ed71e7, 0x674baa31abcf74c2, 0x60144a5ab6ed71e7]),
    ("Vbe const adder", 8, [0xdb7cba7c6bd4d027, 0x685366b43e68be72, 0xdb7cba7c6bd4d027]),
    ("Vbe controlled const adder", 8, [0xed5b2918b3a16c49, 0xd4a8d60509c605a2, 0xed5b2918b3a16c49]),
    ("Vbe comparator", 8, [0x9d505d731791173a, 0x1fb33f8025ca7518, 0x9d505d731791173a]),
    ("Cdkpm plain adder", 8, [0xc367ac6208058dba, 0xca12dfbc33748c07, 0xc367ac6208058dba]),
    ("Cdkpm subtractor", 8, [0x774b57e2deaecd9f, 0x020446f9063aeec7, 0x774b57e2deaecd9f]),
    ("Cdkpm controlled adder", 8, [0xed4ece40f3fbfb27, 0x3b7e6d7083f48ef8, 0xed4ece40f3fbfb27]),
    ("Cdkpm const adder", 8, [0x1349d3e0b454aa1d, 0x1b9f678cee15373c, 0x1349d3e0b454aa1d]),
    ("Cdkpm controlled const adder", 8, [0xb95763fefa72f284, 0x9e795fe51ca8fdac, 0xb95763fefa72f284]),
    ("Cdkpm comparator", 8, [0xf1412db30996a71b, 0x6a4b09cd6a15c276, 0xf1412db30996a71b]),
    ("Gidney plain adder", 8, [0xae0d1a4b208d3248, 0x66803d7b55ae5e9c, 0xae0d1a4b208d3248]),
    ("Gidney subtractor", 8, [0x4acec1157ec628f8, 0x1309ec23843a6f92, 0x4acec1157ec628f8]),
    ("Gidney controlled adder", 8, [0x6ee4682fad3b6bdd, 0x05a68444f0bb0122, 0x6ee4682fad3b6bdd]),
    ("Gidney const adder", 8, [0x116320edac8a4ded, 0x224f8ba9594a1a58, 0x116320edac8a4ded]),
    ("Gidney controlled const adder", 8, [0x0edc4eb85f5a635d, 0xb5ba5e1ff49a2be9, 0x0edc4eb85f5a635d]),
    ("Gidney comparator", 8, [0x61472838a68987f6, 0x7fd645f74191294f, 0x61472838a68987f6]),
    ("Draper plain adder", 8, [0x41940ffa6d66711e, 0x76f0f0abfcb4c0ba, 0x41940ffa6d66711e]),
    ("Draper subtractor", 8, [0x155331d4246433f3, 0xe0a93924b768e80e, 0x155331d4246433f3]),
    ("Draper controlled adder", 8, [0x032ba92a18f746e0, 0xd85535ea32953130, 0x032ba92a18f746e0]),
    ("Draper const adder", 8, [0x3b4521cd4c050463, 0x95a75f1f502ace61, 0x3b4521cd4c050463]),
    ("Draper controlled const adder", 8, [0x936a8ac574a6391e, 0x22d17f0747cffde0, 0x936a8ac574a6391e]),
    ("Draper comparator", 8, [0xa0f8e897dce00cd2, 0xcf2b8a89c0cc7897, 0xa0f8e897dce00cd2]),
    ("Vbe5 modadd MBU", 8, [0x094b0ed019ba7f82, 0xcc91b42c877d830a, 0x094b0ed019ba7f82]),
    ("Vbe5 modadd unitary", 8, [0x526f78c2fe085462, 0x5bab46f520d85a13, 0x526f78c2fe085462]),
    ("Vbe4 modadd MBU", 8, [0x9e9c3864a08c7bc3, 0xc8d792249e744f20, 0x9e9c3864a08c7bc3]),
    ("Vbe4 modadd unitary", 8, [0xa140c9f9eee37bdd, 0xe3ca8dd4729d77df, 0xa140c9f9eee37bdd]),
    ("Cdkpm modadd MBU", 8, [0xd495cff674cd91b3, 0x16c8a1e43ae28f31, 0xd495cff674cd91b3]),
    ("Cdkpm modadd unitary", 8, [0xc5c9812515e9c5b6, 0x013c4762c267bef3, 0xc5c9812515e9c5b6]),
    ("Gidney modadd MBU", 8, [0xf04c767ddb0d119d, 0x57c3cacd5a38925f, 0xf04c767ddb0d119d]),
    ("Gidney modadd unitary", 8, [0x30560e50c219f8dd, 0xfe3b6002ed8d0962, 0x30560e50c219f8dd]),
    ("CdkpmGidney modadd MBU", 8, [0x40435e4c816ef2aa, 0xc3478a2eec57eacf, 0x40435e4c816ef2aa]),
    ("CdkpmGidney modadd unitary", 8, [0x3a59ab31ac9b39f6, 0xe6d6d1b5317d553e, 0x3a59ab31ac9b39f6]),
    ("Draper modadd MBU", 8, [0xea9d5c0cd99c1176, 0x01bd3209a4897bec, 0xea9d5c0cd99c1176]),
    ("Draper modadd unitary", 8, [0x11ea6b37e151e5d1, 0xf9837cda7bb35595, 0x11ea6b37e151e5d1]),
    ("Vbe plain adder", 32, [0x2779da8994638b5d, 0xd31b085f926dd0c9, 0x2779da8994638b5d]),
    ("Vbe subtractor", 32, [0x01b8a276f7a2207a, 0x1ece7cd9a894b269, 0x01b8a276f7a2207a]),
    ("Vbe controlled adder", 32, [0xa1edf5448429cbd8, 0x07493eb00c1963f3, 0xa1edf5448429cbd8]),
    ("Vbe const adder", 32, [0x4113cc2a33e887cb, 0xaf8baae332fb5720, 0x4113cc2a33e887cb]),
    ("Vbe controlled const adder", 32, [0xd764e6c1a7f38a37, 0xf8bf3571970c9602, 0xd764e6c1a7f38a37]),
    ("Vbe comparator", 32, [0xd30f6145d2a05766, 0x26a76aeb49abb0a0, 0xd30f6145d2a05766]),
    ("Cdkpm plain adder", 32, [0x975fd3ce408f22d0, 0xbc71cb459a2fcfa9, 0x975fd3ce408f22d0]),
    ("Cdkpm subtractor", 32, [0x571a553c9cf309ac, 0x83f59550892a1c1f, 0x571a553c9cf309ac]),
    ("Cdkpm controlled adder", 32, [0x0b1e5ad261b42f3e, 0x481cb159bedf4fbf, 0x0b1e5ad261b42f3e]),
    ("Cdkpm const adder", 32, [0xbeef89fffddbf85e, 0x3c88baac346016b6, 0xbeef89fffddbf85e]),
    ("Cdkpm controlled const adder", 32, [0x2e469cd5457e0748, 0x04d27f2efc198e56, 0x2e469cd5457e0748]),
    ("Cdkpm comparator", 32, [0x09ad3c1ee23e8ca0, 0x8c3c48f9c4c41dc0, 0x09ad3c1ee23e8ca0]),
    ("Gidney plain adder", 32, [0x6487a1fb1b3e985d, 0xb7a0688c738dbab3, 0x6487a1fb1b3e985d]),
    ("Gidney subtractor", 32, [0x0cd5a17ab054a2ea, 0x7cd41d040eab5907, 0x0cd5a17ab054a2ea]),
    ("Gidney controlled adder", 32, [0xde7a14a06de879e4, 0x2dbc895c14fec7a5, 0xde7a14a06de879e4]),
    ("Gidney const adder", 32, [0x97e81792b609a956, 0xa6efc0274660a8f2, 0x97e81792b609a956]),
    ("Gidney controlled const adder", 32, [0xc9b221b8028fae24, 0x276367bb05ea6fd1, 0xc9b221b8028fae24]),
    ("Gidney comparator", 32, [0x13ab6ebe28b9d50c, 0xbe2eabd76d1b69c5, 0x13ab6ebe28b9d50c]),
    ("Draper plain adder", 32, [0x133c8826b8256bae, 0xa0ee67ec6a0fff1d, 0x133c8826b8256bae]),
    ("Draper subtractor", 32, [0x928af8d9fce7770d, 0x09448470deb97fc1, 0x928af8d9fce7770d]),
    ("Draper controlled adder", 32, [0xa6d1f9fc0b5169a9, 0x9d8db605794089e1, 0xa6d1f9fc0b5169a9]),
    ("Draper const adder", 32, [0x6239ff3338680485, 0x8435306276ea5b07, 0x6239ff3338680485]),
    ("Draper controlled const adder", 32, [0x9ab6cfd5970e309c, 0x04459f56ee45bb99, 0x9ab6cfd5970e309c]),
    ("Draper comparator", 32, [0x82a47d372ca63d9c, 0x32fcee8b3e42794d, 0x82a47d372ca63d9c]),
    ("Vbe5 modadd MBU", 32, [0xc1f371a42dff8b3d, 0xbbe8243a02d617c6, 0xc1f371a42dff8b3d]),
    ("Vbe5 modadd unitary", 32, [0x110ca42bbd0583e0, 0x9054401c3a2b37e6, 0x110ca42bbd0583e0]),
    ("Vbe4 modadd MBU", 32, [0x030d50faa07c4141, 0xe35dfa8e45b28bb9, 0x030d50faa07c4141]),
    ("Vbe4 modadd unitary", 32, [0x1fa0693c6d575a8d, 0xa2a3884deedf2212, 0x1fa0693c6d575a8d]),
    ("Cdkpm modadd MBU", 32, [0x04646a972bdcd5c7, 0x3b1218a48dea5abd, 0x04646a972bdcd5c7]),
    ("Cdkpm modadd unitary", 32, [0x7ec7db783a20feb4, 0xc38332dc5139be8e, 0x7ec7db783a20feb4]),
    ("Gidney modadd MBU", 32, [0x358d8614decb7f92, 0x722f72d427040381, 0x358d8614decb7f92]),
    ("Gidney modadd unitary", 32, [0x932033cc86ce731c, 0x8284d8bac3f61b93, 0x932033cc86ce731c]),
    ("CdkpmGidney modadd MBU", 32, [0xc645610fd7b68c84, 0x5fa6639952b297e6, 0xc645610fd7b68c84]),
    ("CdkpmGidney modadd unitary", 32, [0x99030c479498404c, 0x1018d7808302de04, 0x99030c479498404c]),
    ("Draper modadd MBU", 32, [0x34dfa4ddb91c4731, 0xa88bc97325b6fa24, 0x34dfa4ddb91c4731]),
    ("Draper modadd unitary", 32, [0x70f23029c703e550, 0x3bd08917065fde3e, 0x70f23029c703e550]),
    ("Vbe plain adder", 64, [0x4caf73ae8ad97f7f, 0x68473ec679e94b3f, 0x4caf73ae8ad97f7f]),
    ("Vbe subtractor", 64, [0x4caf73ae8ad97f7f, 0x589926fec4ce695b, 0x4caf73ae8ad97f7f]),
    ("Vbe controlled adder", 64, [0x8b95b1c2012ef05a, 0x6521c7b4ce841baa, 0x8b95b1c2012ef05a]),
    ("Vbe const adder", 64, [0xe0b5b76b8e92ff9f, 0x1a9053542ebedb84, 0xe0b5b76b8e92ff9f]),
    ("Vbe controlled const adder", 64, [0xc526b51e620f6fcd, 0x2cc263bc1ceeb6b0, 0xc526b51e620f6fcd]),
    ("Vbe comparator", 64, [0x44f7eec23b599097, 0x4c37f18745dbe3fc, 0x44f7eec23b599097]),
    ("Cdkpm plain adder", 64, [0xf33b4004385b21fc, 0x4bc8e96fe46ccc71, 0xf33b4004385b21fc]),
    ("Cdkpm subtractor", 64, [0x7910b335f8eb9eef, 0xbcd90f5c182ee621, 0x7910b335f8eb9eef]),
    ("Cdkpm controlled adder", 64, [0x68c146cb82b3f964, 0x27887e374315b0c7, 0x68c146cb82b3f964]),
    ("Cdkpm const adder", 64, [0xa0ec03cf820f1559, 0xba9b2b65401ef958, 0xa0ec03cf820f1559]),
    ("Cdkpm controlled const adder", 64, [0x24d3e011b87e504e, 0xf582343b8805428b, 0x24d3e011b87e504e]),
    ("Cdkpm comparator", 64, [0x47bfc02e5bc7480b, 0x9a7adc003d24fd5a, 0x47bfc02e5bc7480b]),
    ("Gidney plain adder", 64, [0x6d7784c247b631f2, 0xdad364b102272628, 0x6d7784c247b631f2]),
    ("Gidney subtractor", 64, [0x2ce4b4979adbd22a, 0x42c24ab4120b7d22, 0x2ce4b4979adbd22a]),
    ("Gidney controlled adder", 64, [0x451b946db6f11649, 0x05706123281b3df8, 0x451b946db6f11649]),
    ("Gidney const adder", 64, [0xc95aa1d248f4baf1, 0x17658651db0bc6b0, 0xc95aa1d248f4baf1]),
    ("Gidney controlled const adder", 64, [0x0290e46c2fdac363, 0x7a1caa9ad3a885fd, 0x0290e46c2fdac363]),
    ("Gidney comparator", 64, [0x86d4d8d0f04c514f, 0xae0f20d6d9daa235, 0x86d4d8d0f04c514f]),
    ("Draper plain adder", 64, [0xe445eea9dae1ae89, 0xbc20997d6b8aa126, 0xe445eea9dae1ae89]),
    ("Draper subtractor", 64, [0x1b450db56eb68d50, 0xdac88f4cd87eff3c, 0x1b450db56eb68d50]),
    ("Draper controlled adder", 64, [0xeda27c64d1bfa300, 0x29f1c7e9317eae4f, 0xeda27c64d1bfa300]),
    ("Draper const adder", 64, [0xb4e0cbe9c27aa27a, 0xbea83e9110635f3e, 0xb4e0cbe9c27aa27a]),
    ("Draper controlled const adder", 64, [0x35b882c41529b0b4, 0x5116c19c9d625c1f, 0x35b882c41529b0b4]),
    ("Draper comparator", 64, [0xcbdd9d3c0ed92847, 0x56a1988a96b2095f, 0xcbdd9d3c0ed92847]),
    ("Vbe5 modadd MBU", 64, [0x7b9e76ee9a840753, 0xddf99492370a7af4, 0x7b9e76ee9a840753]),
    ("Vbe5 modadd unitary", 64, [0x6c1972544c755a6b, 0x8038c6c279af48ef, 0x6c1972544c755a6b]),
    ("Vbe4 modadd MBU", 64, [0x51571622cfdcdfbd, 0x8610f1aa937dfa0e, 0x51571622cfdcdfbd]),
    ("Vbe4 modadd unitary", 64, [0x6b938aeef4c39f1f, 0x98571022ac7c9833, 0x6b938aeef4c39f1f]),
    ("Cdkpm modadd MBU", 64, [0x356c43318dc258f4, 0x6b0407642eb2b62c, 0x356c43318dc258f4]),
    ("Cdkpm modadd unitary", 64, [0xbfb2aae0c22bee1c, 0xe47ecbbf37ae15dd, 0xbfb2aae0c22bee1c]),
    ("Gidney modadd MBU", 64, [0x1a55e836e251be53, 0x136a561aa5f8ea70, 0x1a55e836e251be53]),
    ("Gidney modadd unitary", 64, [0x0647781f9650cf21, 0x5c0a759714153106, 0x0647781f9650cf21]),
    ("CdkpmGidney modadd MBU", 64, [0x51bcf3951fa6e847, 0x89cea6339c7c4028, 0x51bcf3951fa6e847]),
    ("CdkpmGidney modadd unitary", 64, [0x8b732dbbfb6587a1, 0xbf00bdb33f050be0, 0x8b732dbbfb6587a1]),
    ("Draper modadd MBU", 64, [0x7fcc5496eecb9a2a, 0x0002179ef6665122, 0x7fcc5496eecb9a2a]),
    ("Draper modadd unitary", 64, [0x784365bd0e6892c7, 0xe09c9b8af5776682, 0x784365bd0e6892c7]),
    ("Vbe plain adder", 128, [0xbf9cebd6f13aed8e, 0x44a71e653ef1cc88, 0xbf9cebd6f13aed8e]),
    ("Vbe subtractor", 128, [0xbf9cebd6f13aed8e, 0x60073f00b17ad14c, 0xbf9cebd6f13aed8e]),
    ("Vbe controlled adder", 128, [0x3929b02abcf92189, 0xa421f16637d311f3, 0x3929b02abcf92189]),
    ("Vbe const adder", 128, [0xb30d65bc789230ee, 0xdf321ac79daf364b, 0xb30d65bc789230ee]),
    ("Vbe controlled const adder", 128, [0x19afa636d65253c8, 0x28a2e931a0d287af, 0x19afa636d65253c8]),
    ("Vbe comparator", 128, [0x67258c7305ecfe87, 0xb8c5511d802a4bae, 0x67258c7305ecfe87]),
    ("Cdkpm plain adder", 128, [0x976d98daa92ae6cc, 0x58d8d4eeb8fb8655, 0x976d98daa92ae6cc]),
    ("Cdkpm subtractor", 128, [0x354a3e065515c4b6, 0x93bd0d51bda84c21, 0x354a3e065515c4b6]),
    ("Cdkpm controlled adder", 128, [0x41c8820f59d88ab5, 0x269652f0a869a036, 0x41c8820f59d88ab5]),
    ("Cdkpm const adder", 128, [0x77f31d08b245d8ca, 0xaf8c6bca0c1a4e11, 0x77f31d08b245d8ca]),
    ("Cdkpm controlled const adder", 128, [0x9744cd8f6aa01659, 0xccf8c493a0e6a175, 0x9744cd8f6aa01659]),
    ("Cdkpm comparator", 128, [0x9bdf12284fde7cd7, 0xcc424ecaf902c86b, 0x9bdf12284fde7cd7]),
    ("Gidney plain adder", 128, [0xd05a37e7648c3cf7, 0x9efd92532f6c90bf, 0xd05a37e7648c3cf7]),
    ("Gidney subtractor", 128, [0xf98172d5cee473a4, 0x8aed71e5f0403a99, 0xf98172d5cee473a4]),
    ("Gidney controlled adder", 128, [0x6d03a6d4e1cf7b73, 0xd35ed2ec5728e02c, 0x6d03a6d4e1cf7b73]),
    ("Gidney const adder", 128, [0x25d18bfc867b79b9, 0x5f58d07eac165895, 0x25d18bfc867b79b9]),
    ("Gidney controlled const adder", 128, [0x74002ce80e3f203e, 0x904f9459de3a3ed8, 0x74002ce80e3f203e]),
    ("Gidney comparator", 128, [0x19cfd05f83f27259, 0xfadc774a52876cd9, 0x19cfd05f83f27259]),
    ("Draper plain adder", 128, [0x4940fa9a2e488a2e, 0xca415ad8c54db692, 0x4940fa9a2e488a2e]),
    ("Draper subtractor", 128, [0x24ac035080b0905c, 0x0dd419b67c56c6e9, 0x24ac035080b0905c]),
    ("Draper controlled adder", 128, [0xaf87483da30334ff, 0x91e4aaa682fbb3a6, 0xaf87483da30334ff]),
    ("Draper const adder", 128, [0x18ddff61307dd0d8, 0x5f04e9796451977f, 0x18ddff61307dd0d8]),
    ("Draper controlled const adder", 128, [0x4d0473b21f142f25, 0x35ef78d07db28c01, 0x4d0473b21f142f25]),
    ("Draper comparator", 128, [0xfb07557f2becbbcf, 0xecfba873f06c0dea, 0xfb07557f2becbbcf]),
    ("Vbe5 modadd MBU", 128, [0x980cdbebb66ec808, 0x9b459a7af2331cdc, 0x980cdbebb66ec808]),
    ("Vbe5 modadd unitary", 128, [0xe378d9e0aa7aa0d9, 0xfdda719bdbd47f68, 0xe378d9e0aa7aa0d9]),
    ("Vbe4 modadd MBU", 128, [0xd69c2446c3d46763, 0x31904b4dcdd9e27f, 0xd69c2446c3d46763]),
    ("Vbe4 modadd unitary", 128, [0x0cbccb689bc9245e, 0x5ce02bf393b11055, 0x0cbccb689bc9245e]),
    ("Cdkpm modadd MBU", 128, [0x939dccbeb72f2cfe, 0x78662ab944fd7685, 0x939dccbeb72f2cfe]),
    ("Cdkpm modadd unitary", 128, [0x416cf3446ebf5e4f, 0x4815ce9d9fa9ddf8, 0x416cf3446ebf5e4f]),
    ("Gidney modadd MBU", 128, [0xfbe3add2449dd384, 0x070ba5855f214920, 0xfbe3add2449dd384]),
    ("Gidney modadd unitary", 128, [0xd9f2ad4609027af3, 0x2b31a497f7c49e0d, 0xd9f2ad4609027af3]),
    ("CdkpmGidney modadd MBU", 128, [0xfcb42f565df5a9d2, 0x10e5b5ab047e0c01, 0xfcb42f565df5a9d2]),
    ("CdkpmGidney modadd unitary", 128, [0x76fee24aa8abfb07, 0x8c6b3948321ad1a5, 0x76fee24aa8abfb07]),
    ("Draper modadd MBU", 128, [0xf2350c7d29e22375, 0x801b765210d25559, 0xf2350c7d29e22375]),
    ("Draper modadd unitary", 128, [0xf217d91399817ce5, 0x474aac20957f328d, 0xf217d91399817ce5]),
];
