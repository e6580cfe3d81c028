//! Bit-identity of the production tableau engine (`stabsim::TableauSim`,
//! column-major bit-planes) against the frozen bit-at-a-time oracle
//! (`oracles::ReferenceTableauSim`).
//!
//! The two must be indistinguishable for any seed: identical measurement
//! outcomes, identical stabilizer/destabilizer generators, identical
//! affine-support extraction (same base, same direction order), identical
//! expectation values, and — the property everything downstream leans on
//! — identical seeded-RNG consumption, so every later draw in a shared
//! stream stays aligned. `cutkit` reaches the engine only through
//! `TableauSim::run(..).support()` and `AffineSupport::sample_runs` (which
//! `sample_counts` collects), so the last tests pin exactly those calls: on
//! every variant circuit of cut HWEA/QAOA workloads, and the sampler
//! against the oracle's per-direction loop on a grid of widths, dimensions
//! and shot counts.

mod oracles;

use cutkit::{cut_circuit, enumerate_variants, variant_circuit, CutStrategy};
use oracles::{sample_counts_frozen, sample_frozen, ReferenceTableauSim};
use proptest::prelude::*;
use qcir::{Bits, Circuit, CliffordGate, Pauli, PauliString, Qubit};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use stabsim::{AffineSupport, TableauSim};

fn strings(v: Vec<PauliString>) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

fn assert_same_support(engine: &AffineSupport, oracle: &AffineSupport, what: &str) {
    assert_eq!(engine.base(), oracle.base(), "{what}: support base");
    assert_eq!(
        engine.directions(),
        oracle.directions(),
        "{what}: support directions"
    );
}

/// `support.sample_runs` through `buf`, collected as `(outcome, count)`
/// pairs.
fn runs(
    support: &AffineSupport,
    shots: usize,
    rng: &mut impl Rng,
    buf: &mut Vec<u64>,
) -> Vec<(Bits, u64)> {
    let mut out = Vec::new();
    support.sample_runs(shots, rng, buf, |words, n| {
        let mut outcome = Bits::zeros(support.base().len());
        outcome.copy_from_words(words);
        out.push((outcome, n));
    });
    out
}

/// The oracle's ordered-map tally as `(outcome, count)` pairs.
fn frozen(support: &AffineSupport, shots: usize, rng: &mut impl Rng) -> Vec<(Bits, u64)> {
    sample_counts_frozen(support, shots, rng)
        .into_iter()
        .collect()
}

/// RNG wrapper that counts every `next_u64` draw, for asserting the
/// engine and the oracle consume a shared stream at exactly the same rate.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl CountingRng {
    fn seed(seed: u64) -> Self {
        CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        }
    }
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// A random near-arbitrary Clifford circuit with optional noise channels.
/// Two-qubit picks degrade to `H` on single-qubit circuits.
fn clifford_circuit(n: usize, ops: &[(u8, usize, usize)], noise: bool) -> Circuit {
    let mut c = Circuit::new(n);
    for &(kind, a, boff) in ops {
        let a = a % n;
        // A qubit distinct from `a` (only meaningful when n ≥ 2).
        let b = if n >= 2 {
            (a + 1 + boff % (n - 1)) % n
        } else {
            a
        };
        let kind = kind % 10;
        if n < 2 && (6..=8).contains(&kind) {
            c.h(a);
            continue;
        }
        match kind {
            0 => c.h(a),
            1 => c.s(a),
            2 => c.sdg(a),
            3 => c.x(a),
            4 => c.y(a),
            5 => c.z(a),
            6 => c.cx(a, b),
            7 => c.cz(a, b),
            8 => c.swap(a, b),
            _ => {
                if noise {
                    c.add_noise(qcir::NoiseChannel::Depolarize1(0.4), &[a]);
                }
                c.h(a)
            }
        };
    }
    c
}

/// Drives the same circuit + measurement schedule through the engine and
/// the oracle on independent counting streams of one seed and asserts
/// everything is bit-identical, including the number of RNG draws.
fn assert_engine_matches_oracle(c: &Circuit, measure: &[usize], seed: u64) {
    let n = c.num_qubits();
    let mut erng = CountingRng::seed(seed);
    let mut orng = CountingRng::seed(seed);
    let mut engine = TableauSim::run(c, &mut erng).unwrap();
    let mut oracle = ReferenceTableauSim::run(c, &mut orng).unwrap();

    // Pre-collapse state: generators and support extraction must agree.
    assert_eq!(
        strings(engine.stabilizers()),
        strings(oracle.stabilizers()),
        "stabilizers diverged"
    );
    assert_eq!(
        strings(engine.destabilizers()),
        strings(oracle.destabilizers()),
        "destabilizers diverged"
    );
    let support = engine.support();
    assert_same_support(&support, &oracle.support(), "pre-collapse");

    // Bulk sampling consumes the shared stream identically.
    let oracle_support = oracle.support();
    assert_eq!(
        support.sample_many(40, &mut erng),
        (0..40)
            .map(|_| sample_frozen(&oracle_support, &mut orng))
            .collect::<Vec<_>>(),
        "samples diverged"
    );

    // Collapse-style measurement: same outcomes, same draw counts.
    for &q in measure {
        let q = q % n;
        assert_eq!(
            engine.measure(q, &mut erng),
            oracle.measure(q, &mut orng),
            "measurement outcome diverged at qubit {q}"
        );
        assert_eq!(
            erng.draws, orng.draws,
            "RNG draw counts diverged at qubit {q}"
        );
    }

    // Post-collapse generators still agree.
    assert_eq!(
        strings(engine.stabilizers()),
        strings(oracle.stabilizers()),
        "post-measurement stabilizers diverged"
    );
    assert_eq!(
        strings(engine.destabilizers()),
        strings(oracle.destabilizers()),
        "post-measurement destabilizers diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random Clifford circuits + measurement schedules: the engine is
    /// bit-identical to the frozen reference, RNG draws included.
    #[test]
    fn engines_match_reference(
        n in 1usize..9,
        ops in proptest::collection::vec((0u8..10, 0usize..16, 0usize..16), 1..60),
        measure in proptest::collection::vec(0usize..16, 1..12),
        seed in 0u64..1_000,
    ) {
        let c = clifford_circuit(n, &ops, false);
        assert_engine_matches_oracle(&c, &measure, seed);
    }

    /// Same with Pauli noise trajectories in the stream: the engine must
    /// draw the trajectory identically.
    #[test]
    fn engines_match_reference_with_noise(
        n in 2usize..7,
        ops in proptest::collection::vec((0u8..10, 0usize..16, 0usize..16), 1..40),
        measure in proptest::collection::vec(0usize..16, 1..8),
        seed in 0u64..1_000,
    ) {
        let c = clifford_circuit(n, &ops, true);
        assert_engine_matches_oracle(&c, &measure, seed);
    }

    /// Exact Pauli expectations agree (the engine computes the
    /// commutation screen column-wise, the oracle row by row).
    #[test]
    fn expectations_match_reference(
        ops in proptest::collection::vec((0u8..10, 0usize..16, 0usize..16), 1..40),
        paulis in proptest::collection::vec(0u8..4, 5),
        seed in 0u64..1_000,
    ) {
        let n = 5;
        let c = clifford_circuit(n, &ops, false);
        let p = PauliString::from_paulis(
            paulis
                .iter()
                .map(|&k| match k {
                    0 => Pauli::I,
                    1 => Pauli::X,
                    2 => Pauli::Y,
                    _ => Pauli::Z,
                })
                .collect::<Vec<_>>(),
        );
        let engine = TableauSim::run(&c, &mut StdRng::seed_from_u64(seed)).unwrap();
        let oracle = ReferenceTableauSim::run(&c, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(engine.expectation(&p), oracle.expectation(&p));
    }
}

/// Multi-word tableaus (n > 64: several row words in the oracle's
/// extraction, `W4` blocks plus scalar tails in the engine's column
/// kernels) must match the reference identically too.
#[test]
fn engines_match_reference_multiword() {
    for &(n, seed) in &[(65usize, 11u64), (96, 12), (130, 13)] {
        let mut gen = StdRng::seed_from_u64(seed);
        let mut ops = Vec::new();
        for _ in 0..6 * n {
            ops.push((
                (gen.next_u64() % 10) as u8,
                gen.next_u64() as usize % n,
                gen.next_u64() as usize % n,
            ));
        }
        let c = clifford_circuit(n, &ops, false);
        let measure: Vec<usize> = (0..2 * n).map(|i| (i * 7 + 3) % n).collect();
        assert_engine_matches_oracle(&c, &measure, seed + 1000);
    }
}

/// Everything `cutkit` asks of the engine, on every Clifford variant
/// circuit of cut HWEA/QAOA workloads (one past the 64-qubit word): the
/// same `support()` — base and direction order — from the same RNG
/// position, and the same sampled tally from the production sampler as
/// from the frozen per-direction loop.
#[test]
fn variant_supports_and_tallies_match_oracle_on_cut_workloads() {
    let circuits = [
        workloads::hwea(6, 3, 2, 23).circuit,
        workloads::hwea(6, 3, 2, 19).circuit,
        workloads::hwea(8, 3, 1, 5).circuit,
        workloads::hwea(72, 5, 1, 2).circuit,
        workloads::qaoa_sk(6, 1, 1, 3).circuit,
        workloads::qaoa_sk(4, 1, 1, 43).circuit,
    ];
    let mut checked = 0;
    let mut widest = 0;
    for (ci, c) in circuits.iter().enumerate() {
        let cut = cut_circuit(c, CutStrategy::default()).unwrap();
        for (fi, fragment) in cut.fragments.iter().enumerate() {
            if !fragment.is_clifford {
                continue;
            }
            for (vi, variant) in enumerate_variants(fragment).iter().enumerate() {
                let what = format!("circuit {ci}, fragment {fi}, variant {vi}");
                let vc = variant_circuit(fragment, variant);
                widest = widest.max(vc.num_qubits());
                let seed = (ci * 1_000_000 + fi * 10_000 + vi) as u64;
                let mut erng = StdRng::seed_from_u64(seed);
                let mut orng = StdRng::seed_from_u64(seed);
                let support = TableauSim::run(&vc, &mut erng).unwrap().support();
                let oracle = ReferenceTableauSim::run(&vc, &mut orng).unwrap().support();
                assert_same_support(&support, &oracle, &what);

                assert_eq!(
                    support.sample_counts(300, &mut erng),
                    frozen(&oracle, 300, &mut orng),
                    "{what}: tally"
                );
                assert_eq!(
                    erng.random::<u64>(),
                    orng.random::<u64>(),
                    "{what}: RNG positions diverged"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100, "only {checked} variant circuits checked");
    assert!(
        widest > 64,
        "no multiword variant circuit (widest {widest})"
    );
}

/// A support of `dim` independent directions at `width` bits: each
/// direction owns one pivot bit that no other direction sets, and is
/// random elsewhere; the base is random. With `ties` the directions leave
/// bits `3..64` alone, so an outcome's first word takes at most eight
/// values and the multiword sort has to break ties past word 0.
fn random_support(width: usize, dim: usize, ties: bool, gen: &mut StdRng) -> AffineSupport {
    let free: Vec<usize> = (0..width)
        .filter(|b| !ties || !(3..64).contains(b))
        .collect();
    let mut pivots = free.clone();
    for i in (1..pivots.len()).rev() {
        pivots.swap(i, gen.random_range(0..=i));
    }
    pivots.truncate(dim);
    let directions = (0..dim)
        .map(|i| {
            let mut d = Bits::zeros(width);
            for &b in &free {
                d.set(b, gen.random());
            }
            for (j, &p) in pivots.iter().enumerate() {
                d.set(p, i == j);
            }
            d
        })
        .collect();
    let base = (0..width).map(|_| gen.random::<bool>()).collect();
    AffineSupport::new(base, directions)
}

/// The sampler against the oracle's per-direction loop on independent
/// random directions, at the kernel's edges: dimensions at and around the
/// 8-direction byte and the 64-direction block, widths at and around the
/// 64-bit word up to 300 qubits (and the empty support), from zero to
/// 5000 shots, and — past one word — supports whose outcomes share first
/// words. Every case must give the same tally and leave the RNG at the
/// same position. One buffer serves every case, as one worker's does.
#[test]
fn sampling_matches_frozen_loop_on_edge_case_grid() {
    let mut gen = StdRng::seed_from_u64(0x5EED);
    let mut buf = Vec::new();
    let mut cases = vec![(0, 0, false)];
    for width in [1, 64, 65, 72, 130, 300] {
        for dim in [0, 1, 7, 8, 9, 63, 64, 65, 71, 130] {
            if dim <= width {
                cases.push((width, dim, false));
            }
            if width > 64 && dim <= width - 61 {
                cases.push((width, dim, true));
            }
        }
    }
    for (width, dim, ties) in cases {
        let support = random_support(width, dim, ties, &mut gen);
        for shots in [0, 1, 7, 50, 5000] {
            let what = format!("width {width}, dim {dim}, ties {ties}, {shots} shots");
            let seed = gen.random();
            let mut ra = StdRng::seed_from_u64(seed);
            let mut rb = StdRng::seed_from_u64(seed);
            assert_eq!(
                runs(&support, shots, &mut ra, &mut buf),
                frozen(&support, shots, &mut rb),
                "{what}: tally"
            );
            assert_eq!(
                ra.random::<u64>(),
                rb.random::<u64>(),
                "{what}: RNG positions diverged"
            );
        }
    }
}

/// The oracle itself still behaves like a tableau.
#[test]
fn reference_engine_smoke() {
    let mut r = StdRng::seed_from_u64(12345);
    let mut bell = Circuit::new(2);
    bell.h(0).cx(0, 1);
    let sim = ReferenceTableauSim::run(&bell, &mut r).unwrap();
    let sup = sim.support();
    assert_eq!(sup.dim(), 1);
    for s in sim.sample_all(30, &mut r) {
        let t = s.to_string();
        assert!(t == "00" || t == "11", "bad Bell sample {t}");
    }
    let mut sim = ReferenceTableauSim::new(2);
    sim.apply(CliffordGate::X, &[Qubit(1)]);
    assert!(!sim.measure(0, &mut r));
    assert!(sim.measure(1, &mut r));
}
