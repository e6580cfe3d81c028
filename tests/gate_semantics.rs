//! Loop-closure tests tying the three independent encodings of every
//! Clifford gate together: the dense unitary ([`qcir::Gate::unitary`]),
//! the Pauli conjugation table ([`qcir::PauliString::conjugate_by`]), and
//! the tableau column update ([`stabsim::TableauSim::apply`]).
//!
//! A bug in any one encoding breaks the triangle; agreement on all pairs
//! pins each of them down. The statevector stops at a few qubits, so the
//! last test checks wide (multi-word) tableaus against a bit vector.

use qcir::{Circuit, CliffordGate, Gate, Pauli, PauliString, Qubit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use svsim::StateVec;

const ALL_1Q: [CliffordGate; 11] = CliffordGate::ONE_QUBIT;
const ALL_2Q: [CliffordGate; 4] = [
    CliffordGate::Cx,
    CliffordGate::Cy,
    CliffordGate::Cz,
    CliffordGate::Swap,
];

/// All single- and two-qubit Pauli strings on `n` qubits (no phase).
fn all_pauli_strings(n: usize) -> Vec<PauliString> {
    let mut out = Vec::new();
    for mask in 0..(4usize.pow(n as u32)) {
        let mut s = PauliString::identity(n);
        let mut m = mask;
        for q in 0..n {
            s.set_pauli(q, Pauli::from_index(m % 4));
            m /= 4;
        }
        out.push(s);
    }
    out
}

/// Checks `⟨ψ|G†PG|ψ⟩ == ⟨ψ|(G P G†)|ψ⟩` on a generic entangled state for
/// every Pauli string — statevector semantics vs the conjugation table.
#[test]
fn conjugation_table_matches_unitaries_for_every_clifford() {
    // Generic (non-stabilizer) probe state to avoid accidental zeros.
    let mut probe = Circuit::new(2);
    probe
        .h(0)
        .t(0)
        .cx(0, 1)
        .ry(1, 0.9)
        .rz(0, 0.4)
        .cz(0, 1)
        .rx(1, 1.3);
    let psi = StateVec::run(&probe).unwrap();

    let mut checked = 0;
    for (gate, qubits) in ALL_1Q
        .iter()
        .flat_map(|&g| [(g, vec![Qubit(0)]), (g, vec![Qubit(1)])])
        .chain(
            ALL_2Q
                .iter()
                .flat_map(|&g| [(g, vec![Qubit(0), Qubit(1)]), (g, vec![Qubit(1), Qubit(0)])]),
        )
    {
        for p in all_pauli_strings(2) {
            // Left side: apply G to the state, then measure P.
            let mut evolved = psi.clone();
            evolved.apply_gate(Gate::from(gate), &qubits);
            let lhs = evolved.expectation_pauli(&p);

            // Right side: ⟨Gψ|P|Gψ⟩ = ⟨ψ|G†PG|ψ⟩, i.e. conjugate P by G†
            // via the table and measure on the original state.
            let mut pc = p.clone();
            pc.conjugate_by(gate.adjoint(), &qubits);
            let sign = match pc.phase() {
                0 => 1.0,
                2 => -1.0,
                other => panic!("non-Hermitian phase {other} from {gate:?}"),
            };
            let mut bare = PauliString::identity(2);
            for q in 0..2 {
                bare.set_pauli(q, pc.pauli(q));
            }
            let rhs = sign * psi.expectation_pauli(&bare);
            assert!(
                (lhs - rhs).abs() < 1e-9,
                "{gate:?} on {qubits:?}: <{p}> {lhs} vs {rhs}"
            );
            checked += 1;
        }
    }
    assert!(checked > 400, "should have checked many combinations");
}

/// Tableau expectations match statevector expectations after every gate —
/// the tableau column rules vs the unitaries.
#[test]
fn tableau_updates_match_unitaries_for_every_clifford() {
    let mut rng = StdRng::seed_from_u64(4);
    for &gate in ALL_1Q.iter().chain(ALL_2Q.iter()) {
        // Prepare a random stabilizer state first so the gate acts on
        // something non-trivial.
        let prep = workloads::random_clifford(3, 3, u64::from(gate as u8) + 10);
        let qubits: Vec<Qubit> = match gate.arity() {
            1 => vec![Qubit(1)],
            _ => vec![Qubit(2), Qubit(0)],
        };
        let mut tab = stabsim::TableauSim::run(&prep, &mut rng).unwrap();
        tab.apply(gate, &qubits);
        let mut sv = StateVec::run(&prep).unwrap();
        sv.apply_gate(Gate::from(gate), &qubits);
        for p in all_pauli_strings(3) {
            let t = tab.expectation(&p) as f64;
            let s = sv.expectation_pauli(&p);
            assert!(
                (t - s).abs() < 1e-9,
                "{gate:?}: <{p}> tableau {t} vs sv {s}"
            );
        }
    }
}

/// `Gate::adjoint` really is the inverse at the statevector level for the
/// whole gate set.
#[test]
fn adjoint_is_inverse_for_the_whole_gate_set() {
    let gates: Vec<(Gate, Vec<Qubit>)> = vec![
        (Gate::H, vec![Qubit(0)]),
        (Gate::S, vec![Qubit(1)]),
        (Gate::Sdg, vec![Qubit(2)]),
        (Gate::T, vec![Qubit(0)]),
        (Gate::Tdg, vec![Qubit(1)]),
        (Gate::SqrtX, vec![Qubit(2)]),
        (Gate::SqrtXdg, vec![Qubit(0)]),
        (Gate::SqrtY, vec![Qubit(1)]),
        (Gate::SqrtYdg, vec![Qubit(2)]),
        (Gate::Rz(0.37), vec![Qubit(0)]),
        (Gate::Rx(1.1), vec![Qubit(1)]),
        (Gate::Ry(-0.6), vec![Qubit(2)]),
        (Gate::ZPow(0.81), vec![Qubit(0)]),
        (Gate::Cx, vec![Qubit(0), Qubit(2)]),
        (Gate::Cy, vec![Qubit(1), Qubit(0)]),
        (Gate::Cz, vec![Qubit(2), Qubit(1)]),
        (Gate::Swap, vec![Qubit(0), Qubit(1)]),
    ];
    let mut probe = Circuit::new(3);
    probe.h(0).t(0).cx(0, 1).ry(2, 0.8).cz(1, 2);
    let psi = StateVec::run(&probe).unwrap();
    for (g, qs) in gates {
        let mut evolved = psi.clone();
        evolved.apply_gate(g, &qs);
        evolved.apply_gate(g.adjoint(), &qs);
        assert!(
            (evolved.fidelity(&psi) - 1.0).abs() < 1e-10,
            "{} adjoint not inverse",
            g.name()
        );
    }
}

/// Circuit::adjoint inverts whole circuits.
#[test]
fn circuit_adjoint_inverts() {
    let mut c = Circuit::new(3);
    c.h(0).t(1).cx(0, 2).ry(1, 0.5).cz(1, 2).s(0).swap(0, 1);
    let mut roundtrip = c.clone();
    roundtrip.append(&c.adjoint());
    let psi = StateVec::run(&roundtrip).unwrap();
    assert!((psi.probability_of_index(0) - 1.0).abs() < 1e-10);
}

/// RNG that counts its draws, to show deterministic measurements take none.
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl rand::RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// Wide circuits against an oracle that is not a tableau: X / CX / SWAP
/// permute computational-basis states and Z / S / CZ are diagonal, so a
/// plain bit vector simulates such a circuit exactly. The widths span one
/// tableau column word and a tail (65), a full `u64×4` block plus a tail
/// (130 → 5 column words), and the paper's Fig. 3 range (300).
#[test]
fn classical_reversible_circuits_match_a_bit_vector_at_wide_n() {
    use rand::Rng;
    for (n, seed) in [(65usize, 1u64), (130, 2), (300, 3)] {
        let mut gen = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        let mut bits = vec![false; n];
        for _ in 0..12 * n {
            let a = gen.random_range(0..n);
            let b = (a + 1 + gen.random_range(0..n - 1)) % n;
            match gen.random_range(0..6) {
                0 => {
                    c.x(a);
                    bits[a] = !bits[a];
                }
                1 => {
                    c.cx(a, b);
                    bits[b] ^= bits[a];
                }
                2 => {
                    c.swap(a, b);
                    bits.swap(a, b);
                }
                3 => {
                    c.z(a);
                }
                4 => {
                    c.s(a);
                }
                _ => {
                    c.cz(a, b);
                }
            }
        }
        assert!(bits.iter().any(|&b| b) && bits.iter().any(|&b| !b));

        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(seed),
            draws: 0,
        };
        let mut sim = stabsim::TableauSim::run(&c, &mut rng).unwrap();
        let support = sim.support();
        assert_eq!(support.dim(), 0, "n={n}: basis state has a point support");
        assert_eq!(
            support.base(),
            &qcir::Bits::from_bools(&bits),
            "n={n}: support base"
        );
        let measured: Vec<bool> = (0..n).map(|q| sim.measure(q, &mut rng)).collect();
        assert_eq!(measured, bits, "n={n}: measured bits");
        assert_eq!(
            rng.draws, 0,
            "n={n}: deterministic outcomes drew from the RNG"
        );
    }
}
