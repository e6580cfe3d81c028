//! Cut-based error mitigation (paper §III-B, referencing Liu et al.,
//! "Classical simulators as quantum error mitigators via circuit cutting").
//!
//! A noisy "quantum computer" executes the full near-Clifford circuit and
//! suffers errors on every entangling gate. Cutting lets the Clifford bulk
//! of the same circuit run on a *noise-free classical simulator*, so only
//! the (here: zero) part delegated to hardware contributes errors — the
//! reconstruction acts as an error-mitigated estimate of the ideal
//! distribution.
//!
//! ```sh
//! cargo run --release --example error_mitigation
//! ```

use metrics::Distribution;
use qcir::{Circuit, NoiseChannel, OpKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use supersim::{SuperSim, SuperSimConfig};

/// Adds two-qubit depolarizing noise after every entangling gate — a toy
/// model of a noisy QC.
fn noisy_version(c: &Circuit, p: f64) -> Circuit {
    let mut out = Circuit::new(c.num_qubits());
    for op in c.ops() {
        out.push(op.clone());
        if let OpKind::Gate(g) = &op.kind {
            if g.arity() == 2 {
                let qs: Vec<usize> = op.qubits.iter().map(|q| q.index()).collect();
                out.add_noise(NoiseChannel::Depolarize2(p), &[qs[0], qs[1]]);
            }
        }
    }
    out
}

/// "Noisy hardware" execution: statevector trajectories with noise.
fn noisy_hardware_distribution(c: &Circuit, trajectories: usize) -> Distribution {
    let mut rng = StdRng::seed_from_u64(17);
    let n = c.num_qubits();
    let mut pairs = Vec::new();
    for _ in 0..trajectories {
        let sv = svsim::StateVec::run_noisy(c, &mut rng).expect("small circuit");
        for (b, p) in sv.distribution(1e-14) {
            pairs.push((b, p / trajectories as f64));
        }
    }
    Distribution::from_pairs(n, pairs)
}

fn main() {
    // The benchmark circuit: 6-qubit near-Clifford HWEA with one T gate.
    let w = workloads::hwea(6, 3, 1, 21);
    let ideal = {
        let sv = svsim::StateVec::run(&w.circuit).expect("small circuit");
        Distribution::from_pairs(6, sv.distribution(1e-13))
    };

    println!("6-qubit near-Clifford HWEA, one T gate, 2q-depolarizing noise model\n");
    println!("gate error   noisy-QC fidelity   cut-mitigated fidelity");
    for p in [0.002, 0.01, 0.03, 0.08] {
        let noisy = noisy_version(&w.circuit, p);
        let hardware = noisy_hardware_distribution(&noisy, 2000);
        let f_noisy = ideal.hellinger_fidelity(&hardware);

        // Mitigation: the same logical circuit, but the Clifford bulk runs
        // on the noise-free stabilizer simulator via cutting. (Here every
        // fragment is simulated, so only sampling error remains — the
        // limit case of the paper's mitigation argument.)
        let sim = SuperSim::new(
            SuperSimConfig::builder()
                .shots(20_000)
                .seed(3)
                .build()
                .expect("valid config"),
        );
        let mitigated = sim.run(&w.circuit).expect("pipeline runs");
        let f_cut = ideal.hellinger_fidelity(mitigated.distribution.as_ref().unwrap());

        println!("{p:<12.3}{f_noisy:<20.4}{f_cut:<20.4}");
    }
    println!("\nthe cut estimate is independent of the hardware error rate: every");
    println!("fragment ran on a classical simulator, so only sampling noise remains.");
}
