//! Ablation A: reconstruction fidelity vs shot budget, with and without the
//! maximum-likelihood fragment-tomography correction and with and without
//! Clifford `⟨P⟩` snapping.
//!
//! Expectation (paper §V-C and §IX): MLFT and snapping both mitigate
//! sampling error, so the corrected curves should dominate the raw one at
//! every shot budget.

use metrics::Distribution;
use qcir::Circuit;
use supersim::{SuperSim, SuperSimConfig};

fn fidelity(c: &Circuit, cfg: &SuperSimConfig, reps: usize) -> f64 {
    let sv = svsim::StateVec::run(c).expect("reference fits");
    let reference = Distribution::from_pairs(c.num_qubits(), sv.distribution(1e-14));
    let mut total = 0.0;
    for rep in 0..reps {
        let cfg = cfg
            .clone()
            .into_builder()
            .seed(rep as u64 * 7919 + 1)
            .build()
            .expect("valid config");
        let result = SuperSim::new(cfg).run(c).expect("pipeline runs");
        let dist = result.distribution.expect("joint available");
        total += reference.hellinger_fidelity(&dist);
    }
    total / reps as f64
}

fn main() {
    let full = std::env::var("FULL").map(|v| v == "1").unwrap_or(false);
    let reps = if full { 20 } else { 6 };
    let w = workloads::hwea(8, 3, 2, 42);
    println!("# ablation_mlft: HWEA n=8 r=3 t=2, Hellinger fidelity vs shots");
    println!("shots\traw\tmlft\tsnap\tmlft+snap");
    let budgets = if full {
        vec![50, 100, 200, 400, 800, 1600, 3200]
    } else {
        vec![50, 150, 400, 1200]
    };
    for shots in budgets {
        let base = SuperSimConfig::builder()
            .shots(shots)
            .mlft(false)
            .clifford_snap(false)
            .build()
            .expect("valid config");
        let with = |mlft: bool, snap: bool| {
            base.clone()
                .into_builder()
                .mlft(mlft)
                .clifford_snap(snap)
                .build()
                .expect("valid config")
        };
        let raw = fidelity(&w.circuit, &base, reps);
        let mlft = fidelity(&w.circuit, &with(true, false), reps);
        let snap = fidelity(&w.circuit, &with(false, true), reps);
        let both = fidelity(&w.circuit, &with(true, true), reps);
        println!("{shots}\t{raw:.4}\t{mlft:.4}\t{snap:.4}\t{both:.4}");
    }
}
