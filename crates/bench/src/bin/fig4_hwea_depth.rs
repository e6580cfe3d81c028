//! Figure 4: simulation time vs HWEA rounds at fixed width (20 qubits,
//! 1 injected T gate), SuperSim vs MPS.
//!
//! Reproduces the depth/entanglement story: exact MPS cost grows
//! exponentially with entangling rounds, while SuperSim's runtime is
//! insensitive to rounds (it is dominated by fragment postprocessing).

use supersim::{MpsBackend, Simulator, SuperSim, SuperSimConfig};
use supersim_bench::{HarnessConfig, Sweep};

fn main() {
    let config = HarnessConfig::from_env();
    let n = 20;
    let backends: Vec<Box<dyn Simulator>> = vec![
        Box::new(SuperSim::new(
            SuperSimConfig::builder()
                .shots(config.shots)
                .build()
                .expect("valid config"),
        )),
        Box::new(MpsBackend::default()),
    ];
    let mut sweep = Sweep::new(config, backends);
    sweep.header("fig4", "20-qubit Clifford HWEA, 1 T gate, depth sweep");
    let max_rounds = if config.full { 10 } else { 8 };
    for rounds in 1..=max_rounds {
        sweep.point(rounds, |rep| {
            workloads::hwea(n, rounds, 1, (rounds * 57 + rep) as u64).circuit
        });
    }
}
