//! Figure 3: simulation time vs qubit count for the VQE HWEA benchmark
//! (5 rounds, 1 randomly injected T gate) across four simulators.
//!
//! Reproduces the paper's headline crossover: the statevector simulator
//! hits its exponential wall in the mid-20s of qubits while SuperSim's
//! Clifford-cut runtime stays flat; the extended stabilizer tracks SV-like
//! costs; MPS wins at low entanglement but loses past the crossover.

use supersim::{
    ExtStabBackend, MpsBackend, Simulator, StatevectorBackend, SuperSim, SuperSimConfig,
};
use supersim_bench::{HarnessConfig, Sweep};

fn main() {
    let config = HarnessConfig::from_env();
    let backends: Vec<Box<dyn Simulator>> = vec![
        Box::new(SuperSim::new(
            SuperSimConfig::builder()
                .shots(config.shots)
                .build()
                .expect("valid config"),
        )),
        Box::new(StatevectorBackend),
        Box::new(MpsBackend::default()),
        Box::new(ExtStabBackend::default()),
    ];
    let mut sweep = Sweep::new(config, backends);
    sweep.header("fig3", "VQE HWEA, 5 rounds, 1 non-Clifford gate");
    let sizes: Vec<usize> = if config.full {
        (2..=38).step_by(2).collect()
    } else {
        vec![2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28]
    };
    for n in sizes {
        sweep.point(n, |rep| {
            workloads::hwea(n, 5, 1, (n * 100 + rep) as u64).circuit
        });
    }
}
