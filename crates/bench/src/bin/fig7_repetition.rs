//! Figure 7: one phase-flip repetition-code cycle with 1 injected T gate,
//! across four simulators, with fidelity annotations.
//!
//! Reproduces both headline effects: (a) MPS outperforms everything because
//! the repetition-code cycle generates almost no entanglement, and (b) the
//! extended stabilizer's Metropolis sampler collapses in fidelity on this
//! sparse, weakly-connected distribution while SuperSim stays accurate.

use supersim::{
    ExtStabBackend, MpsBackend, Simulator, StatevectorBackend, SuperSim, SuperSimConfig,
};
use supersim_bench::{HarnessConfig, Sweep};
use workloads::RepetitionConfig;

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
    // The paper annotates fidelity on the *complete* distribution here
    // (sparse metric), which is what exposes the extended stabilizer.
    sweep.sparse_fidelity = true;
    sweep.header(
        "fig7",
        "phase repetition code, 1 cycle, 1 T gate (size = total qubits)",
    );
    let max_data = if config.full { 16 } else { 10 };
    for d in 2..=max_data {
        let n = 2 * d - 1;
        sweep.point(n, |rep| {
            workloads::phase_repetition(RepetitionConfig {
                data_qubits: d,
                phase_noise: None,
                t_gates: 1,
                seed: (d * 17 + rep) as u64,
            })
            .circuit
        });
    }
}
