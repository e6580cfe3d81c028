//! Figure 6: QAOA MaxCut on Sherrington–Kirkpatrick graphs (1 round,
//! all-to-all connectivity, 1 injected T gate) across four simulators.
//!
//! Reproduces the crossover of Fig. 6: statevector and MPS beat SuperSim at
//! small sizes but fall behind (or time out) as width grows, while
//! SuperSim's cost stays modest. The all-to-all couplings make this much
//! harder for MPS than the repetition code of Fig. 7.

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
    sweep.header("fig6", "QAOA SK MaxCut, 1 round, 1 non-Clifford gate");
    let sizes: Vec<usize> = if config.full {
        (3..=26).collect()
    } else {
        vec![3, 5, 7, 9, 11, 13, 15, 18, 21, 24]
    };
    for n in sizes {
        sweep.point(n, |rep| {
            workloads::qaoa_sk(n, 1, 1, (n * 31 + rep) as u64).circuit
        });
    }
}
