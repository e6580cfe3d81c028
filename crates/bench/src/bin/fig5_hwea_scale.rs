//! Figure 5: SuperSim runtime up to 300 qubits (HWEA, 5 rounds, 1 T gate).
//!
//! Each point is a single random instance (as in the paper), so the curve
//! is intentionally noisy: the position of the injected T gate changes how
//! the circuit fragments and therefore the postprocessing cost.

use supersim::{Simulator, SuperSim, SuperSimConfig};
use supersim_bench::{HarnessConfig, Sweep};

fn main() {
    let mut config = HarnessConfig::from_env();
    config.reps = 1; // single instance per point, as in the paper
    let backends: Vec<Box<dyn Simulator>> = vec![Box::new(SuperSim::new(
        SuperSimConfig::builder()
            .shots(config.shots)
            .build()
            .expect("valid config"),
    ))];
    let mut sweep = Sweep::new(config, backends);
    sweep.header("fig5", "Clifford HWEA, 1 T gate, up to 300 qubits");
    let step = if config.full { 10 } else { 25 };
    let mut n = step.max(10);
    while n <= 300 {
        sweep.point(n, |_| workloads::hwea(n, 5, 1, n as u64).circuit);
        n += step;
    }
}
