//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Each `fig*` binary in `src/bin/` regenerates one figure of the SuperSim
//! paper as a TSV series on stdout (`qubits <TAB> backend <TAB> seconds
//! <TAB> fidelity`). The harness times backends as *samplers* (the paper's
//! §VI-A protocol) and applies the paper's adaptive timeout discipline: a
//! backend that exceeds the per-point time budget is dropped from larger
//! problem sizes, mirroring the truncated curves in Figs. 3 and 6.
//!
//! Environment knobs:
//!
//! * `FULL=1` — paper-scale parameters (5000 shots, 5 repetitions, larger
//!   size grids, more generous timeouts);
//! * `SHOTS`, `REPS`, `TIMEOUT_SECS` — individual overrides.

use metrics::{mean_marginal_fidelity, Distribution};
use qcir::Circuit;
use std::collections::HashSet;
use std::time::Instant;
use supersim::{BackendError, Simulator};

/// Harness-wide settings, resolved from the environment.
#[derive(Clone, Copy, Debug)]
pub struct HarnessConfig {
    /// Shots per sampled distribution (paper: 5000).
    pub shots: usize,
    /// Repetitions averaged per data point (paper: 5 for Figs. 3/6).
    pub reps: usize,
    /// Per-point time budget; larger sizes are skipped for a backend that
    /// exceeds it (paper: 30 minutes).
    pub timeout_secs: f64,
    /// Whether paper-scale grids were requested.
    pub full: bool,
}

impl HarnessConfig {
    /// Reads the configuration from the environment.
    pub fn from_env() -> Self {
        let full = std::env::var("FULL").map(|v| v == "1").unwrap_or(false);
        let default_shots = if full { 5000 } else { 1000 };
        let default_reps = if full { 5 } else { 2 };
        let default_timeout = if full { 1800.0 } else { 15.0 };
        HarnessConfig {
            shots: env_usize("SHOTS", default_shots),
            reps: env_usize("REPS", default_reps),
            timeout_secs: env_f64("TIMEOUT_SECS", default_timeout),
            full,
        }
    }
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One measured data point.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall time in seconds (averaged over repetitions).
    pub seconds: f64,
    /// Fidelity against the exact reference, when one was computable.
    pub fidelity: Option<f64>,
}

/// Runs one backend once and returns `(seconds, marginals)`.
///
/// # Errors
///
/// Propagates the backend error.
pub fn time_marginals(
    sim: &dyn Simulator,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
) -> Result<(f64, Vec<[f64; 2]>), BackendError> {
    let t0 = Instant::now();
    let marg = sim.run_marginals(circuit, shots, seed)?;
    Ok((t0.elapsed().as_secs_f64(), marg))
}

/// Runs one backend once and returns `(seconds, distribution)`.
///
/// # Errors
///
/// Propagates the backend error.
pub fn time_distribution(
    sim: &dyn Simulator,
    circuit: &Circuit,
    shots: usize,
    seed: u64,
) -> Result<(f64, Distribution), BackendError> {
    let t0 = Instant::now();
    let dist = sim.run_distribution(circuit, shots, seed)?;
    Ok((t0.elapsed().as_secs_f64(), dist))
}

/// The exact reference marginals via dense statevector simulation, when
/// the circuit is narrow enough.
pub fn reference_marginals(circuit: &Circuit) -> Option<Vec<[f64; 2]>> {
    if circuit.num_qubits() > 20 || circuit.has_noise() {
        return None;
    }
    let sv = svsim::StateVec::run(circuit).ok()?;
    let dist = Distribution::from_pairs(circuit.num_qubits(), sv.distribution(1e-14));
    Some(dist.marginals())
}

/// The exact reference distribution, when computable.
pub fn reference_distribution(circuit: &Circuit) -> Option<Distribution> {
    if circuit.num_qubits() > 20 || circuit.has_noise() {
        return None;
    }
    let sv = svsim::StateVec::run(circuit).ok()?;
    Some(Distribution::from_pairs(
        circuit.num_qubits(),
        sv.distribution(1e-14),
    ))
}

/// A sweep over problem sizes comparing several backends, with the
/// adaptive timeout discipline.
pub struct Sweep<'a> {
    config: HarnessConfig,
    backends: Vec<Box<dyn Simulator + 'a>>,
    timed_out: HashSet<usize>,
    /// Use full-distribution Hellinger fidelity (sparse metric) instead of
    /// the mean single-qubit marginal fidelity (dense metric).
    pub sparse_fidelity: bool,
}

impl<'a> Sweep<'a> {
    /// Creates a sweep over the given backends.
    pub fn new(config: HarnessConfig, backends: Vec<Box<dyn Simulator + 'a>>) -> Self {
        Sweep {
            config,
            backends,
            timed_out: HashSet::new(),
            sparse_fidelity: false,
        }
    }

    /// Prints the TSV header.
    pub fn header(&self, figure: &str, detail: &str) {
        println!("# {figure}: {detail}");
        println!(
            "# shots={} reps={} timeout={}s full={}",
            self.config.shots, self.config.reps, self.config.timeout_secs, self.config.full
        );
        println!("size\tbackend\tseconds\tfidelity");
    }

    /// Measures every backend on one problem size. `make_circuit` receives
    /// the repetition index so each rep can draw a fresh random instance
    /// (the paper averages 5 instances per point).
    pub fn point(&mut self, size: usize, make_circuit: impl Fn(usize) -> Circuit) {
        for b in 0..self.backends.len() {
            if self.timed_out.contains(&b) {
                continue;
            }
            let mut total = 0.0;
            let mut completed = 0usize;
            let mut fid_total = 0.0;
            let mut fid_count = 0usize;
            let mut failed = false;
            for rep in 0..self.config.reps {
                let circuit = make_circuit(rep);
                let seed = (size as u64) << 16 | rep as u64;
                if self.sparse_fidelity {
                    match time_distribution(
                        self.backends[b].as_ref(),
                        &circuit,
                        self.config.shots,
                        seed,
                    ) {
                        Ok((secs, dist)) => {
                            total += secs;
                            completed += 1;
                            if let Some(reference) = reference_distribution(&circuit) {
                                fid_total += reference.hellinger_fidelity(&dist);
                                fid_count += 1;
                            }
                        }
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                } else {
                    match time_marginals(
                        self.backends[b].as_ref(),
                        &circuit,
                        self.config.shots,
                        seed,
                    ) {
                        Ok((secs, marg)) => {
                            total += secs;
                            completed += 1;
                            if let Some(reference) = reference_marginals(&circuit) {
                                fid_total += mean_marginal_fidelity(&reference, &marg);
                                fid_count += 1;
                            }
                        }
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                if total > self.config.timeout_secs {
                    break;
                }
            }
            let name = self.backends[b].name();
            if failed {
                println!("{size}\t{name}\tskip\t-");
                self.timed_out.insert(b);
                continue;
            }
            let avg = total / completed.max(1) as f64;
            let fid = if fid_count > 0 {
                format!("{:.4}", fid_total / fid_count as f64)
            } else {
                "-".to_string()
            };
            println!("{size}\t{name}\t{avg:.4}\t{fid}");
            if total > self.config.timeout_secs {
                self.timed_out.insert(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim::StatevectorBackend;

    #[test]
    fn reference_marginals_on_bell() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let m = reference_marginals(&c).unwrap();
        assert!((m[0][0] - 0.5).abs() < 1e-12);
        assert!((m[1][1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reference_unavailable_for_wide_circuits() {
        let c = Circuit::new(32);
        assert!(reference_marginals(&c).is_none());
    }

    #[test]
    fn timing_returns_positive_duration() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let (secs, marg) = time_marginals(&StatevectorBackend, &c, 500, 1).unwrap();
        assert!(secs >= 0.0);
        assert_eq!(marg.len(), 2);
    }

    #[test]
    fn harness_config_defaults() {
        let cfg = HarnessConfig::from_env();
        assert!(cfg.shots > 0);
        assert!(cfg.reps > 0);
    }
}
