//! The benchmark's workloads.
//!
//! The circuit-generator seeds below are part of each workload's
//! definition, not of `--seed`: where the injected T gates land changes the
//! cut structure and the cost of a run by up to 50× (paper Fig. 5), so they
//! are pinned and `--seed` drives only the tomography sampling.

use cutkit::CutStrategy;
use qcir::Circuit;
use supersim::SuperSimConfig;
use workloads::{hwea, qaoa_sk, t_ladder};

/// Shots per fragment variant: the paper's protocol.
pub const SHOTS: usize = 5000;
/// The joint distribution is built while the product of the fragment
/// supports stays within this.
pub const JOINT_SUPPORT_LIMIT: usize = 2_000_000;
/// Workers of the one multi-threaded workload.
pub const BATCH_THREADS: usize = 2;

/// How one operation drives the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `plan` + `run_with` on a warm instance: every plan is a cache hit.
    Warm,
    /// A fresh instance per operation: every plan is a cache miss.
    Cold,
    /// One `run_batch` over all circuits on `BATCH_THREADS` workers.
    Batch,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Why the workload exists; `BENCHMARK.json` carries the same line.
    pub why: &'static str,
}

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "hwea_wide",
        kind: Kind::Warm,
        why: "72-qubit one-T HWEA (paper Fig. 3/5), past the 64-bit word: stabilizer sampling, tensor accumulation and MLFT share the run",
    },
    Spec {
        name: "qaoa_sk",
        kind: Kind::Warm,
        why: "20-qubit one-T QAOA-SK (Fig. 6), all-to-all CX, 2 cuts: MLFT is the largest share, so an MLFT change shows here first",
    },
    Spec {
        name: "hwea_t2",
        kind: Kind::Warm,
        why: "20-qubit two-T HWEA, 4 cuts: recombination over large sampled supports leads, MLFT and evaluation follow - the balanced run",
    },
    Spec {
        name: "hwea_t3",
        kind: Kind::Warm,
        why: "8-qubit three-T HWEA, 6 cuts, 472 cheap variants: fragment evaluation, mostly tensor accumulation, is nearly all of the run",
    },
    Spec {
        name: "ladder_dense",
        kind: Kind::Warm,
        why: "T-rich ladder where cutting buys nothing: a statevector fragment dominates; bypasses every stabilizer and MLFT optimisation",
    },
    Spec {
        name: "ladder_cold",
        kind: Kind::Cold,
        why: "2000-op ladder on a fresh instance per op: every plan is a cache miss and the cutter is nearly all of the run",
    },
    Spec {
        name: "batch_mixed",
        kind: Kind::Batch,
        why: "run_batch over 8 mixed HWEA/QAOA circuits on 2 threads: scheduler, worker pool and plan cache; the only multi-threaded workload",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The circuits of a workload, in operation order.
///
/// # Panics
///
/// Panics on a name that is not in [`SPECS`].
pub fn circuits(name: &str) -> Vec<Circuit> {
    match name {
        "hwea_wide" => vec![hwea(72, 5, 1, 2).circuit],
        "qaoa_sk" => vec![qaoa_sk(20, 1, 1, 2).circuit],
        "hwea_t2" => vec![hwea(20, 5, 2, 7).circuit],
        "hwea_t3" => vec![hwea(8, 5, 3, 1).circuit],
        "ladder_dense" => vec![t_ladder(10, 8).circuit],
        "ladder_cold" => vec![t_ladder(2, 400).circuit],
        "batch_mixed" => vec![
            hwea(40, 5, 1, 3).circuit,
            hwea(40, 5, 1, 7).circuit,
            hwea(64, 5, 1, 2).circuit,
            hwea(72, 5, 1, 3).circuit,
            hwea(96, 5, 1, 1).circuit,
            qaoa_sk(16, 1, 1, 2).circuit,
            qaoa_sk(20, 1, 1, 1).circuit,
            qaoa_sk(12, 1, 1, 1).circuit,
        ],
        other => panic!("unknown workload {other:?}"),
    }
}

/// The workload's configuration. `seed` is the configuration seed, which
/// only `run_batch` reads (single runs pass a seed per operation);
/// `parallel` spreads the work over [`BATCH_THREADS`] workers, which the
/// workload itself does only when it is a batch.
pub fn config(spec: &Spec, seed: u64, parallel: bool) -> SuperSimConfig {
    let builder = SuperSimConfig::builder()
        .shots(SHOTS)
        .joint_support_limit(JOINT_SUPPORT_LIMIT)
        .cut_strategy(cut_strategy(spec))
        .seed(seed);
    let builder = if parallel {
        builder.parallel(true).threads(BATCH_THREADS)
    } else {
        builder
    };
    builder
        .build()
        .expect("the workload configurations are valid")
}

/// The workload's cut strategy, shared by its configuration and by the
/// harness's own composition of the pipeline.
pub fn cut_strategy(spec: &Spec) -> CutStrategy {
    match spec.name {
        "ladder_dense" | "ladder_cold" => CutStrategy::IsolateNonClifford { max_cuts: 4 },
        _ => CutStrategy::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circuits_are_the_same_on_two_builds() {
        for spec in &SPECS {
            let a: Vec<u64> = circuits(spec.name)
                .iter()
                .map(Circuit::fingerprint)
                .collect();
            let b: Vec<u64> = circuits(spec.name)
                .iter()
                .map(Circuit::fingerprint)
                .collect();
            assert_eq!(a, b, "{}", spec.name);
            assert!(!a.is_empty());
        }
    }
}
