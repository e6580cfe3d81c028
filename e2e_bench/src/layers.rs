//! The pipeline composed by the harness from the layers' public functions,
//! each call inside a span, so every layer is timed from outside.
//!
//! [`composed_op`] does the work of one production run — cut, evaluate the
//! fragments, MLFT, recombine — and [`replay_op`] re-runs every fragment
//! variant directly on the simulator backends to split the evaluation time
//! into backend time and tensor accumulation. The seeds are the harness's
//! own (it does not copy `supersim`'s private derivation), so the result is
//! checked structurally: same counts as the production run's report, and a
//! marginal fidelity against the same reference.

use crate::suite::{JOINT_SUPPORT_LIMIT, SHOTS};
use crate::trace::Tracer;
use cutkit::{
    correct_tensors, cut_circuit, evaluate_fragment_tensors_planned, variant_circuit, CutCircuit,
    CutStrategy, EvalMode, EvalOptions, Fragment, FragmentEvalPlan, FragmentTensor, MlftOptions,
    Reconstructor, TensorOptions,
};
use qcir::{Circuit, IndexPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use supersim::RunReport;

/// The cut structure of one run. It depends on the circuit alone, so the
/// harness's composition and the production run must agree on it; how many
/// assignments a sweep visits depends on which sampled coefficients vanish,
/// hence on the seeds, and is not part of it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub cuts: u64,
    pub fragments: u64,
    pub clifford_fragments: u64,
    pub variants: u64,
}

impl Counts {
    pub fn of_report(report: &RunReport) -> Counts {
        Counts {
            cuts: report.num_cuts as u64,
            fragments: report.num_fragments as u64,
            clifford_fragments: report.clifford_fragments as u64,
            variants: report.num_variants as u64,
        }
    }

    pub fn add(&mut self, other: &Counts) {
        self.cuts += other.cuts;
        self.fragments += other.fragments;
        self.clifford_fragments += other.clifford_fragments;
        self.variants += other.variants;
    }
}

pub struct Composed {
    pub cut: CutCircuit,
    pub marginals: Vec<[f64; 2]>,
    pub counts: Counts,
}

/// Spans of [`composed_op`] a warm production run also executes, once the
/// plan is cached.
pub const RUN_LAYERS: [&str; 5] = [
    "cutkit.eval_clifford",
    "cutkit.eval_nonclifford",
    "cutkit.mlft",
    "cutkit.recombine_marginals",
    "cutkit.recombine_joint",
];
/// Spans of [`composed_op`] a production run executes on a plan-cache miss.
pub const PLAN_LAYERS: [&str; 2] = ["cutkit.cut", "cutkit.eval_plan"];
/// Backend spans of [`replay_op`]; with `cutkit.variant_circuit` they are
/// the part of fragment evaluation that is not tensor accumulation.
pub const BACKEND_LAYERS: [&str; 5] = [
    "stabsim.tableau_run",
    "stabsim.support",
    "stabsim.sample",
    "svsim.fragment_run",
    "svsim.fragment_sample",
];

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One pipeline run from the layers' public functions, on one thread.
///
/// # Panics
///
/// Panics if a layer rejects the workload: the workloads are chosen so
/// that none does.
pub fn composed_op(
    tr: &mut Tracer,
    circuit: &Circuit,
    strategy: &CutStrategy,
    op_seed: u64,
) -> Composed {
    tr.span("composed", |tr| {
        let n = circuit.num_qubits();
        let cut = tr.span("cutkit.cut", |_| {
            cut_circuit(circuit, strategy.clone()).expect("the workload fits its cut budget")
        });
        let (plans, output_plans) = tr.span("cutkit.eval_plan", |_| {
            let plans: Vec<FragmentEvalPlan> =
                cut.fragments.iter().map(FragmentEvalPlan::new).collect();
            let output_plans: Vec<IndexPlan> = cut
                .fragments
                .iter()
                .map(|f| {
                    let globals: Vec<usize> = f.circuit_outputs.iter().map(|&(_, g)| g).collect();
                    IndexPlan::new(&globals, n)
                })
                .collect();
            (plans, output_plans)
        });

        let eval = EvalOptions {
            mode: EvalMode::Sampled { shots: SHOTS },
            ..EvalOptions::default()
        };
        let mut tensors: Vec<Option<FragmentTensor>> = vec![None; cut.fragments.len()];
        for (span, clifford) in [
            ("cutkit.eval_clifford", true),
            ("cutkit.eval_nonclifford", false),
        ] {
            let indices: Vec<usize> = (0..cut.fragments.len())
                .filter(|&i| cut.fragments[i].is_clifford == clifford)
                .collect();
            if indices.is_empty() {
                continue;
            }
            let fragments: Vec<Fragment> =
                indices.iter().map(|&i| cut.fragments[i].clone()).collect();
            let subset: Vec<FragmentEvalPlan> = indices.iter().map(|&i| plans[i].clone()).collect();
            let seeds: Vec<u64> = indices
                .iter()
                .map(|&i| splitmix(op_seed ^ splitmix(i as u64)))
                .collect();
            let evaluated = tr.span(span, |tr| {
                tr.count("fragments", fragments.len() as f64);
                evaluate_fragment_tensors_planned(
                    &fragments,
                    &subset,
                    &eval,
                    &TensorOptions::default(),
                    &seeds,
                    1,
                )
                .expect("every workload fragment evaluates")
            });
            for (i, tensor) in indices.into_iter().zip(evaluated) {
                tensors[i] = Some(tensor);
            }
        }
        let mut tensors: Vec<FragmentTensor> = tensors
            .into_iter()
            .map(|t| t.expect("every fragment is Clifford or not"))
            .collect();

        tr.span("cutkit.mlft", |_| {
            correct_tensors(&mut tensors, &MlftOptions::default(), 1)
                .expect("MLFT normalizes every workload fragment")
        });

        let joint_support = tensors
            .iter()
            .map(|t| t.support_len().max(1))
            .fold(1usize, usize::saturating_mul);
        let marginals = tr.span("cutkit.recombine_marginals", |tr| {
            let (marginals, stats) = Reconstructor::new(&tensors, cut.num_cuts, n)
                .with_output_plans(&output_plans)
                .try_marginals_with_stats()
                .expect("an unsupervised sweep is never interrupted");
            tr.count("assignments_visited", stats.visited as f64);
            marginals
        });
        if joint_support <= JOINT_SUPPORT_LIMIT {
            tr.span("cutkit.recombine_joint", |tr| {
                let (mut joint, _) = Reconstructor::new(&tensors, cut.num_cuts, n)
                    .with_output_plans(&output_plans)
                    .try_joint_with_stats(JOINT_SUPPORT_LIMIT)
                    .expect("an unsupervised sweep is never interrupted");
                joint.clip_and_normalize();
                tr.count("joint_support", joint.support_len() as f64);
                black_box(joint);
            });
        }

        let counts = Counts {
            cuts: cut.num_cuts as u64,
            fragments: cut.fragments.len() as u64,
            clifford_fragments: cut.fragments.iter().filter(|f| f.is_clifford).count() as u64,
            variants: plans.iter().map(|p| p.num_variants() as u64).sum(),
        };
        Composed {
            cut,
            marginals,
            counts,
        }
    })
}

/// Runs every variant of every fragment directly on its backend.
pub fn replay_op(tr: &mut Tracer, cut: &CutCircuit, op_seed: u64) {
    tr.span("replay", |tr| {
        for (fi, fragment) in cut.fragments.iter().enumerate() {
            for (vi, variant) in cutkit::enumerate_variants(fragment).iter().enumerate() {
                let circuit = tr.span("cutkit.variant_circuit", |_| {
                    variant_circuit(fragment, variant)
                });
                let mut rng =
                    StdRng::seed_from_u64(splitmix(op_seed ^ splitmix((fi << 20 | vi) as u64)));
                if fragment.is_clifford {
                    let tableau = tr.span("stabsim.tableau_run", |_| {
                        stabsim::TableauSim::run(&circuit, &mut rng)
                            .expect("a Clifford fragment runs on the tableau")
                    });
                    let support = tr.span("stabsim.support", |_| tableau.support());
                    let tally =
                        tr.span("stabsim.sample", |_| support.sample_counts(SHOTS, &mut rng));
                    black_box(tally);
                } else {
                    let state = tr.span("svsim.fragment_run", |_| {
                        svsim::StateVec::run(&circuit).expect("the fragment fits a statevector")
                    });
                    let tally = tr.span("svsim.fragment_sample", |_| {
                        state.sample_index_counts(SHOTS, &mut rng)
                    });
                    black_box(tally);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::per_op_ms;

    #[test]
    fn composed_run_reconstructs_a_two_fragment_circuit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).t(1).cx(1, 2).h(2);
        let mut tr = Tracer::new();
        let out = composed_op(&mut tr, &c, &CutStrategy::default(), 11);
        replay_op(&mut tr, &out.cut, 11);
        assert_eq!(out.counts.cuts, out.cut.num_cuts as u64);
        assert!(out.counts.variants > 0);
        let reference = crate::oracle::Oracle::build(&c);
        assert!(reference.marginal_fidelity(&out.marginals) > 0.99);
        // Every variant was replayed on exactly one backend.
        let spans = tr.into_spans();
        let replayed = spans
            .iter()
            .filter(|s| s.name == "stabsim.tableau_run" || s.name == "svsim.fragment_run")
            .count() as u64;
        assert_eq!(replayed, out.counts.variants);
        for name in RUN_LAYERS.iter().chain(&PLAN_LAYERS) {
            assert_eq!(per_op_ms(&spans, name).len(), 1, "{name}");
        }
    }
}
