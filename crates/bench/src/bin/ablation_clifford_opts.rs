//! Ablation B: the paper's §IX Clifford-specific optimizations.
//!
//! 1. *Fewer stitching calculations*: the sparse contraction skips cut
//!    assignments whose Pauli slice is identically zero in some stabilizer
//!    fragment — we report visited/total `4^k` terms.
//! 2. *Fewer shots*: fragment tensors built from sampled variants
//!    (`EvalMode::Sampled`, where the pipeline's rule still enumerates
//!    every support of at most `shots` points) against fully enumerated
//!    ones (`EvalMode::Exact`), then the default pipeline at the same shot
//!    budget with the number of variants the rule enumerated.

use cutkit::{
    build_fragment_tensor, cut_circuit, CutStrategy, EvalMode, EvalOptions, Reconstructor,
    TensorOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use supersim::{SuperSim, SuperSimConfig};

fn main() {
    let full = std::env::var("FULL").map(|v| v == "1").unwrap_or(false);
    let max_t = if full { 5 } else { 4 };

    println!("# ablation_clifford_opts part 1: sparse contraction pruning");
    println!("t_gates\tcuts\ttotal_4^k\tvisited\tdense_secs\tsparse_secs");
    for t in 1..=max_t {
        let w = workloads::hwea(12, 3, t, 1000 + t as u64);
        let cut = cut_circuit(&w.circuit, CutStrategy::default()).expect("cut fits");
        let eval = EvalOptions {
            mode: EvalMode::Exact,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let tensors: Vec<_> = cut
            .fragments
            .iter()
            .map(|f| {
                build_fragment_tensor(f, &eval, &TensorOptions::default(), &mut rng)
                    .expect("fragments evaluate")
            })
            .collect();
        let total = 1u64 << (2 * cut.num_cuts);
        let sparse = Reconstructor::new(&tensors, cut.num_cuts, cut.original_qubits);
        let dense =
            Reconstructor::new(&tensors, cut.num_cuts, cut.original_qubits).with_sparse(false);
        let visited = sparse.visited_assignments();
        let t0 = Instant::now();
        let _ = dense.marginals();
        let dense_secs = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let _ = sparse.marginals();
        let sparse_secs = t1.elapsed().as_secs_f64();
        println!(
            "{t}\t{}\t{total}\t{visited}\t{dense_secs:.4}\t{sparse_secs:.4}",
            cut.num_cuts
        );
    }

    println!();
    println!("# ablation_clifford_opts part 2: sampled vs enumerated fragments");
    println!("qubits\tmode\tseconds\tenumerated/variants");
    let sizes: &[usize] = if full {
        &[10, 14, 18, 22, 26, 30]
    } else {
        &[10, 14, 18]
    };
    const SHOTS: usize = 2000;
    for &n in sizes {
        let w = workloads::hwea(n, 3, 1, 77 + n as u64);
        let cut = cut_circuit(&w.circuit, CutStrategy::default()).expect("cut fits");
        for (label, mode) in [
            ("sampled", EvalMode::Sampled { shots: SHOTS }),
            ("enumerated", EvalMode::Exact),
        ] {
            let eval = EvalOptions {
                mode,
                ..Default::default()
            };
            let mut rng = StdRng::seed_from_u64(7);
            let t0 = Instant::now();
            let built: Result<Vec<_>, _> = cut
                .fragments
                .iter()
                .map(|f| build_fragment_tensor(f, &eval, &TensorOptions::default(), &mut rng))
                .collect();
            match built {
                Ok(_) => println!("{n}\t{label}\t{:.4}\t-", t0.elapsed().as_secs_f64()),
                Err(e) => println!("{n}\t{label}\tskip ({e})\t-"),
            }
        }
        let cfg = SuperSimConfig::builder()
            .shots(SHOTS)
            .joint_support_limit(0) // marginals only: isolate evaluation cost
            .build()
            .expect("valid config");
        let t0 = Instant::now();
        match SuperSim::new(cfg).run(&w.circuit) {
            Ok(r) => println!(
                "{n}\tpipeline\t{:.4}\t{}/{}",
                t0.elapsed().as_secs_f64(),
                r.report.enumerated_variants,
                r.report.num_variants
            ),
            Err(e) => println!("{n}\tpipeline\tskip ({e})\t-"),
        }
    }
}
