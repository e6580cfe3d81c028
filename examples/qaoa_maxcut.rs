//! QAOA MaxCut on the Sherrington–Kirkpatrick model (paper §IV-B, Fig. 6),
//! on the batch-first API: the SK circuit is cut and planned **once**, then
//! a shot-budget sweep re-executes the plan — the re-run-same-cut-structure
//! shape SuperSim's plan/execute split amortizes.
//!
//! ```sh
//! cargo run --release --example qaoa_maxcut
//! ```

use metrics::Distribution;
use qcir::Bits;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use supersim::{ExecParams, SuperSim, SuperSimConfig};

/// Expected cut value of a distribution over spin assignments for ±1
/// weights `w[i][j]`: cut(x) = Σ_{i<j, w≠0} w_ij · [x_i ≠ x_j].
fn expected_cut(dist: &Distribution, weights: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    let mut bits = Bits::zeros(dist.n_bits());
    for (words, p) in dist.iter() {
        bits.copy_from_words(words);
        let mut cut = 0.0;
        for (i, row) in weights.iter().enumerate() {
            for (j, &w) in row.iter().enumerate().skip(i + 1) {
                if bits.get(i) != bits.get(j) {
                    cut += w;
                }
            }
        }
        total += p * cut;
    }
    total
}

fn main() {
    let n = 10;
    let seed = 11;

    // SK instance: ±1 weights on the complete graph. Generated with the
    // same seed the workload generator uses so circuit and weights match.
    let mut wrng = StdRng::seed_from_u64(seed);
    let workload = workloads::qaoa_sk(n, 1, 1, seed);
    let mut weights = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let w: f64 = if wrng.random::<bool>() { 1.0 } else { -1.0 };
            weights[i][j] = w;
        }
    }

    println!(
        "SK MaxCut QAOA: n={n}, 1 round, all-to-all couplings, {} ops, 1 T gate",
        workload.circuit.len()
    );

    // Exact statevector reference for the sweep's fidelity column.
    let t1 = std::time::Instant::now();
    let sv = svsim::StateVec::run(&workload.circuit).expect("n is small");
    let sv_time = t1.elapsed();
    let reference = Distribution::from_pairs(n, sv.distribution(1e-12));
    let cut_exact = expected_cut(&reference, &weights);

    // Plan once; sweep the tomography shot budget over the same plan.
    let sim = SuperSim::new(
        SuperSimConfig::builder()
            .seed(1)
            .build()
            .expect("valid config"),
    );
    let t0 = std::time::Instant::now();
    let plan = sim.plan(&workload.circuit).expect("circuit cuts");
    let plan_time = t0.elapsed();
    println!(
        "\nplanned once in {plan_time:?}: {} fragments, {} cuts, {} variants per execution",
        plan.num_fragments(),
        plan.num_cuts(),
        plan.num_variants()
    );

    let budgets = [250usize, 1000, 5000];
    let points: Vec<ExecParams> = budgets
        .iter()
        .map(|&shots| ExecParams::from_config(sim.config()).with_shots(shots))
        .collect();
    let t2 = std::time::Instant::now();
    let runs = sim.executor().run_sweep(&plan, &points);
    let sweep_time = t2.elapsed();

    println!("\nshots   expected cut   fidelity");
    let mut best_run = None;
    for (point, run) in points.iter().zip(&runs) {
        let run = run.as_ref().expect("sweep point runs");
        let dist = run.distribution.as_ref().expect("joint available");
        let cut = expected_cut(dist, &weights);
        let fidelity = reference.hellinger_fidelity(dist);
        println!("{:>5}   {cut:>12.4}   {fidelity:.4}", point.shots);
        best_run = Some(run);
    }
    println!(
        "\nexpected cut (exact statevector):   {cut_exact:.4}  [{sv_time:?}]\n\
         sweep of {} budgets over one plan:  [{sweep_time:?} total]",
        budgets.len()
    );

    // Best single sample drawn from the highest-budget reconstruction.
    let dist = best_run
        .and_then(|r| r.distribution.as_ref())
        .expect("joint available");
    let mut rng = StdRng::seed_from_u64(2);
    let best = dist
        .sample(200, &mut rng)
        .into_iter()
        .map(|b| {
            let mut cut = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    if b.get(i) != b.get(j) {
                        cut += weights[i][j];
                    }
                }
            }
            (b, cut)
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("samples drawn");
    let (assignment, value): (Bits, f64) = best;
    println!("best sampled cut: {value:.1} from assignment {assignment}");
}
