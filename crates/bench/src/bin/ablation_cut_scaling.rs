//! Ablation C: reconstruction cost vs number of injected T gates — the
//! paper's `4^k` wall (§VIII: "overall simulation cost that is exponential
//! in the number of non-Cliffords").

use std::time::Instant;
use supersim::{SuperSim, SuperSimConfig};

fn main() {
    let full = std::env::var("FULL").map(|v| v == "1").unwrap_or(false);
    let max_t = if full { 6 } else { 5 };
    println!("# ablation_cut_scaling: HWEA n=12 r=3, runtime vs injected T count");
    println!("t_gates\tcuts\tvariants\tseconds");
    for t in 1..=max_t {
        let w = workloads::hwea(12, 3, t, 31 + t as u64);
        let cfg = SuperSimConfig::builder()
            .shots(1000)
            .cut_strategy(supersim::CutStrategy::IsolateNonClifford { max_cuts: 12 })
            .joint_support_limit(0)
            .build()
            .expect("valid config");
        let t0 = Instant::now();
        match SuperSim::new(cfg).run(&w.circuit) {
            Ok(r) => println!(
                "{t}\t{}\t{}\t{:.4}",
                r.report.num_cuts,
                r.report.num_variants,
                t0.elapsed().as_secs_f64()
            ),
            Err(e) => println!("{t}\t-\t-\tskip ({e})"),
        }
    }
}
