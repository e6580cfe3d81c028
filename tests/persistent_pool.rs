//! Persistent-pool integration: consecutive `run_batch` calls reuse the
//! live workers of the process-wide runtime pool (no re-spawn between
//! batches), and pooled output stays bit-identical to independent
//! sequential runs at 1/2/8 threads.
//!
//! The whole scenario lives in **one** test function: the pool's spawn
//! counter is process-global, so a sibling test running concurrently in
//! the same binary would perturb it.

use qcir::Circuit;
use supersim::{RunResult, SuperSim, SuperSimConfig};

fn circuits() -> Vec<Circuit> {
    let mut deep = Circuit::new(2);
    deep.h(0).t(0).cx(0, 1).h(1).t(1).h(0);
    vec![
        workloads::hwea(5, 2, 1, 81).circuit,
        deep,
        workloads::ghz(6),
        workloads::qaoa_sk(4, 1, 1, 83).circuit,
    ]
}

#[test]
fn consecutive_batches_reuse_live_workers_bit_identically() {
    let circuits = circuits();
    let base = SuperSimConfig {
        shots: 200,
        seed: 314,
        mlft: true,
        ..SuperSimConfig::default()
    };
    // Reference: independent sequential runs, each on a fresh instance
    // (an empty plan cache), so every run plans from scratch.
    let solo: Vec<RunResult> = circuits
        .iter()
        .map(|c| SuperSim::new(base.clone()).run(c).unwrap())
        .collect();

    for threads in [1usize, 2, 8] {
        let sim = SuperSim::new(SuperSimConfig {
            parallel: true,
            threads,
            ..base.clone()
        });
        // First batch: may grow the pool (cold at this worker count).
        let first = sim.run_batch(&circuits);
        let spawned_after_first = sim.stats().pool.spawned_total;
        // Second batch: identical demand — the warm pool must serve it
        // without spawning a single new worker.
        let second = sim.run_batch(&circuits);
        let spawned_after_second = sim.stats().pool.spawned_total;
        assert_eq!(
            spawned_after_first, spawned_after_second,
            "warm pool re-spawned workers at {threads} threads"
        );
        for (i, (s, (a, b))) in solo.iter().zip(first.iter().zip(&second)).enumerate() {
            let a = a.as_ref().unwrap();
            let b = b.as_ref().unwrap();
            assert!(
                s.bit_identical_to(a),
                "circuit {i}, cold batch at {threads} threads diverged from sequential"
            );
            assert!(
                s.bit_identical_to(b),
                "circuit {i}, warm batch at {threads} threads diverged from sequential"
            );
        }
        // The second batch was served entirely from the plan cache.
        for (i, r) in second.iter().enumerate() {
            assert!(
                r.as_ref().unwrap().report.plan_cache_hit,
                "circuit {i} missed the plan cache on the second batch"
            );
        }
    }
    // After the ladder the pool holds live workers; the stats surface
    // must agree that they exist and are parked.
    let pool = SuperSim::default().stats().pool;
    assert!(pool.live >= 1, "pool should persist workers: {pool:?}");
}
