//! Golden outputs: every circuit of `tests/corpus/` runs under a fixed grid
//! (exact; sampled at 5000 shots; sampled at 50 shots, which forces
//! sampling and a non-trivial MLFT), and each run must reproduce its line
//! of `tests/golden/<name>.txt` bit for bit.
//!
//! A line holds FNV-1a digests of the marginal bits, of the joint (keys and
//! probability bits in emission order) and of `mlft_moved`, plus the
//! report's counts — or the rendered root error when the run fails. The
//! same lines must come out of `SuperSim::run` on one thread and out of
//! `SuperSim::run_batch` over the whole corpus on two threads; at the
//! 50-shot point, also out of `Executor::run_sweep` with the config's own
//! parameters. So a change to any entry point, to the job round and
//! scheduler behind them, or to any numeric stage shows here as the line
//! that moved.
//!
//! A corpus file is plain `qcir::text`; a `# strategy ...` comment line
//! (the `CutPlan::to_text` strategy syntax) overrides the default cut
//! strategy. Re-bless after a deliberate output change with
//! `cargo test --test golden -- --ignored bless`, and commit the diff.

use cutkit::CutStrategy;
use qcir::Circuit;
use std::path::{Path, PathBuf};
use supersim::{CutPlan, ExecParams, RunResult, SuperSim, SuperSimConfig, SuperSimError};

/// The configuration seed of every run.
const SEED: u64 = 2026;

/// The grid: a label and the shot budget (`None` = exact mode).
const GRID: [(&str, Option<usize>); 3] = [
    ("exact", None),
    ("shots=5000", Some(5000)),
    ("shots=50", Some(50)),
];

struct Entry {
    name: String,
    circuit: Circuit,
    strategy: CutStrategy,
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests")
}

/// Every corpus file, in name order.
fn corpus() -> Vec<Entry> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(root().join("corpus"))
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "qc"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "the corpus holds at least 8 circuits");
    paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("readable corpus file");
            let circuit =
                qcir::text::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let strategy = text
                .lines()
                .filter_map(|l| l.strip_prefix('#'))
                .map(str::trim)
                .find(|l| l.starts_with("strategy "))
                .map_or_else(CutStrategy::default, |line| {
                    let snapshot = format!("supersim-plan v1\n{line}\n{text}");
                    CutPlan::from_text(&snapshot)
                        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
                        .strategy()
                        .clone()
                });
            Entry {
                name: path.file_stem().unwrap().to_string_lossy().into_owned(),
                circuit,
                strategy,
            }
        })
        .collect()
}

fn config(shots: Option<usize>, strategy: &CutStrategy, threads: usize) -> SuperSimConfig {
    let builder = SuperSimConfig::builder()
        .seed(SEED)
        .cut_strategy(strategy.clone());
    let builder = match shots {
        None => builder.exact(true),
        Some(shots) => builder.shots(shots),
    };
    let builder = if threads > 1 {
        builder.parallel(true).threads(threads)
    } else {
        builder
    };
    builder.build().expect("a valid grid configuration")
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for w in words {
        h.word(w);
    }
    h.0
}

/// The golden line of one run.
fn line(label: &str, result: &Result<RunResult, SuperSimError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return format!("{label}: error {}", e.root()),
    };
    let marginals = digest(r.marginals.iter().flat_map(|m| m.map(f64::to_bits)));
    let joint = r.distribution.as_ref().map_or("none".to_string(), |d| {
        let words = d.iter().flat_map(|(key, p)| {
            std::iter::once(d.n_bits() as u64)
                .chain(key.iter().copied())
                .chain(std::iter::once(p.to_bits()))
        });
        format!("{:016x}", digest(words))
    });
    let rep = &r.report;
    format!(
        "{label}: marginals {marginals:016x} joint {joint} mlft_moved {:016x} \
         cuts {} fragments {} variants {} enumerated {} visited {} skipped {}",
        digest([rep.mlft_moved.to_bits()]),
        rep.num_cuts,
        rep.num_fragments,
        rep.num_variants,
        rep.enumerated_variants,
        rep.visited_assignments,
        rep.assignments_skipped,
    )
}

fn golden_path(name: &str) -> PathBuf {
    root().join("golden").join(format!("{name}.txt"))
}

fn golden(name: &str) -> Vec<String> {
    let path = golden_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless it first)", path.display()))
        .lines()
        .map(str::to_string)
        .collect()
}

/// The lines `SuperSim::run` produces for one corpus entry on one thread.
fn run_lines(entry: &Entry) -> Vec<String> {
    GRID.iter()
        .map(|&(label, shots)| {
            let sim = SuperSim::new(config(shots, &entry.strategy, 1));
            line(label, &sim.run(&entry.circuit))
        })
        .collect()
}

#[test]
fn run_matches_golden() {
    for entry in corpus() {
        assert_eq!(
            run_lines(&entry),
            golden(&entry.name),
            "{}: `run` moved",
            entry.name
        );
    }
}

/// The corpus split by cut strategy (a per-instance setting): each
/// strategy with the indices of its entries.
fn by_strategy(corpus: &[Entry]) -> Vec<(&CutStrategy, Vec<usize>)> {
    let mut groups: Vec<(&CutStrategy, Vec<usize>)> = Vec::new();
    for (i, entry) in corpus.iter().enumerate() {
        match groups.iter_mut().find(|(s, _)| **s == entry.strategy) {
            Some((_, members)) => members.push(i),
            None => groups.push((&entry.strategy, vec![i])),
        }
    }
    groups
}

/// One batch per strategy over the whole corpus at one grid point, on two
/// threads, through `run_batch`.
fn batch_lines(corpus: &[Entry], (label, shots): (&str, Option<usize>)) -> Vec<String> {
    let mut got = vec![String::new(); corpus.len()];
    for (strategy, members) in by_strategy(corpus) {
        let circuits: Vec<Circuit> = members.iter().map(|&i| corpus[i].circuit.clone()).collect();
        let results = SuperSim::new(config(shots, strategy, 2)).run_batch(&circuits);
        for (&i, result) in members.iter().zip(&results) {
            got[i] = line(label, result);
        }
    }
    got
}

#[test]
fn batch_matches_golden() {
    let corpus = corpus();
    let mut got: Vec<Vec<String>> = vec![Vec::new(); corpus.len()];
    for &point in &GRID {
        for (lines, line) in got.iter_mut().zip(batch_lines(&corpus, point)) {
            lines.push(line);
        }
    }
    for (entry, lines) in corpus.iter().zip(got) {
        assert_eq!(
            lines,
            golden(&entry.name),
            "{}: `run_batch` moved",
            entry.name
        );
    }
}

/// At the 50-shot point — sampled, with a non-trivial MLFT — the sweep
/// gives the same line as `run`.
#[test]
fn sweep_matches_golden() {
    let corpus = corpus();
    let point = GRID[2];
    for entry in &corpus {
        let expected = &golden(&entry.name)[2];
        let config = config(point.1, &entry.strategy, 1);
        let sim = SuperSim::new(config.clone());
        let swept = sim.plan(&entry.circuit).and_then(|plan| {
            let mut results = sim
                .executor()
                .run_sweep(&plan, &[ExecParams::from_config(&config)]);
            results.pop().expect("one point, one result")
        });
        assert_eq!(
            line(point.0, &swept),
            *expected,
            "{}: `run_sweep` moved",
            entry.name
        );
    }
}

/// Rewrites `tests/golden/` from `SuperSim::run`.
#[test]
#[ignore = "rewrites the golden files; run after a deliberate output change"]
fn bless() {
    std::fs::create_dir_all(root().join("golden")).expect("tests/golden is writable");
    for entry in corpus() {
        let mut text = run_lines(&entry).join("\n");
        text.push('\n');
        std::fs::write(golden_path(&entry.name), text).expect("golden file is writable");
    }
}
