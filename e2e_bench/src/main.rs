//! `e2e_bench`: the end-to-end and per-layer benchmark of the SuperSim-RS
//! pipeline. See `README.md` beside `Cargo.toml` for the workloads, the
//! metrics and how to read the output.
//!
//! ```text
//! e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! e2e_bench --out FILE [--workload NAME] [--runs R] [--seed N] [--seconds S]
//! e2e_bench --compare BASE.json NEW.json
//! ```
//!
//! The first form runs one workload in this process and prints, as the last
//! line of its standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The second runs every workload (or
//! the one named) in child processes of this binary, `--runs` seeds each
//! with tracing off and one traced run, and writes all results with the
//! host stamp to FILE. The third compares two such files.

mod host;
mod json;
mod layers;
mod oracle;
mod report;
mod run;
mod stats;
mod suite;
mod trace;

use run::{Outcome, Params};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
  e2e_bench --out FILE [--workload NAME] [--runs R] [--seed N] [--seconds S]
  e2e_bench --compare BASE.json NEW.json";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    runs: usize,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        out: None,
        runs: 1,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |text: String| {
            text.parse::<f64>()
                .map_err(|_| format!("{flag}: `{text}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => parsed.trace = number(value()?)? != 0.0,
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?),
            "--runs" => {
                parsed.runs = value()?
                    .parse()
                    .map_err(|_| "--runs takes a whole number")?
            }
            "--compare" => parsed.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &parsed.workload {
        if suite::spec(name).is_none() {
            let names: Vec<&str> = suite::SPECS.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown workload `{name}`; the workloads are {}",
                names.join(", ")
            ));
        }
    }
    if !(parsed.seconds >= 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be between 0 and 600".to_owned());
    }
    if parsed.quick && parsed.out.is_some() {
        return Err("--quick is for smoke tests only and writes no result file".to_owned());
    }
    if parsed.runs == 0 {
        return Err("--runs must be at least 1".to_owned());
    }
    Ok(parsed)
}

/// The result line of one run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, every value with all its digits.
fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .unwrap();
    }
    line.push_str("}}");
    line
}

/// Where trace files go: beside the executable, inside the build directory.
fn trace_path(workload: &str) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(
        exe.parent()?
            .join(format!("e2e_bench-trace-{workload}.jsonl")),
    )
}

/// Runs one workload in this process and prints its result.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let spec = suite::spec(name).expect("the name was checked");
    let params = Params {
        seed: args.seed,
        seconds: if args.quick { 0.0 } else { args.seconds },
        quick: args.quick,
    };
    let stamp = host::Stamp::collect();
    let outcome = if args.trace {
        run::per_layer(spec, &params)?
    } else {
        run::end_to_end(spec, &params)?
    };
    println!(
        "# host: nproc={} rustc=\"{}\" commit={}",
        stamp.nproc, stamp.rustc, stamp.commit
    );
    println!(
        "# run: workload={name} seed={} seconds={} trace={} threads={} ops={}{}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.threads,
        outcome.attempted,
        if args.quick { " quick" } else { "" }
    );
    println!("# why: {}", spec.why);
    for m in &outcome.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        if let Some(path) = trace_path(name) {
            match std::fs::write(&path, trace::to_jsonl(&outcome.spans)) {
                Ok(()) => println!(
                    "# trace: {} spans in {}",
                    outcome.spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

/// Runs workloads in child processes and writes every result to `out`.
fn run_all(args: &Args, out: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let stamp = host::Stamp::collect();
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => suite::SPECS.iter().map(|s| s.name).collect(),
    };
    let mut runs = Vec::new();
    for name in names {
        let spec = suite::spec(name).expect("the name was checked");
        if let Err(reason) = run::threads_for(spec) {
            println!("{name}: skipped ({reason})");
            continue;
        }
        let plan = (0..args.runs)
            .map(|r| (args.seed + r as u64, false))
            .chain([(args.seed, true)]);
        for (seed, trace) in plan {
            let output = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("could not start {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{name} seed {seed} trace {}: {}",
                    u8::from(trace),
                    output.status
                ));
            }
            let text = String::from_utf8_lossy(&output.stdout);
            let line = text.lines().last().ok_or("the child printed nothing")?;
            let result = json::parse(line)?;
            if result.get("correct").and_then(json::Value::as_bool) != Some(true) {
                return Err(format!(
                    "{name} seed {seed}: the run was not correct: {line}"
                ));
            }
            println!("{name} seed {seed} trace {}: done", u8::from(trace));
            runs.push(format!(
                "{{\"workload\":\"{name}\",\"seed\":{seed},\"trace\":{},{}",
                u8::from(trace),
                line.trim_start().trim_start_matches('{')
            ));
        }
    }
    let doc = format!(
        "{{\"host\":{},\"seconds\":{},\"runs\":[\n{}\n]}}\n",
        stamp.to_json(),
        args.seconds,
        runs.join(",\n")
    );
    let rows = report::parse_results(&doc)?;
    print!("{}", report::summarize(&rows));
    std::fs::write(out, doc).map_err(|e| format!("could not write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Compares two result files against the bounds of the `BENCHMARK.json` in
/// the working directory; `Ok(false)` when a metric regressed.
fn run_compare(base: &str, new: &str) -> Result<bool, String> {
    const SPEC: &str = "BENCHMARK.json";
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = report::parse_bounds(&read(SPEC)?).map_err(|e| format!("{SPEC}: {e}"))?;
    let base_rows = report::parse_results(&read(base)?).map_err(|e| format!("{base}: {e}"))?;
    let new_rows = report::parse_results(&read(new)?).map_err(|e| format!("{new}: {e}"))?;
    let rows = report::compare(&base_rows, &new_rows, &bounds);
    print!("{}", report::render(&rows));
    Ok(rows.iter().all(|r| r.verdict != report::Verdict::Regressed))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if let Some((base, new)) = &args.compare {
            run_compare(base, new)
        } else if let Some(out) = &args.out {
            run_all(&args, out).map(|()| true)
        } else if let Some(name) = &args.workload {
            run_one(&args, name).map(|()| true)
        } else {
            Err(USAGE.to_owned())
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "qaoa_sk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("qaoa_sk"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 10.0, true, false)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn quick_runs_refuse_to_write_results() {
        assert!(args(&["--quick", "--out", "x.json"]).is_err());
        assert!(args(&["--quick", "--workload", "ladder_cold"]).is_ok());
    }

    #[test]
    fn names_fit_the_benchmark_contract() {
        let fits = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let metrics = run::END_TO_END.iter().chain(&run::PER_LAYER);
        for name in suite::SPECS
            .iter()
            .map(|s| s.name)
            .chain(metrics.map(|m| m.0))
        {
            assert!(fits(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for spec in &suite::SPECS {
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
    }

    /// `BENCHMARK.json` and the binary name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        let names = |table: &[(&str, &str)], i: usize| -> Vec<String> {
            table.iter().map(|m| [m.0, m.1][i].to_owned()).collect()
        };
        assert_eq!(
            listed("workloads", "name"),
            suite::SPECS.iter().map(|s| s.name).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("workloads", "why"),
            suite::SPECS.iter().map(|s| s.why).collect::<Vec<_>>()
        );
        assert_eq!(listed("end_to_end", "name"), names(&run::END_TO_END, 0));
        assert_eq!(listed("end_to_end", "unit"), names(&run::END_TO_END, 1));
        assert_eq!(listed("per_layer", "name"), names(&run::PER_LAYER, 0));
        assert_eq!(listed("per_layer", "unit"), names(&run::PER_LAYER, 1));
    }

    /// The items the roadmap plans to delete must not be pinned by a
    /// benchmark later changes may not edit.
    #[test]
    fn sources_stay_off_the_api_planned_for_removal() {
        let banned = [
            ["Tableau", "Engine"].concat(),
            ["Sparse", "Gate"].concat(),
            ["Refer", "ence"].concat(),
            ["refer", "ence_"].concat(),
            ["SUPERSIM_", "TABLEAU_ENGINE"].concat(),
            ["_resil", "ient"].concat(),
            ["SuperSimConfig", " {"].concat(),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            // A function may return the type; only a literal of it is banned.
            let text = std::fs::read_to_string(&path)
                .unwrap()
                .replace("-> SuperSimConfig", "");
            for word in &banned {
                assert!(
                    !text.contains(word.as_str()),
                    "{} names `{word}`",
                    path.display()
                );
            }
            checked += 1;
        }
        assert!(checked >= 9);
    }

    #[test]
    fn quick_smoke_run_of_the_cold_ladder() {
        let spec = suite::spec("ladder_cold").unwrap();
        let params = Params {
            seed: 3,
            seconds: 0.0,
            quick: true,
        };
        let timed = run::end_to_end(spec, &params).unwrap();
        assert!(timed.correct);
        assert_eq!((timed.attempted, timed.failed), (3, 0));
        assert_eq!(timed.metrics.len(), run::END_TO_END.len());
        assert!(timed.metrics.iter().all(|m| m.value > 0.0));
        let line = json::parse(&result_line(&timed)).unwrap();
        assert_eq!(
            report::metrics_of(&line).unwrap().len(),
            run::END_TO_END.len()
        );

        let traced = run::per_layer(spec, &params).unwrap();
        assert!(traced.correct);
        assert_eq!(traced.metrics.len(), run::PER_LAYER.len());
        let get = |name: &str| {
            traced
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        // A fresh instance per operation: every plan is a miss.
        assert_eq!(
            (get("core.plan_cache_hits"), get("core.plan_cache_misses")),
            (0.0, 1.0)
        );
        assert!(get("cutkit.cut_ms") > 0.0 && get("cutkit.variants") > 0.0);
        assert!(!traced.spans.is_empty());
    }
}
