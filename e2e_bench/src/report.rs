//! Result files of `--out`, their per-metric summary, and `--compare`.

use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};
use std::fmt::Write as _;

/// One run of one workload, as a result file records it.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub trace: bool,
    pub metrics: Vec<(String, f64)>,
}

/// An end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value.get(key).ok_or_else(|| format!("missing `{key}`"))
}

/// Reads the metrics object of a result line: `{name: {value, unit}}`.
pub fn metrics_of(result: &Value) -> Result<Vec<(String, f64)>, String> {
    field(result, "metrics")?
        .members()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = field(m, "value")?
                .as_f64()
                .ok_or("`value` is not a number")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// Reads the runs of a result file written by `--out`.
pub fn parse_results(text: &str) -> Result<Vec<Row>, String> {
    let doc = json::parse(text)?;
    field(&doc, "runs")?
        .as_array()
        .ok_or("`runs` is not an array")?
        .iter()
        .map(|run| {
            Ok(Row {
                workload: field(run, "workload")?
                    .as_str()
                    .ok_or("`workload` is not a string")?
                    .to_owned(),
                trace: field(run, "trace")?.as_f64() == Some(1.0),
                metrics: metrics_of(run)?,
            })
        })
        .collect()
}

/// Reads the end-to-end metrics, with direction and bound, of `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(text)?;
    field(&doc, "end_to_end")?
        .as_array()
        .ok_or("`end_to_end` is not an array")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: field(m, "name")?
                    .as_str()
                    .ok_or("`name` is not a string")?
                    .to_owned(),
                lower_is_better: field(m, "better")?.as_str() == Some("lower"),
                bound: field(m, "bound")?
                    .as_f64()
                    .ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

/// Workload names in first-seen order.
fn workloads(rows: &[Row]) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    for row in rows {
        if !names.contains(&row.workload.as_str()) {
            names.push(&row.workload);
        }
    }
    names
}

/// Values of one metric over the runs of one workload.
fn values(rows: &[Row], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    rows.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

/// Median and quartile spread of every metric of every workload.
pub fn summarize(rows: &[Row]) -> String {
    let mut out = String::new();
    for workload in workloads(rows) {
        for trace in [false, true] {
            let mut names: Vec<&str> = Vec::new();
            for row in rows
                .iter()
                .filter(|r| r.workload == workload && r.trace == trace)
            {
                for (name, _) in &row.metrics {
                    if !names.contains(&name.as_str()) {
                        names.push(name);
                    }
                }
            }
            for name in names {
                let v = values(rows, workload, trace, name);
                let spread =
                    quartile_spread(&v).map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
                writeln!(
                    out,
                    "{workload:<13} {name:<32} median {:>14.4}  spread {spread:>7}  n={}",
                    median(&v),
                    v.len()
                )
                .unwrap();
            }
        }
    }
    out
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The files' own run-to-run spread exceeds the bound.
    Unresolved,
}

#[derive(Clone, Debug)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    /// Median of the base file, the base of `ratio`.
    pub base: f64,
    pub new: f64,
    pub ratio: f64,
    /// Share of the base by which the new median is worse (negative: better).
    pub worse_by: f64,
    /// The wider of the two files' quartile spreads; `None` with one run each.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Compares every workload × end-to-end metric both files hold.
pub fn compare(base: &[Row], new: &[Row], bounds: &[Bound]) -> Vec<Comparison> {
    let mut out = Vec::new();
    for workload in workloads(base) {
        for bound in bounds {
            let a = values(base, workload, false, &bound.name);
            let b = values(new, workload, false, &bound.name);
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&a), median(&b));
            let worse_by = if bound.lower_is_better {
                mb - ma
            } else {
                ma - mb
            } / ma.abs();
            let spread = match (quartile_spread(&a), quartile_spread(&b)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            // Every run of the new file reads better than every run of the base.
            let clear_win = if bound.lower_is_better {
                b.iter().all(|y| a.iter().all(|x| y < x))
            } else {
                b.iter().all(|y| a.iter().all(|x| y > x))
            };
            let verdict = if spread.is_some_and(|s| s > bound.bound) && !clear_win {
                Verdict::Unresolved
            } else if worse_by > bound.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            out.push(Comparison {
                workload: workload.to_owned(),
                metric: bound.name.clone(),
                base: ma,
                new: mb,
                ratio: mb / ma,
                worse_by,
                spread,
                bound: bound.bound,
                verdict,
            });
        }
    }
    out
}

pub fn render(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<13} {:<22} {:>12} {:>12} {:>8} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "new", "new/base", "worse by", "spread", "bound"
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0));
        writeln!(
            out,
            "{:<13} {:<22} {:>12.4} {:>12.4} {:>8.4} {:>8.2}% {:>8} {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.ratio,
            r.worse_by * 100.0,
            spread,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "circuits_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

    fn file(p50: &[f64], rate: &[f64]) -> Vec<Row> {
        let runs: Vec<String> = p50
            .iter()
            .zip(rate)
            .map(|(p, r)| {
                format!(
                    r#"{{"workload":"w","seed":1,"trace":0,"correct":true,"attempted":9,"failed":0,
                    "metrics":{{"op_ms_p50":{{"value":{p},"unit":"ms"}},"circuits_per_s":{{"value":{r},"unit":"1/s"}}}}}}"#
                )
            })
            .collect();
        parse_results(&format!(r#"{{"host":{{}},"runs":[{}]}}"#, runs.join(","))).unwrap()
    }

    fn verdicts(base: &[Row], new: &[Row]) -> Vec<Verdict> {
        compare(base, new, &parse_bounds(SPEC).unwrap())
            .iter()
            .map(|c| c.verdict)
            .collect()
    }

    #[test]
    fn steady_files_within_the_bound_are_ok() {
        let base = file(&[100.0, 101.0, 102.0], &[10.0, 10.1, 10.2]);
        let new = file(&[105.0, 106.0, 107.0], &[9.9, 10.0, 10.1]);
        assert_eq!(verdicts(&base, &new), [Verdict::Ok, Verdict::Ok]);
        let rows = compare(&base, &new, &parse_bounds(SPEC).unwrap());
        assert!((rows[0].ratio - 106.0 / 101.0).abs() < 1e-12);
        assert!((rows[0].worse_by - 5.0 / 101.0).abs() < 1e-12);
        // A higher-is-better metric that fell is worse by a positive share.
        assert!(rows[1].worse_by > 0.0);
        assert!(render(&rows).contains("ok"));
    }

    #[test]
    fn a_move_beyond_the_bound_in_the_bad_direction_regresses() {
        let base = file(&[100.0, 101.0, 102.0], &[10.0, 10.1, 10.2]);
        let slower = file(&[120.0, 121.0, 122.0], &[8.0, 8.1, 8.2]);
        assert_eq!(
            verdicts(&base, &slower),
            [Verdict::Regressed, Verdict::Regressed]
        );
        // The same move in the good direction is not a regression.
        assert_eq!(verdicts(&slower, &base), [Verdict::Ok, Verdict::Ok]);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins() {
        let noisy = file(&[80.0, 100.0, 130.0], &[10.0, 10.1, 10.2]);
        let new = file(&[100.0, 101.0, 102.0], &[10.0, 10.1, 10.2]);
        assert_eq!(verdicts(&noisy, &new)[0], Verdict::Unresolved);
        let clear = file(&[50.0, 51.0, 52.0], &[10.0, 10.1, 10.2]);
        assert_eq!(verdicts(&noisy, &clear)[0], Verdict::Ok);
    }

    #[test]
    fn single_runs_compare_without_a_spread() {
        let rows = compare(
            &file(&[100.0], &[10.0]),
            &file(&[150.0], &[10.0]),
            &parse_bounds(SPEC).unwrap(),
        );
        assert_eq!(rows[0].spread, None);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].verdict, Verdict::Ok);
    }

    #[test]
    fn summary_names_every_metric_once_per_workload() {
        let text = summarize(&file(&[100.0, 102.0], &[10.0, 10.2]));
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("op_ms_p50") && text.contains("n=2"));
    }
}
