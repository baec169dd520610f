//! `--compare A.json B.json`: two results files (or arrays of them) of
//! the same workloads, judged by the bounds in `BENCHMARK.json`. One row
//! per (workload, end-to-end metric); B is worse than A when it moved in
//! the bad direction by more than the bound, and the row is unresolved
//! when either run's own segment spread is wider than the bound.
//!
//! `setup_s` has a floor as well: the issue's rule for it is "worse by
//! more than the bound *and* by more than 0.2 s", because most set-ups
//! here take milliseconds and a relative bound alone would flag noise.
//! `BENCHMARK.json` has no field for that, so the floor lives here.

use aqua_obs::json::JsonValue;

/// How one (workload, metric) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is within the bound of A, or better.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The segment spread of A or B exceeds the bound: the runs cannot
    /// tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Set-up times closer than this are never told apart.
const SETUP_FLOOR_S: f64 = 0.2;

/// An end-to-end metric's entry in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of A's value by which B may be worse.
    pub bound: f64,
    /// Absolute difference below which B is never worse.
    pub floor: f64,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// A's value.
    pub a: f64,
    /// B's value.
    pub b: f64,
    /// The bound applied.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one pair of values with their segment spreads.
pub fn judge(bound: &Bound, a: f64, a_iqr: f64, b: f64, b_iqr: f64) -> Verdict {
    if (a - b).abs() <= bound.floor {
        return Verdict::Ok;
    }
    let spread = (a_iqr / a.abs()).max(b_iqr / b.abs());
    if spread > bound.bound {
        return Verdict::Unresolved;
    }
    let worse_by = if bound.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    if worse_by > bound.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Reads the end-to-end bounds out of the text of `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let root = aqua_obs::parse::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let listed = root
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no `end_to_end` list")?;
    listed
        .iter()
        .map(|entry| {
            let text = |key: &str| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .ok_or(format!("an end_to_end entry has no `{key}`"))
            };
            let name = text("name")?.to_string();
            Ok(Bound {
                floor: if name == "setup_s" {
                    SETUP_FLOOR_S
                } else {
                    0.0
                },
                name,
                higher_is_better: match text("better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("`better` is {other:?}")),
                },
                bound: entry
                    .get("bound")
                    .and_then(JsonValue::as_f64)
                    .ok_or("an end_to_end entry has no `bound`")?,
            })
        })
        .collect()
}

/// The runs in a results file: one object, or an array of them.
fn runs(text: &str, which: &str) -> Result<Vec<JsonValue>, String> {
    match aqua_obs::parse::parse(text).map_err(|e| format!("{which}: {e:?}"))? {
        JsonValue::Array(runs) => Ok(runs),
        run @ JsonValue::Object(_) => Ok(vec![run]),
        _ => Err(format!("{which}: neither a results object nor an array")),
    }
}

fn metric_of(run: &JsonValue, name: &str) -> Option<(f64, f64)> {
    let metric = run.get("metrics")?.get(name)?;
    let value = metric.get("value")?.as_f64()?;
    let iqr = metric.get("segment_iqr").and_then(JsonValue::as_f64);
    Some((value, iqr.unwrap_or(0.0)))
}

/// Compares the untraced runs of `a_text` with those of `b_text`,
/// workload by workload.
pub fn compare(bounds: &[Bound], a_text: &str, b_text: &str) -> Result<Vec<Row>, String> {
    let a_runs = runs(a_text, "A")?;
    let b_runs = runs(b_text, "B")?;
    let workload = |run: &JsonValue| {
        run.get("workload")
            .and_then(JsonValue::as_str)
            .map(str::to_owned)
    };
    let untraced = |run: &&JsonValue| run.get("traced").and_then(JsonValue::as_bool) != Some(true);
    let mut rows = Vec::new();
    for a_run in a_runs.iter().filter(untraced) {
        let name = workload(a_run).ok_or("A: a run without `workload`")?;
        let Some(b_run) = b_runs
            .iter()
            .filter(untraced)
            .find(|run| workload(run).as_deref() == Some(&name))
        else {
            return Err(format!("B has no untraced run of {name}"));
        };
        for bound in bounds {
            let (Some((a, a_iqr)), Some((b, b_iqr))) =
                (metric_of(a_run, &bound.name), metric_of(b_run, &bound.name))
            else {
                return Err(format!("{name}: {} is missing from A or B", bound.name));
            };
            rows.push(Row {
                workload: name.clone(),
                metric: bound.name.clone(),
                a,
                b,
                bound: bound.bound,
                verdict: judge(bound, a, a_iqr, b, b_iqr),
            });
        }
    }
    if rows.is_empty() {
        return Err("A holds no untraced run".into());
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>7} {:>6}  {}\n",
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"
    );
    for row in rows {
        out.push_str(&format!(
            "{:<14} {:<18} {:>14.4} {:>14.4} {:>7.3} {:>6.3}  {}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            row.b / row.a,
            row.bound,
            row.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "calls_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "call_p99_us", "unit": "us", "better": "lower", "bound": 0.1}
        ]
    }"#;

    fn run(workload: &str, calls: f64, calls_iqr: f64, p99: f64) -> String {
        run_with_setup(workload, 0.005, calls, calls_iqr, p99)
    }

    fn run_with_setup(workload: &str, setup: f64, calls: f64, calls_iqr: f64, p99: f64) -> String {
        format!(
            r#"{{"workload": "{workload}", "traced": false, "metrics": {{
                "setup_s": {{"value": {setup:?}, "unit": "s", "segment_iqr": 0.0}},
                "calls_per_s": {{"value": {calls:?}, "unit": "1/s", "segment_iqr": {calls_iqr:?}}},
                "call_p99_us": {{"value": {p99:?}, "unit": "us", "segment_iqr": 0.0}}
            }}}}"#
        )
    }

    fn verdicts(a: &str, b: &str) -> Vec<Verdict> {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        compare(&bounds, a, b)
            .unwrap()
            .iter()
            .filter(|row| row.metric != "setup_s")
            .map(|row| row.verdict)
            .collect()
    }

    fn setup_verdict(a: f64, b: f64) -> Verdict {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        let rows = compare(
            &bounds,
            &run_with_setup("w", a, 1.0, 0.0, 1.0),
            &run_with_setup("w", b, 1.0, 0.0, 1.0),
        )
        .unwrap();
        rows[0].verdict
    }

    #[test]
    fn setup_is_worse_only_beyond_both_the_bound_and_the_floor() {
        // 44 % slower, but 2 ms: noise.
        assert_eq!(setup_verdict(0.005, 0.0072), Verdict::Ok);
        // 0.3 s slower, but 20 %: inside the bound.
        assert_eq!(setup_verdict(1.5, 1.8), Verdict::Ok);
        // 40 % and 0.4 s slower.
        assert_eq!(setup_verdict(1.0, 1.4), Verdict::Worse);
    }

    #[test]
    fn bounds_are_read_with_their_direction() {
        let bounds = parse_bounds(BENCHMARK).unwrap();
        assert_eq!(bounds.len(), 3);
        assert!(bounds[1].higher_is_better && !bounds[2].higher_is_better);
        assert_eq!(bounds[2].bound, 0.1);
        assert_eq!((bounds[0].floor, bounds[1].floor), (SETUP_FLOOR_S, 0.0));
        assert!(parse_bounds("{}").is_err());
    }

    #[test]
    fn within_the_bound_is_ok_in_both_directions() {
        let a = run("w", 1000.0, 10.0, 50.0);
        // 5 % fewer calls, 5 % slower tail: inside 10 %.
        assert_eq!(
            verdicts(&a, &run("w", 950.0, 10.0, 52.5)),
            [Verdict::Ok, Verdict::Ok]
        );
        // Better is never worse, however far.
        assert_eq!(
            verdicts(&a, &run("w", 2000.0, 10.0, 10.0)),
            [Verdict::Ok, Verdict::Ok]
        );
    }

    #[test]
    fn beyond_the_bound_is_worse_per_metric() {
        let a = run("w", 1000.0, 10.0, 50.0);
        assert_eq!(
            verdicts(&a, &run("w", 880.0, 10.0, 50.0)),
            [Verdict::Worse, Verdict::Ok]
        );
        assert_eq!(
            verdicts(&a, &run("w", 1000.0, 10.0, 56.0)),
            [Verdict::Ok, Verdict::Worse]
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let a = run("w", 1000.0, 10.0, 50.0);
        // B's segments spread over 15 % of its median.
        assert_eq!(
            verdicts(&a, &run("w", 700.0, 105.0, 50.0)),
            [Verdict::Unresolved, Verdict::Ok]
        );
    }

    #[test]
    fn arrays_pair_runs_by_workload_and_skip_traced_runs() {
        let a = format!(
            "[{}, {}]",
            run("x", 10.0, 0.0, 1.0),
            run("y", 20.0, 0.0, 1.0)
        );
        let traced = run("x", 1.0, 0.0, 99.0).replace("\"traced\": false", "\"traced\": true");
        let b = format!(
            "[{}, {}, {}]",
            traced,
            run("y", 20.0, 0.0, 1.0),
            run("x", 10.0, 0.0, 1.0)
        );
        let bounds = parse_bounds(BENCHMARK).unwrap();
        let rows = compare(&bounds, &a, &b).unwrap();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|row| row.verdict == Verdict::Ok));
        assert!(render(&rows).contains("verdict"));
        assert!(compare(&bounds, &a, &run("x", 10.0, 0.0, 1.0)).is_err());
    }
}
