//! The command line: one workload, one seed, one window, traced or not.
//!
//! ```text
//! aqua-benchmark --workload NAME --seed N --seconds S --trace 0 [--out DIR]
//! aqua-benchmark-traced --workload NAME --seed N --seconds S --trace 1 [--out DIR]
//! aqua-benchmark --compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! The last line of stdout is the result the driver reads; everything
//! else a run has to say goes to stderr and to the results file.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::catalogue::{END_TO_END, PER_LAYER};
use crate::pass::{Metrics, Pass, Role};
use crate::report::{select, RunReport};
use crate::spans::Recorder;
use crate::stats::Summary;
use crate::{alloc, compare, host, workloads};

/// Set-ups per untraced run; `setup_s` is their median. At least
/// `SETUPS_MIN`, then more while they are cheap: a set-up of a few
/// milliseconds needs more repeats for a steady median than one of a
/// tenth of a second.
const SETUPS_MIN: usize = 5;
const SETUPS_MAX: usize = 25;
const SETUPS_BUDGET: Duration = Duration::from_millis(250);
/// Spans a traced run keeps for the named workload. Sampled requests
/// only, so this covers a whole window at the sampling rate used.
const SPAN_CAPACITY: usize = 200_000;
/// A traced run's time goes: an untraced reference window of the named
/// workload, its traced pass, and a background traced pass of each other
/// workload for the layers the named one does not exercise.
const REFERENCE_SHARE: f64 = 0.2;
const NAMED_SHARE: f64 = 0.4;
const BACKGROUND_SHARE: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

enum Command {
    Run(Args),
    Compare {
        a: PathBuf,
        b: PathBuf,
        bounds: PathBuf,
    },
}

fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!(
        "usage: --workload <{}> --seed N --seconds S --trace <0|1> [--out DIR]\n       \
         --compare A.json B.json [--bounds BENCHMARK.json]",
        workloads::NAMES.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Command {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("benchmark/out");
    let mut compared: Option<(PathBuf, PathBuf)> = None;
    let mut bounds = PathBuf::from("BENCHMARK.json");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--seed: not a number")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .unwrap_or_else(|| usage("--seconds: a whole number from 1 to 60")),
                );
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: 0 or 1"),
                });
            }
            "--out" => out = PathBuf::from(value()),
            "--compare" => compared = Some((PathBuf::from(value()), PathBuf::from(value()))),
            "--bounds" => bounds = PathBuf::from(value()),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if let Some((a, b)) = compared {
        return Command::Compare { a, b, bounds };
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !workloads::NAMES.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Command::Run(Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        out,
    })
}

/// The program. `counting_allocator` says which binary this is: only the
/// traced one installs [`alloc::Counting`], and each binary refuses the
/// other's kind of run so no end-to-end number is ever taken behind the
/// counting allocator.
pub fn main(counting_allocator: bool) {
    match parse_args() {
        Command::Compare { a, b, bounds } => run_compare(&a, &b, &bounds),
        Command::Run(args) => {
            if args.trace != counting_allocator {
                usage(if args.trace {
                    "--trace 1 needs aqua-benchmark-traced (run.sh picks the binary)"
                } else {
                    "--trace 0 needs aqua-benchmark (run.sh picks the binary)"
                });
            }
            let host = host::fingerprint();
            let outcome = if args.trace {
                run_traced(&args)
            } else {
                run_untraced(&args)
            };
            let (metrics, totals) = match outcome {
                Ok(outcome) => outcome,
                Err(what) => {
                    eprintln!("{}: {what}", args.workload);
                    std::process::exit(1);
                }
            };
            let report = RunReport {
                workload: args.workload.clone(),
                seed: args.seed,
                seconds: args.seconds,
                traced: args.trace,
                metrics,
                attempted: totals.attempted,
                failed: totals.failed,
                failures: totals.failures,
                host,
            };
            finish(&args, &report);
        }
    }
}

/// A run's metrics, and its operations summed over every pass.
type Outcome = Result<(Metrics, Pass), String>;

fn run_untraced(args: &Args) -> Outcome {
    // Set up several times and report the median: one set-up of a few
    // milliseconds is mostly noise. The last instance is the one measured.
    let mut setups = Vec::with_capacity(SETUPS_MAX);
    let mut workload = None;
    let first_started = Instant::now();
    while setups.len() < SETUPS_MIN
        || (setups.len() < SETUPS_MAX && first_started.elapsed() < SETUPS_BUDGET)
    {
        drop(workload.take());
        let started = Instant::now();
        workload = Some(workloads::set_up(&args.workload, args.seed)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUPS_MIN is at least one");
    let mut pass = workload.measure(Duration::from_secs(args.seconds));
    drop(workload);

    let mut metrics = std::mem::take(&mut pass.metrics);
    metrics.insert("setup_s", Summary::over(&setups, setups.len() as u64));
    let peak = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    metrics.insert("peak_rss_mb", Summary::exact(peak, 1));
    Ok((select(&END_TO_END, &metrics)?, pass))
}

fn run_traced(args: &Args) -> Outcome {
    if alloc::snapshot().0 == 0 {
        return Err("the counting allocator is not installed in this binary".into());
    }
    let share = |share: f64| Duration::from_secs_f64(args.seconds as f64 * share);
    let mut totals = Pass::default();

    let mut workload = workloads::set_up(&args.workload, args.seed)?;
    let reference = workload.measure(share(REFERENCE_SHARE));
    totals.absorb(&reference);
    let mut recorder = Recorder::new(SPAN_CAPACITY);
    let named = workload.trace(share(NAMED_SHARE), Role::Named, &mut recorder);
    drop(workload);
    totals.absorb(&named);

    let mut metrics = named.metrics;
    metrics.insert(
        "obs.traced_over_untraced",
        Summary::exact(named.rate / reference.rate, 1),
    );
    totals.attempted += 1;
    if recorder.misnested() > 0 {
        totals.fail(|| {
            format!(
                "{} spans do not lie inside their parent",
                recorder.misnested()
            )
        });
    }

    // The layers the named workload does not reach are measured on the
    // workload that does; its own values always take precedence.
    for other in workloads::NAMES.iter().filter(|n| **n != args.workload) {
        let mut background = workloads::set_up(other, args.seed)?;
        let mut scratch = Recorder::new(SPAN_CAPACITY / 8);
        let pass = background.trace(share(BACKGROUND_SHARE), Role::Background, &mut scratch);
        totals.absorb(&pass);
        for (name, summary) in pass.metrics {
            metrics.entry(name).or_insert(summary);
        }
    }

    let trace_path = args.out.join(format!("trace-{}.json", args.workload));
    write(
        &trace_path,
        &recorder.to_json(&args.workload, args.seed).render(),
    )?;
    Ok((select(&PER_LAYER, &metrics)?, totals))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Writes the results file, prints the result line, and exits non-zero
/// if any operation failed or any check did not hold.
fn finish(args: &Args, report: &RunReport) -> ! {
    let catalogue: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let kind = if args.trace { "traced" } else { "untraced" };
    let path = args
        .out
        .join(format!("{}-seed{}-{kind}.json", args.workload, args.seed));
    if let Err(what) = write(&path, &(report.to_json(catalogue).render_pretty() + "\n")) {
        eprintln!("{what}");
        std::process::exit(1);
    }
    for failure in &report.failures {
        eprintln!("{}: FAILED: {failure}", args.workload);
    }
    eprintln!("{}: results in {}", args.workload, path.display());
    for (name, unit) in catalogue {
        if let Some(summary) = report.metrics.get(name) {
            eprintln!(
                "  {name:<44} {:>16.4} {unit:<6} (n = {}, segment IQR {:.4})",
                summary.value, summary.samples, summary.iqr
            );
        }
    }
    println!("{}", report.result_line(catalogue));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

fn run_compare(a: &Path, b: &Path, bounds: &Path) -> ! {
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("read {}: {e}", path.display());
            std::process::exit(2);
        })
    };
    let rows = compare::parse_bounds(&read(bounds))
        .and_then(|bounds| compare::compare(&bounds, &read(a), &read(b)));
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            let worse = rows
                .iter()
                .any(|row| row.verdict == compare::Verdict::Worse);
            std::process::exit(i32::from(worse));
        }
        Err(what) => {
            eprintln!("{what}");
            std::process::exit(2);
        }
    }
}
