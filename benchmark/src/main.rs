//! The repo benchmark: four named workloads, seven end-to-end metrics, and
//! an outside-in layer ladder (fft → core → nn → serve → wire → shard).
//! See `README.md` beside this package and `BENCHMARK.json` at the root.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run in this
//!   process (what the driver calls): metric lines, a result file, and as
//!   the last line of stdout one JSON object.
//! * without `--trace` — the suite: every workload (or the one named),
//!   untraced then traced, each in a fresh child process; `--smoke`
//!   shortens the windows, `--check-repeat` runs the untraced set twice
//!   and holds the two to the metrics' own bounds.

mod client;
mod drive;
mod engine;
mod host;
mod json;
mod ladder;
mod pool;
mod rng;
mod spec;
mod stack;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use workloads::{Report, RunConfig, SETUP_REPEATS};

/// `run_seconds` of `BENCHMARK.json`: the default measured window.
const RUN_SECONDS: f64 = 28.0;
/// `--smoke` windows.
const SMOKE_SECONDS: f64 = 1.0;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    flip_reference: bool,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                [--smoke] [--check-repeat] [--flip-reference]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::is_workload(&name) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--smoke" => args.smoke = true,
            "--check-repeat" => args.check_repeat = true,
            "--flip-reference" => args.flip_reference = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where result and trace files go: the build directory `run.sh` (or the
/// driver) chose, so that everything a run leaves behind is in one ignored
/// place.
fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/benchmark"))
}

/// The metrics a run of this kind must report, in `BENCHMARK.json` order:
/// `(name, unit)`.
fn expected_metrics(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// One run in this process. Prints the human-readable lines, writes the
/// result (and trace) file, and prints the driver's result line last.
fn run_one(cfg: &RunConfig) -> ExitCode {
    let report = if cfg.trace {
        ladder::run_traced(cfg)
    } else {
        workloads::run_untraced(cfg)
    };
    println!(
        "# {} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for p in &report.phases {
        println!(
            "phase {} attempted={} succeeded={} failed={}",
            p.name, p.attempted, p.succeeded, p.failed
        );
    }
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in expected_metrics(cfg.trace) {
        match report.metrics.iter().find(|(n, _)| n == name) {
            Some((_, value)) => {
                println!("{name} {value} {unit}");
                metrics.push((name, *value, unit));
            }
            None => missing.push(name),
        }
    }
    for (name, value) in &report.notes {
        println!("note {name} {}", value.encode());
    }
    let (attempted, failed) = (report.attempted(), report.failed());
    let correct = failed == 0 && missing.is_empty();
    if !missing.is_empty() {
        eprintln!("benchmark: metrics not produced: {}", missing.join(", "));
    }
    if failed > 0 {
        eprintln!("benchmark: {failed} of {attempted} operations failed verification");
    }

    let metrics_json = Value::obj(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
        )
    }));
    if let Err(e) = write_files(cfg, &report, &metrics_json, correct) {
        eprintln!("benchmark: could not write result files: {e}");
        return ExitCode::from(2);
    }
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted.max(1))),
        ("failed", Value::from(failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", line.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_files(
    cfg: &RunConfig,
    report: &Report,
    metrics: &Value,
    correct: bool,
) -> std::io::Result<()> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let phases = Value::Arr(
        report
            .phases
            .iter()
            .map(|p| {
                Value::obj([
                    ("name", Value::str(p.name)),
                    ("attempted", Value::from(p.attempted)),
                    ("succeeded", Value::from(p.succeeded)),
                    ("failed", Value::from(p.failed)),
                ])
            })
            .collect(),
    );
    let header = host::header(cfg.seed);
    let result = Value::obj([
        ("host", header.clone()),
        ("workload", Value::str(cfg.workload.as_str())),
        ("seconds", Value::Num(cfg.seconds)),
        ("trace", Value::Bool(cfg.trace)),
        ("claim", Value::Null),
        ("correct", Value::Bool(correct)),
        ("phases", phases),
        ("metrics", metrics.clone()),
        ("notes", Value::Obj(report.notes.clone())),
    ]);
    let kind = if cfg.trace { "traced" } else { "untraced" };
    std::fs::write(
        dir.join(format!("result-{}-{kind}.json", cfg.workload)),
        result.encode() + "\n",
    )?;
    if cfg.trace {
        let doc = Value::obj([
            ("host", header),
            ("workload", Value::str(cfg.workload.as_str())),
            ("spans", trace::to_json(&report.spans)),
        ]);
        std::fs::write(
            dir.join(format!("trace-{}.json", cfg.workload)),
            doc.encode() + "\n",
        )?;
    }
    Ok(())
}

/// One child run's result line, parsed.
struct ChildResult {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a fresh child process of this same binary, echoing
/// what it prints, and parses its result line.
fn run_child(
    args: &Args,
    workload: &str,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.flip_reference {
        cmd.arg("--flip-reference");
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (body, last) = match stdout.trim_end().rsplit_once('\n') {
        Some((body, last)) => (body, last),
        None => ("", stdout.trim_end()),
    };
    if !body.is_empty() {
        println!("{body}");
    }
    let doc = json::parse(last).map_err(|e| {
        format!(
            "the {workload} run ({}) printed no result line: {e}",
            output.status
        )
    })?;
    let metrics = match doc.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("the {workload} result line has no metrics")),
    };
    Ok(ChildResult {
        correct: output.status.success() && doc.get("correct") == Some(&Value::Bool(true)),
        metrics,
    })
}

/// The suite: each chosen workload untraced, then traced, in fresh child
/// processes. With `--check-repeat`, the untraced set twice, compared.
fn run_suite(args: &Args) -> ExitCode {
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS
    });
    let chosen: Vec<&str> = spec::WORKLOADS
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| args.workload.as_deref().map_or(true, |w| w == *name))
        .collect();
    let mut ok = true;
    let mut run_set = |trace: bool| -> Vec<(&str, Vec<(String, f64)>)> {
        let mut set = Vec::new();
        for workload in &chosen {
            match run_child(args, workload, seconds, trace) {
                Ok(r) => {
                    ok &= r.correct;
                    set.push((*workload, r.metrics));
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ok = false;
                }
            }
        }
        set
    };

    if args.check_repeat {
        let first = run_set(false);
        let second = run_set(false);
        println!("# check-repeat: each end-to-end metric of the second set against the first");
        println!("# workload metric first second worse_by bound verdict");
        for ((workload, a), (_, b)) in first.iter().zip(&second) {
            for m in spec::END_TO_END {
                let find =
                    |set: &[(String, f64)]| set.iter().find(|(n, _)| n == m.name).map(|x| x.1);
                let (Some(x), Some(y)) = (find(a), find(b)) else {
                    println!("{workload} {} missing", m.name);
                    ok = false;
                    continue;
                };
                // Whichever set ran second, neither may be worse than the
                // other by more than the bound.
                let worse_by = m.better.worsening(x, y).max(m.better.worsening(y, x));
                let within = worse_by <= m.bound;
                ok &= within;
                println!(
                    "{workload} {} {x} {y} {worse_by:.4} {} {}",
                    m.name,
                    m.bound,
                    if within { "ok" } else { "OUTSIDE" }
                );
            }
        }
    } else {
        run_set(false);
        run_set(true);
    }
    if ok {
        println!("# all runs correct");
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: FAILED (see above)");
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.trace) {
        (Some(workload), Some(trace)) if !args.check_repeat => {
            run_one(&RunConfig {
                workload: workload.clone(),
                seed: args.seed,
                seconds: args.seconds.unwrap_or(RUN_SECONDS),
                trace,
                flip_reference: args.flip_reference,
                // A smoke run sets up once: its `setup_s` is a single
                // reading, good enough to show the run works.
                setup_repeats: if args.smoke { 1 } else { SETUP_REPEATS },
            })
        }
        _ => run_suite(&args),
    }
}
