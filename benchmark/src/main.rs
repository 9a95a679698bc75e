//! `gmbench` — the repo's one benchmark: one design driven to coverage
//! closure, measured end to end and layer by layer.
//!
//! ```text
//! gmbench --workload W --seed N --seconds S --trace 0|1   one workload, one result line
//! gmbench run [--all] [--workload W].. [--seed N] [--seconds S] [--runs K] [--traced] [--out FILE]
//! gmbench compare OLD.json NEW.json
//! gmbench check                      smoke-size run of everything, all oracles, names vs BENCHMARK.json
//! gmbench manifest                   prints BENCHMARK.json from the metric tables
//! ```
//!
//! See `benchmark/README.md`.

mod api;
mod compare;
mod fold;
mod json;
mod metrics;
mod stats;
mod workloads;

use json::Value;
use metrics::{MetricDef, Report};
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const DEFAULT_SEED: u64 = 1;
const DEFAULT_OUT: &str = "benchmark/out/latest.json";

fn main() -> ExitCode {
    // Paths in this program (`benchmark/out`, `BENCHMARK.json`) are
    // relative to the checkout the binary was built in.
    if let Some(root) = Path::new(env!("CARGO_MANIFEST_DIR")).parent() {
        let _ = std::env::set_current_dir(root);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") => compare_command(&args[1..]),
        Some("check") => check_command(),
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => workload_command(&args),
        _ => Err(format!("usage:\n{}", USAGE)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("gmbench: {message}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "  gmbench --workload W --seed N --seconds S --trace 0|1
  gmbench run [--all] [--workload W].. [--seed N] [--seconds S] [--runs K] [--traced] [--out FILE]
  gmbench compare OLD.json NEW.json
  gmbench check
  gmbench manifest";

/// `--name value` pairs and bare `--flags`, in order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument `{arg}`"))?;
            if switches.contains(&name) {
                out.push((name.to_string(), None));
            } else {
                let value = it.next().ok_or(format!("--{name} needs a value"))?;
                out.push((name.to_string(), Some(value.clone())));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.all(name).last() {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: bad number `{text}`")),
            None => Ok(default),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// One workload in this process (the result-line contract)
// ---------------------------------------------------------------------

fn print_metrics<'a>(report: &Report, defs: impl Iterator<Item = &'a MetricDef>) {
    for d in defs {
        println!("{:<32} {:>18.6} {}", d.name, report.get(d.name), d.unit);
    }
}

fn workload_command(args: &[String]) -> Result<bool, String> {
    // `--full-report` and `--smoke` are for `run` and `check`, which
    // drive this mode in child processes.
    let flags = Flags::parse(args, &["full-report", "smoke"])?;
    flags.only(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "full-report",
        "smoke",
    ])?;
    let name = *flags
        .all("workload")
        .last()
        .ok_or("--workload is required")?;
    let seconds: f64 = flags.number("seconds", workloads::RUN_SECONDS as f64)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let traced = match flags.number::<u8>("trace", 0)? {
        0 => false,
        1 => true,
        _ => return Err("--trace is 0 or 1".to_string()),
    };
    let ctx = workloads::Ctx {
        seed: flags.number("seed", DEFAULT_SEED)?,
        seconds,
        traced,
        smoke: flags.has("smoke"),
    };
    let report = workloads::run(name, &ctx).ok_or(format!(
        "unknown workload `{name}` (one of: {})",
        metrics::WORKLOADS.map(|(n, _)| n).join(", ")
    ))?;

    println!(
        "workload {name}  seed {}  seconds {seconds}  trace {}",
        ctx.seed,
        u8::from(traced)
    );
    print_metrics(&report, metrics::end_to_end());
    if traced {
        print_metrics(&report, metrics::LAYER.iter());
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    println!("outcome_hash {:#018x}", report.outcome_hash);
    // The result line comes last. Untraced: the end-to-end metrics every
    // workload has; traced: everything else.
    let line = match (flags.has("full-report"), traced) {
        (true, false) => report.result_line(metrics::end_to_end()),
        (true, true) => report.result_line(metrics::end_to_end().chain(metrics::LAYER.iter())),
        (false, false) => report.result_line(metrics::UNIVERSAL.iter()),
        (false, true) => report.result_line(metrics::traced_line()),
    };
    println!("{line}");
    // A failed operation is reported in the line, not by the exit code.
    Ok(true)
}

// ---------------------------------------------------------------------
// run: every workload in its own child process
// ---------------------------------------------------------------------

/// Runs one workload in a child process (so `peak_rss_mb` is its own)
/// and returns its parsed result line plus its outcome hash.
fn child(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--full-report"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning {name}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text.lines() {
        // The result line is for machines.
        if !line.starts_with('{') {
            println!("  {line}");
        }
    }
    if !output.status.success() {
        return Err(format!("{name}: exited with {}", output.status));
    }
    let last = text
        .lines()
        .last()
        .ok_or(format!("{name}: printed nothing"))?;
    let line = json::parse(last).map_err(|e| format!("{name}: result line: {e}"))?;
    let hash = text
        .lines()
        .find_map(|l| l.strip_prefix("outcome_hash "))
        .unwrap_or("")
        .to_string();
    // Flatten `{value, unit}` to the value: units live in the tables.
    let metrics = line
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or(format!("{name}: result line has no metrics"))?
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Value::Null)))
        .collect();
    Ok(Value::obj(vec![
        (
            "correct",
            line.get("correct").cloned().unwrap_or(Value::Null),
        ),
        (
            "attempted",
            line.get("attempted").cloned().unwrap_or(Value::Null),
        ),
        ("failed", line.get("failed").cloned().unwrap_or(Value::Null)),
        ("outcome_hash", Value::Str(hash)),
        ("metrics", Value::Obj(metrics)),
    ]))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["all", "traced"])?;
    flags.only(&[
        "all", "traced", "workload", "seed", "seconds", "runs", "out",
    ])?;
    let seed: u64 = flags.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.number("seconds", workloads::RUN_SECONDS as f64)?;
    let runs: usize = flags.number("runs", 1)?;
    let out = flags
        .all("out")
        .last()
        .copied()
        .unwrap_or(DEFAULT_OUT)
        .to_string();
    let mut names: Vec<&str> = flags.all("workload");
    if names.is_empty() || flags.has("all") {
        names = metrics::WORKLOADS.iter().map(|(n, _)| *n).collect();
    }

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for name in names {
        let mut entry = Vec::new();
        let mut run_values = Vec::new();
        for k in 0..runs.max(1) {
            println!("== {name}: untraced run {} of {}", k + 1, runs.max(1));
            let run = child(name, seed, seconds, false, false)?;
            all_correct &= run.get("correct").and_then(Value::as_bool) == Some(true);
            run_values.push(run);
        }
        let summary = metrics::end_to_end()
            .map(|d| {
                let values: Vec<f64> = run_values
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(d.name)?.as_f64())
                    .collect();
                let (q1, q3) = stats::quartiles(&values)
                    .unwrap_or((stats::median(&values), stats::median(&values)));
                (
                    d.name,
                    Value::obj(vec![
                        ("median", Value::Num(stats::median(&values))),
                        ("q1", Value::Num(q1)),
                        ("q3", Value::Num(q3)),
                        ("unit", Value::Str(d.unit.to_string())),
                    ]),
                )
            })
            .collect();
        entry.push(("runs", Value::Arr(run_values)));
        entry.push(("summary", Value::obj(summary)));
        if flags.has("traced") {
            println!("== {name}: traced run");
            let run = child(name, seed, seconds, true, false)?;
            all_correct &= run.get("correct").and_then(Value::as_bool) == Some(true);
            entry.push(("traced", run));
        }
        workloads_json.push((name, Value::obj(entry)));
    }

    let dirty = !tool_line("git", &["status", "--porcelain", "--untracked-files=no"]).is_empty();
    let rev = tool_line("git", &["rev-parse", "--short", "HEAD"]);
    let document = Value::obj(vec![
        (
            "meta",
            Value::obj(vec![
                (
                    "git_rev",
                    Value::Str(if dirty {
                        format!("{rev}+uncommitted")
                    } else {
                        rev
                    }),
                ),
                (
                    "nproc",
                    Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
                ),
                ("rustc", Value::Str(tool_line("rustc", &["--version"]))),
                // A string: a u64 seed does not fit a JSON number.
                ("seed", Value::Str(seed.to_string())),
                ("seconds", Value::Num(seconds)),
                ("untraced_runs", Value::Num(runs.max(1) as f64)),
            ]),
        ),
        ("workloads", Value::obj(workloads_json)),
    ]);
    if let Some(dir) = Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, document.to_pretty()).map_err(|e| format!("{out}: {e}"))?;
    println!("wrote {out}");
    Ok(all_correct)
}

// ---------------------------------------------------------------------
// compare, check
// ---------------------------------------------------------------------

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_command(args: &[String]) -> Result<bool, String> {
    let [old, new] = args else {
        return Err("compare takes OLD.json NEW.json".to_string());
    };
    let any_worse = compare::compare(&read_json(old)?, &read_json(new)?)?;
    Ok(!any_worse)
}

/// `BENCHMARK.json`, from the tables: the result-line contract's view of
/// the benchmark (`gmbench manifest > BENCHMARK.json`).
fn manifest() -> Value {
    let better = |d: &MetricDef| {
        Value::Str(
            match d.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            }
            .to_string(),
        )
    };
    let end_to_end = metrics::UNIVERSAL
        .iter()
        .zip(metrics::CONTRACT_BOUNDS)
        .map(|(d, bound)| {
            Value::obj(vec![
                ("name", Value::Str(d.name.to_string())),
                ("unit", Value::Str(d.unit.to_string())),
                ("better", better(d)),
                ("bound", Value::Num(bound)),
            ])
        })
        .collect();
    let per_layer = metrics::traced_line()
        .map(|d| {
            Value::obj(vec![
                ("name", Value::Str(d.name.to_string())),
                ("unit", Value::Str(d.unit.to_string())),
                ("better", better(d)),
            ])
        })
        .collect();
    let workloads = metrics::WORKLOADS
        .iter()
        .map(|(name, why)| {
            Value::obj(vec![
                ("name", Value::Str(name.to_string())),
                ("why", Value::Str(why.to_string())),
            ])
        })
        .collect();
    Value::obj(vec![
        (
            "command",
            Value::Arr(vec![
                Value::Str("bash".into()),
                Value::Str("benchmark/run.sh".into()),
            ]),
        ),
        ("paths", Value::Arr(vec![Value::Str("benchmark".into())])),
        ("run_seconds", Value::Num(workloads::RUN_SECONDS as f64)),
        ("workloads", Value::Arr(workloads)),
        ("end_to_end", Value::Arr(end_to_end)),
        ("per_layer", Value::Arr(per_layer)),
    ])
}

/// Every workload at smoke size, traced pass included: all oracles
/// pass, and every metric is present, finite and named as in the
/// tables.
fn check_command() -> Result<bool, String> {
    if read_json("BENCHMARK.json")? != manifest() {
        return Err("BENCHMARK.json is not what `gmbench manifest` prints".to_string());
    }
    println!("BENCHMARK.json matches the metric tables");
    let mut ok = true;
    for (name, _) in metrics::WORKLOADS {
        println!("== {name}: smoke");
        let run = child(name, DEFAULT_SEED, 1.0, true, true)?;
        if run.get("correct").and_then(Value::as_bool) != Some(true) {
            println!("{name}: an oracle failed");
            ok = false;
        }
        let got = run.get("metrics").and_then(Value::as_obj).unwrap_or(&[]);
        let want: Vec<&str> = metrics::end_to_end()
            .chain(metrics::LAYER.iter())
            .map(|d| d.name)
            .collect();
        let got_names: Vec<&str> = got.iter().map(|(k, _)| k.as_str()).collect();
        if got_names != want {
            println!("{name}: the reported metric names are not the tables'");
            ok = false;
        }
        if let Some((k, _)) = got
            .iter()
            .find(|(_, v)| !v.as_f64().is_some_and(f64::is_finite))
        {
            println!("{name}: metric {k} is not a finite number");
            ok = false;
        }
        for must in ["setup_s", "wall_s", "peak_rss_mb"] {
            if !got
                .iter()
                .any(|(k, v)| k == must && v.as_f64().is_some_and(|x| x > 0.0))
            {
                println!("{name}: {must} must be positive");
                ok = false;
            }
        }
    }
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    Ok(ok)
}
