//! `rtbench`: one command, five workloads, end-to-end and per-layer numbers
//! for RT-channel admission and fabric simulation.
//!
//! ```text
//! rtbench run --workload <name|all> [--seed N] [--seconds S | --repeats R]
//!             [--trace [0|1]] [--smoke] [--out FILE]
//! rtbench compare A.json B.json
//! ```
//!
//! See `README.md` beside `Cargo.toml` for what each workload and metric
//! means and how to read the trace.

mod adapter;
mod alloc;
mod compare;
mod host;
mod json;
mod metrics;
mod report;
mod span;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use adapter::Workload;
use json::Value;
use report::Outcome;

/// `SOAK_SEED` of the legacy churn soak, so the first baselines line up.
const DEFAULT_SEED: u64 = 20644;
const DEFAULT_REPEATS: u32 = 5;
const TRACE_FILE: &str = "rtbench-trace.jsonl";

const USAGE: &str = "usage:
  rtbench run --workload <name|all> [--seed N] [--seconds S | --repeats R]
              [--trace [0|1]] [--smoke] [--out FILE]
  rtbench compare A.json B.json
workloads: churn_central churn_distributed churn_faults wire_preload wire_rt";

/// How many fresh repeats one invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Limit {
    /// Exactly this many.
    Repeats(u32),
    /// Start another as long as fewer than this many seconds have passed.
    Seconds(u64),
}

impl Limit {
    fn to_json(self) -> Value {
        match self {
            Limit::Repeats(r) => Value::obj([("repeats", Value::count(u64::from(r)))]),
            Limit::Seconds(s) => Value::obj([("seconds", Value::count(s))]),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct RunOptions {
    /// `None` is `all`.
    workload: Option<Workload>,
    seed: u64,
    limit: Limit,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workload: None,
        seed: DEFAULT_SEED,
        limit: Limit::Repeats(DEFAULT_REPEATS),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut named = false;
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} takes {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                options.workload = match name.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::from_name(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
                named = true;
            }
            "--seed" => {
                options.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds takes a whole number".to_string())?;
                options.limit = Limit::Seconds(seconds);
            }
            "--repeats" => {
                let repeats: u32 = value("a number")?
                    .parse()
                    .map_err(|_| "--repeats takes a whole number".to_string())?;
                if repeats == 0 {
                    return Err("--repeats takes at least 1".into());
                }
                options.limit = Limit::Repeats(repeats);
            }
            "--trace" => {
                // A bare flag, or the driver's `--trace 0` / `--trace 1`.
                options.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => options.smoke = true,
            "--out" => options.out = Some(PathBuf::from(value("a file name")?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    if options.smoke {
        options.limit = Limit::Repeats(1);
    }
    Ok(options)
}

/// Run one workload in this process.
fn run_one(workload: Workload, options: &RunOptions) -> Result<ExitCode, String> {
    // A traced invocation spends its time on the traced pass and the
    // kernels; one untraced repeat gives the overhead ratio its base.
    let limit = if options.trace {
        Limit::Repeats(1)
    } else {
        options.limit
    };
    let started = Instant::now();
    let mut repeats = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        repeats.push(workload.run(options.seed, options.smoke));
        if repeats.len() == 1 {
            // The peak of one repeat.  Later repeats start from a heap the
            // allocator has already grown and fragmented, so a peak read at
            // the end would depend on how many repeats fitted the time box.
            peak_rss_mb = host::peak_rss_mb();
        }
        let done = match limit {
            Limit::Repeats(r) => repeats.len() >= r as usize,
            Limit::Seconds(s) => started.elapsed() >= Duration::from_secs(s),
        };
        if done {
            break;
        }
    }
    let mut outcome = Outcome::of(workload, options.seed, options.smoke, repeats, peak_rss_mb);
    if options.trace {
        outcome.attach(workload.run_traced(options.seed, options.smoke));
    }
    outcome.print();
    if let Some(out) = &options.out {
        let file = report::file(
            host::block(),
            options.seed,
            options.smoke,
            options.trace,
            options.limit.to_json(),
            vec![outcome.to_json()],
        );
        write(out, &file.to_pretty())?;
        if options.trace {
            write(&beside(out, TRACE_FILE), &outcome.trace_lines())?;
        }
    }
    // The driver reads the last line of standard output.
    println!("{}", outcome.contract_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload, each in a child process of its own so their memory
/// peaks do not mix, and merge what they wrote.
fn run_all(options: &RunOptions) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut entries = Vec::new();
    let mut trace = String::new();
    let mut all_passed = true;
    for workload in Workload::ALL {
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", workload.name()])
            .args(["--seed", &options.seed.to_string()]);
        match options.limit {
            Limit::Repeats(r) => child.args(["--repeats", &r.to_string()]),
            Limit::Seconds(s) => child.args(["--seconds", &s.to_string()]),
        };
        if options.trace {
            child.arg("--trace");
        }
        if options.smoke {
            child.arg("--smoke");
        }
        let part = options
            .out
            .as_ref()
            .map(|out| beside(out, &format!("rtbench-{}.part", workload.name())));
        if let Some(part) = &part {
            child.arg("--out").arg(part);
        }
        // `status()` waits for the child to end.
        let status = child
            .status()
            .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
        all_passed &= status.success();
        let Some(part) = part else { continue };
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{} left no result: {e}", workload.name()))?;
        let file = json::parse(&text)?;
        entries.extend(
            file.get("workloads")
                .and_then(|w| w.as_arr())
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
        // Ignore a failure to tidy up: the merged file is what counts.
        let _ = std::fs::remove_file(&part);
        if options.trace {
            let lines = beside(&part, TRACE_FILE);
            trace.push_str(&std::fs::read_to_string(&lines).unwrap_or_default());
        }
    }
    if let Some(out) = &options.out {
        let file = report::file(
            host::block(),
            options.seed,
            options.smoke,
            options.trace,
            options.limit.to_json(),
            entries,
        );
        write(out, &file.to_pretty())?;
        if options.trace {
            write(&beside(out, TRACE_FILE), &trace)?;
        }
    }
    println!(
        "rtbench all: {}",
        if all_passed {
            "every workload passed its checks"
        } else {
            "at least one workload FAILED its checks"
        }
    );
    Ok(if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `name` in the directory that holds `file`.
fn beside(file: &Path, name: &str) -> PathBuf {
    file.parent().unwrap_or(Path::new("")).join(name)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn compare_files(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare::compare(&read(a)?, &read(b)?)?;
    comparison.print();
    Ok(if comparison.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => {
            parse_run(rest).and_then(|options| match options.workload {
                Some(workload) => run_one(workload, &options),
                None => run_all(&options),
            })
        }
        Some((command, rest)) if command == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("rtbench: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let options =
            parse_run(&args("--workload wire_rt --seed 7 --seconds 15 --trace 0")).unwrap();
        assert_eq!(
            options,
            RunOptions {
                workload: Some(Workload::WireRt),
                seed: 7,
                limit: Limit::Seconds(15),
                trace: false,
                smoke: false,
                out: None,
            }
        );
        let traced = parse_run(&args(
            "--workload churn_faults --seed 7 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert!(traced.trace);
    }

    #[test]
    fn defaults_and_the_bare_trace_flag() {
        let options = parse_run(&args("--workload all --trace --out r.json")).unwrap();
        assert_eq!(options.workload, None);
        assert_eq!(options.seed, DEFAULT_SEED);
        assert_eq!(options.limit, Limit::Repeats(DEFAULT_REPEATS));
        assert!(options.trace);
        assert_eq!(options.out, Some(PathBuf::from("r.json")));
        // A bare --trace does not swallow the flag after it.
        let options = parse_run(&args("--trace --smoke --workload wire_preload")).unwrap();
        assert!(options.trace && options.smoke);
        assert_eq!(options.limit, Limit::Repeats(1));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "--workload nothing",
            "--workload wire_rt --seed x",
            "--workload wire_rt --repeats 0",
            "--workload wire_rt --seconds",
            "--workload wire_rt --bogus",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn side_files_land_beside_the_result_file() {
        assert_eq!(
            beside(Path::new("results/a.json"), TRACE_FILE),
            Path::new("results/rtbench-trace.jsonl")
        );
        assert_eq!(beside(Path::new("a.json"), "x"), Path::new("x"));
    }
}
