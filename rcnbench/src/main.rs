//! `rcnbench` — run a workload, compare two sets of runs, or print the
//! `BENCHMARK.json` manifest.
//!
//! ```text
//! rcnbench run --workload W [--seed N] [--seconds S] [--trace 0|1]
//!              [--keep-trace DIR] [--out FILE]
//! rcnbench compare <runs-A> <runs-B>
//! rcnbench manifest
//! ```

use rcnbench::harness::{run, Options};
use rcnbench::metrics::{manifest, to_json, to_json_pretty};
use rcnbench::plan::{Workload, DEFAULT_SEED};
use rcnbench::report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: rcnbench run --workload classify|crashtest|certify|warm \
[--seed N] [--seconds S] [--trace 0|1] [--keep-trace DIR] [--out FILE]
       rcnbench compare <runs-A> <runs-B>
       rcnbench manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok((options, out)) => run_and_report(&options, out.as_deref()),
            Err(e) => usage_error(&e),
        },
        Some("compare") if args.len() == 3 => {
            match rcnbench::compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("manifest") if args.len() == 1 => {
            println!("{}", to_json_pretty(&manifest()));
            ExitCode::SUCCESS
        }
        _ => usage_error("expected a command"),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Parses `run`'s flags (`--flag value` only; every flag is checked).
fn parse_run(args: &[String]) -> Result<(Options, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut traced = false;
    let mut keep_trace = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| "seed must be a u64")?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "seconds must be a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("trace must be 0 or 1".into()),
                }
            }
            "--keep-trace" => keep_trace = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let mut options = Options::new(workload, seed);
    if let Some(s) = seconds {
        options.seconds = s;
    }
    options.traced = traced || keep_trace.is_some();
    options.keep_trace = keep_trace;
    Ok((options, out))
}

fn run_and_report(options: &Options, out: Option<&Path>) -> ExitCode {
    if let Some(dir) = &options.keep_trace {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    let result = match run(options) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, to_json_pretty(&report::file(&result)) + "\n") {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    print!("{}", report::human(&result));
    println!("{}", to_json(&report::line(&result)));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
