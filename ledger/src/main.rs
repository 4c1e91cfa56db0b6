//! `ledger`: the repo's benchmark. See `README.md` next to `Cargo.toml`.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one measuring process
//!        [--quick] [--spans-out FILE]                       (the driver's command)
//! ledger run [--seed N] [--reps R] [--seconds S] [--quick]  the whole matrix, one fresh
//!        [--workload NAME]... [--out FILE]                  process per repetition
//! ledger compare A.json B.json                              row-by-row verdicts
//! ledger list                                               workloads and metrics
//! ```

mod alloc;
mod compare;
mod drive;
mod json;
mod matrix;
mod measure;
mod spec;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use drive::Scale;
use spec::{Workload, END_TO_END, PER_LAYER};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// Repetitions and window of `ledger run` unless told otherwise; the window
/// equals `run_seconds` in `BENCHMARK.json`.
const DEFAULT_REPS: usize = 5;
const DEFAULT_SECONDS: f64 = 5.0;
const QUICK_SECONDS: f64 = 0.2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("list") => {
            print!("{}", list());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => measure_once(&args),
        _ => Err(
            "usage: ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick] \
             [--spans-out FILE] | run [options] | compare A.json B.json | list"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare switches, in order.
struct Flags<'a> {
    args: &'a [String],
    at: usize,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { args, at: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.at)?;
        self.at += 1;
        Some(flag)
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        let value = self
            .args
            .get(self.at)
            .ok_or(format!("{flag} needs a value"))?;
        self.at += 1;
        Ok(value)
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|_| format!("{flag}: cannot read {value:?}"))
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or(format!("unknown workload {name:?}; see `ledger list`"))
}

/// The driver's entry point: one workload, one pass, one result line.
fn measure_once(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    let mut spans_out = None;
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload = Some(workload_named(flags.value(flag)?)?),
            "--seed" => seed = Some(flags.parsed::<u64>(flag)?),
            "--seconds" => seconds = Some(flags.parsed::<f64>(flag)?),
            "--trace" => {
                trace = Some(match flags.value(flag)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--quick" => scale = Scale::Quick,
            "--spans-out" => spans_out = Some(PathBuf::from(flags.value(flag)?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let request = measure::Request {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        spans_out,
    };
    let outcome = measure::measure(&request)?;
    println!("{}", outcome.detail_line());
    println!("{}", outcome.result_line());
    // A run whose outputs are wrong still reports them and exits 0: the
    // `correct` field carries the verdict, a non-zero exit means "no result".
    Ok(true)
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut config = matrix::Config {
        seed: 1,
        reps: DEFAULT_REPS,
        seconds: DEFAULT_SECONDS,
        scale: Scale::Full,
        workloads: Vec::new(),
    };
    let (mut reps, mut seconds, mut out) = (None, None, None);
    let mut flags = Flags::new(args);
    while let Some(flag) = flags.next() {
        match flag {
            "--seed" => config.seed = flags.parsed(flag)?,
            "--reps" => reps = Some(flags.parsed::<usize>(flag)?),
            "--seconds" => seconds = Some(flags.parsed::<f64>(flag)?),
            "--quick" => config.scale = Scale::Quick,
            "--workload" => config.workloads.push(workload_named(flags.value(flag)?)?),
            "--out" => out = Some(PathBuf::from(flags.value(flag)?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let quick = config.scale == Scale::Quick;
    config.reps = reps.unwrap_or(if quick { 1 } else { DEFAULT_REPS }).max(1);
    config.seconds = seconds.unwrap_or(if quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if config.workloads.is_empty() {
        config.workloads = Workload::ALL.to_vec();
    }

    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let artifact = matrix::run_matrix(
        &config,
        &mut |request| matrix::spawn_child(&exe, request),
        &mut |step| eprintln!("ledger: {step}"),
    );
    print!("{}", artifact.render());
    if !artifact.passed() && !quick {
        // A full-scale result that fails its own checks is not a result.
        return Err("a check failed; no artifact written".to_string());
    }
    if let Some(path) = out {
        let mut text = artifact.to_json().render();
        text.push('\n');
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("ledger: wrote {}", path.display());
    }
    Ok(artifact.passed())
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("usage: ledger compare A.json B.json".to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let comparison = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", comparison.render());
    Ok(!comparison.regressed())
}

/// Every workload with its reason, every metric with unit, direction and
/// bound.
fn list() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("workloads\n");
    for w in Workload::ALL {
        let _ = writeln!(out, "  {:<24} {}", w.name(), w.why());
    }
    out.push_str("\nend-to-end metrics (regression bound as a share of the parent's median)\n");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<18} {:>5}  {:<6} better  bound {:>4.0}%  {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound * 100.0,
            m.what
        );
    }
    out.push_str(
        "\nper-layer metrics (no bound; [T] traced spans, [K] isolation kernel, \
         [C] public counter, [D] derived)\n",
    );
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<38} {:>5}  {:<6} better  [{}]  -> {}",
            m.name,
            m.unit,
            m.better.label(),
            m.source.label(),
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_names_every_workload_and_metric() {
        let listing = list();
        for w in Workload::ALL {
            assert!(listing.contains(w.name()) && listing.contains(w.why()));
        }
        for m in END_TO_END {
            assert!(listing.contains(m.name));
        }
        for m in PER_LAYER {
            assert!(listing.contains(m.name));
        }
    }

    #[test]
    fn measuring_needs_all_four_driver_flags() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(measure_once(&args(&["--workload", "hotread_dftl", "--seed", "1"])).is_err());
        assert!(measure_once(&args(&["--workload", "nope"])).is_err());
        assert!(measure_once(&args(&[
            "--workload",
            "hotread_dftl",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ]))
        .is_err());
        let short = measure::Request {
            workload: Workload::HotreadDftl,
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: Scale::Full,
            spans_out: None,
        };
        assert!(measure::measure(&short).is_err());
    }
}
