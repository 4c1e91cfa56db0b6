//! `ledger run`: the whole matrix. Every (workload, repetition) and every
//! traced pass is a fresh measuring process, run one after another, so the
//! load generator is a single process with at most two busy threads. The
//! results are folded into one artifact that `ledger compare` reads.

use std::path::Path;
use std::process::Command;

use crate::drive::{self, Scale};
use crate::json::{self, num, obj, text, Json};
use crate::measure::{Outcome, Request, MIN_WINDOW_S};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::stats::Summary;

pub const SCHEMA: &str = "ledger-result-v1";

/// What `ledger run` was asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub scale: Scale,
    pub workloads: Vec<Workload>,
}

/// A finished measuring process, or why it produced no result (panic,
/// non-zero exit, unparsable output).
pub type ChildResult = Result<Outcome, String>;

/// Re-executes this binary for one request and parses what it printed.
pub fn spawn_child(exe: &Path, request: &Request) -> ChildResult {
    let mut command = Command::new(exe);
    command
        .arg("--workload")
        .arg(request.workload.name())
        .arg("--seed")
        .arg(request.seed.to_string())
        .arg("--seconds")
        .arg(request.seconds.to_string())
        .arg("--trace")
        .arg(if request.trace { "1" } else { "0" });
    if request.scale == Scale::Quick {
        command.arg("--quick");
    }
    if let Some(path) = &request.spans_out {
        command.arg("--spans-out").arg(path);
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(3).collect();
        return Err(format!(
            "child exited with {}: {}",
            output.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    parse_child_output(&String::from_utf8_lossy(&output.stdout))
}

/// Parses a measuring process's standard output: the detail line, then the
/// result line last.
pub fn parse_child_output(stdout: &str) -> ChildResult {
    let mut lines = stdout.lines().rev().filter(|l| !l.trim().is_empty());
    let result = json::parse(lines.next().ok_or("child printed nothing")?)?;
    let detail = lines
        .next()
        .and_then(|line| json::parse(line).ok())
        .and_then(|doc| doc.get("ledger_detail").cloned())
        .ok_or("child printed no detail line")?;
    let field = |key: &str| result.get(key).ok_or(format!("result lacks {key}"));
    let mut metrics = Vec::new();
    for (name, value) in field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
    {
        let known = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| n == name)
            .ok_or(format!("unknown metric {name}"))?;
        let value = value
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("metric {name} has no numeric value"))?;
        metrics.push((known.0, value, known.1));
    }
    Ok(Outcome {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
        detail,
    })
}

/// A named yes/no check of the artifact.
type Check = (&'static str, bool);

/// One workload's folded repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub workload: Workload,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the first completed repetition.
    pub digest: Option<String>,
    pub end_to_end: Vec<(&'static str, &'static str, Summary)>,
    pub per_layer: Vec<(&'static str, f64, &'static str)>,
    pub checks: Vec<Check>,
    pub errors: Vec<String>,
}

fn detail_str(outcome: &Outcome, key: &str) -> Option<String> {
    outcome
        .detail
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
}

fn detail_flag(outcome: &Outcome, key: &str) -> bool {
    outcome
        .detail
        .get(key)
        .and_then(Json::as_bool)
        .unwrap_or(false)
}

fn detail_num(outcome: &Outcome, key: &str) -> f64 {
    outcome
        .detail
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Folds a workload's repetitions and traced pass. A process that produced
/// no result still counts: every operation it was meant to attempt is
/// recorded as attempted and failed, so a crash can never improve a result
/// by dropping out of it.
pub fn fold(workload: Workload, scale: Scale, reps: &[ChildResult], traced: &ChildResult) -> Entry {
    let done: Vec<&Outcome> = reps.iter().filter_map(|r| r.as_ref().ok()).collect();
    let lost = reps.len() - done.len();
    let nominal = done
        .iter()
        .map(|o| o.attempted)
        .max()
        .unwrap_or_else(|| drive::chunk_requests(workload, scale));
    let attempted = done.iter().map(|o| o.attempted).sum::<u64>() + nominal * lost as u64;
    let failed = done.iter().map(|o| o.failed).sum::<u64>() + nominal * lost as u64;

    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let values: Vec<f64> = done
                .iter()
                .filter_map(|o| o.metrics.iter().find(|(n, _, _)| *n == m.name))
                .map(|(_, v, _)| *v)
                .collect();
            (m.name, m.unit, Summary::of(&values))
        })
        .collect();
    let per_layer = traced
        .as_ref()
        .map(|o| o.metrics.clone())
        .unwrap_or_default();

    let digests: Vec<Option<String>> = done.iter().map(|o| detail_str(o, "digest")).collect();
    let digest = digests.first().cloned().flatten();
    let traced_ok = traced.as_ref().ok();
    let mut checks = vec![
        ("every_process_completed", lost == 0 && traced_ok.is_some()),
        (
            "no_failed_operations",
            failed == 0 && traced_ok.is_some_and(|o| o.failed == 0),
        ),
        (
            "every_process_correct",
            done.iter().all(|o| o.correct) && traced_ok.is_some_and(|o| o.correct),
        ),
        (
            "digest_identical_across_reps",
            digest.is_some() && digests.iter().all(|d| *d == digest),
        ),
        (
            "traced_digest_matches_untraced",
            digest.is_some() && traced_ok.and_then(|o| detail_str(o, "digest")) == digest,
        ),
        (
            "no_growing_backlog",
            done.iter()
                .copied()
                .chain(traced_ok)
                .all(|o| detail_flag(o, "no_growing_backlog")),
        ),
    ];
    if scale == Scale::Full {
        checks.push((
            "every_window_at_least_1s",
            done.iter()
                .copied()
                .chain(traced_ok)
                .all(|o| detail_num(o, "window_s") >= MIN_WINDOW_S),
        ));
    }
    let errors = reps
        .iter()
        .chain(std::iter::once(traced))
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    Entry {
        workload,
        attempted,
        failed,
        digest,
        end_to_end,
        per_layer,
        checks,
        errors,
    }
}

/// The finished matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    pub config: Config,
    pub entries: Vec<Entry>,
    /// Checks across workloads (digest pairs that must agree).
    pub cross_checks: Vec<Check>,
    /// `varmail_shard4_thr` over `varmail_shard4_sim`, from the medians.
    pub thr_vs_sim_speed: Option<f64>,
}

impl Artifact {
    pub fn passed(&self) -> bool {
        self.entries
            .iter()
            .flat_map(|e| e.checks.iter())
            .chain(self.cross_checks.iter())
            .all(|(_, ok)| *ok)
    }
}

/// Runs every workload's repetitions and traced pass through `child`
/// (a fresh process in production, an in-process call in the smoke test).
pub fn run_matrix(
    config: &Config,
    child: &mut dyn FnMut(&Request) -> ChildResult,
    progress: &mut dyn FnMut(&str),
) -> Artifact {
    let mut entries = Vec::new();
    for &workload in &config.workloads {
        let mut request = Request {
            workload,
            seed: config.seed,
            seconds: config.seconds,
            trace: false,
            scale: config.scale,
            spans_out: None,
        };
        let reps: Vec<ChildResult> = (0..config.reps)
            .map(|rep| {
                progress(&format!(
                    "{} rep {}/{}",
                    workload.name(),
                    rep + 1,
                    config.reps
                ));
                child(&request)
            })
            .collect();
        request.trace = true;
        progress(&format!("{} traced pass", workload.name()));
        let traced = child(&request);
        entries.push(fold(workload, config.scale, &reps, &traced));
    }

    let digest_of = |w: Workload| {
        entries
            .iter()
            .find(|e| e.workload == w)
            .map(|e| e.digest.clone())
    };
    let mut cross_checks = Vec::new();
    for (name, a, b) in [
        (
            "threaded_digest_equals_simulated",
            Workload::VarmailShard4Sim,
            Workload::VarmailShard4Thr,
        ),
        (
            "sim_traced_digest_equals_untraced",
            Workload::RandreadLearned,
            Workload::RandreadLearnedTraced,
        ),
    ] {
        if let (Some(a), Some(b)) = (digest_of(a), digest_of(b)) {
            cross_checks.push((name, a.is_some() && a == b));
        }
    }
    let rate_of = |w: Workload| {
        entries
            .iter()
            .find(|e| e.workload == w)
            .and_then(|e| e.end_to_end.iter().find(|(n, _, _)| *n == "host_req_per_s"))
            .map(|(_, _, s)| s.median)
    };
    let thr_vs_sim_speed = rate_of(Workload::VarmailShard4Thr)
        .zip(rate_of(Workload::VarmailShard4Sim))
        .map(|(thr, sim)| thr / sim);
    Artifact {
        config: config.clone(),
        entries,
        cross_checks,
        thr_vs_sim_speed,
    }
}

/// Output of a command, trimmed; `unknown` when it cannot run (the
/// benchmark may run outside a git checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn checks_json(checks: &[Check]) -> Json {
    Json::Obj(
        checks
            .iter()
            .map(|(name, ok)| (name.to_string(), Json::Bool(*ok)))
            .collect(),
    )
}

impl Artifact {
    /// The artifact `ledger compare` reads.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .entries
            .iter()
            .map(|e| {
                let end_to_end = e
                    .end_to_end
                    .iter()
                    .map(|(name, unit, summary)| {
                        let mut fields = vec![("unit".to_string(), text(unit))];
                        if let Json::Obj(summary) = summary.to_json() {
                            fields.extend(summary);
                        }
                        (name.to_string(), Json::Obj(fields))
                    })
                    .collect();
                let per_layer = e
                    .per_layer
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.to_string(),
                            obj([("value", num(*value)), ("unit", text(unit))]),
                        )
                    })
                    .collect();
                obj([
                    ("name", text(e.workload.name())),
                    ("attempted", num(e.attempted as f64)),
                    ("failed", num(e.failed as f64)),
                    ("sim_digest", e.digest.as_deref().map_or(Json::Null, text)),
                    ("checks", checks_json(&e.checks)),
                    (
                        "errors",
                        Json::Arr(e.errors.iter().map(|s| text(s)).collect()),
                    ),
                    ("end_to_end", Json::Obj(end_to_end)),
                    ("per_layer", Json::Obj(per_layer)),
                ])
            })
            .collect();
        obj([
            ("schema", text(SCHEMA)),
            // Quick runs exercise the code; their numbers mean nothing.
            ("comparable", Json::Bool(self.config.scale == Scale::Full)),
            ("passed", Json::Bool(self.passed())),
            ("seed", num(self.config.seed as f64)),
            ("reps", num(self.config.reps as f64)),
            ("run_seconds", num(self.config.seconds)),
            (
                "host_cores",
                num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("rustc", text(&command_line("rustc", &["-V"]))),
            (
                "git_commit",
                text(&command_line("git", &["rev-parse", "HEAD"])),
            ),
            ("cross_checks", checks_json(&self.cross_checks)),
            (
                "thr_vs_sim_speed",
                self.thr_vs_sim_speed.map_or(Json::Null, num),
            ),
            ("workloads", Json::Arr(workloads)),
        ])
    }

    /// The report for people: every end-to-end metric of every workload by
    /// name and unit, then the per-layer ledger, then the checks.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "ledger: seed {} | {} reps x {} s | {}",
            self.config.seed,
            self.config.reps,
            self.config.seconds,
            if self.config.scale == Scale::Full {
                "full scale"
            } else {
                "QUICK (not comparable)"
            }
        );
        for e in &self.entries {
            let _ = writeln!(
                out,
                "\n== {} | attempted {} failed {} | sim_digest {}",
                e.workload.name(),
                e.attempted,
                e.failed,
                e.digest.as_deref().unwrap_or("-")
            );
            let _ = writeln!(
                out,
                "  {:<18} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
                "end-to-end", "unit", "median", "q1", "q3", "min", "max", "n"
            );
            for (name, unit, s) in &e.end_to_end {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>3}",
                    name, unit, s.median, s.q1, s.q3, s.min, s.max, s.n
                );
            }
            let _ = writeln!(out, "  per-layer (traced pass)");
            for (name, value, unit) in &e.per_layer {
                let _ = writeln!(out, "    {name:<38} {value:>16.4} {unit}");
            }
            for (name, ok) in &e.checks {
                let _ = writeln!(out, "  check {name}: {}", if *ok { "ok" } else { "FAILED" });
            }
            for error in &e.errors {
                let _ = writeln!(out, "  error: {error}");
            }
        }
        let _ = writeln!(out);
        for (name, ok) in &self.cross_checks {
            let _ = writeln!(out, "check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        if let Some(ratio) = self.thr_vs_sim_speed {
            let _ = writeln!(
                out,
                "ftl-shard.thr_vs_sim_speed (from medians): {ratio:.4} (base: varmail_shard4_sim)"
            );
        }
        let _ = writeln!(
            out,
            "result: {}",
            if self.passed() {
                "all checks hold"
            } else {
                "CHECKS FAILED"
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure;

    fn outcome(attempted: u64, failed: u64, digest: &str, rate: f64) -> Outcome {
        Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name,
                        if m.name == "host_req_per_s" {
                            rate
                        } else {
                            1.0
                        },
                        m.unit,
                    )
                })
                .collect(),
            detail: obj([
                ("digest", text(digest)),
                ("window_s", num(2.0)),
                ("no_growing_backlog", Json::Bool(true)),
            ]),
        }
    }

    fn check(entry: &Entry, name: &str) -> bool {
        entry
            .checks
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ok)| *ok)
            .unwrap_or_else(|| panic!("no check named {name}"))
    }

    #[test]
    fn a_crashed_child_counts_as_failed_operations() {
        let reps = vec![
            Ok(outcome(1000, 0, "aa", 10.0)),
            Err("child exited with signal 6".to_string()),
            Ok(outcome(1200, 0, "aa", 12.0)),
        ];
        let traced = Ok(outcome(500, 0, "aa", 1.0));
        let entry = fold(Workload::HotreadDftl, Scale::Full, &reps, &traced);
        // The lost repetition is charged the largest attempt count seen.
        assert_eq!(entry.attempted, 1000 + 1200 + 1200);
        assert_eq!(entry.failed, 1200);
        assert!(!check(&entry, "every_process_completed"));
        assert!(!check(&entry, "no_failed_operations"));
        assert!(check(&entry, "digest_identical_across_reps"));
        assert_eq!(entry.errors.len(), 1);
        // The surviving repetitions still summarise.
        let rate = &entry.end_to_end[0];
        assert_eq!(
            (rate.0, rate.2.n, rate.2.median),
            ("host_req_per_s", 2, 11.0)
        );

        // With no survivor at all the nominal chunk size is charged.
        let all_lost = fold(
            Workload::HotreadDftl,
            Scale::Full,
            &[Err("boom".to_string())],
            &Err("boom".to_string()),
        );
        let nominal = drive::chunk_requests(Workload::HotreadDftl, Scale::Full);
        assert_eq!((all_lost.attempted, all_lost.failed), (nominal, nominal));
    }

    #[test]
    fn digest_checks_catch_a_diverging_repetition_or_traced_pass() {
        let good = fold(
            Workload::RandreadLearned,
            Scale::Full,
            &[Ok(outcome(10, 0, "aa", 1.0)), Ok(outcome(10, 0, "aa", 1.0))],
            &Ok(outcome(10, 0, "aa", 1.0)),
        );
        assert!(good.checks.iter().all(|(_, ok)| *ok), "{:?}", good.checks);

        let rep_diverged = fold(
            Workload::RandreadLearned,
            Scale::Full,
            &[Ok(outcome(10, 0, "aa", 1.0)), Ok(outcome(10, 0, "ab", 1.0))],
            &Ok(outcome(10, 0, "aa", 1.0)),
        );
        assert!(!check(&rep_diverged, "digest_identical_across_reps"));

        let trace_diverged = fold(
            Workload::RandreadLearned,
            Scale::Full,
            &[Ok(outcome(10, 0, "aa", 1.0))],
            &Ok(outcome(10, 0, "ff", 1.0)),
        );
        assert!(!check(&trace_diverged, "traced_digest_matches_untraced"));
    }

    #[test]
    fn child_output_round_trips() {
        let sent = outcome(42, 0, "00ff", 3.5);
        let stdout = format!("noise\n{}\n{}\n", sent.detail_line(), sent.result_line());
        assert_eq!(parse_child_output(&stdout), Ok(sent));
        assert!(parse_child_output("").is_err());
        assert!(parse_child_output("{\"correct\":true}\n").is_err());
    }

    /// The smoke test of the whole benchmark: every workload builder, the
    /// traced pass, every kernel and the folding run in quick mode, in this
    /// process.
    #[test]
    fn quick_matrix_runs_every_workload_and_passes_its_checks() {
        let config = Config {
            seed: 1,
            reps: 1,
            seconds: 0.05,
            scale: Scale::Quick,
            workloads: Workload::ALL.to_vec(),
        };
        let artifact = run_matrix(
            &config,
            &mut |request| measure::measure(request),
            &mut |_| {},
        );
        assert_eq!(artifact.entries.len(), Workload::ALL.len());
        for entry in &artifact.entries {
            assert!(
                entry.errors.is_empty(),
                "{}: {:?}",
                entry.workload.name(),
                entry.errors
            );
            assert!(
                entry.checks.iter().all(|(_, ok)| *ok),
                "{}: {:?}",
                entry.workload.name(),
                entry.checks
            );
            assert_eq!(entry.failed, 0);
            assert_eq!(entry.end_to_end.len(), END_TO_END.len());
            assert_eq!(entry.per_layer.len(), PER_LAYER.len());
            for (name, _, summary) in &entry.end_to_end {
                assert!(
                    summary.median > 0.0,
                    "{} {name} is not positive",
                    entry.workload.name()
                );
            }
        }
        assert_eq!(artifact.cross_checks.len(), 2);
        assert!(artifact.passed(), "{}", artifact.render());
        let doc = artifact.to_json();
        assert_eq!(doc.get("comparable"), Some(&Json::Bool(false)));
        assert_eq!(json::parse(&doc.render()), Ok(doc));
    }
}
