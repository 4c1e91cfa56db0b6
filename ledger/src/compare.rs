//! `ledger compare A.json B.json`: the tool the "two sets of runs agree"
//! criterion and every later before/after claim are checked with. One row
//! per (workload, end-to-end metric), never a combined score.

use std::fmt::Write as _;

use crate::json::Json;
use crate::matrix::SCHEMA;
use crate::spec::{Better, END_TO_END};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Not regressed, but a side's run-to-run spread is wider than the
    /// bound: the runs cannot tell unchanged from regressed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: Summary,
    pub b: Summary,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    /// B's median over A's (the base).
    pub fn ratio(&self) -> f64 {
        self.b.median / self.a.median
    }
}

/// Share of A's median by which B's median is worse (negative: better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

pub fn judge(better: Better, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    if worse_by(better, a.median, b.median) > bound {
        Verdict::Regressed
    } else if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose failed share is higher in B than in A.
    pub more_failures: Vec<String>,
    /// Simulated digests that differ (expected to be identical for a
    /// speed-only change at the same seed).
    pub digest_changes: Vec<String>,
    pub notes: Vec<String>,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        !self.more_failures.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} artifact"));
    }
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "artifact has no workloads array".to_string())
}

fn failed_share(entry: &Json) -> f64 {
    let count = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    count("failed") / count("attempted").max(1.0)
}

pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let (a_entries, b_entries) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison {
        rows: Vec::new(),
        more_failures: Vec::new(),
        digest_changes: Vec::new(),
        notes: Vec::new(),
    };
    for doc in [a, b] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            out.notes
                .push("an input is stamped \"comparable\": false (quick mode)".to_string());
        }
    }
    if a.get("seed") != b.get("seed") {
        out.notes.push(
            "seeds differ: simulated metrics and digests are not expected to match".to_string(),
        );
    }
    for a_entry in a_entries {
        let name = a_entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload entry has no name")?;
        let Some(b_entry) = b_entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.notes.push(format!("{name}: only in A"));
            continue;
        };
        if failed_share(b_entry) > failed_share(a_entry) {
            out.more_failures.push(name.to_string());
        }
        if a_entry.get("sim_digest") != b_entry.get("sim_digest") {
            out.digest_changes.push(name.to_string());
        }
        for m in END_TO_END {
            let side = |entry: &Json| {
                entry
                    .get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Summary::from_json)
                    .ok_or(format!("{name}: no summary for {}", m.name))
            };
            let (sa, sb) = (side(a_entry)?, side(b_entry)?);
            out.rows.push(Row {
                workload: name.to_string(),
                metric: m.name,
                unit: m.unit,
                a: sa,
                b: sb,
                bound: m.bound,
                verdict: judge(m.better, m.bound, &sa, &sb),
            });
        }
    }
    Ok(out)
}

impl Comparison {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<16} {:>6} {:>14} {:>25} {:>14} {:>25} {:>8} {:>6}  verdict",
            "workload",
            "metric",
            "unit",
            "A median",
            "A [q1, q3]",
            "B median",
            "B [q1, q3]",
            "B/A",
            "bound"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:<16} {:>6} {:>14.4} {:>25} {:>14.4} {:>25} {:>8.4} {:>5.0}%  {}",
                r.workload,
                r.metric,
                r.unit,
                r.a.median,
                format!("[{:.4}, {:.4}]", r.a.q1, r.a.q3),
                r.b.median,
                format!("[{:.4}, {:.4}]", r.b.q1, r.b.q3),
                r.ratio(),
                r.bound * 100.0,
                r.verdict.label()
            );
        }
        let count = |v: Verdict| self.rows.iter().filter(|r| r.verdict == v).count();
        let _ = writeln!(
            out,
            "\n{} rows (ratio base: A): {} ok, {} regressed, {} unresolved",
            self.rows.len(),
            count(Verdict::Ok),
            count(Verdict::Regressed),
            count(Verdict::Unresolved)
        );
        for name in &self.more_failures {
            let _ = writeln!(out, "{name}: failed share is higher in B");
        }
        if self.digest_changes.is_empty() {
            let _ = writeln!(out, "sim_digest: identical on every workload");
        } else {
            let _ = writeln!(
                out,
                "sim_digest differs on: {} (a speed-only change must leave it identical)",
                self.digest_changes.join(", ")
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{num, obj, text};

    fn summary(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = summary(&[100.0, 101.0, 99.0, 100.0, 100.0]);
        let slower = summary(&[80.0, 81.0, 79.0, 80.0, 80.0]);
        let noisy = summary(&[60.0, 100.0, 140.0, 100.0, 100.0]);
        // Higher is better: 20 % lower is a regression at a 10 % bound.
        assert_eq!(
            judge(Better::Higher, 0.10, &steady, &slower),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Higher, 0.10, &slower, &steady), Verdict::Ok);
        // Lower is better: the same pair read the other way round.
        assert_eq!(
            judge(Better::Lower, 0.10, &slower, &steady),
            Verdict::Regressed
        );
        assert_eq!(judge(Better::Lower, 0.25, &slower, &steady), Verdict::Ok);
        // Same median but a spread wider than the bound resolves nothing.
        assert_eq!(
            judge(Better::Higher, 0.10, &steady, &noisy),
            Verdict::Unresolved
        );
        assert_eq!(judge(Better::Higher, 0.10, &steady, &steady), Verdict::Ok);
    }

    fn artifact(rate: f64, failed: f64, digest: &str) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let v = if m.name == "host_req_per_s" {
                    rate
                } else {
                    5.0
                };
                (m.name.to_string(), summary(&[v, v, v]).to_json())
            })
            .collect();
        obj([
            ("schema", text(SCHEMA)),
            ("comparable", Json::Bool(true)),
            ("seed", num(1.0)),
            (
                "workloads",
                Json::Arr(vec![obj([
                    ("name", text("hotread_dftl")),
                    ("attempted", num(1000.0)),
                    ("failed", num(failed)),
                    ("sim_digest", text(digest)),
                    ("end_to_end", Json::Obj(end_to_end)),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_flags_regressions_failures_and_digest_changes() {
        let base = artifact(1000.0, 0.0, "aa");
        let same = compare(&base, &artifact(990.0, 0.0, "aa")).expect("artifacts parse");
        assert_eq!(same.rows.len(), END_TO_END.len());
        assert!(!same.regressed());
        assert!(same.digest_changes.is_empty());
        assert!(same.render().contains("7 ok, 0 regressed, 0 unresolved"));

        let slow = compare(&base, &artifact(700.0, 0.0, "aa")).expect("artifacts parse");
        assert!(slow.regressed());
        let row = &slow.rows[0];
        assert_eq!(
            (row.metric, row.verdict),
            ("host_req_per_s", Verdict::Regressed)
        );
        assert!((row.ratio() - 0.7).abs() < 1e-12);

        let failing = compare(&base, &artifact(1000.0, 3.0, "ab")).expect("artifacts parse");
        assert!(failing.regressed());
        assert_eq!(failing.more_failures, vec!["hotread_dftl".to_string()]);
        assert_eq!(failing.digest_changes, vec!["hotread_dftl".to_string()]);

        assert!(compare(&base, &obj([("schema", text("other"))])).is_err());
    }
}
