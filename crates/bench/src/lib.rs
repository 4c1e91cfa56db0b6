//! # bench
//!
//! The `repro` binary: every table and figure of the LearnedFTL paper this
//! workspace reproduces, plus the experiments that go beyond it, as the rows
//! of one table, [`FIGURES`].
//!
//! A row carries the name of the figure, its title, the paper's claim and a
//! run function that drives the experiment through [`harness::experiments`].
//! The run returns [`Section`]s: a table of the measured series next to what
//! the paper reports, and a shape-check verdict (who should win, roughly by
//! how much). [`repro`] is the one driver: it parses the command line,
//! prints every requested row's header, tables and verdicts, exports the
//! artifacts of a row's traced run and sets the exit status.
//!
//! ```text
//! repro [NAME...] [--trace-out P] [--metrics-out P] [--metrics-interval US] [--analyze-out P]
//! ```
//!
//! No name runs every row in table order. The status is 1 when an enforced
//! check of a requested row fails and 2 on a usage error. The experiment
//! size comes from one environment variable:
//!
//! * `LEARNEDFTL_SCALE=quick|standard|paper` — selects the device size and
//!   experiment scale. `standard` (the default) uses the scaled-down device
//!   of [`SsdConfig::small`]; `paper` uses the full 32 GiB geometry (slow);
//!   `quick` is a smoke-test size used by CI. Any other value is refused.

use harness::experiments::ExperimentScale;
use harness::RunResult;
use metrics::Table;
use ssd_sim::{Duration, Geometry, SsdConfig};

mod figures;

pub use figures::FIGURES;

/// The experiment size selected via `LEARNEDFTL_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test size (tiny device, few thousand requests).
    Quick,
    /// The default scaled-down reproduction (≈ 768 MiB device).
    Standard,
    /// The paper's full 32 GiB geometry (slow; hours for the full suite).
    Paper,
}

impl Scale {
    /// Parses a `LEARNEDFTL_SCALE` value, ignoring case. An empty value is
    /// [`Scale::Standard`]; an unknown one is an error, so a typo cannot
    /// silently run the standard scale.
    pub fn parse(value: &str) -> Result<Scale, String> {
        match value.to_lowercase().as_str() {
            "" | "standard" => Ok(Scale::Standard),
            "quick" => Ok(Scale::Quick),
            "paper" => Ok(Scale::Paper),
            _ => Err(format!(
                "LEARNEDFTL_SCALE={value:?}: expected quick, standard or paper"
            )),
        }
    }

    /// Reads the scale from the `LEARNEDFTL_SCALE` environment variable
    /// (unset is [`Scale::Standard`]).
    pub fn from_env() -> Result<Scale, String> {
        Scale::parse(&std::env::var("LEARNEDFTL_SCALE").unwrap_or_default())
    }

    /// The device configuration for this scale.
    pub fn device(self) -> SsdConfig {
        match self {
            Scale::Quick => SsdConfig::tiny(),
            Scale::Standard => SsdConfig::small(),
            Scale::Paper => SsdConfig::paper(),
        }
    }

    /// The experiment scale (warm-up volume, request counts) for this scale.
    pub fn experiment(self) -> ExperimentScale {
        match self {
            Scale::Quick => ExperimentScale::quick(),
            Scale::Standard => ExperimentScale::standard(),
            Scale::Paper => ExperimentScale {
                warmup_io_pages: 128,
                warmup_overwrites: 6,
                ops_per_stream: 20_000,
                single_stream_ops: 1_000_000,
            },
        }
    }

    /// Number of FIO threads: the paper uses 64; the quick scale uses fewer so
    /// the tiny device is not overwhelmed.
    pub fn fio_threads(self) -> usize {
        match self {
            Scale::Quick => 4,
            _ => 64,
        }
    }

    /// Human-readable description printed in every experiment header.
    pub fn describe(self) -> String {
        let dev = self.device();
        format!(
            "scale={:?} device={} logical={} MiB threads={}",
            self,
            dev.geometry,
            dev.logical_bytes() / (1024 * 1024),
            self.fio_threads()
        )
    }
}

/// The device used by the shard-scaling experiment (`fig23_shard_scaling`):
/// the same size classes as [`Scale::device`], but shaped so the 1/2/4/8
/// shard sweep is healthy at every count:
///
/// * 8 channels, so every swept shard count divides the device into equal
///   channel groups (the paper's geometry already has 8; the quick and
///   standard presets have fewer),
/// * an eighth of the device — a 2-chip shard — still holds at least one
///   full translation-page span (512 mappings) per block row, which
///   LearnedFTL's group-based allocation requires (`2 chips × 256
///   pages/block = 512`), with enough block rows of over-provisioning left
///   for group GC to breathe.
pub fn shard_scaling_device(scale: Scale) -> SsdConfig {
    match scale {
        // 256 MiB raw; the generous OP (like SsdConfig::tiny's) keeps
        // group-based allocation workable on 2-chip shards.
        Scale::Quick => SsdConfig::tiny()
            .with_geometry(Geometry::new(8, 2, 1, 16, 256, 4096))
            .with_op_ratio(0.4),
        // 1 GiB raw (the small class rounded up to keep 8-shard row slack).
        Scale::Standard => SsdConfig::small()
            .with_geometry(Geometry::new(8, 2, 1, 64, 256, 4096))
            .with_op_ratio(0.125),
        Scale::Paper => SsdConfig::paper(),
    }
}

/// The base device of the plane-scaling sweep (`fig26_plane_scaling`): few
/// chips (so a bounded host queue saturates them and the extra planes are
/// the only head-room left), a per-chip block count divisible by 4 (every
/// swept plane count splits it evenly via [`SsdConfig::with_planes`]), and
/// 256-page blocks so LearnedFTL's group rows hold whole translation-page
/// spans at every plane count.
pub fn plane_scaling_device(scale: Scale) -> SsdConfig {
    match scale {
        // 256 MiB raw over 4 chips; the generous OP and block depth keep GC
        // (and LearnedFTL's group-row reserve at planes=4) out of the
        // measured window so the sweep isolates plane parallelism.
        Scale::Quick => SsdConfig::tiny()
            .with_geometry(Geometry::new(2, 2, 1, 64, 256, 4096))
            .with_op_ratio(0.4),
        // 768 MiB raw over 8 chips.
        Scale::Standard => SsdConfig::small()
            .with_geometry(Geometry::new(4, 2, 1, 96, 256, 4096))
            .with_op_ratio(0.25),
        Scale::Paper => SsdConfig::paper(),
    }
}

/// One measured table of a row and the shape check it anchors.
#[derive(Debug)]
pub struct Section {
    /// Lines printed above the table: a sub-figure caption, the swept device.
    pub(crate) preamble: Option<String>,
    /// The measured series.
    pub(crate) table: Table,
    /// The shape-check verdict printed under the table.
    pub(crate) verdict: String,
    /// `Some(passed)` when the check sets the exit status, `None` when it is
    /// only reported.
    pub(crate) enforced: Option<bool>,
}

impl Section {
    /// A reported section: the table and its verdict, nothing above it.
    pub(crate) fn new(table: Table, verdict: impl Into<String>) -> Section {
        Section {
            preamble: None,
            table,
            verdict: verdict.into(),
            enforced: None,
        }
    }

    /// Prints `preamble` above the table.
    pub(crate) fn with_preamble(self, preamble: impl Into<String>) -> Section {
        Section {
            preamble: Some(preamble.into()),
            ..self
        }
    }

    /// Makes the check set the exit status: 1 unless it `passed`.
    pub(crate) fn enforced(self, passed: bool) -> Section {
        Section {
            enforced: Some(passed),
            ..self
        }
    }
}

/// One row of the reproduction: a paper figure or table, or an experiment
/// that goes beyond the paper.
#[derive(Debug)]
pub struct Figure {
    /// The row's name on the command line.
    pub name: &'static str,
    /// The header's title line.
    pub title: &'static str,
    /// What the paper (or the extension) claims, printed in the header.
    pub claim: &'static str,
    /// Runs the experiment at a scale and returns its sections.
    pub run: fn(Scale) -> Vec<Section>,
    /// The one configuration the observability flags trace.
    pub traced: Option<TracedRun>,
}

/// A row's traced run: re-run with tracing on after the row's sections, so
/// their numbers do not depend on the observability flags.
#[derive(Debug, Clone, Copy)]
pub struct TracedRun {
    /// What the `traced run:` line says it is.
    pub(crate) label: &'static str,
    /// Runs the configuration with tracing on.
    pub(crate) run: fn(Scale) -> RunResult,
}

/// The `repro` command line: which rows to run, and where to write the
/// observability artifacts of a row's traced run. The experiment size comes
/// from `LEARNEDFTL_SCALE` alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BenchArgs {
    /// The rows to run, in order; none runs every row of [`FIGURES`].
    pub figures: Vec<String>,
    /// Write a Chrome-trace-event JSON of the row's traced run to this path
    /// (`--trace-out PATH`). Open it in Perfetto or `chrome://tracing`.
    pub trace_out: Option<String>,
    /// Write an interval time-series CSV (plane/bus/GC utilisation, queue
    /// depths, CMT hit rate) of the traced run to this path
    /// (`--metrics-out PATH`).
    pub metrics_out: Option<String>,
    /// Sampling interval of the metrics CSV in microseconds of simulated
    /// time (`--metrics-interval N`); defaults to 100 µs.
    pub metrics_interval_us: Option<u64>,
    /// Write the deterministic trace-analysis report (latency decomposition,
    /// GC tax, utilisation, tail exemplars — [`metrics::analysis`]) of the
    /// traced run to this path (`--analyze-out PATH`).
    pub analyze_out: Option<String>,
}

impl BenchArgs {
    /// Parses an argument list: row names, and `--trace-out PATH` /
    /// `--metrics-out PATH` / `--metrics-interval US` / `--analyze-out PATH`,
    /// each also spelled `--name=VALUE`. Any other argument that does not
    /// start with `-` is a row name, checked when the rows are resolved.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<BenchArgs, String> {
        /// Extracts the string value of `--name V` / `--name=V` (where `arg`
        /// is the current argument and `iter` supplies a space-separated
        /// value), or `None` when `arg` is a different flag.
        fn flag_string(
            name: &str,
            arg: &str,
            iter: &mut impl Iterator<Item = String>,
        ) -> Result<Option<String>, String> {
            if arg == name {
                Ok(Some(iter.next().ok_or(format!("{name} needs a value"))?))
            } else if let Some(v) = arg.strip_prefix(name).and_then(|v| v.strip_prefix('=')) {
                Ok(Some(v.to_string()))
            } else {
                Ok(None)
            }
        }

        /// Like [`flag_string`] but for positive-integer values.
        fn flag_value(
            name: &str,
            arg: &str,
            iter: &mut impl Iterator<Item = String>,
        ) -> Result<Option<u64>, String> {
            let Some(value) = flag_string(name, arg, iter)? else {
                return Ok(None);
            };
            value
                .parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .map(Some)
                .ok_or_else(|| format!("`{name} {value}`: expected a positive integer"))
        }

        let mut parsed = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(n) = flag_value("--metrics-interval", &arg, &mut iter)? {
                parsed.metrics_interval_us = Some(n);
            } else if let Some(path) = flag_string("--trace-out", &arg, &mut iter)? {
                parsed.trace_out = Some(path);
            } else if let Some(path) = flag_string("--metrics-out", &arg, &mut iter)? {
                parsed.metrics_out = Some(path);
            } else if let Some(path) = flag_string("--analyze-out", &arg, &mut iter)? {
                parsed.analyze_out = Some(path);
            } else if arg.starts_with('-') {
                return Err(format!("unknown argument `{arg}`"));
            } else {
                parsed.figures.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The rows this invocation runs. Refuses an unknown name, and
    /// observability flags unless exactly one row is named and it has a
    /// traced run.
    pub(crate) fn rows(&self) -> Result<Vec<&'static Figure>, String> {
        let rows = if self.figures.is_empty() {
            FIGURES.iter().collect()
        } else {
            self.figures
                .iter()
                .map(|name| {
                    FIGURES
                        .iter()
                        .find(|f| f.name == name)
                        .ok_or_else(|| format!("unknown figure `{name}`"))
                })
                .collect::<Result<Vec<_>, _>>()?
        };
        let traceable = matches!(rows.as_slice(), [row] if row.traced.is_some());
        if self.tracing() && !traceable {
            return Err(
                "--trace-out, --metrics-out and --analyze-out need exactly one \
                 named figure that has a traced run"
                    .to_string(),
            );
        }
        Ok(rows)
    }

    /// Whether this invocation asked for observability output.
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.analyze_out.is_some()
    }

    /// The metrics CSV sampling interval (simulated time).
    pub fn metrics_interval(&self) -> Duration {
        Duration::from_micros(self.metrics_interval_us.unwrap_or(100))
    }

    /// Writes the requested observability artifacts of a traced `result`:
    /// the Chrome trace JSON to `--trace-out`, the interval CSV to
    /// `--metrics-out`, the trace-analysis report to `--analyze-out`, plus a
    /// self-profiling summary line on stdout. `figure` names the producing
    /// row and is embedded in the analysis artifact as provenance. A no-op
    /// when no observability flag was given.
    pub fn export_observability(&self, figure: &str, result: &RunResult) -> std::io::Result<()> {
        if !self.tracing() {
            return Ok(());
        }
        if let Some(path) = &self.trace_out {
            std::fs::write(path, metrics::chrome_trace_json(&result.trace))?;
            println!(
                "trace: wrote {} events to {path} (open in Perfetto / chrome://tracing)",
                result.profile.trace_events
            );
        }
        if let Some(path) = &self.metrics_out {
            let interval = self.metrics_interval();
            std::fs::write(path, metrics::metrics_csv(&result.trace, interval))?;
            println!(
                "metrics: wrote {} us interval series to {path}",
                interval.as_nanos() / 1_000
            );
        }
        if let Some(path) = &self.analyze_out {
            let analysis = metrics::analyze(&result.trace);
            std::fs::write(path, analysis.to_json(figure))?;
            let tax = analysis.gc_tax();
            println!(
                "analysis: wrote decomposition of {} requests to {path} \
                 (gc tax {} ns over {} requests)",
                analysis.requests.len(),
                tax.host_wait_ns,
                tax.affected_requests,
            );
        }
        println!(
            "self-profile: {:.3} s wall, {:.0} requests/s, {:.0} trace events/s",
            result.profile.wall.as_secs_f64(),
            result.profile.requests_per_sec(),
            result.profile.events_per_sec()
        );
        Ok(())
    }
}

/// The `repro` driver. Runs the rows `argv` names (every row when it names
/// none) at the `LEARNEDFTL_SCALE` scale: prints each row's header, then its
/// sections, then traces and exports its traced run if asked to. Returns the
/// exit status: 1 when an enforced check failed, 2 on a usage error (after
/// printing the error and every row name to stderr), 0 otherwise.
pub fn repro<I: IntoIterator<Item = String>>(argv: I) -> i32 {
    let parsed = Scale::from_env().and_then(|scale| {
        let args = BenchArgs::parse(argv)?;
        let rows = args.rows()?;
        Ok((scale, args, rows))
    });
    let (scale, args, rows) = match parsed {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: repro [NAME...] [--trace-out PATH] [--metrics-out PATH] \
                 [--metrics-interval US] [--analyze-out PATH]"
            );
            eprintln!("figures (* has a traced run for the observability flags):");
            for figure in &FIGURES {
                let mark = if figure.traced.is_some() { " *" } else { "" };
                eprintln!("  {}{mark}", figure.name);
            }
            return 2;
        }
    };
    let mut failed = false;
    for figure in rows {
        println!("================================================================");
        println!("{}", figure.title);
        println!("Paper's claim: {}", figure.claim);
        println!("{}", scale.describe());
        println!("================================================================");
        for section in (figure.run)(scale) {
            if let Some(preamble) = &section.preamble {
                println!("{preamble}");
            }
            println!("{}", section.table.render());
            println!("shape check: {}", section.verdict);
            println!();
            failed |= section.enforced == Some(false);
        }
        if let (Some(traced), true) = (figure.traced, args.tracing()) {
            let result = (traced.run)(scale);
            println!("traced run: {}", traced.label);
            args.export_observability(figure.name, &result)
                .expect("writing observability output failed");
        }
    }
    i32::from(failed)
}

/// Formats a ratio as `x.xx×`.
pub fn times(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selection_defaults_to_standard() {
        assert_eq!(Scale::parse(""), Ok(Scale::Standard));
        assert_eq!(Scale::parse("Standard"), Ok(Scale::Standard));
        assert_eq!(Scale::parse("QUICK"), Ok(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Ok(Scale::Paper));
        // A typo is refused, not run at the standard scale.
        let err = Scale::parse("quik").unwrap_err();
        assert!(err.contains("\"quik\""), "{err}");
        assert_eq!(Scale::Quick.device(), SsdConfig::tiny());
        assert_eq!(Scale::Paper.device(), SsdConfig::paper());
        assert!(Scale::Standard.describe().contains("scale=Standard"));
    }

    #[test]
    fn shard_scaling_device_always_has_eight_channels() {
        for scale in [Scale::Quick, Scale::Standard, Scale::Paper] {
            let dev = shard_scaling_device(scale);
            assert_eq!(dev.geometry.channels, 8);
            for shards in [1u32, 2, 4, 8] {
                assert_eq!(dev.geometry.channels % shards, 0);
            }
        }
        // An eighth of the device (a 2-chip shard) must still hold one full
        // translation-page span per block row for LearnedFTL's groups.
        for scale in [Scale::Quick, Scale::Standard, Scale::Paper] {
            let g = shard_scaling_device(scale).geometry;
            let chips_per_shard = g.total_chips() / 8;
            assert!(chips_per_shard * u64::from(g.pages_per_block) >= 512);
        }
        // The standard class keeps small()'s chip count.
        let std_dev = shard_scaling_device(Scale::Standard);
        assert_eq!(
            std_dev.geometry.total_chips(),
            SsdConfig::small().geometry.total_chips()
        );
    }

    #[test]
    fn unknown_flags_are_refused() {
        let args = |v: &[&str]| BenchArgs::parse(v.iter().map(|s| s.to_string()));
        assert_eq!(args(&[]).unwrap(), BenchArgs::default());
        // The experiment size is LEARNEDFTL_SCALE's alone; the shard and
        // plane sweeps are fixed per row.
        for flag in ["--quick", "--shards=4", "--planes=2", "--frobnicate"] {
            let err = args(&[flag]).unwrap_err();
            assert!(err.contains("unknown argument"), "{flag}: {err}");
        }
        // Anything else is a row name, kept in order.
        let named = args(&["fig14_fio", "--analyze-out", "a.json", "fig02_motivation"]).unwrap();
        assert_eq!(named.figures, ["fig14_fio", "fig02_motivation"]);
    }

    #[test]
    fn rows_resolve_names_and_gate_the_trace_flags() {
        let rows = |v: &[&str]| {
            BenchArgs::parse(v.iter().map(|s| s.to_string()))
                .unwrap()
                .rows()
                .map(|rows| rows.iter().map(|f| f.name).collect::<Vec<_>>())
        };
        // No name is every row in table order; names keep their order.
        let all: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
        assert_eq!(rows(&[]).unwrap(), all);
        assert_eq!(
            rows(&["fig24_gc_interference", "fig02_motivation"]).unwrap(),
            ["fig24_gc_interference", "fig02_motivation"]
        );
        let err = rows(&["fig25_wallclock_scaling"]).unwrap_err();
        assert!(err.contains("unknown figure"), "{err}");
        // The trace flags need one named row that has a traced run.
        assert_eq!(
            rows(&["fig21_qd_sweep", "--trace-out", "t.json"]).unwrap(),
            ["fig21_qd_sweep"]
        );
        for refused in [
            &["--analyze-out", "a.json"][..],
            &["fig14_fio", "--trace-out", "t.json"],
            &[
                "fig21_qd_sweep",
                "fig24_gc_interference",
                "--metrics-out",
                "m.csv",
            ],
        ] {
            let err = rows(refused).unwrap_err();
            assert!(err.contains("traced run"), "{refused:?}: {err}");
        }
    }

    #[test]
    fn figure_names_are_unique() {
        let mut names: Vec<_> = FIGURES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len());
    }

    #[test]
    fn observability_flags_parse_both_spellings() {
        let args = |v: &[&str]| BenchArgs::parse(v.iter().map(|s| s.to_string()));
        let none = args(&[]).unwrap();
        assert_eq!(none.trace_out, None);
        assert_eq!(none.metrics_out, None);
        assert!(!none.tracing());
        assert_eq!(none.metrics_interval(), Duration::from_micros(100));

        let traced = args(&["--trace-out", "t.json"]).unwrap();
        assert_eq!(traced.trace_out.as_deref(), Some("t.json"));
        assert!(traced.tracing());

        let full = args(&[
            "--trace-out=t.json",
            "--metrics-out=m.csv",
            "--metrics-interval=250",
        ])
        .unwrap();
        assert_eq!(full.trace_out.as_deref(), Some("t.json"));
        assert_eq!(full.metrics_out.as_deref(), Some("m.csv"));
        assert_eq!(full.metrics_interval(), Duration::from_micros(250));

        assert!(args(&["--trace-out"]).is_err());
        assert!(args(&["--metrics-out"]).is_err());
        assert!(args(&["--metrics-interval", "0"]).is_err());
        assert!(args(&["--metrics-interval", "x"]).is_err());

        // --analyze-out enables tracing on its own.
        let analyze = args(&["--analyze-out", "a.json"]).unwrap();
        assert_eq!(analyze.analyze_out.as_deref(), Some("a.json"));
        assert!(analyze.tracing());
        assert!(args(&["--analyze-out"]).is_err());
    }

    #[test]
    fn plane_scaling_device_splits_evenly_at_every_plane_count() {
        for scale in [Scale::Quick, Scale::Standard, Scale::Paper] {
            let base = plane_scaling_device(scale);
            for planes in [1u32, 2, 4] {
                let dev = base.with_planes(planes);
                assert_eq!(dev.geometry.planes_per_chip, planes);
                assert_eq!(
                    dev.geometry.total_pages(),
                    base.geometry.total_pages(),
                    "plane split must preserve capacity"
                );
                // LearnedFTL's group allocation must fit at every count.
                assert!(
                    learnedftl::LearnedFtlConfig::default()
                        .group_capacity_check(&dev)
                        .is_ok(),
                    "{scale:?} planes={planes} cannot host group allocation"
                );
            }
        }
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(1.5), "1.50x");
        assert_eq!(percent(0.555), "55.5%");
    }
}
