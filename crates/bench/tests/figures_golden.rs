//! Golden hashes of `repro <name>`'s stdout at `LEARNEDFTL_SCALE=quick`:
//! every table, every `shape check:` verdict and every header line, byte for
//! byte. A refactor of the experiment layer must leave each hash alone; a
//! change that re-prepares a figure's device re-records its entry, and a
//! failure prints the new value.
//!
//! One row is left out because its stdout is not a pure function of the
//! seeds; it is only checked to run and exit 0: `fig15_train_cost` times
//! the trainer on the host clock and prints it. (LearnedFTL's training
//! charge is a fixed cost per model, so fig17, fig18 and fig21_tail_latency
//! are pinned like every other row.)
//!
//! The command-line contract is checked here too: a usage error exits 2 and
//! lists every row, and an artifact path that cannot be written exits 2
//! with an error naming it, before the row runs.

use std::process::{Command, Output};

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `repro` with `args` at the quick scale.
fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .env("LEARNEDFTL_SCALE", "quick")
        .output()
        .unwrap_or_else(|e| panic!("repro {args:?}: {e}"))
}

/// Runs one row at the quick scale, checks it exits 0, and hashes its stdout.
fn quick_stdout_hash(name: &str) -> u64 {
    let out = repro(&[name]);
    assert!(
        out.status.success(),
        "repro {name} exited with {}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    fnv1a(&out.stdout)
}

macro_rules! figure_goldens {
    ($($row:ident => $hash:literal,)*) => {$(
        #[test]
        fn $row() {
            let got = quick_stdout_hash(stringify!($row));
            assert_eq!(
                got,
                $hash,
                "{} stdout moved; got {got:#018x}",
                stringify!($row)
            );
        }
    )*};
}

figure_goldens! {
    ablation_learnedftl => 0xd597_1ced_e291_1283,
    fig02_motivation => 0xa6c5_6f6b_c243_dc22,
    fig03_cmt_sweep => 0x92ea_a57a_d696_203f,
    fig06_leaftl_randread => 0x7f93_0102_8959_aadf,
    fig07_leaftl_filebench => 0xe83b_674d_1b2a_262c,
    fig14_fio => 0x3735_17f3_a680_a966,
    fig16_gc_frequency => 0x1d12_6650_de38_b2e1,
    fig17_gc_breakdown => 0x9147_a1c8_cc03_97d9,
    fig18_overhead => 0xc82a_4610_04a3_a22b,
    fig19_rocksdb => 0xb32f_72db_e269_4900,
    fig20_filebench => 0x3b31_b8ef_fad7_1dd0,
    fig21_qd_sweep => 0x657c_e6c3_8203_c53c,
    fig21_tail_latency => 0x9ad5_6163_7361_36e2,
    fig22_energy => 0x1830_b989_791f_a1b0,
    fig23_shard_scaling => 0x2336_8cb6_2bcd_bcb4,
    fig24_gc_interference => 0x8576_91cc_53b9_0421,
    fig26_plane_scaling => 0x907b_3d03_9eca_8ef0,
    fig28_noisy_neighbour => 0x69d7_dca8_af06_a84e,
    table02_traces => 0x30bc_7d75_b490_8ff9,
}

// The unpinned row: no golden, but it must run and exit 0.
#[test]
fn fig15_train_cost() {
    quick_stdout_hash("fig15_train_cost");
}

#[test]
fn usage_errors_exit_2_and_list_every_row() {
    for args in [
        &["fig25_wallclock_scaling"][..],
        &["fig14_fio", "--trace-out", "unused.json"],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "repro {args:?}");
        assert!(out.stdout.is_empty(), "repro {args:?} ran a row");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: repro"), "{stderr}");
        for figure in &bench::FIGURES {
            assert!(stderr.contains(figure.name), "{args:?}: {stderr}");
        }
    }
}

#[test]
fn an_unwritable_artifact_path_exits_2_before_the_row_runs() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-missing-dir");
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("analysis.json");
    let path = path.to_str().expect("the target dir is UTF-8");
    let out = repro(&["fig21_qd_sweep", "--analyze-out", path]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "the row ran");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("error: cannot write {path}: ")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
