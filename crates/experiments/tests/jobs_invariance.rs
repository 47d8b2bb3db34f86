//! End-to-end thread-count invariance of the grid-ported experiment
//! drivers: running the same driver at `--jobs 1`, `2` and `8` must write
//! byte-identical CSV artifacts. This is the CLI-level counterpart of
//! `realtor-runner`'s property tests — it exercises the actual drivers
//! (attack, balance, deadlines, churn) through their public entry points.

use experiments::output::OutDir;
use experiments::{attack, balance, churn, deadlines};
use std::fs;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "realtor_jobs_invariance_{}_{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run `drive` once per job count into separate directories and assert the
/// named CSVs are byte-identical across all of them.
fn assert_invariant(tag: &str, stems: &[&str], drive: impl Fn(usize, &OutDir)) {
    let dirs: Vec<(usize, PathBuf)> = [1usize, 2, 8]
        .iter()
        .map(|&jobs| {
            let dir = scratch(&format!("{tag}_j{jobs}"));
            drive(jobs, &OutDir(Some(dir.clone())));
            (jobs, dir)
        })
        .collect();
    let (_, serial_dir) = &dirs[0];
    for stem in stems {
        let serial = fs::read(serial_dir.join(format!("{stem}.csv")))
            .unwrap_or_else(|e| panic!("{tag}: missing {stem}.csv from jobs=1: {e}"));
        assert!(!serial.is_empty(), "{tag}: {stem}.csv is empty");
        for (jobs, dir) in &dirs[1..] {
            let par = fs::read(dir.join(format!("{stem}.csv")))
                .unwrap_or_else(|e| panic!("{tag}: missing {stem}.csv from jobs={jobs}: {e}"));
            assert_eq!(
                par, serial,
                "{tag}: {stem}.csv differs between jobs=1 and jobs={jobs}"
            );
        }
    }
    for (_, dir) in dirs {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn attack_artifacts_are_jobs_invariant() {
    assert_invariant(
        "attack",
        &[
            "ablation_a4_attack_timeseries",
            "ablation_a4_attack_summary",
        ],
        |jobs, out| attack::run(4.0, 300, 42, 0.3, jobs, out),
    );
}

#[test]
fn balance_artifacts_are_jobs_invariant() {
    assert_invariant("balance", &["ablation_a8_balance"], |jobs, out| {
        balance::run(&[5.0, 8.0], 200, 42, jobs, out)
    });
}

#[test]
fn deadlines_artifacts_are_jobs_invariant() {
    assert_invariant("deadlines", &["ablation_a11_deadlines"], |jobs, out| {
        deadlines::run(300, 42, 5, jobs, out)
    });
}

#[test]
fn churn_artifacts_are_jobs_invariant() {
    assert_invariant("churn", &["churn_summary"], |jobs, out| {
        churn::run(6.0, 400, 42, jobs, out)
    });
}
