//! End-to-end tests for the `mc-perf-report` binary: exit codes on
//! valid/invalid artifacts and on an injected synthetic regression.
//! (Regression *detection* has unit coverage in `mc_bench::artifact`;
//! this suite pins the process-level contract CI relies on — nonzero
//! exit is what fails the pipeline.)

use mc_bench::artifact::{BenchArtifact, SuiteResult, REQUIRED_SUITES, SCHEMA_VERSION};
use std::path::Path;
use std::process::Command;

fn report() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mc-perf-report"))
}

/// A schema-complete artifact whose every suite has median `base` (scaled
/// per suite index so rows are distinguishable).
fn artifact(pr: u64, base: f64) -> BenchArtifact {
    let suites = REQUIRED_SUITES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let v = base * (i + 1) as f64;
            let higher = !name.starts_with("migration_overhead_share");
            SuiteResult::from_reps(name, "unit", higher, vec![v, v * 1.02, v * 0.98])
        })
        .collect();
    BenchArtifact {
        schema_version: SCHEMA_VERSION,
        pr,
        host_os: "linux".into(),
        host_arch: "x86_64".into(),
        host_cores: 8,
        profile: "release".into(),
        scale: "perf".into(),
        suites,
        extras: Vec::new(),
    }
}

fn write(dir: &Path, a: &BenchArtifact) {
    std::fs::write(dir.join(format!("BENCH_{}.json", a.pr)), a.to_json()).unwrap();
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mc-perf-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_accepts_a_valid_artifact_and_rejects_a_broken_one() {
    let dir = temp_dir("check");
    write(&dir, &artifact(7, 100.0));
    let good = dir.join("BENCH_7.json");
    let out = report().args(["--check"]).arg(&good).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("ok"),
        "{out:?}"
    );

    let bad = dir.join("BENCH_8.json");
    // Corrupt the stored median so check() must catch the disagreement.
    let mut a = artifact(8, 100.0);
    a.suites[0].median *= 3.0;
    std::fs::write(&bad, a.to_json()).unwrap();
    let out = report().args(["--check"]).arg(&bad).output().unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("INVALID"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trajectory_is_printed_and_steady_artifacts_pass() {
    let dir = temp_dir("steady");
    write(&dir, &artifact(6, 100.0));
    write(&dir, &artifact(7, 110.0)); // +10%: comfortably inside threshold
    let out = report().arg("--dir").arg(&dir).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("PR 6"), "{stdout}");
    assert!(stdout.contains("PR 7"), "{stdout}");
    assert!(stdout.contains("engine_ticks_per_sec.ycsb_a"), "{stdout}");
    assert!(stdout.contains("no regressions"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn injected_synthetic_regression_exits_nonzero() {
    let dir = temp_dir("regress");
    write(&dir, &artifact(6, 100.0));
    // Throughputs collapse to a third; overhead shares triple. Both
    // directions regress past the 50% default threshold.
    let mut slow = artifact(7, 100.0);
    for s in &mut slow.suites {
        let factor = if s.higher_is_better { 1.0 / 3.0 } else { 3.0 };
        s.reps = s.reps.iter().map(|r| r * factor).collect();
        s.median *= factor;
        s.mad *= factor;
    }
    write(&dir, &slow);
    let out = report().arg("--dir").arg(&dir).output().unwrap();
    assert!(
        !out.status.success(),
        "a 3x collapse must fail the report: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");

    // --no-fail downgrades the same finding to a warning exit.
    let out = report()
        .arg("--dir")
        .arg(&dir)
        .arg("--no-fail")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // A forgiving threshold lets the same artifacts pass outright.
    let out = report()
        .args(["--threshold", "5.0"])
        .arg("--dir")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_directory_and_empty_directory_fail_loudly() {
    let dir = temp_dir("empty");
    let out = report().arg("--dir").arg(&dir).output().unwrap();
    assert!(!out.status.success(), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no BENCH_"),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The retired `scan_pages_per_sec.threads_{2,4,8}` suites are optional
/// in both directions: a new artifact without them validates, and so do
/// the committed BENCH_7–10 files that still carry them.
#[test]
fn retired_thread_suites_are_optional_in_new_and_committed_artifacts() {
    let retired = |name: &str| {
        ["threads_2", "threads_4", "threads_8"]
            .iter()
            .any(|t| name == format!("scan_pages_per_sec.{t}"))
    };
    let fresh = artifact(13, 100.0);
    assert!(fresh.suites.iter().all(|s| !retired(&s.name)));
    assert!(fresh
        .suites
        .iter()
        .any(|s| s.name == "scan_pages_per_sec.threads_1"));
    fresh.check().unwrap();

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for pr in 7..=10 {
        let text = std::fs::read_to_string(root.join(format!("BENCH_{pr}.json"))).unwrap();
        let committed = BenchArtifact::from_json(&text).unwrap();
        assert!(
            committed.suites.iter().any(|s| retired(&s.name)),
            "BENCH_{pr} predates the retirement"
        );
        committed.check().unwrap();
    }
}
