//! Compiles a snippet as a crate of its own that depends on `multi_clock`,
//! so a test sees the crate's API exactly as `mc-sim` or `mc-policies` do.
//! Shared by `self_test.rs` and `workspace_clean.rs`.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// The `multi_clock` rlib this test binary was built against: the newest
/// one in the binary's own `deps/` directory.
fn multi_clock_rlib(deps: &Path) -> PathBuf {
    let mut rlibs: Vec<_> = fs::read_dir(deps)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("libmulti_clock-") && name.ends_with(".rlib")
        })
        .collect();
    rlibs.sort_by_key(|p| fs::metadata(p).unwrap().modified().unwrap());
    rlibs
        .pop()
        .expect("no libmulti_clock rlib next to the test binary")
}

/// Type- and borrow-checks `src` as crate `name` with `multi_clock` as its
/// one dependency. `Err` carries rustc's diagnostics.
pub fn compile(name: &str, src: &str) -> Result<(), String> {
    let exe = std::env::current_exe().unwrap();
    let deps = exe.parent().unwrap();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("outside-{name}"));
    fs::create_dir_all(&out).unwrap();
    let rustc = std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into());
    let mut child = Command::new(rustc)
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "lib",
            "--emit",
            "metadata",
        ])
        .args(["--crate-name", name, "-A", "warnings"])
        .arg("--extern")
        .arg(format!("multi_clock={}", multi_clock_rlib(deps).display()))
        .arg("-L")
        .arg(format!("dependency={}", deps.display()))
        .arg("--out-dir")
        .arg(&out)
        .arg("-")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rustc must be on PATH");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(src.as_bytes())
        .unwrap();
    let output = child.wait_with_output().unwrap();
    if output.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&output.stderr).into_owned())
    }
}

/// Asserts that `src` is rejected with rustc error `code` naming `item`.
pub fn assert_rejected(name: &str, src: &str, code: &str, item: &str) {
    let err = compile(name, src).expect_err("outside code must not compile");
    assert!(
        err.contains(&format!("error[{code}]")) && err.contains(item),
        "expected {code} on `{item}`, got:\n{err}"
    );
}
