//! `cargo run -p mc-lint` — runs the lint passes over the workspace and
//! exits non-zero with `file:line: [lint] message` diagnostics on any
//! violation.
//!
//! ```text
//! mc-lint [--format text|json] [--only PASS[,PASS...]] [--skip PASS[,PASS...]]
//! mc-lint --count
//! ```
//!
//! `--count` runs no pass: it prints, per crate and in total, the source
//! lines, the lines outside `#[cfg(test)]` items and the `pub` items of
//! `crates/*/src` — the size figures ROADMAP.md and CHANGES.md quote.
//! `--only` and `--skip` filter by pass name (see [`mc_lint::PASS_NAMES`]);
//! `--format json` emits a machine-readable report (CI uploads it as an
//! artifact).

use std::path::Path;
use std::process::ExitCode;

struct Args {
    count: bool,
    format: Format,
    only: Option<Vec<String>>,
    skip: Vec<String>,
}

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        count: false,
        format: Format::Text,
        only: None,
        skip: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value_of = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--format" => {
                args.format = match value_of("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                }
            }
            "--count" => args.count = true,
            "--only" => {
                let passes = parse_passes(&value_of("--only")?)?;
                args.only.get_or_insert_with(Vec::new).extend(passes);
            }
            "--skip" => args.skip.extend(parse_passes(&value_of("--skip")?)?),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: mc-lint [--format text|json] [--only PASS[,PASS...]] \
                     [--skip PASS[,PASS...]] | --count\npasses: {}",
                    mc_lint::PASS_NAMES.join(", ")
                ))
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn parse_passes(list: &str) -> Result<Vec<String>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            if mc_lint::PASS_NAMES.contains(&p) {
                Ok(p.to_string())
            } else {
                Err(format!(
                    "unknown pass `{p}`; the passes are: {}",
                    mc_lint::PASS_NAMES.join(", ")
                ))
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("mc-lint: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let start = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| Path::new(&d).to_path_buf())
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| Path::new(".").to_path_buf());
    let Some(root) = mc_lint::find_workspace_root(&start) else {
        eprintln!(
            "mc-lint: could not locate the workspace root from {}",
            start.display()
        );
        return ExitCode::FAILURE;
    };
    let ws = match mc_lint::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "mc-lint: failed to load workspace at {}: {e}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    if args.count {
        let sizes = mc_lint::count(&ws);
        let total = sizes
            .iter()
            .fold([0; 3], |t, (_, s)| [0, 1, 2].map(|i| t[i] + s[i]));
        println!("crate       src lines  non-test lines  pub items");
        for (name, [lines, non_test, pub_items]) in sizes.iter().chain([&("TOTAL".into(), total)]) {
            println!("{name:<10} {lines:>10} {non_test:>15} {pub_items:>10}");
        }
        return ExitCode::SUCCESS;
    }
    let enabled = |pass: &str| {
        args.only
            .as_ref()
            .is_none_or(|only| only.iter().any(|p| p == pass))
            && !args.skip.iter().any(|p| p == pass)
    };
    let diags = mc_lint::run_passes(&ws, enabled);
    if args.format == Format::Json {
        println!("{}", mc_lint::to_json(&diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        let ran: Vec<&str> = mc_lint::PASS_NAMES
            .iter()
            .copied()
            .filter(|p| enabled(p))
            .collect();
        println!(
            "mc-lint: {} files clean ({} pass(es): {})",
            ws.files.len(),
            ran.len(),
            ran.join(", ")
        );
        ExitCode::SUCCESS
    } else {
        println!("mc-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}
