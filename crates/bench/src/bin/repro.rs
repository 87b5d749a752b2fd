//! `repro` — regenerates EXPERIMENTS.md on stdout and gates its claims.
//!
//! ```text
//! cargo run --release -p mc-bench --bin repro > /tmp/E.md && mv /tmp/E.md EXPERIMENTS.md
//! repro --only fig5,fig10 --threads 2     # some sections (not gated)
//! repro --tiny --only fig5 --systems nomad --obs /tmp/mc-nomad
//! repro --count                           # crates/*/src size, per crate
//! ```
//!
//! Each distinct experiment runs once per invocation whatever sections ask
//! for it, fanned over `--threads` workers; the bytes on stdout do not
//! depend on the thread count. On the unfiltered `--quick` run the exit
//! code is non-zero when a claim's outcome differs from its pinned
//! expectation. `--obs DIR` needs one section and one named system and
//! writes that system's artifacts to `DIR/<row>/`. `--count` runs nothing:
//! it prints the source lines, the lines outside `#[cfg(test)]` items and
//! the `pub` items of `crates/*/src` per crate (the analogue of the
//! paper's Table II) for the workspace it is run in.
//!
//! A gated run also prints to stderr what it changes against that
//! workspace's committed EXPERIMENTS.md: the claims whose margin or
//! outcome moved, the `Deviates` pin count, and the fingerprints each
//! section changed, added or removed (one "no change" line when the
//! document is identical). Redirect stdout elsewhere, not onto the
//! committed file, or there is nothing left to compare with.

use mc_bench::{repro, source, Args};
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    // `cargo run` names the package directory; a bare binary finds the
    // workspace around the working directory.
    let start = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_default();
    if args.count {
        match source::count_table(&start) {
            Ok(table) => print!("{table}"),
            Err(msg) => {
                eprintln!("repro: --count: {msg}");
                std::process::exit(1)
            }
        }
        return;
    }
    let lab = repro::generate(&args).unwrap_or_else(|msg| {
        eprintln!("repro: {msg}");
        std::process::exit(2)
    });
    let delta = lab.delta(&start);
    print!("{}", lab.out);
    eprintln!("repro: {} experiments executed", lab.executed);
    if let Some(delta) = delta {
        eprint!("{delta}");
    }
    if let Err(msg) = lab.verdict() {
        eprintln!("repro: {msg}");
        std::process::exit(1);
    }
}
