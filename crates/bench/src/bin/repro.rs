//! `repro` — regenerates EXPERIMENTS.md on stdout and gates its claims.
//!
//! ```text
//! cargo run --release -p mc-bench --bin repro > EXPERIMENTS.md
//! repro --only fig5,fig10 --threads 2     # some sections (not gated)
//! repro --tiny --only fig5 --systems nomad --obs /tmp/mc-nomad
//! repro --only chaos --systems nomad --machine dram-cxl-pm
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

use mc_bench::{repro, source, Args};
use std::path::PathBuf;

fn main() {
    let args = Args::from_env();
    if args.count {
        // `cargo run` names the package directory; a bare binary counts the
        // workspace around the working directory.
        let start = std::env::var_os("CARGO_MANIFEST_DIR")
            .map(PathBuf::from)
            .or_else(|| std::env::current_dir().ok())
            .unwrap_or_default();
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
    print!("{}", lab.out);
    eprintln!("repro: {} experiments executed", lab.executed);
    if let Err(msg) = lab.verdict() {
        eprintln!("repro: {msg}");
        std::process::exit(1);
    }
}
