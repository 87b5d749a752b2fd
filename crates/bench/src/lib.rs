//! Shared plumbing for the figure binaries: argument parsing (scale,
//! machine, system, workload), the [`SweepRunner`] and common printing.
//! Host-time measurement lives in the repo benchmark (`benchmark/`), not
//! here.

use mc_mem::MachineDesc;
use mc_sim::experiments::Scale;
use mc_sim::SystemKind;
use mc_workloads::graph::Kernel;
use mc_workloads::ycsb::YcsbWorkload;

/// Parses a system name as accepted by the `compare` binary.
pub fn parse_system(s: &str) -> Option<SystemKind> {
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

/// A `--machine` name and the shape it selects.
type NamedShape = (&'static str, fn(usize, usize) -> MachineDesc);

/// The `--machine` names and the shape each selects, default first. A
/// shape is not a size: it arranges the scale's `(dram_pages, pm_pages)`
/// budget into a [`MachineDesc`] (what `Experiment::machine` takes), so
/// the same `Scale` drives every machine.
const MACHINES: [NamedShape; 3] = [
    // Classic two-tier local DRAM + PM.
    ("dram-pm", MachineDesc::dram_pm),
    // A CXL expander sized like the DRAM tier adds a capacity tier between
    // local DRAM and PM (~210 ns effective read over an asymmetric link).
    ("dram-cxl-pm", |dram, pm| {
        MachineDesc::dram_cxl_pm(dram, dram, pm)
    }),
    // Two sockets with half the DRAM budget each share one two-headed CXL
    // device, backed by PM — the HybridTier evaluation's machine.
    ("cxl-multihead", |dram, pm| {
        MachineDesc::cxl_multihead((dram / 2).max(1), dram, pm)
    }),
];

/// Looks a `--machine` name up in [`MACHINES`], case-insensitively.
fn parse_machine(s: &str) -> Option<NamedShape> {
    let name = s.to_ascii_lowercase();
    MACHINES.into_iter().find(|(n, _)| *n == name)
}

/// Picks the machine from argv (`--machine NAME`) as `(name, shape)`;
/// defaults to the classic two-tier `dram-pm`.
///
/// # Panics
///
/// Exits with a diagnostic when the name is unknown (CLI validation).
pub fn machine_from_args() -> (&'static str, fn(usize, usize) -> MachineDesc) {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--machine")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| parse_machine(v))
                .unwrap_or_else(|| {
                    let names = MACHINES.map(|(n, _)| n).join(", ");
                    panic!("--machine requires one of: {names}")
                })
        })
        .unwrap_or(MACHINES[0])
}

/// Parses a YCSB workload letter.
pub fn parse_workload(s: &str) -> Option<YcsbWorkload> {
    Some(match s.to_ascii_uppercase().as_str() {
        "A" => YcsbWorkload::A,
        "B" => YcsbWorkload::B,
        "C" => YcsbWorkload::C,
        "D" => YcsbWorkload::D,
        "F" => YcsbWorkload::F,
        "W" => YcsbWorkload::W,
        _ => return None,
    })
}

/// Parses a GAPBS kernel name.
pub fn parse_kernel(s: &str) -> Option<Kernel> {
    Some(match s.to_ascii_lowercase().as_str() {
        "bfs" => Kernel::Bfs,
        "sssp" => Kernel::Sssp,
        "pr" | "pagerank" => Kernel::Pr,
        "cc" => Kernel::Cc,
        "bc" => Kernel::Bc,
        "tc" => Kernel::Tc,
        _ => return None,
    })
}

/// Fans independent jobs (whole [`mc_sim::Experiment`] runs, typically)
/// across a bounded pool of worker threads.
///
/// Results always come back in input order, so sweep tables are
/// byte-identical whatever the pool size — each run is itself
/// deterministic, and the runner only changes *when* runs execute, never
/// their inputs. `threads == 1` runs everything inline on the calling
/// thread with no pool at all.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    threads: usize,
}

impl SweepRunner {
    /// A runner with `threads` workers (clamped up to at least 1).
    pub fn new(threads: usize) -> Self {
        SweepRunner {
            threads: threads.max(1),
        }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` over every job, `threads` at a time, and returns the
    /// results in the jobs' input order.
    pub fn run<T, R, F>(&self, jobs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.threads == 1 || jobs.len() <= 1 {
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
            for _ in 0..self.threads.min(n) {
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
}

/// Parses `--threads N` from argv: the sweep-level worker count for the
/// binaries that fan independent runs through a [`SweepRunner`].
/// Defaults to 1 (fully sequential).
pub fn threads_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--threads")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| panic!("--threads requires a positive integer"))
        })
        .unwrap_or(1)
}

/// Picks the experiment scale from argv: `--tiny`, `--quick` (default) or
/// `--full`.
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--full") {
        Scale::full()
    } else if args.iter().any(|a| a == "--tiny") {
        Scale::tiny()
    } else {
        Scale::quick()
    }
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, description: &str, scale: &Scale) {
    println!("==============================================================");
    println!("{figure}: {description}");
    println!(
        "machine: DRAM {} pages ({} MiB) + PM {} pages ({} MiB); seed {}",
        scale.dram_pages,
        scale.dram_pages * 4 / 1024,
        scale.pm_pages,
        scale.pm_pages * 4 / 1024,
        scale.seed,
    );
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        // No --tiny/--full in the test harness argv.
        let s = scale_from_args();
        assert_eq!(s.dram_pages, Scale::quick().dram_pages);
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
    fn machine_names_parse() {
        let built = |name: &str| parse_machine(name).map(|(n, shape)| (n, shape(64, 256)));
        assert_eq!(
            built("dram-pm"),
            Some(("dram-pm", MachineDesc::dram_pm(64, 256)))
        );
        assert_eq!(
            built("DRAM-CXL-PM"),
            Some(("dram-cxl-pm", MachineDesc::dram_cxl_pm(64, 64, 256)))
        );
        assert_eq!(
            built("cxl-multihead"),
            Some(("cxl-multihead", MachineDesc::cxl_multihead(32, 64, 256)))
        );
        assert_eq!(built("numa"), None);
    }

    #[test]
    fn default_machine_is_dram_pm() {
        // No --machine in the test harness argv.
        let (name, shape) = machine_from_args();
        assert_eq!(name, "dram-pm");
        assert_eq!(shape(64, 256), MachineDesc::dram_pm(64, 256));
    }

    #[test]
    fn hybridtier_system_parses() {
        assert_eq!(parse_system("hybridtier"), Some(SystemKind::HybridTier));
        assert_eq!(parse_system("ht"), Some(SystemKind::HybridTier));
    }

    #[test]
    fn workload_letters_parse_case_insensitively() {
        assert_eq!(parse_workload("a"), Some(YcsbWorkload::A));
        assert_eq!(parse_workload("D"), Some(YcsbWorkload::D));
        assert_eq!(parse_workload("E"), None, "E is non-operational");
        assert_eq!(parse_workload("x"), None);
    }

    #[test]
    fn kernel_names_parse() {
        assert_eq!(parse_kernel("SSSP"), Some(Kernel::Sssp));
        assert_eq!(parse_kernel("pagerank"), Some(Kernel::Pr));
        assert_eq!(parse_kernel("nope"), None);
    }

    #[test]
    fn sweep_runner_preserves_input_order() {
        let jobs: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 8] {
            let out = SweepRunner::new(threads).run(jobs.clone(), |j| j * j);
            let expect: Vec<usize> = jobs.iter().map(|j| j * j).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
    }

    #[test]
    fn sweep_runner_clamps_zero_threads() {
        let r = SweepRunner::new(0);
        assert_eq!(r.threads(), 1);
        assert_eq!(r.run(vec![1, 2, 3], |j| j + 1), vec![2, 3, 4]);
    }
}
