//! Fig. 2 — access-frequency distribution: pages accessed once vs
//! multiple times in an observation window, measured by their accesses in
//! the following performance window.
//!
//! The paper's conclusion this must reproduce: "pages that were accessed
//! multiple times in the observation windows are accessed with a much
//! higher frequency on average in the performance windows compared to the
//! pages that were accessed only once."
//!
//! Regenerate with `cargo run -p mc-bench --release --bin fig2_frequency`.

use mc_bench::{banner, scale_from_args};
use mc_sim::report::format_table;
use mc_workloads::motivation::MotivationWorkload;
use mc_workloads::SimpleMemory;

#[expect(
    clippy::needless_range_loop,
    reason = "windowed matrix sweeps index two axes"
)]
fn main() {
    let scale = scale_from_args();
    banner(
        "Figure 2",
        "next-window access frequency: once- vs multi-accessed pages",
        &scale,
    );
    const PAGES: usize = 50;
    const SLICES: usize = 64;
    const WINDOW: usize = 4; // slices per (observation|performance) window

    let mut rows = Vec::new();
    for mut w in MotivationWorkload::all_paper_workloads(PAGES, scale.seed) {
        let mut mem = SimpleMemory::new();
        let matrix = w.heatmap(&mut mem, SLICES);
        let mut once_next: Vec<f64> = Vec::new();
        let mut multi_next: Vec<f64> = Vec::new();
        let mut start = 0;
        while start + 2 * WINDOW <= SLICES {
            for p in 0..PAGES {
                let obs: u32 = (start..start + WINDOW).map(|t| matrix[t][p]).sum();
                let perf: u32 = (start + WINDOW..start + 2 * WINDOW)
                    .map(|t| matrix[t][p])
                    .sum();
                if obs == 1 {
                    once_next.push(perf as f64);
                } else if obs > 1 {
                    multi_next.push(perf as f64);
                }
            }
            start += 2 * WINDOW;
        }
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let m_once = mean(&once_next);
        let m_multi = mean(&multi_next);
        rows.push(vec![
            w.name().to_string(),
            format!("{:.2}", m_once),
            format!("{:.2}", m_multi),
            format!(
                "{:.1}x",
                if m_once > 0.0 {
                    m_multi / m_once
                } else {
                    f64::NAN
                }
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "workload",
                "mean next-window accesses (accessed once)",
                "mean next-window accesses (accessed multiple)",
                "ratio",
            ],
            &rows,
        )
    );
    println!("expected shape (paper): the multi-accessed column is much larger in every workload.");
}
