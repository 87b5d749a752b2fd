//! The latency and cost model.
//!
//! The paper evaluates on real Intel Xeon + Optane DCPMM hardware; this
//! reproduction replaces the hardware with a parameterised cost model whose
//! defaults follow published Optane characterisation numbers (load latency
//! within ~3-4x of DRAM, asymmetric read/write, lower bandwidth). Every
//! experiment reads its numbers from here, so sensitivity to the model is a
//! one-line change.

use crate::ids::{NodeId, TierId, PAGE_SIZE};
use crate::time::Nanos;

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessKind {
    /// Whether this access dirties the page.
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Per-tier device timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierLatency {
    /// Latency of a load that misses the CPU caches, in nanoseconds.
    pub read_ns: u64,
    /// Latency of a store (to the ADR/WPQ domain for PM), in nanoseconds.
    pub write_ns: u64,
    /// Sustained read bandwidth in bytes per nanosecond (== GB/s).
    pub read_bw_gbps: f64,
    /// Sustained write bandwidth in bytes per nanosecond (== GB/s).
    pub write_bw_gbps: f64,
}

impl TierLatency {
    /// Typical DDR4-2666 DRAM numbers.
    pub(crate) const fn dram() -> Self {
        TierLatency {
            read_ns: 80,
            write_ns: 90,
            read_bw_gbps: 30.0,
            write_bw_gbps: 25.0,
        }
    }

    /// Typical Intel Optane DCPMM (first generation) numbers.
    ///
    /// Reads are ~3.7x DRAM latency; writes land in the write-pending queue
    /// so their visible latency is lower than reads, but sustained write
    /// bandwidth is much lower than DRAM.
    pub const fn optane_pm() -> Self {
        TierLatency {
            read_ns: 300,
            write_ns: 125,
            read_bw_gbps: 6.0,
            write_bw_gbps: 2.0,
        }
    }

    /// HBM-class numbers used by the N-tier extension machines.
    pub(crate) const fn hbm() -> Self {
        TierLatency {
            read_ns: 60,
            write_ns: 70,
            read_bw_gbps: 100.0,
            write_bw_gbps: 80.0,
        }
    }

    /// DRAM media as seen behind a CXL.mem expander, before the link cost
    /// is added. Same DDR device as [`TierLatency::dram`]; combining it
    /// with [`LinkDesc::cxl`] yields ~210 ns loads, inside the published
    /// 170-250 ns CXL-attached DRAM envelope.
    pub(crate) const fn cxl_dram() -> Self {
        TierLatency::dram()
    }

    /// Access latency for one cache-line-granular access of the given kind.
    pub(crate) const fn access_ns(&self, kind: AccessKind) -> u64 {
        match kind {
            AccessKind::Read => self.read_ns,
            AccessKind::Write => self.write_ns,
        }
    }
}

/// The interconnect between a CPU socket and one memory node: added
/// round-trip latency plus a bandwidth cap, asymmetric between reads and
/// writes (CXL.mem request/response flits are not symmetric, and published
/// characterisations show write bandwidth well below read).
///
/// A node's effective timing is its device timing composed with its link:
/// latencies add, and the link's bandwidth caps the device's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDesc {
    /// Added load round-trip latency in nanoseconds.
    pub read_ns: u64,
    /// Added store latency in nanoseconds.
    pub write_ns: u64,
    /// Link read bandwidth cap in bytes per nanosecond (== GB/s).
    pub read_bw_gbps: f64,
    /// Link write bandwidth cap in bytes per nanosecond (== GB/s).
    pub write_bw_gbps: f64,
}

impl LinkDesc {
    /// Bandwidth cap used by [`LinkDesc::direct`]: high enough never to be
    /// the minimum against any real device, and finite, so every bandwidth
    /// the model derives from it is a finite number.
    const UNCAPPED_BW: f64 = 1e12;

    /// A socket-local attachment: no added latency, no bandwidth cap.
    pub(crate) const fn direct() -> Self {
        LinkDesc {
            read_ns: 0,
            write_ns: 0,
            read_bw_gbps: Self::UNCAPPED_BW,
            write_bw_gbps: Self::UNCAPPED_BW,
        }
    }

    /// A CXL 2.0 x8 link: ~130 ns added load latency, ~90 ns added store
    /// latency (stores post into the device buffer), with asymmetric
    /// bandwidth caps.
    pub(crate) const fn cxl() -> Self {
        LinkDesc {
            read_ns: 130,
            write_ns: 90,
            read_bw_gbps: 22.0,
            write_bw_gbps: 12.0,
        }
    }

    /// The effective timing of `device` reached through this link, with the
    /// link fanned out over `heads` ports (a multi-headed device spreads
    /// its traffic over one link per head, multiplying the usable link
    /// bandwidth; latency is unchanged).
    pub(crate) fn effective(&self, device: TierLatency, heads: u8) -> TierLatency {
        let heads = heads.max(1) as f64;
        TierLatency {
            read_ns: device.read_ns + self.read_ns,
            write_ns: device.write_ns + self.write_ns,
            read_bw_gbps: device.read_bw_gbps.min(self.read_bw_gbps * heads),
            write_bw_gbps: device.write_bw_gbps.min(self.write_bw_gbps * heads),
        }
    }
}

impl Default for LinkDesc {
    fn default() -> Self {
        Self::direct()
    }
}

/// The cost of migrating one page between tiers, split into the part that
/// stalls the application and the part absorbed by a background kernel
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationCost {
    /// Time the application is stalled (unmap, TLB shootdown, remap).
    pub app_stall: Nanos,
    /// Time spent by the migration thread (allocation + page copy).
    pub background: Nanos,
}

impl MigrationCost {
    /// Total cost.
    #[cfg(test)]
    pub(crate) fn total(&self) -> Nanos {
        self.app_stall + self.background
    }
}

/// The full machine cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Device timing per tier, indexed by [`TierId`]: the *effective*
    /// timing (device composed with link) of the tier's first node;
    /// migration costs are charged at tier granularity from this table.
    pub tiers: Vec<TierLatency>,
    /// Effective per-node timing (device composed with link and heads),
    /// indexed by [`NodeId`]: one entry per node of the machine, from
    /// which `LatencyModel::access_at` and [`LatencyModel::stream_at`]
    /// charge an application access.
    pub node_access: Vec<TierLatency>,
    /// Fixed kernel overhead per migrated page (locking, rmap walk,
    /// allocation) added to the copy time. ~2.5 µs per 4 KiB page is in line
    /// with measured `migrate_pages()` costs.
    pub migration_fixed: Nanos,
    /// Application-visible stall per migrated page (unmap + TLB shootdown +
    /// minor fault on next touch).
    pub migration_app_stall: Nanos,
    /// Cost of one software hint page fault (AutoNUMA/AutoTiering-style
    /// tracking). The paper attributes AutoTiering's losses chiefly to this.
    pub hint_fault: Nanos,
    /// CPU cost for the scan daemon to examine one page (list manipulation
    /// plus rmap reference-bit check).
    pub scan_per_page: Nanos,
    /// Fraction of daemon CPU time charged to the application: the daemon
    /// runs on a spare core, and cache / memory-bus interference leaks a
    /// little into the app.
    pub daemon_contention: f64,
    /// Application stall per first touch of a page (a minor fault).
    pub minor_fault: Nanos,
    /// Cost to swap a page in/out from backing storage (lowest-tier
    /// eviction path; a fast NVMe device).
    pub swap_page: Nanos,
    /// Application-visible cost of the atomic remap that commits a
    /// transactional migration (one PTE swing + TLB shootdown, no copy and
    /// no minor fault — the page stays mapped throughout the copy window).
    /// Much cheaper than `migration_app_stall`, which is the whole point
    /// of the Nomad-style path.
    pub txn_remap: Nanos,
}

impl LatencyModel {
    /// The given device tables with the software costs every experiment
    /// uses — their one home. Called by [`crate::MachineDesc::latency`].
    pub(crate) fn new(tiers: Vec<TierLatency>, node_access: Vec<TierLatency>) -> Self {
        LatencyModel {
            tiers,
            node_access,
            migration_fixed: Nanos::from_nanos(2_500),
            migration_app_stall: Nanos::from_nanos(1_500),
            hint_fault: Nanos::from_nanos(1_500),
            scan_per_page: Nanos::from_nanos(60),
            daemon_contention: 0.10,
            minor_fault: Nanos::from_nanos(500),
            swap_page: Nanos::from_micros(10),
            txn_remap: Nanos::from_nanos(300),
        }
    }

    /// Number of tiers this model describes.
    pub fn tier_count(&self) -> usize {
        self.tiers.len()
    }

    /// Latency of one page-granular access in the given tier.
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range for the model.
    pub fn access(&self, tier: TierId, kind: AccessKind) -> Nanos {
        Nanos::from_nanos(self.tiers[tier.index()].access_ns(kind))
    }

    /// Latency of one page-granular access on a specific node: the
    /// node's effective (device + link) timing.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the model.
    pub(crate) fn access_at(&self, node: NodeId, kind: AccessKind) -> Nanos {
        Nanos::from_nanos(self.node_access[node.index()].access_ns(kind))
    }

    /// Time to stream `bytes` from a tier (bandwidth-bound cost), used for
    /// accesses that touch large spans within a page.
    pub fn stream(&self, tier: TierId, kind: AccessKind, bytes: usize) -> Nanos {
        let t = &self.tiers[tier.index()];
        Self::stream_cost(t, kind, bytes)
    }

    /// Time to stream `bytes` through a specific node's link.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for the model.
    pub fn stream_at(&self, node: NodeId, kind: AccessKind, bytes: usize) -> Nanos {
        Self::stream_cost(&self.node_access[node.index()], kind, bytes)
    }

    fn stream_cost(t: &TierLatency, kind: AccessKind, bytes: usize) -> Nanos {
        let bw = match kind {
            AccessKind::Read => t.read_bw_gbps,
            AccessKind::Write => t.write_bw_gbps,
        };
        Nanos::from_nanos((bytes as f64 / bw) as u64)
    }

    /// Cost of migrating one page from `src` to `dst`.
    ///
    /// The copy is limited by the slower of the source read path and the
    /// destination write path; the fixed kernel overhead and the
    /// application stall are added on top.
    pub fn migration(&self, src: TierId, dst: TierId) -> MigrationCost {
        let read_bw = self.tiers[src.index()].read_bw_gbps;
        let write_bw = self.tiers[dst.index()].write_bw_gbps;
        let bw = read_bw.min(write_bw);
        let copy = Nanos::from_nanos((PAGE_SIZE as f64 / bw) as u64);
        MigrationCost {
            app_stall: self.migration_app_stall,
            background: self.migration_fixed + copy,
        }
    }

    /// Cost of migrating `pages` pages from `src` to `dst` as one batch.
    ///
    /// Batching amortizes the per-invocation setup: the kernel overhead
    /// (`migration_fixed`: locking, rmap walk, allocation bookkeeping) and
    /// the application stall (one unmap + TLB shootdown covering the whole
    /// batch) are charged once, while the copy cost stays per-page. With
    /// `pages == 1` this is exactly [`LatencyModel::migration`].
    #[cfg(test)]
    pub(crate) fn migration_batch(&self, src: TierId, dst: TierId, pages: usize) -> MigrationCost {
        let read_bw = self.tiers[src.index()].read_bw_gbps;
        let write_bw = self.tiers[dst.index()].write_bw_gbps;
        let bw = read_bw.min(write_bw);
        let copy = Nanos::from_nanos((PAGE_SIZE as f64 / bw) as u64);
        MigrationCost {
            app_stall: self.migration_app_stall,
            background: self.migration_fixed + copy.saturating_mul(pages as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineDesc;

    /// The paper's DRAM + Optane machine, as every experiment derives it.
    fn dram_pm() -> LatencyModel {
        MachineDesc::dram_pm(1, 1).latency()
    }

    #[test]
    fn pm_reads_are_several_times_dram() {
        let m = dram_pm();
        let dram = m.access(TierId::TOP, AccessKind::Read).as_nanos();
        let pm = m.access(TierId::new(1), AccessKind::Read).as_nanos();
        assert!(
            pm >= 3 * dram,
            "PM read {pm}ns should be >= 3x DRAM {dram}ns"
        );
        assert!(pm <= 10 * dram, "PM must stay within an order of magnitude");
    }

    #[test]
    fn pm_write_latency_is_below_pm_read() {
        // Optane stores complete at the WPQ: visible store latency < load.
        let t = TierLatency::optane_pm();
        assert!(t.write_ns < t.read_ns);
    }

    #[test]
    fn demotion_costs_more_than_promotion_copy() {
        // Copy into PM is limited by PM's low write bandwidth, so demotion's
        // background cost exceeds promotion's.
        let m = dram_pm();
        let promo = m.migration(TierId::new(1), TierId::TOP);
        let demo = m.migration(TierId::TOP, TierId::new(1));
        assert!(demo.background > promo.background);
        assert_eq!(demo.app_stall, promo.app_stall);
    }

    #[test]
    fn migration_cost_total_sums_parts() {
        let m = dram_pm();
        let c = m.migration(TierId::TOP, TierId::new(1));
        assert_eq!(c.total(), c.app_stall + c.background);
    }

    #[test]
    fn batch_of_one_equals_single_migration() {
        let m = dram_pm();
        let src = TierId::new(1);
        assert_eq!(
            m.migration_batch(src, TierId::TOP, 1),
            m.migration(src, TierId::TOP)
        );
    }

    #[test]
    fn batch_amortizes_setup_cost() {
        // N pages in one batch must cost strictly less than N single
        // migrations: the fixed overhead and the app stall are paid once.
        let m = dram_pm();
        let src = TierId::new(1);
        let n = 8u64;
        let batch = m.migration_batch(src, TierId::TOP, n as usize);
        let single = m.migration(src, TierId::TOP);
        assert!(batch.total().as_nanos() < n * single.total().as_nanos());
        assert_eq!(batch.app_stall, single.app_stall);
        // The copy portion still scales linearly with the page count.
        let copy = single.background - m.migration_fixed;
        assert_eq!(batch.background, m.migration_fixed + copy.saturating_mul(n));
    }

    #[test]
    fn stream_scales_with_bytes() {
        let m = dram_pm();
        let one = m.stream(TierId::TOP, AccessKind::Read, 4096);
        let two = m.stream(TierId::TOP, AccessKind::Read, 8192);
        assert!(two.as_nanos() >= 2 * one.as_nanos() - 2);
    }

    #[test]
    fn three_tier_model_is_ordered_fastest_first() {
        let m = MachineDesc::three_tier(1, 1, 1).latency();
        assert_eq!(m.tier_count(), 3);
        let r: Vec<u64> = (0..3)
            .map(|i| m.access(TierId::new(i), AccessKind::Read).as_nanos())
            .collect();
        assert!(r[0] < r[1] && r[1] < r[2]);
    }

    #[test]
    fn txn_remap_is_far_below_sync_migration_stall() {
        // The transactional path's commit cost must undercut the sync
        // path's per-batch stall by a wide margin, or the Nomad mode has
        // no stall win to measure.
        let m = dram_pm();
        assert!(m.txn_remap.as_nanos() * 4 <= m.migration_app_stall.as_nanos());
        assert!(m.txn_remap.as_nanos() > 0);
    }

    #[test]
    fn cxl_effective_latency_is_in_published_envelope() {
        let eff = LinkDesc::cxl().effective(TierLatency::cxl_dram(), 1);
        assert!(
            (170..=250).contains(&eff.read_ns),
            "CXL load {}ns outside 170-250ns",
            eff.read_ns
        );
        // Sits strictly between local DRAM and PM.
        assert!(eff.read_ns > TierLatency::dram().read_ns);
        assert!(eff.read_ns < TierLatency::optane_pm().read_ns);
        // Link caps bind: device DRAM bandwidth exceeds the link's.
        assert_eq!(eff.read_bw_gbps, LinkDesc::cxl().read_bw_gbps);
        assert_eq!(eff.write_bw_gbps, LinkDesc::cxl().write_bw_gbps);
        assert!(eff.read_bw_gbps > eff.write_bw_gbps, "CXL bw is asymmetric");
    }

    #[test]
    fn direct_link_is_identity_on_device_timing() {
        for dev in [TierLatency::dram(), TierLatency::optane_pm()] {
            assert_eq!(LinkDesc::direct().effective(dev, 1), dev);
        }
    }

    #[test]
    fn multi_head_scales_link_bandwidth_not_latency() {
        let one = LinkDesc::cxl().effective(TierLatency::cxl_dram(), 1);
        let two = LinkDesc::cxl().effective(TierLatency::cxl_dram(), 2);
        assert_eq!(one.read_ns, two.read_ns);
        assert_eq!(one.write_ns, two.write_ns);
        assert!(two.write_bw_gbps > one.write_bw_gbps);
        // With two heads the device itself can become the bottleneck.
        assert!(two.read_bw_gbps <= TierLatency::cxl_dram().read_bw_gbps);
    }

    #[test]
    fn access_at_matches_the_tier_on_direct_machines() {
        let m = dram_pm();
        assert_eq!(
            m.access_at(NodeId::new(0), AccessKind::Read),
            m.access(TierId::TOP, AccessKind::Read)
        );
        assert_eq!(
            m.stream_at(NodeId::new(1), AccessKind::Write, 4096),
            m.stream(TierId::new(1), AccessKind::Write, 4096)
        );
    }

    #[test]
    fn access_at_charges_node_entry_when_present() {
        let mut m = dram_pm();
        m.node_access = vec![
            TierLatency::dram(),
            LinkDesc::cxl().effective(TierLatency::cxl_dram(), 1),
        ];
        let local = m.access_at(NodeId::new(0), AccessKind::Read);
        let linked = m.access_at(NodeId::new(1), AccessKind::Read);
        assert_eq!(local.as_nanos(), 80);
        assert_eq!(linked.as_nanos(), 210);
        // Streaming through the link is capped by link write bandwidth.
        let s_local = m.stream_at(NodeId::new(0), AccessKind::Write, 4096);
        let s_linked = m.stream_at(NodeId::new(1), AccessKind::Write, 4096);
        assert!(s_linked > s_local);
    }

    #[test]
    fn hint_fault_dwarfs_device_access() {
        // The premise behind the paper's AutoTiering comparison: a software
        // fault costs an order of magnitude more than even a PM read.
        let m = dram_pm();
        assert!(
            m.hint_fault.as_nanos() > 4 * m.access(TierId::new(1), AccessKind::Read).as_nanos()
        );
    }
}
