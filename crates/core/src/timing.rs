//! DRAM timing parameters.
//!
//! The paper's Table I gives the headline timings (tRCD, tAA, tRAS, tRP); the
//! remaining constraints are inherited from the DDR3-1600 datasheet the paper
//! cites (\[51\], Samsung DDR3 SDRAM) and scaled where the TSI interface
//! changes them. All parameters are expressed in nanoseconds here and
//! converted to the simulator's single 2 GHz clock domain by [`Timings`].

use crate::{Cycle, CYCLES_PER_NS};
use serde::{Deserialize, Serialize};

/// Nanosecond-denominated DRAM timing parameters (paper Table I plus the
/// standard DDR3 constraints the paper inherits from its baseline device).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingParams {
    /// Activate-to-read delay (Table I: 14 ns).
    pub t_rcd_ns: f64,
    /// Precharge command period (Table I: 14 ns).
    pub t_rp_ns: f64,
    /// Activate-to-precharge delay (Table I: 35 ns).
    pub t_ras_ns: f64,
    /// Read to first data (CAS latency). 14 ns for DDR3, 12 ns over TSI
    /// because fewer serialization steps are needed (Table I, §III-B).
    pub t_aa_ns: f64,
    /// Time one 64 B cache-line burst occupies the channel data bus.
    /// 4 ns on a 16 GB/s TSI channel (§IV-B), 5 ns on DDR3-1600 (§II).
    pub t_burst_ns: f64,
    /// Column-to-column command spacing within a channel.
    pub t_ccd_ns: f64,
    /// Activate-to-activate spacing, same rank (DDR3-1600: 6 ns).
    pub t_rrd_ns: f64,
    /// Four-activate window, same rank (DDR3-1600 8 KB page: ~40 ns).
    /// The TSI presets use a relaxed value: the low 250 MHz mat clock and
    /// per-die power delivery of the stacked LPDDR dies make four-ACT
    /// current limits non-binding at channel bandwidth (see DESIGN.md §5).
    pub t_faw_ns: f64,
    /// Write recovery: last write data to precharge (15 ns).
    pub t_wr_ns: f64,
    /// Write-to-read turnaround, same rank (7.5 ns).
    pub t_wtr_ns: f64,
    /// Read-to-precharge (7.5 ns).
    pub t_rtp_ns: f64,
    /// Write CAS latency (first write data after WR command).
    pub t_cwl_ns: f64,
    /// Power-down exit latency (tXP, 7.5 ns): first command after waking
    /// a powered-down rank.
    pub t_xp_ns: f64,
    /// Average refresh interval (7.8 µs).
    pub t_refi_ns: f64,
    /// Refresh cycle time for an 8 Gb die (350 ns).
    pub t_rfc_ns: f64,
    /// One DRAM command-bus slot: the channel accepts at most one command
    /// per slot. The command bus runs at the interface command rate
    /// (1.25 ns at DDR3-1600; 1 ns for the wide TSI channel), several times
    /// faster than the 4 ns data-burst slot — random traffic needs up to
    /// three commands (ACT/RD/PRE) per burst, so a slower command bus
    /// would starve the data bus.
    pub t_cmd_ns: f64,
}

impl TimingParams {
    /// DDR3-1600 module on a PCB (the paper's baseline interface).
    pub fn ddr3_pcb() -> Self {
        TimingParams {
            t_rcd_ns: 14.0,
            t_rp_ns: 14.0,
            t_ras_ns: 35.0,
            t_aa_ns: 14.0,
            t_burst_ns: 5.0,
            t_ccd_ns: 5.0,
            t_rrd_ns: 6.0,
            t_faw_ns: 40.0,
            t_wr_ns: 15.0,
            t_wtr_ns: 7.5,
            t_rtp_ns: 7.5,
            t_cwl_ns: 10.0,
            t_xp_ns: 7.5,
            t_refi_ns: 7800.0,
            t_rfc_ns: 350.0,
            t_cmd_ns: 1.25,
        }
    }

    /// DDR3-type stacked dies behind a silicon interposer: same core timing,
    /// shorter read latency (tAA 12 ns) and a 16 GB/s channel. The
    /// activation-rate limits (tRRD/tFAW) are relaxed to non-binding
    /// values: they exist to protect a package's charge pumps, and a
    /// TSV-stacked die with per-die power delivery at a 250 MHz mat clock
    /// is not activation-current-limited at channel bandwidth — the
    /// paper's results (e.g. mcf scaling to the channel bound in Fig. 8)
    /// imply the same modeling choice.
    pub fn ddr3_tsi() -> Self {
        TimingParams {
            t_aa_ns: 12.0,
            t_burst_ns: 4.0,
            t_ccd_ns: 4.0,
            t_rrd_ns: 2.0,
            t_faw_ns: 8.0,
            t_cmd_ns: 1.0,
            ..Self::ddr3_pcb()
        }
    }

    /// LPDDR-type stacked dies behind a silicon interposer (the paper's
    /// proposed interface): identical core timing to [`Self::ddr3_tsi`]; the
    /// difference is purely energetic (no ODT/DLL).
    pub fn lpddr_tsi() -> Self {
        Self::ddr3_tsi()
    }

    /// Row cycle time tRC = tRAS + tRP.
    pub fn t_rc_ns(&self) -> f64 {
        self.t_ras_ns + self.t_rp_ns
    }

    /// Every nanosecond parameter paired with its name, for validation and
    /// reporting.
    pub fn named_fields(&self) -> [(&'static str, f64); 16] {
        [
            ("t_rcd_ns", self.t_rcd_ns),
            ("t_rp_ns", self.t_rp_ns),
            ("t_ras_ns", self.t_ras_ns),
            ("t_aa_ns", self.t_aa_ns),
            ("t_burst_ns", self.t_burst_ns),
            ("t_ccd_ns", self.t_ccd_ns),
            ("t_rrd_ns", self.t_rrd_ns),
            ("t_faw_ns", self.t_faw_ns),
            ("t_wr_ns", self.t_wr_ns),
            ("t_wtr_ns", self.t_wtr_ns),
            ("t_rtp_ns", self.t_rtp_ns),
            ("t_cwl_ns", self.t_cwl_ns),
            ("t_xp_ns", self.t_xp_ns),
            ("t_refi_ns", self.t_refi_ns),
            ("t_rfc_ns", self.t_rfc_ns),
            ("t_cmd_ns", self.t_cmd_ns),
        ]
    }

    /// Accumulate timing-legality diagnostics: every interval must be a
    /// finite positive number (the cycle conversion and the FSMs assume
    /// it), and the composite constraints a real device guarantees must
    /// hold (tRAS covers tRCD; a refresh must fit in its interval).
    pub fn validate_into(&self, c: &mut crate::validate::Checker) {
        let mut all_finite = true;
        for (name, v) in self.named_fields() {
            all_finite &= c.check(v.is_finite() && v > 0.0, || {
                format!("timing.{name} = {v}: every timing interval must be finite and > 0 ns")
            });
        }
        if all_finite {
            c.check(self.t_ras_ns >= self.t_rcd_ns, || {
                format!(
                    "timing: tRAS ({} ns) < tRCD ({} ns): a row cannot close before its \
                     activate has completed",
                    self.t_ras_ns, self.t_rcd_ns
                )
            });
            c.check(self.t_refi_ns > self.t_rfc_ns, || {
                format!(
                    "timing: tREFI ({} ns) <= tRFC ({} ns): refresh would consume the \
                     entire channel",
                    self.t_refi_ns, self.t_rfc_ns
                )
            });
        }
    }

    /// Convert to integer CPU-cycle timings (rounding every interval up, the
    /// conservative direction a real controller must take).
    pub fn to_cycles(&self) -> Timings {
        let c = |ns: f64| -> Cycle { (ns * CYCLES_PER_NS).ceil() as Cycle };
        Timings {
            t_rcd: c(self.t_rcd_ns),
            t_rp: c(self.t_rp_ns),
            t_ras: c(self.t_ras_ns),
            t_aa: c(self.t_aa_ns),
            t_burst: c(self.t_burst_ns),
            t_ccd: c(self.t_ccd_ns),
            t_rrd: c(self.t_rrd_ns),
            t_faw: c(self.t_faw_ns),
            t_wr: c(self.t_wr_ns),
            t_wtr: c(self.t_wtr_ns),
            t_rtp: c(self.t_rtp_ns),
            t_cwl: c(self.t_cwl_ns),
            t_xp: c(self.t_xp_ns),
            t_refi: c(self.t_refi_ns),
            t_rfc: c(self.t_rfc_ns),
            t_cmd: c(self.t_cmd_ns).max(1),
        }
    }
}

/// DRAM timing intervals in CPU cycles (2 GHz). Produced by
/// [`TimingParams::to_cycles`]; consumed by the bank FSMs and the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timings {
    pub t_rcd: Cycle,
    pub t_rp: Cycle,
    pub t_ras: Cycle,
    pub t_aa: Cycle,
    pub t_burst: Cycle,
    pub t_ccd: Cycle,
    pub t_rrd: Cycle,
    pub t_faw: Cycle,
    pub t_wr: Cycle,
    pub t_wtr: Cycle,
    pub t_rtp: Cycle,
    pub t_cwl: Cycle,
    pub t_xp: Cycle,
    pub t_refi: Cycle,
    pub t_rfc: Cycle,
    pub t_cmd: Cycle,
}

impl Timings {
    /// Row cycle time tRC = tRAS + tRP in CPU cycles.
    pub fn t_rc(&self) -> Cycle {
        self.t_ras + self.t_rp
    }

    /// Closed-bank read latency: ACT → tRCD → RD → tAA → first data → burst.
    pub fn closed_read_latency(&self) -> Cycle {
        self.t_rcd + self.t_aa + self.t_burst
    }

    /// Open-row (row hit) read latency: RD → tAA → data → burst.
    pub fn open_read_latency(&self) -> Cycle {
        self.t_aa + self.t_burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values_match_paper() {
        let p = TimingParams::ddr3_pcb();
        assert_eq!(p.t_rcd_ns, 14.0);
        assert_eq!(p.t_aa_ns, 14.0);
        assert_eq!(p.t_ras_ns, 35.0);
        assert_eq!(p.t_rp_ns, 14.0);
        let t = TimingParams::lpddr_tsi();
        assert_eq!(t.t_aa_ns, 12.0);
        assert_eq!(t.t_rc_ns(), 49.0);
    }

    #[test]
    fn cycle_conversion_rounds_up() {
        let t = TimingParams::lpddr_tsi().to_cycles();
        assert_eq!(t.t_rcd, 28); // 14 ns * 2
        assert_eq!(t.t_aa, 24); // 12 ns * 2
        assert_eq!(t.t_ras, 70);
        assert_eq!(t.t_rp, 28);
        assert_eq!(t.t_rc(), 98); // 49 ns
        assert_eq!(t.t_burst, 8); // 4 ns: one line per 4 ns = 16 GB/s
    }

    #[test]
    fn pcb_burst_is_slower_than_tsi() {
        let pcb = TimingParams::ddr3_pcb().to_cycles();
        let tsi = TimingParams::ddr3_tsi().to_cycles();
        assert!(pcb.t_burst > tsi.t_burst);
        assert!(pcb.t_aa > tsi.t_aa);
    }

    #[test]
    fn latencies_compose() {
        let t = TimingParams::lpddr_tsi().to_cycles();
        assert_eq!(t.closed_read_latency(), t.t_rcd + t.t_aa + t.t_burst);
        assert!(t.closed_read_latency() > t.open_read_latency());
    }

    #[test]
    fn command_slot_is_nonzero() {
        for p in [
            TimingParams::ddr3_pcb(),
            TimingParams::ddr3_tsi(),
            TimingParams::lpddr_tsi(),
        ] {
            assert!(p.to_cycles().t_cmd >= 1);
        }
    }
}
