//! Per-channel fault engine: owns the hard-fault map, the transient RNG
//! stream, the degradation state, and the optional patrol scrubber, and
//! exposes the two assessment entry points the memory controller calls —
//! one per demand read, one per scrub command.
//!
//! Everything here is analytic: no payload bits are simulated. An access
//! combines its hard-fault contribution (from the projected defect map)
//! with a Poisson-sampled transient contribution, and the ECC decoder
//! verdict is decided from the resulting pattern shape alone.

use crate::degrade::Degrade;
use crate::ecc::{decide, EccOutcome};
use crate::inject::{transient_pattern, FaultConfig, FaultMap};
use crate::scrub::Scrubber;
use microbank_core::address::Location;
use microbank_core::config::MemConfig;
use microbank_core::fxhash::FxBuild;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Aggregate reliability counters, summed across channels into
/// `SimResult::reliability`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FaultSummary {
    /// Demand reads assessed by the engine.
    pub reads_checked: u64,
    /// Scrub commands assessed.
    pub scrub_checks: u64,
    /// Accesses whose error was corrected by ECC.
    pub corrected: u64,
    /// Corrected accesses with a hard-fault contribution (drives
    /// predictive retirement).
    pub corrected_hard: u64,
    /// Detected-uncorrectable accesses.
    pub detected: u64,
    /// Silently miscorrected accesses (or any error at all with ECC off).
    pub miscorrected: u64,
    /// Demand reads re-issued after a corrected error.
    pub retries: u64,
    /// μbank rows retired.
    pub retired_rows: u64,
    /// Whole μbanks retired.
    pub retired_ubanks: u64,
    /// Retirements refused to protect the channel's last live μbank.
    pub retire_refused: u64,
    /// Effective capacity lost to retirement, in bytes.
    pub capacity_lost_bytes: u64,
}

impl FaultSummary {
    /// Accumulate another channel's (or shard's) counters. Saturating,
    /// matching the cross-shard merge contract of the other telemetry
    /// counters: pinned at `u64::MAX` rather than wrapped.
    pub fn merge(&mut self, other: &FaultSummary) {
        self.reads_checked = self.reads_checked.saturating_add(other.reads_checked);
        self.scrub_checks = self.scrub_checks.saturating_add(other.scrub_checks);
        self.corrected = self.corrected.saturating_add(other.corrected);
        self.corrected_hard = self.corrected_hard.saturating_add(other.corrected_hard);
        self.detected = self.detected.saturating_add(other.detected);
        self.miscorrected = self.miscorrected.saturating_add(other.miscorrected);
        self.retries = self.retries.saturating_add(other.retries);
        self.retired_rows = self.retired_rows.saturating_add(other.retired_rows);
        self.retired_ubanks = self.retired_ubanks.saturating_add(other.retired_ubanks);
        self.retire_refused = self.retire_refused.saturating_add(other.retire_refused);
        self.capacity_lost_bytes = self
            .capacity_lost_bytes
            .saturating_add(other.capacity_lost_bytes);
    }
}

/// What the controller should do with the access just assessed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessVerdict {
    /// Deliver the data; nothing else to do.
    Ok,
    /// Corrected error on a demand read: re-issue the read once.
    Retry,
    /// Uncorrectable: data lost, target (possibly) retired. The request
    /// still completes — the model charges the timing/energy cost and the
    /// retirement capacity cost, not a machine check.
    Uncorrectable,
}

/// One channel's reliability state.
#[derive(Debug)]
pub struct FaultEngine {
    fc: FaultConfig,
    map: FaultMap,
    pub degrade: Degrade,
    pub scrub: Option<Scrubber>,
    rng: StdRng,
    /// Corrected hard-error count per flat μbank (predictive-retirement
    /// trigger).
    hard_ce: HashMap<u32, u32, FxBuild>,
    pub summary: FaultSummary,
    // Geometry needed to decompose remapped flat indices back into
    // Location fields.
    n_w: u32,
    per_bank: u32,
    banks_per_rank: u32,
}

impl FaultEngine {
    /// Build the engine for `channel` of a `cfg`-shaped system. Each
    /// channel derives an independent deterministic stream from the master
    /// seed, so multi-channel runs stay reproducible regardless of
    /// per-channel service order.
    pub fn new(cfg: &MemConfig, fc: &FaultConfig, channel: usize) -> Self {
        let seed = fc
            .seed
            .wrapping_add((channel as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n_ubanks = cfg.ubanks_per_channel();
        let ubank_rows = cfg.ubank_rows();
        let row_bytes = cfg.geometry.ubank_row_bytes(cfg.ubank) as u64;
        FaultEngine {
            map: FaultMap::generate(cfg, fc, seed),
            degrade: Degrade::new(n_ubanks, ubank_rows, row_bytes),
            scrub: fc
                .scrub_interval
                .map(|iv| Scrubber::new(iv, n_ubanks, ubank_rows)),
            rng: StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03),
            hard_ce: HashMap::with_hasher(FxBuild::default()),
            summary: FaultSummary::default(),
            n_w: cfg.ubank.n_w as u32,
            per_bank: cfg.ubank.ubanks_per_bank() as u32,
            banks_per_rank: cfg.banks_per_rank as u32,
            fc: fc.clone(),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.fc
    }

    /// Rewrite `loc` around retired μbanks/rows (identity while nothing is
    /// retired). Called once per request at enqueue, so in-flight requests
    /// are never re-pointed mid-service.
    pub fn remap_loc(&self, loc: &mut Location) {
        if self.degrade.lost_bytes == 0 {
            return;
        }
        let rb = loc.rank as u32 * self.banks_per_rank + loc.bank as u32;
        let flat = rb * self.per_bank + loc.b as u32 * self.n_w + loc.w as u32;
        let (f2, r2) = self.degrade.remap(flat, loc.row);
        if f2 != flat {
            let within = f2 % self.per_bank;
            let rb2 = f2 / self.per_bank;
            loc.w = (within % self.n_w) as u8;
            loc.b = (within / self.n_w) as u8;
            loc.bank = (rb2 % self.banks_per_rank) as u8;
            loc.rank = (rb2 / self.banks_per_rank) as u8;
        }
        loc.row = r2;
    }

    /// Assess one demand read of `(flat, row)`. `age_frac` ∈ \[0, 1\] is the
    /// rank's refresh age (retention-decay scaling); `retried` marks a
    /// request already re-issued once, which is never retried again.
    pub fn assess_demand_read(
        &mut self,
        flat: u32,
        row: u32,
        age_frac: f64,
        retried: bool,
    ) -> AccessVerdict {
        self.summary.reads_checked += 1;
        match self.assess(flat, row, age_frac) {
            EccOutcome::Corrected if !retried => {
                self.summary.retries += 1;
                AccessVerdict::Retry
            }
            EccOutcome::Detected => AccessVerdict::Uncorrectable,
            _ => AccessVerdict::Ok,
        }
    }

    /// Assess one patrol-scrub read. Scrubs never retry (the scrub cycle
    /// itself rewrites corrected data), but they trigger the same
    /// detection-driven and predictive retirement as demand reads — that
    /// is their purpose: finding decayed/defective cells before demand
    /// traffic does.
    pub fn assess_scrub(&mut self, flat: u32, row: u32, age_frac: f64) {
        self.summary.scrub_checks += 1;
        self.assess(flat, row, age_frac);
    }

    /// Shared assessment: combine hard + transient patterns, decide the
    /// ECC outcome, count it, and apply the retirement policy.
    fn assess(&mut self, flat: u32, row: u32, age_frac: f64) -> EccOutcome {
        let (hard, row_scope, ubank_scope) = self.map.hard_pattern(flat, row);
        let pattern = hard.combine(transient_pattern(&mut self.rng, &self.fc, age_frac));
        let outcome = decide(self.fc.ecc, pattern);
        match outcome {
            EccOutcome::Clean => {}
            EccOutcome::Corrected => {
                self.summary.corrected += 1;
                if !hard.is_clean() {
                    self.summary.corrected_hard += 1;
                    let n = self.hard_ce.entry(flat).or_insert(0);
                    *n += 1;
                    if *n >= self.fc.hard_ce_retire_threshold {
                        *n = 0;
                        // Chronic corrected errors: retire the μbank when
                        // the defect is μbank-wide (bitline/sense-amp),
                        // else just the affected row (stuck cells).
                        if self.map.bad_cols.contains_key(&flat) {
                            self.retire_ubank(flat);
                        } else {
                            self.retire_row(flat, row);
                        }
                    }
                }
            }
            EccOutcome::Detected => {
                self.summary.detected += 1;
                // Detection localizes the failure; retire at the defect's
                // scope (μbank-wide beats row-wide when both contribute).
                if ubank_scope {
                    self.retire_ubank(flat);
                } else if row_scope {
                    self.retire_row(flat, row);
                }
                // Pure-transient detections retire nothing: the cell is
                // fine, the data was not.
            }
            EccOutcome::Miscorrected => self.summary.miscorrected += 1,
        }
        outcome
    }

    fn retire_row(&mut self, flat: u32, row: u32) {
        let ubanks_before = self.degrade.retired_ubanks();
        if self.degrade.retire_row(flat, row) {
            self.summary.retired_rows += 1;
        }
        // retire_row can escalate to a whole-μbank retirement.
        self.summary.retired_ubanks += self.degrade.retired_ubanks() - ubanks_before;
        self.sync_capacity();
    }

    fn retire_ubank(&mut self, flat: u32) {
        if self.degrade.retire_ubank(flat) {
            self.summary.retired_ubanks += 1;
        }
        self.sync_capacity();
    }

    fn sync_capacity(&mut self) {
        self.summary.retire_refused = self.degrade.refused;
        self.summary.capacity_lost_bytes = self.degrade.lost_bytes;
    }

    /// Is `(flat, row)` already retired? (Scrub walk skips these without
    /// spending a command slot.)
    pub fn is_retired(&self, flat: u32, row: u32) -> bool {
        self.degrade.is_ubank_retired(flat) || self.degrade.is_row_retired(flat, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::EccMode;

    fn cfg(nw: usize, nb: usize) -> MemConfig {
        MemConfig::lpddr_tsi().with_ubanks(nw, nb).with_channels(1)
    }

    fn find_bad_ubank(e: &FaultEngine) -> u32 {
        *e.map.bad_ubanks.iter().min().unwrap()
    }

    #[test]
    fn summary_merge_saturates() {
        let mut a = FaultSummary {
            corrected: u64::MAX - 1,
            ..Default::default()
        };
        let b = FaultSummary {
            corrected: 10,
            retries: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.corrected, u64::MAX);
        assert_eq!(a.retries, 3);
    }

    #[test]
    fn clean_engine_never_intervenes() {
        let c = cfg(8, 8);
        let mut e = FaultEngine::new(&c, &FaultConfig::new(1), 0);
        for i in 0..100 {
            assert_eq!(
                e.assess_demand_read(i % 64, i, 0.5, false),
                AccessVerdict::Ok
            );
        }
        assert_eq!(e.summary.corrected, 0);
        assert_eq!(e.summary.capacity_lost_bytes, 0);
    }

    #[test]
    fn detected_ubank_fault_retires_the_ubank() {
        let c = cfg(4, 4);
        let mut fc = FaultConfig::new(3);
        fc.subarray_faults = 1;
        let mut e = FaultEngine::new(&c, &fc, 0);
        let bad = find_bad_ubank(&e);
        assert_eq!(
            e.assess_demand_read(bad, 0, 0.0, false),
            AccessVerdict::Uncorrectable
        );
        assert_eq!(e.summary.retired_ubanks, 1);
        assert!(e.is_retired(bad, 0));
        // Subsequent enqueue-time remap steers demand traffic away.
        assert_ne!(e.degrade.remap(bad, 0).0, bad);
    }

    #[test]
    fn corrected_demand_read_retries_exactly_once() {
        let c = cfg(4, 4);
        let mut fc = FaultConfig::new(5).with_ecc(EccMode::Chipkill);
        fc.col_faults = 1;
        let mut e = FaultEngine::new(&c, &fc, 0);
        let bad = *e.map.bad_cols.keys().min().unwrap();
        assert_eq!(
            e.assess_demand_read(bad, 0, 0.0, false),
            AccessVerdict::Retry
        );
        assert_eq!(e.assess_demand_read(bad, 0, 0.0, true), AccessVerdict::Ok);
        assert_eq!(e.summary.retries, 1);
        assert_eq!(e.summary.corrected, 2);
        assert_eq!(e.summary.corrected_hard, 2);
    }

    #[test]
    fn chronic_corrected_errors_trigger_predictive_retirement() {
        let c = cfg(4, 4);
        let mut fc = FaultConfig::new(5).with_ecc(EccMode::Chipkill);
        fc.col_faults = 1;
        fc.hard_ce_retire_threshold = 4;
        let mut e = FaultEngine::new(&c, &fc, 0);
        let bad = *e.map.bad_cols.keys().min().unwrap();
        for _ in 0..4 {
            e.assess_demand_read(bad, 0, 0.0, true);
        }
        assert_eq!(
            e.summary.retired_ubanks, 1,
            "μbank-wide defect → μbank retired"
        );
        assert!(e.degrade.is_ubank_retired(bad));
    }

    #[test]
    fn remap_loc_round_trips_geometry() {
        let c = cfg(4, 4);
        let mut fc = FaultConfig::new(3);
        fc.subarray_faults = 1;
        let mut e = FaultEngine::new(&c, &fc, 0);
        let bad = find_bad_ubank(&e);
        e.assess_demand_read(bad, 0, 0.0, false); // retires `bad`
                                                  // Build the Location that maps onto `bad` and check remap_loc
                                                  // agrees with degrade.remap through the field decomposition.
        let per_bank = c.ubank.ubanks_per_bank() as u32;
        let rb = bad / per_bank;
        let within = bad % per_bank;
        let mut loc = Location {
            channel: 0,
            rank: (rb / c.banks_per_rank as u32) as u8,
            bank: (rb % c.banks_per_rank as u32) as u8,
            w: (within % c.ubank.n_w as u32) as u8,
            b: (within / c.ubank.n_w as u32) as u8,
            row: 0,
            col: 0,
        };
        e.remap_loc(&mut loc);
        let expect = e.degrade.remap(bad, 0);
        assert_eq!(loc.ubank_flat(&c) as u32, expect.0);
        assert_eq!(loc.row, expect.1);
    }

    #[test]
    fn per_channel_streams_are_independent_and_deterministic() {
        let c = cfg(8, 8);
        let fc = FaultConfig::stress(77);
        let run = |ch: usize| {
            let mut e = FaultEngine::new(&c, &fc, ch);
            for i in 0..500u32 {
                e.assess_demand_read(i % 64, i % 128, 0.5, false);
            }
            e.summary
        };
        assert_eq!(run(0), run(0), "same channel → same summary");
        let (e0, e1) = (FaultEngine::new(&c, &fc, 0), FaultEngine::new(&c, &fc, 1));
        assert_ne!(
            (&e0.map.bad_ubanks, &e0.map.bad_rows, &e0.map.stuck),
            (&e1.map.bad_ubanks, &e1.map.bad_rows, &e1.map.stuck),
            "channels carry independently seeded fault maps"
        );
    }

    #[test]
    fn no_ecc_detects_nothing_and_retires_nothing() {
        let c = cfg(4, 4);
        let mut fc = FaultConfig::new(3).with_ecc(EccMode::None);
        fc.subarray_faults = 1;
        let mut e = FaultEngine::new(&c, &fc, 0);
        let bad = find_bad_ubank(&e);
        assert_eq!(e.assess_demand_read(bad, 0, 0.0, false), AccessVerdict::Ok);
        assert_eq!(e.summary.miscorrected, 1);
        assert_eq!(
            e.summary.capacity_lost_bytes, 0,
            "silent corruption: no signal to act on"
        );
    }
}
