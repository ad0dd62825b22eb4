//! One memory channel: the shared command/data buses, per-rank activation
//! windows (tRRD/tFAW), bus turnarounds, refresh bookkeeping, and the array
//! of per-μbank FSMs.
//!
//! All μbanks in a channel operate independently "like conventional banks"
//! (§IV-A) *except* that they share the channel's command bus (one command
//! per command slot) and data bus (one 64 B burst at a time), exactly the
//! sharing the paper describes for conventional multi-bank devices (§II).

use crate::address::Location;
use crate::bank::MicrobankState;
use crate::config::MemConfig;
use crate::stats::DramStats;
use crate::timing::Timings;
use crate::variant::VariantRules;
use crate::Cycle;
use microbank_telemetry::ChannelTelemetry;
use std::collections::VecDeque;

/// Sentinel for "no μbank owns the shared global bitlines".
const NO_GBL_OWNER: u32 = u32::MAX;

/// Row-buffer outcome of a request arriving for a μbank, as seen at
/// enqueue time (the standard open-page accounting the energy model and
/// Fig. 13 consume).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The μbank's open row matches the request's row.
    Hit,
    /// The μbank holds a different open row (PRE + ACT required).
    Conflict,
    /// The μbank is precharged (ACT required, no PRE).
    Closed,
}

/// Command class of an `earliest_*` dual: which of a rank's shared
/// floors ([`Channel::floors`]) the command waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdClass {
    Read = 0,
    Write = 1,
    Activate = 2,
    Precharge = 3,
}

/// Number of ACTs tracked by the tFAW sliding window.
const FAW_ACTS: usize = 4;

/// Per-rank shared state: activation-rate limits, write-to-read turnaround,
/// and the refresh schedule.
#[derive(Debug, Clone)]
struct RankState {
    /// Issue times of the most recent ACTs (for tFAW).
    act_window: VecDeque<Cycle>,
    /// Most recent ACT (for tRRD).
    last_act: Option<Cycle>,
    /// Cycle the last write's data finished (for tWTR).
    last_wr_data_end: Cycle,
    /// Next refresh deadline.
    refresh_due: Cycle,
    /// End of an in-flight refresh (banks blocked until then).
    refresh_until: Cycle,
    /// Precharge power-down state (CKE low).
    powered_down: bool,
    /// Cycle power-down was entered.
    pd_since: Cycle,
    /// Last command activity on this rank (power-down idle timer).
    last_activity: Cycle,
    /// Earliest command time after a power-down exit (tXP).
    wake_ready: Cycle,
}

impl RankState {
    fn new(t: &Timings) -> Self {
        RankState {
            act_window: VecDeque::with_capacity(FAW_ACTS),
            last_act: None,
            last_wr_data_end: 0,
            refresh_due: t.t_refi,
            refresh_until: 0,
            powered_down: false,
            pd_since: 0,
            last_activity: 0,
            wake_ready: 0,
        }
    }
}

/// Cycle-level model of one memory channel.
#[derive(Debug, Clone)]
pub struct Channel {
    t: Timings,
    ubanks_per_rank: usize,
    banks_per_rank: usize,
    n_w: usize,
    banks: Vec<MicrobankState>,
    ranks: Vec<RankState>,
    /// Earliest cycle the next command may occupy the command bus.
    next_cmd: Cycle,
    /// Earliest cycle the next data burst may start on the data bus.
    data_free: Cycle,
    /// Earliest cycle the next column command may issue (tCCD).
    next_col_cmd: Cycle,
    refresh_enabled: bool,
    /// Power-down idle threshold (None = disabled).
    powerdown_idle: Option<Cycle>,
    /// Structural issue rules of the configured device variant (DESIGN
    /// §5h). `VariantRules::NONE` for Conventional/Microbank, so the hot
    /// paths below pay one branch and no per-bank scans.
    rules: VariantRules,
    /// μbanks per physical bank (`nW × nB`), for sibling scans.
    ubanks_per_bank: usize,
    /// Per physical bank: flat index of the μbank whose column burst last
    /// drove the shared global bitlines ([`NO_GBL_OWNER`] = none yet).
    /// Only mutated when `rules.shared_global_bitlines`.
    gbl_owner: Vec<u32>,
    /// Per physical bank: cycle the in-flight burst releases the shared
    /// global bitlines. A *different* subarray's column command must wait
    /// for this; the owner may keep streaming (its row buffer is already
    /// connected).
    gbl_busy_until: Vec<Cycle>,
    /// Per rank: the rank-wide part of each `earliest_*` dual, indexed by
    /// [`CmdClass`]. Recomputed by every command (they all move the
    /// command bus) and by power-down transitions.
    floors: Vec<[Cycle; 4]>,
    /// Per physical bank: bumped by every change to the bank's μbank or
    /// global-bitline state, and by a row-hit arrival. A value derived
    /// from one bank's state stays exact while its epoch is unchanged.
    bank_epoch: Vec<u64>,
    pub stats: DramStats,
    /// Per-μbank heat counters; `None` (the default) costs one branch per
    /// hook site.
    pub telemetry: Option<Box<ChannelTelemetry>>,
}

impl Channel {
    pub fn new(cfg: &MemConfig) -> Self {
        let t = cfg.timings();
        let ubanks_per_bank = cfg.ubank.ubanks_per_bank();
        let ubanks_per_rank = cfg.banks_per_rank * ubanks_per_bank;
        let total = ubanks_per_rank * cfg.ranks_per_channel;
        let physical_banks = cfg.banks_per_rank * cfg.ranks_per_channel;
        let mut ch = Channel {
            t,
            ubanks_per_rank,
            banks_per_rank: cfg.banks_per_rank,
            n_w: cfg.ubank.n_w,
            banks: vec![MicrobankState::new(); total],
            ranks: (0..cfg.ranks_per_channel)
                .map(|_| RankState::new(&t))
                .collect(),
            next_cmd: 0,
            data_free: 0,
            next_col_cmd: 0,
            refresh_enabled: cfg.refresh_enabled,
            powerdown_idle: cfg.powerdown_idle,
            rules: cfg.variant.rules(),
            ubanks_per_bank,
            gbl_owner: vec![NO_GBL_OWNER; physical_banks],
            gbl_busy_until: vec![0; physical_banks],
            floors: vec![[0; 4]; cfg.ranks_per_channel],
            bank_epoch: vec![0; physical_banks],
            stats: DramStats::default(),
            telemetry: None,
        };
        ch.refresh_floors();
        ch
    }

    /// Attach per-μbank heat counters (shape derived from the channel's
    /// own μbank dimensions).
    pub fn enable_telemetry(&mut self) {
        let per_bank = self.ubanks_per_rank / self.banks_per_rank;
        let n_b = per_bank / self.n_w;
        self.telemetry = Some(Box::new(ChannelTelemetry::new(
            self.banks.len(),
            self.n_w,
            n_b,
        )));
    }

    /// The channel's timing set.
    pub fn timings(&self) -> &Timings {
        &self.t
    }

    /// Total μbanks in this channel.
    pub fn num_ubanks(&self) -> usize {
        self.banks.len()
    }

    /// Borrow a μbank's state by its flat index (see
    /// [`Location::ubank_flat`]).
    pub fn ubank(&self, flat: usize) -> &MicrobankState {
        &self.banks[flat]
    }

    fn rank_of(&self, flat: usize) -> usize {
        flat / self.ubanks_per_rank
    }

    /// Global physical-bank index of a μbank. μbanks of one physical bank
    /// are contiguous in `banks` (`flat = (rank·banksPerRank + bank)·
    /// ubanksPerBank + within`), so this is a single divide.
    pub fn bank_of(&self, flat: usize) -> usize {
        flat / self.ubanks_per_bank
    }

    /// Per physical bank (see [`Channel::bank_of`]), the state epoch: it
    /// changes whenever anything an `act_blocker`, `local_*` or row-hit
    /// lookup of one of the bank's μbanks reads may have changed.
    pub fn bank_epochs(&self) -> &[u64] {
        &self.bank_epoch
    }

    fn touch_bank(&mut self, flat: usize) {
        let bank = self.bank_of(flat);
        self.bank_epoch[bank] += 1;
    }

    fn touch_rank(&mut self, rank: usize) {
        let per_rank = self.banks_per_rank;
        for e in &mut self.bank_epoch[rank * per_rank..(rank + 1) * per_rank] {
            *e += 1;
        }
    }

    /// The variant's structural issue rules (as stored at construction).
    pub fn variant_rules(&self) -> VariantRules {
        self.rules
    }

    /// Would the device variant's *structural* rules block an ACT opening
    /// `row` in μbank `flat` right now? Returns the flat index of the
    /// first (lowest-index) sibling μbank whose open row is in the way —
    /// the deterministic victim the controller must precharge first — or
    /// `None` when the ACT is structurally admissible (timing constraints
    /// are checked separately by [`Channel::can_activate_flat`]).
    ///
    /// Two rules exist (DESIGN §5h):
    /// * `single_row_decoder` (Sectored): sibling μbanks share one row
    ///   decoder, so a sibling holding a *different* row blocks; a sibling
    ///   holding the *same* row is the sector-append case and does not.
    /// * `max_open_per_bank` (SALP-1/SALP-2): at the open-row limit, the
    ///   first open sibling blocks until it is precharged.
    pub fn act_blocker(&self, flat: usize, row: u32) -> Option<usize> {
        if !self.rules.any() {
            return None;
        }
        let lo = self.bank_of(flat) * self.ubanks_per_bank;
        let mut open = 0usize;
        let mut first_open = None;
        for f in lo..lo + self.ubanks_per_bank {
            if f == flat {
                continue;
            }
            if let Some(r) = self.banks[f].open_row {
                if self.rules.single_row_decoder && r != row {
                    return Some(f);
                }
                open += 1;
                if first_open.is_none() {
                    first_open = Some(f);
                }
            }
        }
        if open >= self.rules.max_open_per_bank {
            return first_open;
        }
        None
    }

    fn in_refresh(&self, rank: usize, now: Cycle) -> bool {
        now < self.ranks[rank].refresh_until
    }

    /// Rank unavailable because it is powered down or still waking (tXP).
    fn rank_unavailable(&self, rank: usize, now: Cycle) -> bool {
        let rs = &self.ranks[rank];
        rs.powered_down || now < rs.wake_ready
    }

    /// Is `rank` currently in precharge power-down?
    pub fn is_powered_down(&self, rank: usize) -> bool {
        self.ranks[rank].powered_down
    }

    /// Cycles since the last command activity on `rank`.
    pub fn rank_idle_for(&self, rank: usize, now: Cycle) -> Cycle {
        now.saturating_sub(self.ranks[rank].last_activity)
    }

    /// Power-management hook, called once per controller tick per rank.
    /// `has_work` = queued requests target the rank (or refresh is due).
    /// Enters power-down after the configured idle period; wakes (paying
    /// tXP) as soon as work appears.
    pub fn update_powerdown(&mut self, rank: usize, now: Cycle, has_work: bool) {
        let Some(idle) = self.powerdown_idle else {
            return;
        };
        let all_idle = self.rank_all_idle(rank);
        let rs = &mut self.ranks[rank];
        if rs.powered_down {
            if has_work {
                rs.powered_down = false;
                rs.wake_ready = now + self.t.t_xp;
                rs.last_activity = now;
                self.stats.powerdown_rank_cycles += now - rs.pd_since;
                self.refresh_floors();
            }
        } else if !has_work && all_idle && now >= rs.last_activity + idle {
            rs.powered_down = true;
            rs.pd_since = now;
            self.stats.powerdown_entries += 1;
            self.refresh_floors();
        }
    }

    fn faw_ok(&self, rank: usize, now: Cycle) -> bool {
        let w = &self.ranks[rank].act_window;
        w.len() < FAW_ACTS || now >= w[0] + self.t.t_faw
    }

    fn rrd_ok(&self, rank: usize, now: Cycle) -> bool {
        match self.ranks[rank].last_act {
            Some(a) => now >= a + self.t.t_rrd,
            None => true,
        }
    }

    /// Can an ACT to `flat` μbank (in `rank`) issue at `now`?
    pub fn can_activate_flat(&self, flat: usize, now: Cycle) -> bool {
        let rank = self.rank_of(flat);
        now >= self.next_cmd
            && !self.in_refresh(rank, now)
            && !self.rank_unavailable(rank, now)
            && self.rrd_ok(rank, now)
            && self.faw_ok(rank, now)
            && self.banks[flat].can_activate(now)
    }

    /// Can an ACT opening `row` in `flat` issue at `now`, including the
    /// device variant's structural rules? This is the predicate the
    /// controller uses; [`Channel::can_activate_flat`] alone is exact only
    /// for variants without structural rules (Conventional/Microbank).
    pub fn can_activate_row_flat(&self, flat: usize, row: u32, now: Cycle) -> bool {
        self.act_blocker(flat, row).is_none() && self.can_activate_flat(flat, now)
    }

    /// Issue an ACT opening `row`.
    pub fn activate_flat(&mut self, flat: usize, row: u32, now: Cycle) {
        debug_assert!(self.can_activate_row_flat(flat, row, now));
        let rank = self.rank_of(flat);
        self.banks[flat].activate(row, now, &self.t);
        let rs = &mut self.ranks[rank];
        if rs.act_window.len() == FAW_ACTS {
            rs.act_window.pop_front();
        }
        rs.act_window.push_back(now);
        rs.last_act = Some(now);
        rs.last_activity = now;
        self.next_cmd = now + self.t.t_cmd;
        self.touch_bank(flat);
        self.refresh_floors();
        self.stats.activates += 1;
        if let Some(tel) = &mut self.telemetry {
            tel.heat.activates[flat] += 1;
        }
    }

    /// Classify (and count) the row-buffer outcome of a request arriving
    /// for `row` in μbank `flat`. Updates both the channel's aggregate
    /// stats and, when telemetry is attached, the per-μbank heat counters
    /// — one call site for both so they can never diverge. A hit bumps the
    /// bank's epoch: it raises the open row's demand, which can turn
    /// another queued request's conflict precharge into a wait.
    pub fn classify_arrival(&mut self, flat: usize, row: u32) -> RowOutcome {
        let outcome = match self.banks[flat].open_row {
            Some(r) if r == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Closed,
        };
        match outcome {
            RowOutcome::Hit => {
                self.stats.row_hits += 1;
                self.touch_bank(flat);
            }
            RowOutcome::Conflict => self.stats.row_conflicts += 1,
            RowOutcome::Closed => self.stats.row_closed += 1,
        }
        if let Some(tel) = &mut self.telemetry {
            match outcome {
                RowOutcome::Hit => tel.heat.row_hits[flat] += 1,
                RowOutcome::Conflict => tel.heat.row_conflicts[flat] += 1,
                RowOutcome::Closed => tel.heat.row_closed[flat] += 1,
            }
        }
        outcome
    }

    /// Can a column command (RD if `!is_write`, else WR) to `row` issue?
    pub fn can_column_flat(&self, flat: usize, row: u32, is_write: bool, now: Cycle) -> bool {
        let rank = self.rank_of(flat);
        if now < self.next_cmd
            || now < self.next_col_cmd
            || self.in_refresh(rank, now)
            || self.rank_unavailable(rank, now)
            || !self.banks[flat].can_column(row, now)
        {
            return false;
        }
        let burst_start = now + if is_write { self.t.t_cwl } else { self.t.t_aa };
        if burst_start < self.data_free {
            return false;
        }
        // Write-to-read turnaround within the rank.
        if !is_write && now < self.ranks[rank].last_wr_data_end + self.t.t_wtr {
            return false;
        }
        // SALP: subarrays of a bank share the global bitlines; a column
        // command from a *different* subarray waits for the in-flight
        // burst to release them (the owner may keep streaming).
        if self.rules.shared_global_bitlines {
            let bank = self.bank_of(flat);
            if self.gbl_owner[bank] != flat as u32 && now < self.gbl_busy_until[bank] {
                return false;
            }
        }
        true
    }

    /// Record that `flat`'s column burst occupies its bank's shared global
    /// bitlines until `data_end`. No-op unless the variant shares them.
    fn take_gbl(&mut self, flat: usize, data_end: Cycle) {
        if self.rules.shared_global_bitlines {
            let bank = self.bank_of(flat);
            self.gbl_owner[bank] = flat as u32;
            self.gbl_busy_until[bank] = data_end;
        }
    }

    /// Issue a RD; returns the cycle the full 64 B line has transferred.
    pub fn read_flat(&mut self, flat: usize, now: Cycle) -> Cycle {
        let rank = self.rank_of(flat);
        self.ranks[rank].last_activity = now;
        let done = self.banks[flat].read(now, &self.t);
        self.data_free = now + self.t.t_aa + self.t.t_burst;
        self.take_gbl(flat, self.data_free);
        self.next_col_cmd = now + self.t.t_ccd;
        self.next_cmd = now + self.t.t_cmd;
        self.touch_bank(flat);
        self.refresh_floors();
        self.stats.reads += 1;
        self.stats.data_bus_busy += self.t.t_burst;
        done
    }

    /// Issue a WR; returns the cycle write data is fully latched.
    pub fn write_flat(&mut self, flat: usize, now: Cycle) -> Cycle {
        let rank = self.rank_of(flat);
        self.ranks[rank].last_activity = now;
        let done = self.banks[flat].write(now, &self.t);
        self.ranks[rank].last_wr_data_end = done;
        self.data_free = now + self.t.t_cwl + self.t.t_burst;
        self.take_gbl(flat, self.data_free);
        self.next_col_cmd = now + self.t.t_ccd;
        self.next_cmd = now + self.t.t_cmd;
        self.touch_bank(flat);
        self.refresh_floors();
        self.stats.writes += 1;
        self.stats.data_bus_busy += self.t.t_burst;
        done
    }

    /// Can a PRE to `flat` issue at `now`?
    pub fn can_precharge_flat(&self, flat: usize, now: Cycle) -> bool {
        let rank = self.rank_of(flat);
        now >= self.next_cmd
            && !self.in_refresh(rank, now)
            && !self.rank_unavailable(rank, now)
            && self.banks[flat].can_precharge(now)
    }

    /// Issue a PRE.
    pub fn precharge_flat(&mut self, flat: usize, now: Cycle) {
        debug_assert!(self.can_precharge_flat(flat, now));
        let rank = self.rank_of(flat);
        self.ranks[rank].last_activity = now;
        self.banks[flat].precharge(now, &self.t);
        self.next_cmd = now + self.t.t_cmd;
        self.touch_bank(flat);
        self.refresh_floors();
        self.stats.precharges += 1;
    }

    /// Oracle precharge for the *perfect* page-management predictor
    /// (Fig. 13 "P"): retroactively treat the bank as if a PRE had been
    /// issued at the earliest legal time after its last access. Succeeds
    /// (returns `true`) only when that hypothetical PRE would already have
    /// completed by `now`; the PRE is still counted (its energy was spent).
    pub fn oracle_precharge_flat(&mut self, flat: usize, now: Cycle) -> bool {
        let t_rp = self.t.t_rp;
        let b = &mut self.banks[flat];
        if b.open_row.is_some() {
            let ready = b.next_pre.saturating_add(t_rp);
            if now >= ready {
                b.open_row = None;
                b.next_act = ready;
                b.next_col = Cycle::MAX;
                self.touch_bank(flat);
                self.stats.precharges += 1;
                return true;
            }
        }
        false
    }

    /// Can a precharge-all (PREA) issue to `rank` at `now`? Legal once the
    /// command bus is free and every open μbank has satisfied its
    /// precharge preconditions (tRAS/tRTP/tWR). PREA is how a controller
    /// drains a rank before refresh without spending one command slot per
    /// open row — essential with thousands of μbank row buffers.
    pub fn can_precharge_all(&self, rank: usize, now: Cycle) -> bool {
        if now < self.next_cmd {
            return false;
        }
        let lo = rank * self.ubanks_per_rank;
        self.banks[lo..lo + self.ubanks_per_rank]
            .iter()
            .all(|b| b.open_row.is_none() || now >= b.next_pre)
    }

    /// Issue a PREA: close every open row of `rank` with one command.
    /// Each closed row still pays precharge energy (counted in stats).
    pub fn precharge_all(&mut self, rank: usize, now: Cycle) {
        debug_assert!(self.can_precharge_all(rank, now));
        let t = self.t;
        let lo = rank * self.ubanks_per_rank;
        for b in &mut self.banks[lo..lo + self.ubanks_per_rank] {
            if b.open_row.is_some() {
                b.precharge(now, &t);
                self.stats.precharges += 1;
            }
        }
        self.next_cmd = now + self.t.t_cmd;
        self.touch_rank(rank);
        self.refresh_floors();
    }

    /// Is a refresh overdue for `rank` at `now`?
    pub fn refresh_due(&self, rank: usize, now: Cycle) -> bool {
        self.refresh_enabled && now >= self.ranks[rank].refresh_due
    }

    /// Cycle at which `rank`'s next refresh becomes due (`None` when
    /// refresh is disabled). Lets the controller report how long it is
    /// provably inert so the simulator can skip its idle ticks.
    pub fn next_refresh_at(&self, rank: usize) -> Option<Cycle> {
        self.refresh_enabled.then(|| self.ranks[rank].refresh_due)
    }

    /// All μbanks of `rank` precharged (required before REF)?
    pub fn rank_all_idle(&self, rank: usize) -> bool {
        let lo = rank * self.ubanks_per_rank;
        self.banks[lo..lo + self.ubanks_per_rank]
            .iter()
            .all(|b| b.is_idle())
    }

    /// Flat indices of every μbank (all ranks) currently holding an open
    /// row. Used at measurement boundaries: a row opened before the
    /// boundary and precharged after it must be attributed to one side
    /// consistently for ACT/PRE accounting to balance.
    pub fn open_ubanks(&self) -> Vec<usize> {
        (0..self.banks.len())
            .filter(|&f| self.banks[f].open_row.is_some())
            .collect()
    }

    /// Issue an all-bank refresh to `rank`. All banks must be idle.
    pub fn refresh(&mut self, rank: usize, now: Cycle) {
        debug_assert!(self.rank_all_idle(rank), "REF with open banks");
        let done = now + self.t.t_rfc;
        let lo = rank * self.ubanks_per_rank;
        for b in &mut self.banks[lo..lo + self.ubanks_per_rank] {
            b.refresh_until(done);
        }
        let rs = &mut self.ranks[rank];
        rs.last_activity = now;
        rs.refresh_until = done;
        rs.refresh_due += self.t.t_refi;
        self.next_cmd = now + self.t.t_cmd;
        self.touch_rank(rank);
        self.refresh_floors();
        self.stats.refreshes += 1;
    }

    /// Can a patrol-scrub command issue to μbank `flat` at `now`? A scrub
    /// is an internal read-correct-restore RAS cycle on an *idle* μbank:
    /// it needs the command bus, an awake non-refreshing rank, and a
    /// precharged bank ready to activate.
    pub fn can_scrub_flat(&self, flat: usize, now: Cycle) -> bool {
        let rank = self.rank_of(flat);
        now >= self.next_cmd
            && !self.in_refresh(rank, now)
            && !self.rank_unavailable(rank, now)
            && self.banks[flat].open_row.is_none()
            && self.banks[flat].can_activate(now)
    }

    /// Issue a scrub to `flat`: the μbank is occupied for tRC (the
    /// internal ACT + correct + restore + PRE sequence) and the command
    /// bus for one slot. Like REF — and unlike demand ACTs — the scrub's
    /// internal activation is not charged against tRRD/tFAW (documented
    /// modeling shortcut; scrub rates are orders of magnitude below the
    /// activation-window limits).
    pub fn scrub_flat(&mut self, flat: usize, now: Cycle) {
        debug_assert!(self.can_scrub_flat(flat, now));
        let rank = self.rank_of(flat);
        self.ranks[rank].last_activity = now;
        self.banks[flat].refresh_until(now + self.t.t_rc());
        self.next_cmd = now + self.t.t_cmd;
        self.touch_bank(flat);
        self.refresh_floors();
        self.stats.scrubs += 1;
    }

    /// Fraction of the refresh interval elapsed for `rank` at `now`, in
    /// [0, 1] — the retention-decay age the fault model scales its
    /// retention flip rate by. With refresh disabled cells are maximally
    /// stale (1.0).
    pub fn refresh_age_frac(&self, rank: usize, now: Cycle) -> f64 {
        if !self.refresh_enabled {
            return 1.0;
        }
        let remaining = self.ranks[rank]
            .refresh_due
            .saturating_sub(now)
            .min(self.t.t_refi);
        1.0 - remaining as f64 / self.t.t_refi as f64
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Open row of the μbank at flat index `flat`.
    pub fn open_row_flat(&self, flat: usize) -> Option<u32> {
        self.banks[flat].open_row
    }

    // ---- Earliest-legal-cycle duals of the `can_*` predicates. ----
    //
    // Every `can_*` check is a conjunction of monotone thresholds on `now`
    // (`now >= timer`), so with the channel state frozen each predicate has
    // an exact first-true cycle: the max of its timers. Each dual splits
    // into `max(floor, local)`: the *floor* holds the timers the whole rank
    // shares (command bus, tCCD, data bus, tWTR, tRRD, tFAW, refresh and
    // power-down readiness) and moves with every command; the *local* part
    // reads one μbank (its open row and timers, SALP's global-bitline
    // release) and moves only when that μbank's bank epoch does. The
    // controller's `next_event` folds these to prove how long it can sleep;
    // the duals below MUST stay in lockstep with their predicates (pinned
    // by the `earliest_*_duals_are_exact` tests).

    /// Earliest cycle `rank` can accept any command: end of an in-flight
    /// refresh and of a power-down exit (tXP). A rank that is powered down
    /// stays unavailable until an external wake event, so it reports
    /// "never" — callers bail out of skipping before that matters.
    fn rank_ready_at(&self, rank: usize) -> Cycle {
        let rs = &self.ranks[rank];
        if rs.powered_down {
            return Cycle::MAX;
        }
        rs.refresh_until.max(rs.wake_ready)
    }

    /// The rank-wide floors of `rank`, computed from the timers.
    fn floors_from_scratch(&self, rank: usize) -> [Cycle; 4] {
        let rs = &self.ranks[rank];
        let ready = self.next_cmd.max(self.rank_ready_at(rank));
        let column = ready.max(self.next_col_cmd);
        // `burst_start = now + lat >= data_free` solved for `now`.
        let read = column
            .max(self.data_free.saturating_sub(self.t.t_aa))
            .max(rs.last_wr_data_end + self.t.t_wtr);
        let write = column.max(self.data_free.saturating_sub(self.t.t_cwl));
        let mut activate = ready;
        if let Some(a) = rs.last_act {
            activate = activate.max(a + self.t.t_rrd);
        }
        if rs.act_window.len() == FAW_ACTS {
            activate = activate.max(rs.act_window[0] + self.t.t_faw);
        }
        [read, write, activate, ready]
    }

    fn refresh_floors(&mut self) {
        for rank in 0..self.ranks.len() {
            self.floors[rank] = self.floors_from_scratch(rank);
        }
    }

    /// Per rank, the rank-wide floor of each command class's dual, indexed
    /// by [`CmdClass`]: `earliest_*` = `max(floor, local_*)`.
    pub fn floors(&self) -> &[[Cycle; 4]] {
        &self.floors
    }

    /// Compare every rank's stored floors with a recomputation from the
    /// timers and report the first disagreement (a test hook).
    #[doc(hidden)]
    pub fn check_floors(&self) -> Result<(), String> {
        for rank in 0..self.ranks.len() {
            let want = self.floors_from_scratch(rank);
            if self.floors[rank] != want {
                return Err(format!(
                    "rank {rank} floors {:?}, recomputed {want:?}",
                    self.floors[rank]
                ));
            }
        }
        Ok(())
    }

    /// μbank-local part of [`Channel::earliest_activate_flat`]: `next_act`,
    /// or `Cycle::MAX` while the μbank holds an open row.
    pub fn local_activate_flat(&self, flat: usize) -> Cycle {
        let b = &self.banks[flat];
        if b.open_row.is_some() {
            return Cycle::MAX;
        }
        b.next_act
    }

    /// μbank-local part of [`Channel::earliest_column_flat`]: `next_col`
    /// and, when the variant shares global bitlines, the in-flight burst's
    /// release for a non-owner subarray. `Cycle::MAX` while precharged.
    pub fn local_column_flat(&self, flat: usize) -> Cycle {
        let b = &self.banks[flat];
        if b.open_row.is_none() {
            return Cycle::MAX;
        }
        let mut t = b.next_col;
        if self.rules.shared_global_bitlines {
            let bank = self.bank_of(flat);
            if self.gbl_owner[bank] != flat as u32 {
                t = t.max(self.gbl_busy_until[bank]);
            }
        }
        t
    }

    /// μbank-local part of [`Channel::earliest_precharge_flat`]:
    /// `next_pre`, or `Cycle::MAX` while the μbank is precharged.
    pub fn local_precharge_flat(&self, flat: usize) -> Cycle {
        let b = &self.banks[flat];
        if b.open_row.is_none() {
            return Cycle::MAX;
        }
        b.next_pre
    }

    /// Earliest cycle [`Channel::can_activate_flat`] becomes true with the
    /// channel state frozen. `Cycle::MAX` while the μbank holds an open row
    /// (a PRE — itself a folded event — must land first).
    pub fn earliest_activate_flat(&self, flat: usize) -> Cycle {
        let floor = self.floors[self.rank_of(flat)][CmdClass::Activate as usize];
        self.local_activate_flat(flat).max(floor)
    }

    /// Earliest cycle a column command to `flat`'s currently open row
    /// becomes legal ([`Channel::can_column_flat`] dual). The caller must
    /// have checked that the open row matches the request; `Cycle::MAX`
    /// while the μbank is precharged.
    pub fn earliest_column_flat(&self, flat: usize, is_write: bool) -> Cycle {
        let class = if is_write {
            CmdClass::Write
        } else {
            CmdClass::Read
        };
        let floor = self.floors[self.rank_of(flat)][class as usize];
        self.local_column_flat(flat).max(floor)
    }

    /// Earliest cycle [`Channel::can_activate_row_flat`] becomes true with
    /// the channel state frozen ([`Channel::earliest_activate_flat`] plus
    /// the variant's structural rules). A structural blocker is pure bank
    /// *state* — it only clears when some PRE lands, itself a folded
    /// event — so a blocked ACT reports `Cycle::MAX`, exactly like an ACT
    /// into a μbank that still holds an open row.
    pub fn earliest_activate_row_flat(&self, flat: usize, row: u32) -> Cycle {
        if self.act_blocker(flat, row).is_some() {
            return Cycle::MAX;
        }
        self.earliest_activate_flat(flat)
    }

    /// Earliest cycle [`Channel::can_precharge_flat`] becomes true;
    /// `Cycle::MAX` while the μbank is already precharged.
    pub fn earliest_precharge_flat(&self, flat: usize) -> Cycle {
        let floor = self.floors[self.rank_of(flat)][CmdClass::Precharge as usize];
        self.local_precharge_flat(flat).max(floor)
    }

    /// Earliest cycle [`Channel::can_precharge_all`] becomes true for
    /// `rank` (command bus free and every open μbank past its tRAS/tRTP/tWR
    /// precharge preconditions — PREA deliberately checks neither refresh
    /// nor power-down state, and neither does this dual).
    pub fn earliest_precharge_all(&self, rank: usize) -> Cycle {
        let lo = rank * self.ubanks_per_rank;
        let mut t = self.next_cmd;
        for b in &self.banks[lo..lo + self.ubanks_per_rank] {
            if b.open_row.is_some() {
                t = t.max(b.next_pre);
            }
        }
        t
    }
}

// Location-based API used by doctests/examples; forwards to the flat API.
// These require the caller's `MemConfig` to map the location, so they are
// implemented as a small extension trait-free impl block taking `&MemConfig`
// implicitly via dimensions stored at construction time.
impl Channel {
    /// True if an ACT for `loc` may issue now. `loc.ubank_flat` uses the
    /// same dimension math as the channel, so the index is consistent for
    /// the config the channel was built from.
    pub fn can_activate(&self, loc: &Location, now: Cycle) -> bool {
        self.can_activate_flat(self.flat_from_loc(loc), now)
    }

    pub fn activate(&mut self, loc: &Location, now: Cycle) {
        self.activate_flat(self.flat_from_loc(loc), loc.row, now)
    }

    pub fn can_column(&self, loc: &Location, is_write: bool, now: Cycle) -> bool {
        self.can_column_flat(self.flat_from_loc(loc), loc.row, is_write, now)
    }

    pub fn read(&mut self, loc: &Location, now: Cycle) -> Cycle {
        self.read_flat(self.flat_from_loc(loc), now)
    }

    pub fn write(&mut self, loc: &Location, now: Cycle) -> Cycle {
        self.write_flat(self.flat_from_loc(loc), now)
    }

    pub fn can_precharge(&self, loc: &Location, now: Cycle) -> bool {
        self.can_precharge_flat(self.flat_from_loc(loc), now)
    }

    pub fn precharge(&mut self, loc: &Location, now: Cycle) {
        self.precharge_flat(self.flat_from_loc(loc), now)
    }

    /// Recompute a flat μbank index from the channel's own stored
    /// dimensions, matching [`Location::ubank_flat`] for the config the
    /// channel was built from.
    fn flat_from_loc(&self, loc: &Location) -> usize {
        let per_bank = self.ubanks_per_rank / self.banks_per_rank;
        let within = loc.b as usize * self.n_w + loc.w as usize;
        (loc.rank as usize * self.banks_per_rank + loc.bank as usize) * per_bank + within
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn setup(nw: usize, nb: usize) -> (MemConfig, Channel) {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(nw, nb)
            .with_refresh(false);
        let ch = Channel::new(&cfg);
        (cfg, ch)
    }

    fn loc(bank: u8, w: u8, b: u8, row: u32) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank,
            w,
            b,
            row,
            col: 0,
        }
    }

    #[test]
    fn channel_sizes_track_config() {
        let (_, ch) = setup(4, 4);
        assert_eq!(ch.num_ubanks(), 8 * 16);
        assert_eq!(ch.num_ranks(), 1);
    }

    #[test]
    fn command_bus_serializes_commands() {
        let (cfg, mut ch) = setup(2, 2);
        let a = loc(0, 0, 0, 1);
        let b = loc(1, 0, 0, 1);
        let fa = a.ubank_flat(&cfg);
        let fb = b.ubank_flat(&cfg);
        assert!(ch.can_activate_flat(fa, 0));
        ch.activate_flat(fa, 1, 0);
        // Same cycle: bus busy.
        assert!(!ch.can_activate_flat(fb, 0));
        let t_cmd = ch.timings().t_cmd;
        let t_rrd = ch.timings().t_rrd;
        // tRRD also applies (same rank), which dominates tCMD.
        assert!(!ch.can_activate_flat(fb, t_cmd.min(t_rrd) - 1));
        assert!(ch.can_activate_flat(fb, t_rrd.max(t_cmd)));
    }

    #[test]
    fn tfaw_limits_burst_of_activates() {
        let (cfg, mut ch) = setup(4, 4);
        let t = *ch.timings();
        let mut now = 0;
        // Fire 4 ACTs as fast as tRRD allows.
        for i in 0..4u8 {
            let l = loc(i, 0, 0, 0);
            let f = l.ubank_flat(&cfg);
            while !ch.can_activate_flat(f, now) {
                now += 1;
            }
            ch.activate_flat(f, 0, now);
        }
        // Fifth ACT must wait for the tFAW window.
        let l5 = loc(4, 0, 0, 0);
        let f5 = l5.ubank_flat(&cfg);
        let mut t5 = now;
        while !ch.can_activate_flat(f5, t5) {
            t5 += 1;
        }
        assert!(t5 >= t.t_faw, "fifth ACT at {t5} < tFAW {}", t.t_faw);
    }

    #[test]
    fn data_bus_serializes_bursts() {
        let (cfg, mut ch) = setup(1, 1);
        let t = *ch.timings();
        let a = loc(0, 0, 0, 0);
        let b = loc(1, 0, 0, 0);
        let (fa, fb) = (a.ubank_flat(&cfg), b.ubank_flat(&cfg));
        ch.activate_flat(fa, 0, 0);
        let mut now = t.t_rrd;
        while !ch.can_activate_flat(fb, now) {
            now += 1;
        }
        ch.activate_flat(fb, 0, now);
        // Read both once ready; second read must wait tCCD for the bus.
        let mut r1 = 0;
        while !ch.can_column_flat(fa, 0, false, r1) {
            r1 += 1;
        }
        let d1 = ch.read_flat(fa, r1);
        let mut r2 = r1;
        while !ch.can_column_flat(fb, 0, false, r2) {
            r2 += 1;
        }
        let d2 = ch.read_flat(fb, r2);
        assert!(r2 >= r1 + t.t_ccd);
        assert!(d2 >= d1 + t.t_burst, "bursts overlap: {d1} {d2}");
    }

    #[test]
    fn write_to_read_turnaround() {
        let (cfg, mut ch) = setup(1, 1);
        let t = *ch.timings();
        let a = loc(0, 0, 0, 0);
        let fa = a.ubank_flat(&cfg);
        ch.activate_flat(fa, 0, 0);
        let w_at = t.t_rcd;
        let w_done = ch.write_flat(fa, w_at);
        let mut r_at = w_at + t.t_ccd;
        while !ch.can_column_flat(fa, 0, false, r_at) {
            r_at += 1;
        }
        assert!(
            r_at >= w_done + t.t_wtr,
            "RD at {r_at} before tWTR after {w_done}"
        );
    }

    #[test]
    fn refresh_blocks_rank_then_releases() {
        let cfg = MemConfig::lpddr_tsi().with_ubanks(1, 1); // refresh on
        let mut ch = Channel::new(&cfg);
        let t = *ch.timings();
        let a = loc(0, 0, 0, 0);
        let fa = a.ubank_flat(&cfg);
        assert!(!ch.refresh_due(0, 0));
        assert!(ch.refresh_due(0, t.t_refi));
        assert!(ch.rank_all_idle(0));
        ch.refresh(0, t.t_refi);
        assert!(!ch.can_activate_flat(fa, t.t_refi + t.t_rfc - 1));
        assert!(ch.can_activate_flat(fa, t.t_refi + t.t_rfc));
        // Next deadline moved one interval out.
        assert!(!ch.refresh_due(0, t.t_refi + t.t_rfc));
        assert!(ch.refresh_due(0, 2 * t.t_refi));
    }

    #[test]
    fn powerdown_enters_after_idle_and_wakes_with_txp() {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(1, 1)
            .with_refresh(false)
            .with_powerdown(1000);
        let mut ch = Channel::new(&cfg);
        let t = *ch.timings();
        let l = loc(0, 0, 0, 3);
        let f = l.ubank_flat(&cfg);
        // Activity at t=0, then idle.
        ch.activate_flat(f, 3, 0);
        let mut pre_at = t.t_ras;
        while !ch.can_precharge_flat(f, pre_at) {
            pre_at += 1;
        }
        ch.precharge_flat(f, pre_at);
        // Not yet powered down before the idle threshold.
        ch.update_powerdown(0, pre_at + 500, false);
        assert!(!ch.is_powered_down(0));
        // After the threshold: enters power-down.
        ch.update_powerdown(0, pre_at + 1001, false);
        assert!(ch.is_powered_down(0));
        assert_eq!(ch.stats.powerdown_entries, 1);
        // Commands are rejected while powered down.
        assert!(!ch.can_activate_flat(f, pre_at + 1500));
        assert_eq!(ch.earliest_activate_flat(f), Cycle::MAX);
        // Work arrives: wake; tXP gates the first command.
        let wake_at = pre_at + 2000;
        ch.update_powerdown(0, wake_at, true);
        assert!(!ch.is_powered_down(0));
        assert!(!ch.can_activate_flat(f, wake_at + t.t_xp - 1));
        assert!(ch.can_activate_flat(f, wake_at + t.t_xp));
        assert_eq!(ch.earliest_activate_flat(f), wake_at + t.t_xp);
        // Power-down residency was accounted.
        assert_eq!(ch.stats.powerdown_rank_cycles, wake_at - (pre_at + 1001));
    }

    #[test]
    fn powerdown_disabled_by_default() {
        let cfg = MemConfig::lpddr_tsi().with_ubanks(1, 1).with_refresh(false);
        let mut ch = Channel::new(&cfg);
        ch.update_powerdown(0, 1_000_000, false);
        assert!(!ch.is_powered_down(0));
        assert_eq!(ch.stats.powerdown_entries, 0);
    }

    #[test]
    fn powerdown_requires_all_banks_idle() {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(1, 1)
            .with_refresh(false)
            .with_powerdown(100);
        let mut ch = Channel::new(&cfg);
        let l = loc(2, 0, 0, 9);
        let f = l.ubank_flat(&cfg);
        ch.activate_flat(f, 9, 0);
        // Bank open (row active): rank must not power down even when the
        // controller reports no queued work.
        ch.update_powerdown(0, 10_000, false);
        assert!(!ch.is_powered_down(0));
    }

    #[test]
    fn microbanks_of_same_bank_hold_independent_rows() {
        let (cfg, mut ch) = setup(4, 4);
        let t = *ch.timings();
        let mut now = 0;
        // Open a different row in every μbank of bank 0.
        let mut flats = Vec::new();
        for w in 0..4u8 {
            for b in 0..4u8 {
                let l = loc(0, w, b, (w as u32) * 16 + b as u32);
                let f = l.ubank_flat(&cfg);
                while !ch.can_activate_flat(f, now) {
                    now += 1;
                }
                ch.activate_flat(f, l.row, now);
                flats.push((f, l.row));
            }
        }
        // tFAW throttles the opening burst but all 16 rows end up open.
        for (f, row) in flats {
            assert_eq!(ch.open_row_flat(f), Some(row));
        }
        assert!(now >= 3 * t.t_faw, "16 ACTs cross at least 3 tFAW windows");
        assert_eq!(ch.stats.activates, 16);
    }

    /// With the channel state frozen, each `earliest_*` dual must be the
    /// exact first-true cycle of its `can_*` predicate: false strictly
    /// before it, true at it (checked over a window that spans tRC, tFAW,
    /// and the data-bus/turnaround constraints).
    fn assert_dual_exact(
        tag: &str,
        earliest: Cycle,
        horizon: Cycle,
        mut can: impl FnMut(Cycle) -> bool,
    ) {
        for now in 0..horizon {
            assert_eq!(
                can(now),
                now >= earliest,
                "{tag}: can(now={now}) disagrees with earliest={earliest}"
            );
        }
    }

    #[test]
    fn earliest_duals_are_exact_across_command_mix() {
        let (cfg, mut ch) = setup(2, 2);
        let t = *ch.timings();
        let horizon = 4 * (t.t_rc() + t.t_faw + t.t_refi.min(10_000));
        let la = loc(0, 0, 0, 7);
        let lb = loc(1, 1, 1, 3);
        let fa = la.ubank_flat(&cfg);
        let fb = lb.ubank_flat(&cfg);
        // Drive a little history so every timer (tRRD window, data bus,
        // write-to-read turnaround, tRAS) is armed, checking the dual
        // against the predicate at each step.
        let mut now = 0;
        ch.activate_flat(fa, la.row, now);
        assert_dual_exact(
            "act b after act a",
            ch.earliest_activate_flat(fb),
            horizon,
            |c| ch.can_activate_flat(fb, c),
        );
        now = ch.earliest_activate_flat(fb);
        ch.activate_flat(fb, lb.row, now);
        assert_dual_exact(
            "wr a after two acts",
            ch.earliest_column_flat(fa, true),
            horizon,
            |c| ch.can_column_flat(fa, la.row, true, c),
        );
        now = ch.earliest_column_flat(fa, true);
        ch.write_flat(fa, now);
        // Read on the sibling bank now faces tCCD + data bus + tWTR.
        assert_dual_exact(
            "rd b after wr a",
            ch.earliest_column_flat(fb, false),
            horizon,
            |c| ch.can_column_flat(fb, lb.row, false, c),
        );
        now = ch.earliest_column_flat(fb, false);
        ch.read_flat(fb, now);
        // Precharge duals: tRAS on a, read-to-precharge on b.
        assert_dual_exact("pre a", ch.earliest_precharge_flat(fa), horizon, |c| {
            ch.can_precharge_flat(fa, c)
        });
        assert_dual_exact("prea rank 0", ch.earliest_precharge_all(0), horizon, |c| {
            ch.can_precharge_all(0, c)
        });
        now = ch.earliest_precharge_all(0);
        ch.precharge_all(0, now);
        // Closed banks: column dual reports "never", activate is finite.
        assert_eq!(ch.earliest_column_flat(fa, false), Cycle::MAX);
        assert_eq!(ch.earliest_precharge_flat(fa), Cycle::MAX);
        assert_dual_exact(
            "re-act a after prea",
            ch.earliest_activate_flat(fa),
            horizon,
            |c| ch.can_activate_flat(fa, c),
        );
    }

    #[test]
    fn earliest_activate_saturates_tfaw_window() {
        let (cfg, mut ch) = setup(4, 4);
        let mut now = 0;
        // Fill the 4-deep ACT window, then the dual must report the tFAW
        // edge for a fifth activate.
        for i in 0..4u8 {
            let l = loc(0, i % 4, i / 4, i as u32);
            let f = l.ubank_flat(&cfg);
            now = ch.earliest_activate_flat(f).max(now);
            ch.activate_flat(f, l.row, now);
        }
        let l5 = loc(1, 0, 0, 42);
        let f5 = l5.ubank_flat(&cfg);
        let horizon = now + 2 * ch.timings().t_faw;
        assert_dual_exact(
            "5th act across tFAW",
            ch.earliest_activate_flat(f5),
            horizon,
            |c| ch.can_activate_flat(f5, c),
        );
    }

    fn setup_variant(v: crate::variant::DeviceVariant) -> (MemConfig, Channel) {
        let cfg = MemConfig::lpddr_tsi().with_variant(v).with_refresh(false);
        cfg.validate().expect("variant config valid");
        (cfg.clone(), Channel::new(&cfg))
    }

    #[test]
    fn default_variants_have_no_structural_blockers() {
        let (cfg, mut ch) = setup(4, 4);
        assert!(!ch.variant_rules().any());
        let mut now = 0;
        for b in 0..4u8 {
            let l = loc(0, 0, b, b as u32);
            let f = l.ubank_flat(&cfg);
            now = ch.earliest_activate_flat(f).max(now);
            ch.activate_flat(f, l.row, now);
        }
        // Plenty of open siblings, arbitrary rows: never a blocker, and
        // the row-aware predicate degenerates to the row-agnostic one.
        let l = loc(0, 1, 0, 99);
        let f = l.ubank_flat(&cfg);
        assert_eq!(ch.act_blocker(f, 99), None);
        assert_eq!(
            ch.earliest_activate_row_flat(f, 99),
            ch.earliest_activate_flat(f)
        );
    }

    #[test]
    fn salp_shared_bitlines_delay_sibling_columns() {
        use crate::variant::{DeviceVariant, SalpMode};
        let (cfg, mut ch) = setup_variant(DeviceVariant::Salp {
            subarrays: 2,
            mode: SalpMode::Masa,
        });
        let t = *ch.timings();
        let l0 = loc(0, 0, 0, 7);
        let l1 = loc(0, 0, 1, 3);
        let (f0, f1) = (l0.ubank_flat(&cfg), l1.ubank_flat(&cfg));
        // MASA: both subarrays of bank 0 may hold open rows.
        let mut now = 0;
        ch.activate_flat(f0, l0.row, now);
        now = ch.earliest_activate_row_flat(f1, l1.row);
        assert_ne!(now, Cycle::MAX, "MASA allows a second open subarray");
        ch.activate_flat(f1, l1.row, now);
        // Subarray 0 streams a read; its burst owns the global bitlines.
        let r0 = ch.earliest_column_flat(f0, false);
        let d0 = ch.read_flat(f0, r0);
        assert_eq!(d0, r0 + t.t_aa + t.t_burst);
        // The owner's next column sees only tCCD/data-bus limits; the
        // sibling subarray additionally waits for the burst to release
        // the shared bitlines (strictly later).
        let own_next = ch.earliest_column_flat(f0, false);
        let sib_next = ch.earliest_column_flat(f1, false);
        assert!(sib_next >= d0, "sibling column before bitline release");
        assert!(own_next < sib_next, "owner should stream back-to-back");
        let horizon = d0 + 4 * t.t_rc();
        assert_dual_exact("salp sibling col", sib_next, horizon, |c| {
            ch.can_column_flat(f1, l1.row, false, c)
        });
    }

    #[test]
    fn salp1_open_row_limit_names_a_victim() {
        use crate::variant::{DeviceVariant, SalpMode};
        let (cfg, mut ch) = setup_variant(DeviceVariant::Salp {
            subarrays: 2,
            mode: SalpMode::Salp1,
        });
        let t = *ch.timings();
        let l0 = loc(0, 0, 0, 7);
        let l1 = loc(0, 0, 1, 3);
        let (f0, f1) = (l0.ubank_flat(&cfg), l1.ubank_flat(&cfg));
        ch.activate_flat(f0, l0.row, 0);
        // One row open: the sibling subarray is structurally blocked, and
        // the blocker names the open μbank as the victim to precharge.
        assert_eq!(ch.act_blocker(f1, l1.row), Some(f0));
        assert!(!ch.can_activate_row_flat(f1, l1.row, 10 * t.t_rc()));
        assert_eq!(ch.earliest_activate_row_flat(f1, l1.row), Cycle::MAX);
        // A different bank is unaffected (per-bank rule).
        let lb = loc(1, 0, 0, 5);
        let fb = lb.ubank_flat(&cfg);
        assert_eq!(ch.act_blocker(fb, lb.row), None);
        // Precharge the victim: the block clears and the dual is exact.
        let pre = ch.earliest_precharge_flat(f0);
        ch.precharge_flat(f0, pre);
        assert_eq!(ch.act_blocker(f1, l1.row), None);
        let horizon = pre + 4 * t.t_rc();
        assert_dual_exact(
            "salp1 act after victim pre",
            ch.earliest_activate_row_flat(f1, l1.row),
            horizon,
            |c| ch.can_activate_row_flat(f1, l1.row, c),
        );
    }

    #[test]
    fn sectored_decoder_blocks_other_rows_but_appends_same_row() {
        use crate::variant::DeviceVariant;
        let (cfg, mut ch) = setup_variant(DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 8,
        });
        let t = *ch.timings();
        // (nW, nB) = (2, 1): two wordline-group μbanks per bank.
        let l0 = loc(0, 0, 0, 5);
        let (f0, f1) = (l0.ubank_flat(&cfg), loc(0, 1, 0, 5).ubank_flat(&cfg));
        ch.activate_flat(f0, 5, 0);
        // Different row: the single row decoder is held at row 5.
        assert_eq!(ch.act_blocker(f1, 6), Some(f0));
        assert_eq!(ch.earliest_activate_row_flat(f1, 6), Cycle::MAX);
        // Same row: sector-append ACT, no PRE required.
        assert_eq!(ch.act_blocker(f1, 5), None);
        let horizon = 4 * (t.t_rc() + t.t_faw);
        assert_dual_exact(
            "sector append act",
            ch.earliest_activate_row_flat(f1, 5),
            horizon,
            |c| ch.can_activate_row_flat(f1, 5, c),
        );
        let at = ch.earliest_activate_row_flat(f1, 5);
        ch.activate_flat(f1, 5, at);
        // Both sectors now serve row 5 independently (no shared-bitline
        // rule for Sectored — each group has its own sense amps).
        assert_eq!(ch.open_row_flat(f0), Some(5));
        assert_eq!(ch.open_row_flat(f1), Some(5));
        let c1 = ch.earliest_column_flat(f1, false);
        ch.read_flat(f1, c1);
        let c0 = ch.earliest_column_flat(f0, false);
        assert_ne!(c0, Cycle::MAX);
    }

    #[test]
    fn earliest_duals_report_refresh_blackout() {
        let cfg = MemConfig::lpddr_tsi().with_ubanks(2, 2);
        let mut ch = Channel::new(&cfg);
        let due = ch.next_refresh_at(0).expect("refresh on");
        ch.refresh(0, due);
        let l = loc(0, 0, 0, 1);
        let f = l.ubank_flat(&cfg);
        // The rank is dark until tRFC elapses; the dual must not report a
        // cycle inside the blackout.
        assert_dual_exact(
            "act during refresh",
            ch.earliest_activate_flat(f),
            due + 2 * ch.timings().t_rfc,
            |c| ch.can_activate_flat(f, c),
        );
    }
}
