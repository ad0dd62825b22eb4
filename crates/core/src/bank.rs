//! Per-μbank timing state machine.
//!
//! Each μbank behaves like a conventional bank (§IV-A): it owns one row
//! buffer (the bitline sense amplifiers of its mat rows, selected by the
//! added latches) and enforces the intra-bank timing constraints —
//! tRCD (ACT→column), tRAS (ACT→PRE), tRP (PRE→ACT), tRTP (RD→PRE), and
//! tWR (write recovery→PRE). Inter-bank constraints (tRRD, tFAW, bus
//! occupancy, tCCD, turnarounds) live in [`crate::channel`].

use crate::timing::Timings;
use crate::Cycle;
use serde::{Deserialize, Serialize};

/// Timing state of one μbank. All `next_*` fields are earliest-legal issue
/// times in CPU cycles; `0` means "immediately".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MicrobankState {
    /// Currently open row, if any (the row buffer contents).
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT may issue (tRP after the last PRE, tRFC after
    /// a refresh).
    pub next_act: Cycle,
    /// Earliest cycle a column command may issue (tRCD after the ACT).
    pub next_col: Cycle,
    /// Earliest cycle a PRE may issue (max of tRAS, read-to-precharge, and
    /// write recovery).
    pub next_pre: Cycle,
}

impl MicrobankState {
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the bank is precharged (no open row).
    pub fn is_idle(&self) -> bool {
        self.open_row.is_none()
    }

    /// Earliest cycle an ACT may issue: `next_act`, or `Cycle::MAX` while
    /// a row is open (a PRE must land first).
    pub fn activate_at(&self) -> Cycle {
        if self.open_row.is_some() {
            return Cycle::MAX;
        }
        self.next_act
    }

    /// Earliest cycle a column command to the open row may issue:
    /// `next_col`, or `Cycle::MAX` while precharged. Whether the open row
    /// is the one a request wants is the caller's question.
    pub fn column_at(&self) -> Cycle {
        if self.open_row.is_none() {
            return Cycle::MAX;
        }
        self.next_col
    }

    /// Earliest cycle a PRE may issue: `next_pre`, or `Cycle::MAX` while
    /// precharged (precharging an idle bank is a no-op the controller
    /// never emits; the deadline forbids it to catch bugs).
    pub fn precharge_at(&self) -> Cycle {
        if self.open_row.is_none() {
            return Cycle::MAX;
        }
        self.next_pre
    }

    /// Issue an ACT at `now`, no earlier than [`Self::activate_at`].
    pub fn activate(&mut self, row: u32, now: Cycle, t: &Timings) {
        debug_assert!(self.activate_at() <= now, "illegal ACT at {now}");
        self.open_row = Some(row);
        self.next_col = now + t.t_rcd;
        self.next_pre = now + t.t_ras;
        // Guard against ACT while active: next_act only matters after PRE.
        self.next_act = Cycle::MAX;
    }

    /// Issue a RD at `now`; returns the cycle the last data beat arrives.
    pub fn read(&mut self, now: Cycle, t: &Timings) -> Cycle {
        debug_assert!(self.column_at() <= now, "illegal RD at {now}");
        self.next_pre = self.next_pre.max(now + t.t_rtp);
        now + t.t_aa + t.t_burst
    }

    /// Issue a WR at `now`; returns the cycle write data is fully latched.
    pub fn write(&mut self, now: Cycle, t: &Timings) -> Cycle {
        debug_assert!(self.column_at() <= now, "illegal WR at {now}");
        let data_end = now + t.t_cwl + t.t_burst;
        self.next_pre = self.next_pre.max(data_end + t.t_wr);
        data_end
    }

    /// Issue a PRE at `now`, no earlier than [`Self::precharge_at`].
    pub fn precharge(&mut self, now: Cycle, t: &Timings) {
        debug_assert!(self.precharge_at() <= now, "illegal PRE at {now}");
        self.open_row = None;
        self.next_act = now + t.t_rp;
        self.next_col = Cycle::MAX;
    }

    /// Refresh completed at `done`: bank is idle and may activate then.
    /// (`next_act` is always finite while the bank is precharged.)
    pub fn refresh_until(&mut self, done: Cycle) {
        debug_assert!(self.open_row.is_none(), "refresh with open row");
        self.next_act = self.next_act.max(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn t() -> Timings {
        TimingParams::lpddr_tsi().to_cycles()
    }

    #[test]
    fn fresh_bank_accepts_act_only() {
        let b = MicrobankState::new();
        assert_eq!(b.activate_at(), 0);
        assert_eq!(b.column_at(), Cycle::MAX);
        assert_eq!(b.precharge_at(), Cycle::MAX);
    }

    #[test]
    fn act_to_column_respects_trcd() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(5, 100, &t);
        assert_eq!(b.column_at(), 100 + t.t_rcd);
        assert_eq!(b.open_row, Some(5), "only the opened row may hit");
        assert_eq!(b.activate_at(), Cycle::MAX, "no ACT while a row is open");
    }

    #[test]
    fn act_to_pre_respects_tras() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        assert_eq!(b.precharge_at(), t.t_ras);
    }

    #[test]
    fn pre_to_act_respects_trp() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        b.precharge(t.t_ras, &t);
        assert_eq!(b.activate_at(), t.t_ras + t.t_rp);
        assert_eq!(b.column_at(), Cycle::MAX);
        assert_eq!(b.precharge_at(), Cycle::MAX);
    }

    #[test]
    fn read_pushes_out_precharge() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let rd_at = t.t_ras - 2; // read just before tRAS expires
        let _ = b.read(rd_at, &t);
        assert!(rd_at + t.t_rtp > t.t_ras, "tRTP extends beyond tRAS here");
        assert_eq!(b.precharge_at(), rd_at + t.t_rtp);
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let wr_at = t.t_rcd;
        let data_end = b.write(wr_at, &t);
        assert_eq!(data_end, wr_at + t.t_cwl + t.t_burst);
        assert_eq!(b.precharge_at(), data_end + t.t_wr);
    }

    #[test]
    fn row_hit_counter_tracks_open_row() {
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let _ = b.read(t.t_rcd, &t);
        let _ = b.read(t.t_rcd + t.t_ccd, &t);
        assert_eq!(b.open_row, Some(1), "reads keep the row open");
        b.precharge(b.next_pre, &t);
        assert!(b.is_idle());
    }

    #[test]
    fn state_is_four_words() {
        // The open row and three deadlines; a channel holds one per μbank.
        assert_eq!(std::mem::size_of::<MicrobankState>(), 32);
    }

    #[test]
    fn full_cycle_takes_at_least_trc() {
        // ACT@0 → earliest PRE @tRAS → earliest next ACT @tRAS+tRP = tRC.
        let t = t();
        let mut b = MicrobankState::new();
        b.activate(1, 0, &t);
        let pre_at = b.precharge_at();
        b.precharge(pre_at, &t);
        assert_eq!(b.activate_at(), t.t_rc());
    }
}
