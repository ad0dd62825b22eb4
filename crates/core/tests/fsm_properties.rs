//! Property tests: a random command driver that issues whatever the
//! channel's `earliest_*` deadlines allow (`earliest <= now`) must produce
//! a command history that satisfies every JEDEC-style timing constraint,
//! checked offline against the raw trace. This verifies the FSMs enforce
//! the protocol rather than merely claiming to.

use microbank_core::address::{AddressMap, Location};
use microbank_core::channel::Channel;
use microbank_core::config::MemConfig;
use microbank_core::timing::Timings;
use microbank_core::Cycle;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmd {
    Act { flat: usize, rank: usize, row: u32 },
    Rd { flat: usize, rank: usize },
    Wr { flat: usize, rank: usize },
    Pre { flat: usize },
}

/// Drive a channel with `steps` random issue attempts; return the trace of
/// (cycle, command) pairs actually issued.
fn random_drive(cfg: &MemConfig, seed: u64, steps: usize) -> (Vec<(Cycle, Cmd)>, Timings) {
    let map = AddressMap::new(cfg);
    let mut ch = Channel::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    let t = *ch.timings();
    let mut trace = Vec::new();
    let mut now: Cycle = 0;
    let lines = 1u64 << 14;
    for _ in 0..steps {
        // Random location within the channel.
        let addr = rng.gen_range(0..lines) * 64;
        let loc: Location = map.decode(addr);
        let flat = loc.ubank_flat(cfg);
        let rank = loc.rank as usize;
        match rng.gen_range(0..4) {
            0 => {
                if ch.earliest_activate_flat(flat) <= now {
                    ch.activate_flat(flat, loc.row, now);
                    trace.push((
                        now,
                        Cmd::Act {
                            flat,
                            rank,
                            row: loc.row,
                        },
                    ));
                }
            }
            1 => {
                // `Cycle::MAX` while precharged: a column command needs
                // an open row.
                if ch.earliest_column_flat(flat, false) <= now {
                    ch.read_flat(flat, now);
                    trace.push((now, Cmd::Rd { flat, rank }));
                }
            }
            2 => {
                // `Cycle::MAX` while precharged: a column command needs
                // an open row.
                if ch.earliest_column_flat(flat, true) <= now {
                    ch.write_flat(flat, now);
                    trace.push((now, Cmd::Wr { flat, rank }));
                }
            }
            _ => {
                if ch.earliest_precharge_flat(flat) <= now {
                    ch.precharge_flat(flat, now);
                    trace.push((now, Cmd::Pre { flat }));
                }
            }
        }
        now += rng.gen_range(1..4u64);
    }
    (trace, t)
}

/// Offline verification of every pairwise timing constraint in the trace.
fn verify_trace(trace: &[(Cycle, Cmd)], t: &Timings) -> Result<(), String> {
    // Per-bank state reconstruction.
    use std::collections::HashMap;
    let mut last_act: HashMap<usize, Cycle> = HashMap::new();
    let mut last_pre: HashMap<usize, Cycle> = HashMap::new();
    let mut last_rd: HashMap<usize, Cycle> = HashMap::new();
    let mut last_wr_end: HashMap<usize, Cycle> = HashMap::new();
    let mut open: HashMap<usize, bool> = HashMap::new();
    let mut rank_acts: HashMap<usize, Vec<Cycle>> = HashMap::new();
    let mut last_col: Option<Cycle> = None;
    let mut last_burst_end: Option<Cycle> = None;
    let err = |m: String| Err(m);

    for &(at, cmd) in trace {
        match cmd {
            Cmd::Act { flat, rank, .. } => {
                if *open.get(&flat).unwrap_or(&false) {
                    return err(format!("t={at}: ACT on open bank {flat}"));
                }
                if let Some(&p) = last_pre.get(&flat) {
                    if at < p + t.t_rp {
                        return err(format!("t={at}: tRP violation bank {flat}"));
                    }
                }
                let acts = rank_acts.entry(rank).or_default();
                if let Some(&prev) = acts.last() {
                    if at < prev + t.t_rrd {
                        return err(format!("t={at}: tRRD violation rank {rank}"));
                    }
                }
                if acts.len() >= 4 {
                    let fourth_back = acts[acts.len() - 4];
                    if at < fourth_back + t.t_faw {
                        return err(format!("t={at}: tFAW violation rank {rank}"));
                    }
                }
                acts.push(at);
                last_act.insert(flat, at);
                open.insert(flat, true);
            }
            Cmd::Rd { flat, .. } | Cmd::Wr { flat, .. } => {
                if !*open.get(&flat).unwrap_or(&false) {
                    return err(format!("t={at}: column on closed bank {flat}"));
                }
                let a = last_act[&flat];
                if at < a + t.t_rcd {
                    return err(format!("t={at}: tRCD violation bank {flat}"));
                }
                if let Some(c) = last_col {
                    if at < c + t.t_ccd {
                        return err(format!("t={at}: tCCD violation"));
                    }
                }
                let is_write = matches!(cmd, Cmd::Wr { .. });
                let burst_start = at + if is_write { t.t_cwl } else { t.t_aa };
                if let Some(end) = last_burst_end {
                    if burst_start < end {
                        return err(format!("t={at}: data bus overlap"));
                    }
                }
                last_burst_end = Some(burst_start + t.t_burst);
                last_col = Some(at);
                if is_write {
                    last_wr_end.insert(flat, at + t.t_cwl + t.t_burst);
                } else {
                    last_rd.insert(flat, at);
                }
            }
            Cmd::Pre { flat } => {
                if !*open.get(&flat).unwrap_or(&false) {
                    return err(format!("t={at}: PRE on closed bank {flat}"));
                }
                let a = last_act[&flat];
                if at < a + t.t_ras {
                    return err(format!("t={at}: tRAS violation bank {flat}"));
                }
                if let Some(&r) = last_rd.get(&flat) {
                    if at < r + t.t_rtp {
                        return err(format!("t={at}: tRTP violation bank {flat}"));
                    }
                }
                if let Some(&we) = last_wr_end.get(&flat) {
                    if at < we + t.t_wr {
                        return err(format!("t={at}: tWR violation bank {flat}"));
                    }
                }
                last_pre.insert(flat, at);
                open.insert(flat, false);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_command_streams_obey_all_timing_constraints(
        seed in 0u64..10_000,
        nw in prop::sample::select(vec![1usize, 2, 4, 8]),
        nb in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(nw, nb)
            .with_channels(1)
            .with_refresh(false);
        let (trace, t) = random_drive(&cfg, seed, 3000);
        prop_assert!(trace.len() > 50, "driver made no progress: {}", trace.len());
        if let Err(e) = verify_trace(&trace, &t) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn pcb_timing_also_verifies(seed in 0u64..1000) {
        let cfg = MemConfig::ddr3_pcb()
            .with_channels(1)
            .with_refresh(false);
        let (trace, t) = random_drive(&cfg, seed, 2000);
        prop_assert!(trace.len() > 50);
        if let Err(e) = verify_trace(&trace, &t) {
            prop_assert!(false, "{e}");
        }
    }

    #[test]
    fn command_counts_balance(seed in 0u64..1000) {
        let cfg = MemConfig::lpddr_tsi().with_ubanks(4, 4).with_channels(1).with_refresh(false);
        let (trace, _) = random_drive(&cfg, seed, 4000);
        let acts = trace.iter().filter(|(_, c)| matches!(c, Cmd::Act { .. })).count();
        let pres = trace.iter().filter(|(_, c)| matches!(c, Cmd::Pre { .. })).count();
        // Every PRE closes a previous ACT; open rows at the end account
        // for the difference.
        prop_assert!(pres <= acts);
        let cfg_banks = cfg.ubanks_per_channel();
        prop_assert!(acts - pres <= cfg_banks, "more dangling opens than banks");
    }
}
