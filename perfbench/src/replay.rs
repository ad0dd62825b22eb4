//! A layer-timed replay of the simulator's sequential, time-skipping drive.
//!
//! The simulator's own drive loop is private, so this module rebuilds it
//! from public calls only — `build_sources`, `CmpSystem::{tick, on_fill,
//! core_horizon, backlog_head_addr, account_skipped_cycles}` and
//! `MemoryController::{tick, take_completions, next_event, enqueue,
//! free_slots, account_skipped_ticks, account_rejected}` — and reads the
//! host clock around every call, so that drive time splits into layers
//! named after the crates that own them:
//!
//! * `workloads`: `next_instr` of each `SynthSource`, timed by wrapping
//!   the source in [`TimedSource`];
//! * `cpu`: `tick` and `on_fill` minus the time spent in nested
//!   `next_instr` and `submit` calls (self time), plus the horizon calls;
//! * `ctrl`: the controller slot (`tick`, its skipped-slot flush and
//!   `take_completions`), `next_event` with the other skip-side calls,
//!   and `enqueue` with its skipped-slot flush;
//! * `sim`: the drive glue, i.e. drive time inside no layer call: the
//!   fill-delivery heap, the wake fold, request routing and latency
//!   bookkeeping.
//!
//! The replay must stay behaviourally identical to `try_run` with time
//! skip on: the benchmark compares its committed counts, DRAM counters,
//! read-latency totals and queue occupancy with an untraced run and fails
//! the traced run on any difference.

use microbank_core::fxhash::FxHashMap;
use microbank_core::request::{MemRequest, ReqKind, TenantId};
use microbank_core::stats::DramStats;
use microbank_core::Cycle;
use microbank_cpu::instr::{Instr, InstrSource};
use microbank_cpu::system::{CmpSystem, MemPort, SubmittedReq};
use microbank_ctrl::controller::{Completion, MemoryController};
use microbank_sim::simulator::{SimConfig, SimResult};
use microbank_workloads::{build_sources, SynthSource};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Calls and busy time of every layer over one replayed run (warmup and
/// measured window together). Times are host nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct LayerLedger {
    /// `next_instr` calls (instructions generated).
    pub instrs: u64,
    pub next_instr_ns: u64,
    pub cpu_tick_self_ns: u64,
    pub cpu_on_fill_ns: u64,
    /// `core_horizon`, `backlog_head_addr` and `account_skipped_cycles`.
    pub cpu_horizon_ns: u64,
    pub submit_attempts: u64,
    pub submit_rejected: u64,
    /// Controller slots executed (`tick` called).
    pub ctrl_tick_calls: u64,
    /// Executed slots in which the controller issued a DRAM command.
    pub ctrl_productive_ticks: u64,
    pub ctrl_tick_ns: u64,
    /// `next_event`, plus `free_slots` and `account_rejected` on jumps.
    pub ctrl_next_event_ns: u64,
    pub ctrl_enqueue_ns: u64,
    /// Controller slots slept through, one by one or inside jumps.
    pub ctrl_slots_slept: u64,
    /// Drive-loop iterations; each ticks exactly one cycle.
    pub loop_iters: u64,
    /// Time-skip jumps taken, and the cycles they jumped over (which the
    /// CPU model accounts in bulk).
    pub jumps: u64,
    pub cycles_jumped: u64,
    /// Wall time of the whole drive loop.
    pub drive_ns: u64,
}

impl LayerLedger {
    /// Drive time inside no layer call.
    pub fn glue_ns(&self) -> u64 {
        self.drive_ns.saturating_sub(
            self.next_instr_ns
                + self.cpu_tick_self_ns
                + self.cpu_on_fill_ns
                + self.cpu_horizon_ns
                + self.ctrl_tick_ns
                + self.ctrl_next_event_ns
                + self.ctrl_enqueue_ns,
        )
    }

    /// Controller share of drive time.
    pub fn ctrl_share(&self) -> f64 {
        (self.ctrl_tick_ns + self.ctrl_next_event_ns + self.ctrl_enqueue_ns) as f64
            / self.drive_ns.max(1) as f64
    }
}

/// What one replayed run produced: its layer ledger and the simulated
/// outcome that must equal `try_run`'s.
#[derive(Debug, Clone)]
pub struct Replay {
    pub ledger: LayerLedger,
    /// Committed instructions over the measured window, in total and per core.
    pub committed: u64,
    pub per_core_committed: Vec<u64>,
    /// DRAM counters over the measured window, with rows open at the
    /// warmup boundary attributed to the window as `try_run` does.
    pub dram: DramStats,
    /// Reads completed in the window and the sum of their latencies.
    pub read_latency_count: u64,
    pub read_latency_sum: u64,
    pub mean_queue_occupancy: f64,
    pub l1_hit_rate: f64,
    pub l2_hit_rate: f64,
}

impl Replay {
    /// Every difference between this replay's simulated outcome and an
    /// untraced run of the same configuration; empty when they agree.
    pub fn mismatches(&self, r: &SimResult) -> Vec<String> {
        let mut out = Vec::new();
        if self.committed != r.committed {
            out.push(format!("committed {} vs {}", self.committed, r.committed));
        }
        if self.per_core_committed != r.per_core_committed {
            out.push("per-core committed counts differ".to_string());
        }
        if self.dram != r.dram {
            out.push(format!("DramStats {:?} vs {:?}", self.dram, r.dram));
        }
        let lat = (self.read_latency_count, self.read_latency_sum);
        let want = (r.read_latency_hist.count(), r.read_latency_hist.sum());
        if lat != want {
            out.push(format!("read latency (count, sum) {lat:?} vs {want:?}"));
        }
        if self.mean_queue_occupancy != r.mean_queue_occupancy {
            out.push(format!(
                "queue occupancy {} vs {}",
                self.mean_queue_occupancy, r.mean_queue_occupancy
            ));
        }
        out
    }
}

/// Counters the instruction sources and the router share with the loop.
#[derive(Default)]
struct Nested {
    instrs: Cell<u64>,
    next_instr_ns: Cell<u64>,
    /// Wall time inside every wrapper the CPU model calls (`next_instr`
    /// and `submit`); subtracted from the calling CPU span for self time.
    nested_ns: Cell<u64>,
}

/// A workload source that times each `next_instr` call.
struct TimedSource {
    inner: SynthSource,
    nested: Rc<Nested>,
}

impl InstrSource for TimedSource {
    fn next_instr(&mut self) -> Instr {
        let t0 = Instant::now();
        let instr = self.inner.next_instr();
        let ns = nanos(t0.elapsed());
        let n = &self.nested;
        n.instrs.set(n.instrs.get() + 1);
        n.next_instr_ns.set(n.next_instr_ns.get() + ns);
        n.nested_ns.set(n.nested_ns.get() + ns);
        instr
    }

    fn tenant(&self) -> TenantId {
        self.inner.tenant()
    }
}

/// The drive's request router (channel decode, skipped-slot flush,
/// enqueue, wake reset), timing the controller's part of each submit.
struct TimedRouter<'a> {
    ctrls: &'a mut [MemoryController],
    enqueued_at: &'a mut FxHashMap<u64, Cycle>,
    ctrl_wake: &'a mut [Cycle],
    ctrl_skipped: &'a mut [u64],
    ledger: &'a mut LayerLedger,
    nested: &'a Nested,
}

impl MemPort for TimedRouter<'_> {
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
        let t0 = Instant::now();
        let loc = self.ctrls[0].map().decode(req.addr);
        let ch = loc.channel as usize;
        let kind = if req.is_write {
            ReqKind::Write
        } else {
            ReqKind::Read
        };
        let mut r = MemRequest::new(req.id, req.addr, kind, req.thread, now);
        r.loc = loc;
        r.tenant = req.tenant;
        let t1 = Instant::now();
        let ctrl = &mut self.ctrls[ch];
        // Skipped slots saw the queue as it stands before this enqueue.
        let pending = std::mem::take(&mut self.ctrl_skipped[ch]);
        if pending > 0 {
            ctrl.account_skipped_ticks(pending);
        }
        let ok = ctrl.enqueue(r, now);
        let t2 = Instant::now();
        self.ledger.submit_attempts += 1;
        if ok {
            self.enqueued_at.insert(req.id, now);
            self.ctrl_wake[ch] = now;
        } else {
            self.ledger.submit_rejected += 1;
        }
        self.ledger.ctrl_enqueue_ns += nanos(t2 - t1);
        let n = self.nested;
        n.nested_ns.set(n.nested_ns.get() + nanos(t0.elapsed()));
        ok
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// DRAM commands a channel has issued so far.
fn commands(s: &DramStats) -> u64 {
    s.activates + s.precharges + s.reads + s.writes + s.refreshes + s.scrubs
}

fn merged_stats(ctrls: &[MemoryController]) -> DramStats {
    let mut d = DramStats::default();
    for c in ctrls {
        d.merge(&c.channel.stats);
    }
    d
}

/// Field-wise `end - start`.
fn stats_delta(end: &DramStats, start: &DramStats) -> DramStats {
    DramStats {
        activates: end.activates - start.activates,
        precharges: end.precharges - start.precharges,
        reads: end.reads - start.reads,
        writes: end.writes - start.writes,
        refreshes: end.refreshes - start.refreshes,
        scrubs: end.scrubs - start.scrubs,
        data_bus_busy: end.data_bus_busy - start.data_bus_busy,
        row_hits: end.row_hits - start.row_hits,
        row_closed: end.row_closed - start.row_closed,
        row_conflicts: end.row_conflicts - start.row_conflicts,
        powerdown_rank_cycles: end.powerdown_rank_cycles - start.powerdown_rank_cycles,
        powerdown_entries: end.powerdown_entries - start.powerdown_entries,
    }
}

/// Replay `cfg` with time skip on, timing every layer call. `cfg` must
/// have telemetry, faults and QoS off (as [`crate::pin_knobs`] leaves it):
/// the replay drives none of them.
pub fn replay(cfg: &SimConfig) -> Replay {
    assert!(
        cfg.telemetry.is_none() && cfg.faults.is_none() && cfg.qos.is_none(),
        "the replay drives neither telemetry, faults nor QoS"
    );
    let nested = Rc::new(Nested::default());
    let sources: Vec<TimedSource> = build_sources(
        cfg.workload,
        cfg.cmp.cores,
        cfg.mem.capacity_bytes(),
        cfg.seed,
    )
    .into_iter()
    .map(|inner| TimedSource {
        inner,
        nested: Rc::clone(&nested),
    })
    .collect();
    let mut cmp = CmpSystem::new(cfg.cmp, sources);
    let mut ctrls: Vec<MemoryController> = (0..cfg.mem.channels)
        .map(|_| MemoryController::new(&cfg.mem, cfg.scheduler, cfg.policy, cfg.cmp.cores))
        .collect();

    let mut l = LayerLedger::default();
    let warmup = cfg.warmup_cycles;
    let total = warmup + cfg.measure_cycles;
    let stride = cfg.ctrl_stride;
    let noc = cfg.cmp.noc_latency;
    let mut deliveries: BinaryHeap<Reverse<(Cycle, u64)>> = BinaryHeap::new();
    let mut completions: Vec<Completion> = Vec::new();
    let mut enqueued_at: FxHashMap<u64, Cycle> = FxHashMap::default();
    let (mut lat_count, mut lat_sum) = (0u64, 0u64);
    let mut ctrl_wake: Vec<Cycle> = vec![0; ctrls.len()];
    let mut ctrl_skipped: Vec<u64> = vec![0; ctrls.len()];
    let mut committed_at_warmup = 0u64;
    let mut per_core_at_warmup = vec![0u64; cfg.cmp.cores];
    let mut dram_at_warmup = DramStats::default();

    let start = Instant::now();
    let mut now: Cycle = 0;
    while now < total {
        l.loop_iters += 1;
        if now == warmup {
            committed_at_warmup = cmp.total_committed();
            for (i, c) in per_core_at_warmup.iter_mut().enumerate() {
                *c = cmp.core(i).stats.committed;
            }
            // Rows open at the boundary are precharged inside the window:
            // their activates count toward the window, as in `try_run`.
            let mut d = merged_stats(&ctrls);
            for c in &ctrls {
                d.activates -= c.channel.open_ubanks().len() as u64;
            }
            dram_at_warmup = d;
        }

        if now.is_multiple_of(stride) {
            for (i, c) in ctrls.iter_mut().enumerate() {
                if ctrl_wake[i] > now {
                    ctrl_skipped[i] += 1;
                    l.ctrl_slots_slept += 1;
                    continue;
                }
                let issued_before = commands(&c.channel.stats);
                let t0 = Instant::now();
                let pending = std::mem::take(&mut ctrl_skipped[i]);
                if pending > 0 {
                    c.account_skipped_ticks(pending);
                }
                c.tick(now);
                c.take_completions(&mut completions);
                let t1 = Instant::now();
                ctrl_wake[i] = c.next_event(now).unwrap_or(now + 1);
                let t2 = Instant::now();
                l.ctrl_tick_ns += nanos(t1 - t0);
                l.ctrl_next_event_ns += nanos(t2 - t1);
                l.ctrl_tick_calls += 1;
                if commands(&c.channel.stats) > issued_before {
                    l.ctrl_productive_ticks += 1;
                }
            }
            for comp in completions.drain(..) {
                let enqueued = enqueued_at.remove(&comp.id);
                if comp.is_write {
                    continue;
                }
                if let Some(t0) = enqueued {
                    if now >= warmup {
                        // Only the in-window part of a read's latency counts.
                        lat_sum += comp.at.saturating_sub(t0.max(warmup));
                        lat_count += 1;
                    }
                }
                deliveries.push(Reverse((comp.at.max(now) + noc, comp.id)));
            }
        }

        while let Some(&Reverse((at, id))) = deliveries.peek() {
            if at > now {
                break;
            }
            deliveries.pop();
            let mut router = TimedRouter {
                ctrls: &mut ctrls,
                enqueued_at: &mut enqueued_at,
                ctrl_wake: &mut ctrl_wake,
                ctrl_skipped: &mut ctrl_skipped,
                ledger: &mut l,
                nested: &nested,
            };
            let n0 = nested.nested_ns.get();
            let t0 = Instant::now();
            cmp.on_fill(id, now, &mut router);
            let dt = nanos(t0.elapsed());
            l.cpu_on_fill_ns += dt.saturating_sub(nested.nested_ns.get() - n0);
        }

        let mut router = TimedRouter {
            ctrls: &mut ctrls,
            enqueued_at: &mut enqueued_at,
            ctrl_wake: &mut ctrl_wake,
            ctrl_skipped: &mut ctrl_skipped,
            ledger: &mut l,
            nested: &nested,
        };
        let n0 = nested.nested_ns.get();
        let t0 = Instant::now();
        cmp.tick(now, &mut router);
        let dt = nanos(t0.elapsed());
        l.cpu_tick_self_ns += dt.saturating_sub(nested.nested_ns.get() - n0);

        // Time skip: jump to the earliest cycle any component can act.
        let next = now + 1;
        now = if next >= total {
            next
        } else {
            let t0 = Instant::now();
            let mut h = cmp.core_horizon(now);
            let backlog_head = if h > next {
                cmp.backlog_head_addr()
            } else {
                None
            };
            l.cpu_horizon_ns += nanos(t0.elapsed());
            // Against a full queue every backlog retry inside the jump
            // fails; against a non-full one the head goes through next
            // cycle, so there is no jump.
            let mut backlog_ch = None;
            if let Some(addr) = backlog_head {
                let ch = ctrls[0].map().decode(addr).channel as usize;
                let t0 = Instant::now();
                let full = ctrls[ch].free_slots() == 0;
                l.ctrl_next_event_ns += nanos(t0.elapsed());
                if full {
                    backlog_ch = Some(ch);
                } else {
                    h = next;
                }
            }
            if h > next {
                if let Some(&Reverse((at, _))) = deliveries.peek() {
                    h = h.min(at.max(next));
                }
                for &w in &ctrl_wake {
                    let slot = w
                        .max(next)
                        .checked_next_multiple_of(stride)
                        .unwrap_or(Cycle::MAX);
                    h = h.min(slot);
                }
                if now < warmup {
                    h = h.min(warmup);
                }
                h = h.min(total);
            }
            if h > next {
                let jumped = h - next;
                let t0 = Instant::now();
                cmp.account_skipped_cycles(jumped);
                let t1 = Instant::now();
                l.cpu_horizon_ns += nanos(t1 - t0);
                if let Some(ch) = backlog_ch {
                    ctrls[ch].account_rejected(jumped);
                    l.ctrl_next_event_ns += nanos(t1.elapsed());
                }
                let slots = (h - 1) / stride - (next - 1) / stride;
                for s in &mut ctrl_skipped {
                    *s += slots;
                }
                l.ctrl_slots_slept += slots * ctrl_skipped.len() as u64;
                l.jumps += 1;
                l.cycles_jumped += jumped;
            }
            h.max(next)
        };
    }
    l.drive_ns = nanos(start.elapsed());
    l.instrs = nested.instrs.get();
    l.next_instr_ns = nested.next_instr_ns.get();

    // Fold the remaining skipped slots into the controllers' occupancy
    // accounting, as the simulator does after its loop.
    for (c, &n) in ctrls.iter_mut().zip(&ctrl_skipped) {
        c.account_skipped_ticks(n);
    }

    let dram = stats_delta(&merged_stats(&ctrls), &dram_at_warmup);
    Replay {
        committed: cmp.total_committed() - committed_at_warmup,
        per_core_committed: (0..cfg.cmp.cores)
            .map(|i| cmp.core(i).stats.committed - per_core_at_warmup[i])
            .collect(),
        dram,
        read_latency_count: lat_count,
        read_latency_sum: lat_sum,
        mean_queue_occupancy: ctrls
            .iter()
            .map(|c| c.stats.mean_queue_occupancy())
            .sum::<f64>()
            / ctrls.len() as f64,
        l1_hit_rate: cmp.l1_hit_rate(),
        l2_hit_rate: cmp.l2_hit_rate(),
        ledger: l,
    }
}
