//! Reference model for the controller's per-slot choice.
//!
//! The controller picks each slot's demand command from cached per-request
//! commands, re-derived only for touched banks, through one eligibility
//! pass, a QoS token mask and a packed priority key (DESIGN §5f). The
//! oracle below is the straightforward algorithm those replace: derive
//! every queued request's next command from scratch, keep the requests
//! whose command is legal now and whose rank is not draining for refresh,
//! filter them through the QoS buckets, and take the minimum of the tuple
//! `(!marked, tenant priority, miss, thread rank, arrival, id)`. It also
//! replays the refresh phase that runs before demand and PAR-BS batch
//! formation, and folds the `next_event` horizon the same way.
//!
//! Random traffic drives (16,16), SALP-1, SALP-2 and Sectored channels
//! with one or two ranks and a short refresh interval (so a rank is often
//! draining while the other serves demand), under PAR-BS and FR-FCFS, with
//! QoS off, regulating with small budgets (empty buckets are common) and
//! work-conserving on or off. Before every tick the oracle predicts the
//! command; after it the test compares the command the trace recorded
//! (kind and μbank), the request it served (a column's completion id, an
//! ACT's row), the batch marks, and the `next_event` horizon.

use microbank_core::channel::{Channel, CmdClass};
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, ReqKind, TenantId};
use microbank_core::variant::{DeviceVariant, SalpMode};
use microbank_core::Cycle;
use microbank_ctrl::controller::{Completion, MemoryController};
use microbank_ctrl::policy::PolicyKind;
use microbank_ctrl::qos::{tenant_slot, QosConfig, MAX_TENANTS};
use microbank_ctrl::queue::RequestQueue;
use microbank_ctrl::scheduler::SchedulerKind;
use microbank_telemetry::CmdKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// What one tick issues, as the trace and completions show it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Issue {
    Nothing,
    Ref {
        ubank: u32,
    },
    PreA,
    /// A demand command: kind, target μbank, and the served request's id
    /// (a column) or row (an ACT); 0 where the trace cannot show it.
    Demand {
        kind: CmdKind,
        ubank: u32,
        id: u64,
        row: u32,
    },
}

/// The pre-optimisation controller choice, from scratch every call.
struct Oracle {
    parbs_cap: Option<usize>,
    prio: [u8; MAX_TENANTS],
    draining: Vec<bool>,
    marked: HashSet<u64>,
    thread_rank: HashMap<u16, u32>,
    /// Entries whose command was legal but whose rank was draining.
    drain_masked: u64,
    /// Batches in which some (thread, μbank) pair held more queued
    /// requests than the marking cap.
    capped_batches: u64,
}

/// The queued request at `i`'s next command from the channel's state:
/// `(class, target μbank, μbank-local earliest cycle)`, with the open-row
/// demand recounted from the queue.
fn derive(ch: &Channel, q: &RequestQueue, i: usize) -> (CmdClass, u32, Cycle) {
    let r = q.get(i);
    let flat = r.flat as usize;
    let hits = |f: usize| {
        q.iter()
            .filter(|o| o.flat as usize == f && ch.open_row_flat(f) == Some(o.loc.row))
            .count()
    };
    let precharge = |target: usize| {
        let local = if hits(target) == 0 {
            ch.local_precharge_flat(target)
        } else {
            Cycle::MAX
        };
        (CmdClass::Precharge, target as u32, local)
    };
    match ch.open_row_flat(flat) {
        Some(open) if open == r.loc.row => {
            let class = if r.is_write() {
                CmdClass::Write
            } else {
                CmdClass::Read
            };
            (class, r.flat, ch.local_column_flat(flat))
        }
        Some(_) => precharge(flat),
        None => match ch.act_blocker(flat, r.loc.row) {
            Some(victim) => precharge(victim),
            None => (CmdClass::Activate, r.flat, ch.local_activate_flat(flat)),
        },
    }
}

impl Oracle {
    fn is_marked(&self, r: &MemRequest) -> bool {
        self.marked.contains(&r.id)
    }

    fn would_form_batch(&self, q: &RequestQueue) -> bool {
        self.parbs_cap.is_some() && !q.is_empty() && !q.iter().any(|r| self.is_marked(r))
    }

    /// PAR-BS batch formation: mark the `cap` oldest requests per (thread,
    /// μbank), rank threads by fewest marked (then thread id).
    fn form_batch(&mut self, q: &RequestQueue) {
        let Some(cap) = self.parbs_cap else { return };
        if !self.would_form_batch(q) {
            return;
        }
        let mut order: Vec<&MemRequest> = q.iter().collect();
        order.sort_by_key(|r| (r.arrival, r.id));
        let mut per_pair: HashMap<(u16, u32), usize> = HashMap::new();
        let mut per_thread: HashMap<u16, u32> = HashMap::new();
        let mut capped = false;
        for r in order {
            let n = per_pair.entry((r.thread, r.flat)).or_default();
            if *n < cap {
                *n += 1;
                self.marked.insert(r.id);
                *per_thread.entry(r.thread).or_default() += 1;
            } else {
                capped = true;
            }
        }
        self.capped_batches += u64::from(capped);
        let mut threads: Vec<(u16, u32)> = per_thread.into_iter().collect();
        threads.sort_by_key(|&(t, n)| (n, t));
        self.thread_rank = threads
            .iter()
            .enumerate()
            .map(|(rank, &(t, _))| (t, rank as u32))
            .collect();
    }

    /// Entries whose command is legal at `now`, with their command.
    fn eligible(
        &mut self,
        c: &MemoryController,
        now: Cycle,
    ) -> Vec<(usize, (CmdClass, u32, Cycle))> {
        let (ch, q) = (&c.channel, c.queue());
        let mut out = Vec::new();
        for i in q.indices() {
            let rank = q.get(i).loc.rank as usize;
            let cmd = derive(ch, q, i);
            if cmd.2.max(ch.floors()[rank][cmd.0 as usize]) <= now {
                if self.draining[rank] {
                    self.drain_masked += 1;
                } else {
                    out.push((i, cmd));
                }
            }
        }
        out
    }

    /// Predict what `tick(now)` issues, advancing the oracle's refresh and
    /// batch state as the tick will.
    fn predict(&mut self, c: &MemoryController, now: Cycle) -> Issue {
        let ch = &c.channel;
        let per_rank = ch.num_ubanks() / ch.num_ranks();
        for rank in 0..ch.num_ranks() {
            if ch.refresh_due(rank, now) {
                self.draining[rank] = true;
            }
            if !self.draining[rank] {
                continue;
            }
            if ch.rank_all_idle(rank) {
                self.draining[rank] = false;
                return Issue::Ref {
                    ubank: (rank * per_rank) as u32,
                };
            }
            if ch.earliest_precharge_all(rank) <= now {
                return Issue::PreA;
            }
        }
        let q = c.queue();
        if q.is_empty() {
            return Issue::Nothing;
        }
        self.form_batch(q);
        let mut cands = self.eligible(c, now);
        if let Some(qos) = c.qos.as_deref().filter(|qos| qos.regulating()) {
            let token = |i: usize| qos.has_token(q.get(i).tenant, q.get(i).flat, now);
            if cands.iter().any(|&(i, _)| token(i)) {
                cands.retain(|&(i, _)| token(i));
            } else if !qos.config().work_conserving {
                cands.clear();
            }
        }
        let best = cands.iter().min_by_key(|&&(i, (class, _, _))| {
            let r = q.get(i);
            (
                !self.is_marked(r),
                self.prio[tenant_slot(r.tenant)],
                !matches!(class, CmdClass::Read | CmdClass::Write),
                self.thread_rank.get(&r.thread).copied().unwrap_or(u32::MAX),
                r.arrival,
                r.id,
            )
        });
        let Some(&(i, (class, target, _))) = best else {
            return Issue::Nothing;
        };
        let r = q.get(i);
        match class {
            CmdClass::Read | CmdClass::Write => Issue::Demand {
                kind: if class == CmdClass::Read {
                    CmdKind::Rd
                } else {
                    CmdKind::Wr
                },
                ubank: target,
                id: r.id,
                row: 0,
            },
            CmdClass::Activate => Issue::Demand {
                kind: CmdKind::Act,
                ubank: target,
                id: 0,
                row: r.loc.row,
            },
            CmdClass::Precharge => Issue::Demand {
                kind: CmdKind::Pre,
                ubank: target,
                id: 0,
                row: 0,
            },
        }
    }

    /// The `next_event` horizon, folded as the reference does.
    fn horizon(&self, c: &MemoryController, now: Cycle) -> Option<Cycle> {
        let (ch, q) = (&c.channel, c.queue());
        if self.would_form_batch(q) {
            return None;
        }
        if let Some(qos) = c.qos.as_deref().filter(|qos| qos.regulating()) {
            if q.iter().any(|r| !qos.has_token(r.tenant, r.flat, now)) {
                return None;
            }
        }
        let mut next = Cycle::MAX;
        for rank in 0..ch.num_ranks() {
            let at = if self.draining[rank] {
                if ch.rank_all_idle(rank) {
                    return None;
                }
                ch.earliest_precharge_all(rank)
            } else if let Some(at) = ch.next_refresh_at(rank) {
                at
            } else {
                continue;
            };
            if at <= now {
                return None;
            }
            next = next.min(at);
        }
        for i in q.indices() {
            let rank = q.get(i).loc.rank as usize;
            if self.draining[rank] {
                continue;
            }
            let (class, _, local) = derive(ch, q, i);
            let at = local.max(ch.floors()[rank][class as usize]);
            if at <= now {
                return None;
            }
            next = next.min(at);
        }
        Some(next)
    }
}

/// What `tick` issued: the trace records it pushed, and the completion.
fn observed(c: &MemoryController, pushed_before: u64, done: &[Completion]) -> Issue {
    let trace = c.trace.as_deref().unwrap();
    if trace.total_pushed() == pushed_before {
        return Issue::Nothing;
    }
    let rec = *trace.records().last().unwrap();
    match rec.cmd {
        CmdKind::Ref => Issue::Ref { ubank: rec.ubank },
        CmdKind::PreA => Issue::PreA,
        CmdKind::Rd | CmdKind::Wr => {
            assert_eq!(done.len(), 1, "a column completes one request");
            Issue::Demand {
                kind: rec.cmd,
                ubank: rec.ubank,
                id: done[0].id,
                row: 0,
            }
        }
        CmdKind::Act => Issue::Demand {
            kind: rec.cmd,
            ubank: rec.ubank,
            id: 0,
            row: rec.row,
        },
        kind => Issue::Demand {
            kind,
            ubank: rec.ubank,
            id: 0,
            row: 0,
        },
    }
}

#[derive(Debug, Clone, Copy)]
enum Qos {
    Off,
    Regulating { work_conserving: bool },
}

/// Counts of the situations the run compared, to prove coverage.
#[derive(Debug, Default)]
struct Seen {
    demand: u64,
    drain_masked: u64,
    throttled: u64,
    sleeping_horizons: u64,
    capped_batches: u64,
}

/// One configuration of the sweep.
#[derive(Debug, Clone, Copy)]
struct Case {
    variant: DeviceVariant,
    ranks: usize,
    scheduler: SchedulerKind,
    qos: Qos,
    queue_size: usize,
    seed: u64,
}

const CYCLES: Cycle = 6_000;

fn run(case: Case, seen: &mut Seen) {
    let Case {
        variant,
        ranks,
        scheduler,
        qos,
        queue_size,
        seed,
    } = case;
    let mut mem = MemConfig::lpddr_tsi()
        .with_ubanks(16, 16)
        .with_variant(variant)
        .with_channels(1)
        .with_queue_size(queue_size)
        .with_refresh(true);
    mem.ranks_per_channel = ranks;
    mem.timing.t_refi_ns = 1_500.0;
    let tag = format!(
        "{} ranks={ranks} {scheduler:?} {qos:?} q={queue_size}",
        variant.label()
    );
    let mut c = MemoryController::new(&mem, scheduler, PolicyKind::Open, 8);
    c.enable_telemetry(0, 1 << 12);
    let mut prio = [0; MAX_TENANTS];
    if let Qos::Regulating { work_conserving } = qos {
        let qc = QosConfig::tracking()
            .with_replenish_period(400)
            .with_work_conserving(work_conserving)
            .with_tenant(Some(1), 1)
            .with_tenant(Some(3), 0)
            .with_tenant(None, 2);
        prio = qc.priorities();
        c.enable_qos(&qc);
    }
    let mut oracle = Oracle {
        parbs_cap: match scheduler {
            SchedulerKind::ParBs { marking_cap } => Some(marking_cap),
            SchedulerKind::FrFcfs => None,
        },
        prio,
        draining: vec![false; ranks],
        marked: HashSet::new(),
        thread_rank: HashMap::new(),
        drain_masked: 0,
        capped_batches: 0,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut done = Vec::new();
    let mut id = 0u64;
    for now in 0..CYCLES {
        while c.free_slots() > 0 && rng.gen_bool(0.3) {
            // Half the traffic on a few hot rows, so hits, conflicts and
            // sibling victims are all common.
            let addr = if rng.gen_bool(0.5) {
                (rng.gen_range(0..8u64) << 22)
                    | (rng.gen_range(0..4u64) << 16)
                    | (rng.gen_range(0..8u64) << 6)
            } else {
                rng.gen_range(0..(1u64 << 30)) & !63
            };
            let kind = if rng.gen_bool(0.25) {
                ReqKind::Write
            } else {
                ReqKind::Read
            };
            let mut r = MemRequest::new(id, addr, kind, rng.gen_range(0..8), now);
            r.loc = c.map().decode(addr);
            r.tenant = TenantId(rng.gen_range(0..3));
            assert!(c.enqueue(r, now));
            id += 1;
        }
        let want = oracle.predict(&c, now);
        let throttled = c.qos.as_deref().map_or(0, |q| q.stats.total_throttled());
        let pushed = c.trace.as_deref().unwrap().total_pushed();
        c.tick(now);
        done.clear();
        c.take_completions(&mut done);
        let have = observed(&c, pushed, &done);
        assert_eq!(have, want, "{tag}: issued command at cycle {now}");
        if let Issue::Demand { .. } = want {
            seen.demand += 1;
        }
        seen.throttled += c.qos.as_deref().map_or(0, |q| q.stats.total_throttled()) - throttled;
        let q = c.queue();
        for i in q.indices() {
            assert_eq!(
                q.is_marked(i),
                oracle.is_marked(q.get(i)),
                "{tag}: batch mark of request {} at cycle {now}",
                q.get(i).id
            );
        }
        let want = oracle.horizon(&c, now);
        let have = c.next_event(now);
        assert_eq!(have, want, "{tag}: next_event horizon at cycle {now}");
        seen.sleeping_horizons += u64::from(have.is_some_and(|h| h > now + 1));
    }
    seen.drain_masked += oracle.drain_masked;
    seen.capped_batches += oracle.capped_batches;
}

#[test]
fn selection_and_horizon_match_the_reference_model() {
    let variants = [
        DeviceVariant::Microbank,
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Salp1,
        },
        DeviceVariant::Salp {
            subarrays: 8,
            mode: SalpMode::Salp2,
        },
        DeviceVariant::Sectored {
            sectors: 16,
            sectors_per_act: 8,
        },
    ];
    let schedulers = [SchedulerKind::default(), SchedulerKind::FrFcfs];
    let qos = [
        Qos::Off,
        Qos::Regulating {
            work_conserving: true,
        },
        Qos::Regulating {
            work_conserving: false,
        },
    ];
    let mut seen = Seen::default();
    let mut seed = 0;
    for v in variants {
        for ranks in [1, 2] {
            for s in schedulers {
                for q in qos {
                    seed += 1;
                    // 70 entries span two mask words.
                    let queue_size = if seed % 3 == 0 { 70 } else { 32 };
                    let case = Case {
                        variant: v,
                        ranks,
                        scheduler: s,
                        qos: q,
                        queue_size,
                        seed,
                    };
                    run(case, &mut seen);
                }
            }
        }
    }
    assert!(seen.demand > 10_000, "{seen:?}");
    assert!(seen.drain_masked > 100, "{seen:?}");
    assert!(seen.throttled > 1_000, "{seen:?}");
    assert!(seen.sleeping_horizons > 1_000, "{seen:?}");
    assert!(seen.capped_batches > 0, "{seen:?}");
}
