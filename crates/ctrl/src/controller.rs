//! The command-generation engine: one memory controller driving one
//! channel (§VI-A: 16 controllers, one 16 GB/s channel each, 32-entry
//! request queues, PAR-BS scheduling, open-page policy by default).
//!
//! Each [`MemoryController::tick`] issues at most one DRAM command, chosen
//! in priority order: refresh management, then the scheduler's best demand
//! command, then policy-driven speculative precharges.
//!
//! Every queued request carries its cached next command
//! ([`crate::queue::NextCmd`]), re-derived from μbank state only when the
//! channel's epoch for the request's physical bank moved. The demand
//! candidate scan and the [`MemoryController::next_event`] fold compare
//! each entry's μbank-local deadline with its rank's shared floor
//! ([`Channel::floors`]) and read no μbank state (DESIGN §5f).

use crate::policy::PolicyKind;
use crate::predictor::{
    GlobalPredictor, LocalPredictor, PageDecision, PredictorKind, PredictorStats,
    TournamentPredictor,
};
use crate::qos::{QosConfig, QosRegulator};
use crate::queue::{NextCmd, RequestQueue};
use crate::scheduler::{Action, Candidate, Scheduler, SchedulerKind};
use microbank_core::address::AddressMap;
use microbank_core::channel::{Channel, CmdClass, RowOutcome};
use microbank_core::config::MemConfig;
use microbank_core::request::{MemRequest, TenantId};
use microbank_core::Cycle;
use microbank_faults::{AccessVerdict, FaultConfig, FaultEngine};
use microbank_telemetry::{CmdKind, CmdRecord, CmdTrace};
use std::collections::BTreeMap;

/// A finished memory request, reported back to the CPU model. It carries
/// everything the drive attributes per read — enqueue cycle and tenant —
/// so the drive keeps no per-request table keyed by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub id: u64,
    /// Cycle the data transfer finished (reads) or data was latched
    /// (writes). NoC return latency is added by the CPU side.
    pub at: Cycle,
    pub is_write: bool,
    /// Cycle the controller accepted the request (`enqueue` stamps it
    /// once; ECC retries and fault remaps leave it alone).
    pub arrival: Cycle,
    /// Owning tenant (carried from the request).
    pub tenant: TenantId,
}

/// Controller-level statistics (queue behaviour and policy accuracy).
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    pub served_reads: u64,
    pub served_writes: u64,
    /// Sum of queue occupancy over tick calls (for the §V queue-occupancy
    /// argument: μbanks drain queues, starving conventional policies).
    pub occupancy_acc: u64,
    pub tick_calls: u64,
    /// Speculative page decisions made (queue empty for the bank, §V).
    pub speculative_decisions: u64,
    /// Accuracy of the active page policy's speculative decisions,
    /// including static open/close treated as constant predictors (the
    /// Fig. 13 "prediction hit rate" series).
    pub policy_stats: PredictorStats,
}

impl CtrlStats {
    pub fn mean_queue_occupancy(&self) -> f64 {
        if self.tick_calls == 0 {
            0.0
        } else {
            self.occupancy_acc as f64 / self.tick_calls as f64
        }
    }
}

/// Speculative decision awaiting resolution by the next request to the bank.
#[derive(Debug, Clone, Copy)]
struct PendingDecision {
    predicted: PageDecision,
    row: u32,
    thread: u16,
}

enum PredictorImpl {
    None,
    Local(LocalPredictor),
    Global(GlobalPredictor),
    Tournament(TournamentPredictor),
    Perfect,
}

/// One memory controller + its channel.
pub struct MemoryController {
    pub cfg: MemConfig,
    pub channel: Channel,
    map: AddressMap,
    queue: RequestQueue,
    scheduler: Scheduler,
    policy: PolicyKind,
    predictor: PredictorImpl,
    /// Per-μbank pending speculative decision.
    pending: Vec<Option<PendingDecision>>,
    /// Per-μbank count of queued requests whose row is the μbank's open
    /// row (0 while it is closed): the scheduler's "does any queued
    /// request still want this open row?" check, answered without a scan.
    open_hits: Vec<u32>,
    /// Page-policy precharges: each μbank whose policy wants its row
    /// closed, mapped to the cycle from which the close is due (a
    /// predictor's Close at once, minimalist-open after its window).
    /// Every close path removes the μbank's key. Ordered by flat so
    /// idle-slot service closes the lowest due μbank first.
    policy_pre: BTreeMap<usize, Cycle>,
    /// Ranks currently being drained for refresh.
    refresh_draining: Vec<bool>,
    completions: Vec<Completion>,
    scratch: Vec<Candidate>,
    pub stats: CtrlStats,
    /// First cycle at which `tick` acts: set by `sleep_until`, reset to
    /// the arrival cycle by every accepted `enqueue`.
    wake: Cycle,
    /// This controller's channel index, stamped into trace records.
    channel_id: u16,
    /// Bounded command trace; `None` (the default) costs one branch per
    /// issued command.
    pub trace: Option<Box<CmdTrace>>,
    /// Reliability engine (fault injection / ECC / scrub / degradation);
    /// `None` (the default) keeps the hot path golden-identical.
    pub faults: Option<Box<FaultEngine>>,
    /// Multi-tenant QoS regulator (token-bucket bandwidth regulation +
    /// per-tenant accounting); `None` (the default) keeps the hot path
    /// golden-identical.
    pub qos: Option<Box<QosRegulator>>,
}

impl MemoryController {
    pub fn new(
        cfg: &MemConfig,
        scheduler: SchedulerKind,
        policy: PolicyKind,
        threads: usize,
    ) -> Self {
        let n = cfg.ubanks_per_channel();
        let predictor = match policy {
            PolicyKind::Predictive(PredictorKind::Local) => {
                PredictorImpl::Local(LocalPredictor::new(n))
            }
            PolicyKind::Predictive(PredictorKind::Global) => {
                PredictorImpl::Global(GlobalPredictor::new(threads.max(1)))
            }
            PolicyKind::Predictive(PredictorKind::Tournament) => {
                PredictorImpl::Tournament(TournamentPredictor::new(n, threads.max(1)))
            }
            PolicyKind::Predictive(PredictorKind::Perfect) => PredictorImpl::Perfect,
            _ => PredictorImpl::None,
        };
        MemoryController {
            cfg: cfg.clone(),
            channel: Channel::new(cfg),
            map: AddressMap::new(cfg),
            queue: RequestQueue::new(cfg),
            scheduler: Scheduler::new(scheduler),
            policy,
            predictor,
            pending: vec![None; n],
            open_hits: vec![0; n],
            policy_pre: BTreeMap::new(),
            refresh_draining: vec![false; cfg.ranks_per_channel],
            completions: Vec::new(),
            scratch: Vec::new(),
            stats: CtrlStats::default(),
            wake: 0,
            channel_id: 0,
            trace: None,
            faults: None,
            qos: None,
        }
    }

    /// Attach the reliability engine for this controller's channel
    /// (deterministically seeded from the master fault seed + `channel`).
    pub fn enable_faults(&mut self, fc: &FaultConfig, channel: usize) {
        self.faults = Some(Box::new(FaultEngine::new(&self.cfg, fc, channel)));
    }

    /// Attach the multi-tenant QoS regulator and install its tenant
    /// priorities into the scheduler. Budget domains are sized to this
    /// controller's flat μbank count.
    pub fn enable_qos(&mut self, qc: &QosConfig) {
        self.scheduler.set_tenant_priorities(qc.priorities());
        self.qos = Some(Box::new(QosRegulator::new(
            qc.clone(),
            self.cfg.ubanks_per_channel(),
        )));
    }

    /// Columns served per tenant slot so far (whole run); all-zero when
    /// QoS accounting is not armed. Drive loops diff this across epoch
    /// boundaries for the per-tenant timeline columns.
    pub fn tenant_cols(&self) -> [u64; crate::qos::MAX_TENANTS] {
        self.qos
            .as_ref()
            .map(|q| q.stats.served_cols)
            .unwrap_or_default()
    }

    /// Enable command tracing into a ring of `capacity` records, stamping
    /// records with `channel_id`, and attach per-μbank heat counters to
    /// the channel.
    pub fn enable_telemetry(&mut self, channel_id: u16, trace_capacity: usize) {
        self.channel_id = channel_id;
        if trace_capacity > 0 {
            self.trace = Some(Box::new(CmdTrace::new(trace_capacity)));
        }
        self.channel.enable_telemetry();
    }

    #[inline]
    fn trace_cmd(&mut self, cycle: Cycle, cmd: CmdKind, ubank: usize, row: u32) {
        if let Some(trace) = &mut self.trace {
            trace.push(CmdRecord {
                cycle,
                channel: self.channel_id,
                cmd,
                ubank: ubank as u32,
                row,
                queue_len: self.queue.len() as u16,
            });
        }
    }

    /// The controller's address map (shared decode logic).
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Free queue slots.
    pub fn free_slots(&self) -> usize {
        self.queue.capacity() - self.queue.len()
    }

    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Try to accept a request whose `loc` is already decoded for this
    /// channel. Returns `false` if the queue is full. An accepted request
    /// wakes the controller: the arrival voids any `sleep_until` horizon.
    pub fn enqueue(&mut self, mut req: MemRequest, now: Cycle) -> bool {
        if self.queue.is_full() {
            return false;
        }
        self.wake = now;
        req.arrival = now;
        // Graceful degradation: steer the request around retired
        // μbanks/rows before anything keys off its coordinates. Remapping
        // happens once, at enqueue, so in-flight requests are stable.
        if let Some(eng) = &self.faults {
            eng.remap_loc(&mut req.loc);
        }
        let flat = req.loc.ubank_flat(&self.cfg);
        // Resolve a pending speculative decision for this bank: the correct
        // choice was "keep open" iff this request hits the recorded row.
        if let Some(p) = self.pending[flat].take() {
            let outcome = if req.loc.row == p.row {
                PageDecision::KeepOpen
            } else {
                PageDecision::Close
            };
            // The perfect oracle is correct by construction (it resolves
            // retroactively); every other scheme is scored on its guess.
            let correct =
                matches!(self.predictor, PredictorImpl::Perfect) || p.predicted == outcome;
            self.stats.policy_stats.record(correct);
            match &mut self.predictor {
                PredictorImpl::Local(l) => l.update(flat, p.predicted, outcome),
                PredictorImpl::Global(g) => g.update(p.thread, p.predicted, outcome),
                PredictorImpl::Tournament(t) => t.update(flat, p.thread, p.predicted, outcome),
                PredictorImpl::Perfect => {
                    // The oracle converts a would-be conflict into an
                    // already-precharged bank when legal.
                    if outcome == PageDecision::Close
                        && self.channel.oracle_precharge_flat(flat, now)
                    {
                        self.open_hits[flat] = 0;
                        self.policy_pre.remove(&flat);
                    }
                }
                PredictorImpl::None => {}
            }
        }
        // Row-buffer outcome classification (hit/closed/conflict) at
        // arrival, the standard accounting the energy model consumes.
        // The channel owns it so stats and heat counters update together.
        if self.channel.classify_arrival(flat, req.loc.row) == RowOutcome::Hit {
            self.open_hits[flat] += 1;
        }
        self.queue.push(req, flat);
        true
    }

    /// Drain completions accumulated since the last call.
    pub fn take_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Advance the controller at `now`, issuing at most one DRAM command,
    /// and return whether it ran. Every call charges the slot to the
    /// occupancy stats; before the `sleep_until` wake that is all it does.
    pub fn tick(&mut self, now: Cycle) -> bool {
        self.stats.tick_calls += 1;
        self.stats.occupancy_acc += self.queue.len() as u64;
        if now < self.wake {
            return false;
        }

        // Rank power management (no-op unless configured).
        if let Some(idle) = self.cfg.powerdown_idle {
            for rank in 0..self.refresh_draining.len() {
                let work =
                    self.queue.pending_for_rank(rank) > 0 || self.channel.refresh_due(rank, now);
                // An idle rank with speculatively-open rows (open-page
                // policy) is precharged with one PREA so CKE can drop.
                if !work
                    && self.channel.rank_idle_for(rank, now) >= idle
                    && !self.channel.rank_all_idle(rank)
                    && self.channel.can_precharge_all(rank, now)
                {
                    self.issue_prea(rank, now);
                }
                self.channel.update_powerdown(rank, now, work);
            }
        }

        if self.service_refresh(now) {
            return true;
        }
        if self.service_queue(now) {
            return true;
        }
        if self.service_scrub(now) {
            return true;
        }
        self.service_policy_precharges(now);
        true
    }

    /// Sleep until `wake`, a [`MemoryController::next_event`] horizon:
    /// ticks before it only charge their slot. An accepted `enqueue`
    /// wakes the controller early.
    pub fn sleep_until(&mut self, wake: Cycle) {
        self.wake = wake;
    }

    /// First cycle at which `tick` acts.
    pub fn wake(&self) -> Cycle {
        self.wake
    }

    /// Precharge every open μbank of `rank` with one PREA, clearing any
    /// pending policy-precharge state for the rank. Traces one record per
    /// μbank actually closed, each with its open row (the scan is guarded
    /// so an untraced run never pays it).
    fn issue_prea(&mut self, rank: usize, now: Cycle) {
        let per_rank = self.open_hits.len() / self.refresh_draining.len();
        let lo = rank * per_rank;
        let hi = lo + per_rank;
        if self.trace.is_some() {
            for flat in lo..hi {
                if let Some(row) = self.channel.open_row_flat(flat) {
                    self.trace_cmd(now, CmdKind::PreA, flat, row);
                }
            }
        }
        self.channel.precharge_all(rank, now);
        self.open_hits[lo..hi].fill(0);
        self.policy_pre.retain(|&flat, _| !(lo..hi).contains(&flat));
    }

    /// Refresh management: when a rank's tREFI deadline passes, drain its
    /// open banks with PREs and issue the REF. Returns true if a command
    /// was issued.
    fn service_refresh(&mut self, now: Cycle) -> bool {
        for rank in 0..self.refresh_draining.len() {
            if self.channel.refresh_due(rank, now) {
                self.refresh_draining[rank] = true;
            }
            if !self.refresh_draining[rank] {
                continue;
            }
            let per_rank = self.open_hits.len() / self.refresh_draining.len();
            if self.channel.rank_all_idle(rank) {
                self.channel.refresh(rank, now);
                self.refresh_draining[rank] = false;
                self.trace_cmd(now, CmdKind::Ref, rank * per_rank, 0);
                return true;
            }
            // Drain with one PREA once every open bank may precharge.
            if self.channel.can_precharge_all(rank, now) {
                self.issue_prea(rank, now);
                return true;
            }
        }
        false
    }

    /// Demand scheduling. Returns true if a command was issued.
    fn service_queue(&mut self, now: Cycle) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        self.scheduler.maybe_form_batch(&mut self.queue);

        self.scratch.clear();
        let floors = self.channel.floors();
        let (entries, marked, cmds) = self.queue.split_next_cmds();
        for (idx, (r, n)) in entries.iter().zip(cmds).enumerate() {
            revalidate(&self.channel, &self.open_hits, r, n);
            let rank = n.rank as usize;
            if self.refresh_draining[rank] || n.local.max(floors[rank][n.class as usize]) > now {
                continue;
            }
            let action = match n.class {
                CmdClass::Read | CmdClass::Write => Action::Column,
                CmdClass::Activate => Action::Activate,
                CmdClass::Precharge if n.target == r.flat => Action::PrechargeConflict,
                CmdClass::Precharge => Action::PrechargeVictim(n.target),
            };
            self.scratch.push(Candidate {
                idx,
                action,
                id: r.id,
                marked: marked[idx],
                thread: r.thread,
                arrival: r.arrival,
                tenant: r.tenant,
            });
        }
        // QoS bandwidth regulation: candidates whose tenant's bucket is
        // empty are withheld from this round. If that would leave the
        // channel idle while demand is eligible and the configuration is
        // work-conserving, the throttled candidates are re-admitted — the
        // issue below is then charged to reclaim, not the bucket.
        if let Some(q) = &mut self.qos {
            if q.regulating() && !self.scratch.is_empty() {
                let queue = &self.queue;
                let any_token = self
                    .scratch
                    .iter()
                    .any(|c| q.has_token(c.tenant, queue.get(c.idx).flat, now));
                if any_token {
                    self.scratch.retain(|c| {
                        let ok = q.has_token(c.tenant, queue.get(c.idx).flat, now);
                        if !ok {
                            q.note_throttled(c.tenant);
                        }
                        ok
                    });
                } else if !q.config().work_conserving {
                    for c in &self.scratch {
                        q.note_throttled(c.tenant);
                    }
                    self.scratch.clear();
                }
            }
        }
        let Some(best) = self.scheduler.select(&self.scratch).copied() else {
            return false;
        };
        let r = *self.queue.get(best.idx);
        let flat = r.flat as usize;
        match best.action {
            Action::Activate => {
                self.channel.activate_flat(flat, r.loc.row, now);
                self.open_hits[flat] = self
                    .queue
                    .iter()
                    .filter(|q| q.flat == r.flat && q.loc.row == r.loc.row)
                    .count() as u32;
                self.policy_pre.remove(&flat);
                self.trace_cmd(now, CmdKind::Act, flat, r.loc.row);
            }
            Action::PrechargeConflict => {
                // Trace the row actually being closed, not the row of the
                // conflicting request that triggered the close.
                let closed = self.channel.open_row_flat(flat).unwrap_or(0);
                self.channel.precharge_flat(flat, now);
                self.policy_pre.remove(&flat);
                self.trace_cmd(now, CmdKind::Pre, flat, closed);
            }
            Action::PrechargeVictim(victim) => {
                // Structural unblock: close the sibling μbank standing in
                // the way of this request's ACT. The request's own μbank
                // stays closed; its Activate becomes schedulable next.
                let victim = victim as usize;
                let closed = self.channel.open_row_flat(victim).unwrap_or(0);
                self.channel.precharge_flat(victim, now);
                self.policy_pre.remove(&victim);
                self.trace_cmd(now, CmdKind::Pre, victim, closed);
            }
            Action::Column => {
                let done = if r.is_write() {
                    self.channel.write_flat(flat, now)
                } else {
                    self.channel.read_flat(flat, now)
                };
                let kind = if r.is_write() {
                    CmdKind::Wr
                } else {
                    CmdKind::Rd
                };
                self.trace_cmd(now, kind, flat, r.loc.row);
                // Reliability: assess the read's ECC outcome. A corrected
                // error triggers one demand retry — the burst above was
                // spent (timing/energy already charged), but the request
                // stays queued and is re-issued before completing.
                if !r.is_write() {
                    if let Some(eng) = &mut self.faults {
                        let age = self.channel.refresh_age_frac(r.loc.rank as usize, now);
                        let before = eng.summary.corrected;
                        let verdict = eng.assess_demand_read(r.flat, r.loc.row, age, r.retried);
                        let corrected = eng.summary.corrected - before;
                        if corrected > 0 {
                            if let Some(tel) = &mut self.channel.telemetry {
                                tel.heat.corrected[flat] += corrected;
                            }
                        }
                        if verdict == AccessVerdict::Retry {
                            self.queue.mark_retried(best.idx);
                            return true;
                        }
                        // Uncorrectable reads still complete: the data
                        // loss is modeled by the retirement the engine
                        // just applied, not by stalling the machine.
                    }
                }
                self.queue.remove(best.idx);
                self.open_hits[flat] -= 1;
                self.scheduler.note_serviced(best.marked);
                if r.is_write() {
                    self.stats.served_writes += 1;
                } else {
                    self.stats.served_reads += 1;
                }
                // Per-tenant accounting + token charge (an over-budget
                // issue — only reachable through work-conserving reclaim —
                // is recorded as a reclaim, never as bucket spend). ECC
                // demand-retry bursts are not charged: only the completing
                // burst pays a token.
                if let Some(q) = &mut self.qos {
                    q.spend(r.tenant, r.flat, now, !r.is_write());
                }
                self.completions.push(Completion {
                    id: r.id,
                    at: done,
                    is_write: r.is_write(),
                    arrival: r.arrival,
                    tenant: r.tenant,
                });
                // Speculative page management: only when the queue holds no
                // further request for this bank (§V).
                if self.queue.pending_for_bank(flat) == 0 {
                    self.speculate(flat, r.loc.row, r.thread, now);
                }
                // The assessment above may have retired this μbank (an
                // uncorrectable error escalates through the degradation
                // ladder). Any policy state left armed for it — including
                // the close `speculate` may have just armed — targets a
                // μbank that no longer exists.
                if self
                    .faults
                    .as_deref()
                    .is_some_and(|e| e.degrade.is_ubank_retired(r.flat))
                {
                    self.clear_retired_policy_state(flat);
                }
            }
        }
        true
    }

    /// Drop page-policy state still armed for a μbank the reliability
    /// engine just retired: the pending decision and any policy
    /// precharge. Without this, idle-slot service would issue a PRE
    /// against a μbank that no longer exists.
    fn clear_retired_policy_state(&mut self, flat: usize) {
        self.pending[flat] = None;
        self.policy_pre.remove(&flat);
    }

    /// Patrol scrubbing on otherwise-idle command slots: background
    /// priority, after demand scheduling and before policy precharges.
    /// Issues at most one command — either the `Scrub` itself or a PRE
    /// clearing the target μbank's open row (only when no queued request
    /// still wants that row). Returns true if a command was issued.
    fn service_scrub(&mut self, now: Cycle) -> bool {
        // Pick the scrub target, walking the cursor past retired
        // (μbank, row) pairs for free: those cells no longer exist.
        // Degradation guarantees at least one live row in one live μbank,
        // so the walk terminates.
        let Some((flat, row)) = self.faults.as_deref_mut().and_then(|eng| {
            if !matches!(&eng.scrub, Some(s) if s.due(now)) {
                return None;
            }
            loop {
                let t = eng.scrub.as_ref().unwrap().target();
                if !eng.is_retired(t.0, t.1) {
                    return Some(t);
                }
                eng.scrub.as_mut().unwrap().skip();
            }
        }) else {
            return false;
        };
        let flat_us = flat as usize;
        let rank = flat_us / (self.cfg.ubanks_per_channel() / self.cfg.ranks_per_channel);
        if self.refresh_draining[rank] {
            return false;
        }
        if let Some(open) = self.channel.open_row_flat(flat_us) {
            // The target holds an open row. Close it on this idle slot
            // unless demand traffic still wants it (hits always win).
            if self.open_hits[flat_us] == 0 && self.channel.can_precharge_flat(flat_us, now) {
                self.channel.precharge_flat(flat_us, now);
                self.policy_pre.remove(&flat_us);
                self.trace_cmd(now, CmdKind::Pre, flat_us, open);
                return true;
            }
            return false;
        }
        if !self.channel.can_scrub_flat(flat_us, now) {
            return false;
        }
        self.channel.scrub_flat(flat_us, now);
        self.trace_cmd(now, CmdKind::Scrub, flat_us, row);
        let age = self.channel.refresh_age_frac(rank, now);
        let eng = self.faults.as_deref_mut().unwrap();
        let before = eng.summary.corrected;
        eng.assess_scrub(flat, row, age);
        let corrected = eng.summary.corrected - before;
        eng.scrub.as_mut().unwrap().issued(now);
        let retired = eng.degrade.is_ubank_retired(flat);
        if corrected > 0 {
            if let Some(tel) = &mut self.channel.telemetry {
                tel.heat.corrected[flat_us] += corrected;
            }
        }
        if retired {
            self.clear_retired_policy_state(flat_us);
        }
        true
    }

    /// Apply the page policy to a bank whose queue just drained.
    fn speculate(&mut self, flat: usize, row: u32, thread: u16, now: Cycle) {
        self.stats.speculative_decisions += 1;
        let decision = match (&self.predictor, self.policy) {
            (_, PolicyKind::Open) => PageDecision::KeepOpen,
            (_, PolicyKind::Close) => PageDecision::Close,
            (_, PolicyKind::MinimalistOpen { window_cycles }) => {
                self.policy_pre.insert(flat, now + window_cycles);
                PageDecision::KeepOpen
            }
            (PredictorImpl::Local(l), _) => l.predict(flat),
            (PredictorImpl::Global(g), _) => g.predict(thread),
            (PredictorImpl::Tournament(t), _) => t.predict(flat, thread),
            (PredictorImpl::Perfect, _) => PageDecision::KeepOpen, // oracle resolves later
            (PredictorImpl::None, _) => PageDecision::KeepOpen,
        };
        if decision == PageDecision::Close {
            self.policy_pre.insert(flat, now);
        }
        self.pending[flat] = Some(PendingDecision {
            predicted: decision,
            row,
            thread,
        });
    }

    /// Issue a policy precharge on an otherwise idle command slot: the
    /// lowest μbank whose close is due and may precharge now.
    fn service_policy_precharges(&mut self, now: Cycle) {
        let Some(flat) = self
            .policy_pre
            .iter()
            .find(|&(&f, &due)| due <= now && self.channel.can_precharge_flat(f, now))
            .map(|(&f, _)| f)
        else {
            return;
        };
        let row = self.channel.open_row_flat(flat).unwrap_or(0);
        self.channel.precharge_flat(flat, now);
        self.open_hits[flat] = 0;
        self.policy_pre.remove(&flat);
        self.trace_cmd(now, CmdKind::Pre, flat, row);
    }

    /// Earliest future cycle at which a [`MemoryController::tick`] could
    /// do anything beyond per-tick stats accounting, with the controller's
    /// state frozen as it stands. `Some(t)` guarantees every tick strictly
    /// before `t` is a stats-only no-op, so the caller may pass it to
    /// [`MemoryController::sleep_until`], and a time skip may jump slots
    /// before it and charge them through
    /// [`MemoryController::account_skipped_ticks`]; `Some(Cycle::MAX)`
    /// means nothing is pending at all. `None` means the controller might
    /// act at the very next tick, so it must stay awake. An `enqueue`
    /// invalidates any previously returned horizon, which is why an
    /// accepted enqueue wakes the controller.
    ///
    /// This generalizes the old all-or-nothing `idle_until`: a *busy*
    /// controller also sleeps, because every `can_*` predicate in the
    /// channel is a conjunction of monotone `now >= timer` thresholds
    /// whose exact first-true cycle the `earliest_*` duals report. The
    /// fold mirrors `tick`'s phases (DESIGN §5f):
    ///
    /// - rank power management has its own per-cycle idle/wake state
    ///   machine, so it disables skipping outright;
    /// - a pending PAR-BS batch formation demands a tick: formation
    ///   snapshots the queue at the forming tick, so its timing is
    ///   observable ([`Scheduler::would_form_batch`]);
    /// - a scheduled patrol scrub contributes its next-due cycle (a
    ///   clean-armed fault engine without a scrubber no longer pins the
    ///   controller awake — demand retries stay in the queue and are
    ///   covered by the demand fold);
    /// - a draining rank contributes its earliest PREA (or demands a tick
    ///   when already idle, since REF only waits for the drain); an armed
    ///   refresh schedule contributes its next deadline;
    /// - each queued request contributes the earliest legal cycle of its
    ///   cached next command, `max(local, rank floor)` (column for an open
    ///   row match, conflict or victim precharge unless another request
    ///   still hits the row it would close, activate when closed);
    /// - each policy precharge contributes `max(due, earliest PRE)`.
    pub fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        if self.cfg.powerdown_idle.is_some() {
            return None;
        }
        // PAR-BS batch formation happens at the first tick after the old
        // batch drains and snapshots the queue at that tick; deferring it
        // past an arrival would mark a different batch than the per-cycle
        // reference formed.
        if self.scheduler.would_form_batch(&self.queue) {
            return None;
        }
        // QoS regulation gating (DESIGN §5g): a window refill is the one
        // event the demand fold below cannot see. While every queued
        // request's bucket holds a token, a refill is a pure relaxation
        // (tokens only appear, and the filter in `service_queue` passes
        // everything it passes today), so the unfiltered fold stays exact;
        // the moment any queued request is out of tokens, fall back to
        // per-cycle ticking until its bucket drains away or refills.
        if let Some(q) = &self.qos {
            if q.regulating() {
                for idx in self.queue.indices() {
                    let r = self.queue.get(idx);
                    if !q.has_token(r.tenant, r.flat, now) {
                        return None;
                    }
                }
            }
        }
        let mut next = Cycle::MAX;
        // Patrol scrub schedule (satellite of the reliability engine).
        if let Some(eng) = self.faults.as_deref() {
            if let Some(s) = &eng.scrub {
                let due = s.next_due();
                if due <= now {
                    return None;
                }
                next = next.min(due);
            }
        }
        // Refresh: draining ranks race their PREA; armed schedules fire at
        // their deadline.
        for rank in 0..self.refresh_draining.len() {
            if self.refresh_draining[rank] {
                if self.channel.rank_all_idle(rank) {
                    return None;
                }
                let at = self.channel.earliest_precharge_all(rank);
                if at <= now {
                    return None;
                }
                next = next.min(at);
            } else if let Some(at) = self.channel.next_refresh_at(rank) {
                if at <= now {
                    return None;
                }
                next = next.min(at);
            }
        }
        // Demand queue: earliest legal cycle of each request's next
        // command. Queue content and open rows are frozen for the whole
        // skip stretch (an accepted enqueue wakes the controller; removals
        // and row changes require ticks), so the cached commands cannot
        // change mid-stretch.
        let floors = self.channel.floors();
        let (entries, _, cmds) = self.queue.split_next_cmds();
        for (r, n) in entries.iter().zip(cmds) {
            revalidate(&self.channel, &self.open_hits, r, n);
            let rank = n.rank as usize;
            if self.refresh_draining[rank] {
                continue;
            }
            let at = n.local.max(floors[rank][n.class as usize]);
            if at <= now {
                return None;
            }
            next = next.min(at);
        }
        for (&flat, &due) in &self.policy_pre {
            let at = due.max(self.channel.earliest_precharge_flat(flat));
            if at <= now {
                return None;
            }
            next = next.min(at);
        }
        Some(next)
    }

    /// Charge `n` slots that a time skip jumped past: the same stat effect
    /// as `n` sleeping `tick` calls at the current queue depth. Exact when
    /// the caller charges at the jump itself, because no tick and no
    /// enqueue lands inside a jump, so the depth holds for all `n` slots.
    pub fn account_skipped_ticks(&mut self, n: u64) {
        let qlen = self.queue.len() as u64;
        self.stats.tick_calls += n;
        self.stats.occupancy_acc += qlen * n;
    }

    /// Kept for callers that predate the removal of the reject counter,
    /// which nothing reported; does nothing.
    #[doc(hidden)]
    pub fn account_rejected(&mut self, n: u64) {
        let _ = n;
    }

    /// Recount the incrementally-maintained scheduling state from the
    /// queue and the channel — every μbank's open-row hit count, the
    /// PAR-BS marked count, the channel's rank floors and every
    /// epoch-current cached next command — and report the first
    /// disagreement. A test hook: the hot path trusts these instead of
    /// rescanning.
    #[doc(hidden)]
    pub fn check_indexes(&self) -> Result<(), String> {
        let mut hits = vec![0u32; self.open_hits.len()];
        for r in self.queue.iter() {
            let flat = r.flat as usize;
            if self.channel.open_row_flat(flat) == Some(r.loc.row) {
                hits[flat] += 1;
            }
        }
        if let Some(flat) = (0..hits.len()).find(|&f| hits[f] != self.open_hits[f]) {
            return Err(format!(
                "open_hits[{flat}] = {}, recount {}",
                self.open_hits[flat], hits[flat]
            ));
        }
        let want = self
            .queue
            .indices()
            .filter(|&i| self.queue.is_marked(i))
            .count();
        let have = self.scheduler.marked_count();
        if have != want {
            return Err(format!("marked count = {have}, recount {want}"));
        }
        self.channel.check_floors()?;
        let epochs = self.channel.bank_epochs();
        for (r, n) in self.queue.iter().zip(self.queue.next_cmds()) {
            let bank = self.channel.bank_of(r.flat as usize);
            if n.bank as usize != bank || n.rank != r.loc.rank as u16 {
                return Err(format!("request {}: cached bank/rank {n:?}", r.id));
            }
            if n.epoch == epochs[bank] {
                let want = derive_next_cmd(&self.channel, &self.open_hits, r);
                if (n.class, n.target, n.local) != want {
                    return Err(format!(
                        "request {}: cached {n:?} at epoch {}, derived {want:?}",
                        r.id, epochs[bank]
                    ));
                }
            }
        }
        Ok(())
    }

    /// The policy's speculative-decision hit rate (Fig. 13 right axis).
    pub fn policy_hit_rate(&self) -> f64 {
        self.stats.policy_stats.hit_rate()
    }

    /// Active page policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }
}

/// Re-derive `r`'s cached next command if its physical bank changed since
/// the last derivation.
#[inline]
fn revalidate(ch: &Channel, open_hits: &[u32], r: &MemRequest, n: &mut NextCmd) {
    let epoch = ch.bank_epochs()[n.bank as usize];
    if n.epoch != epoch {
        (n.class, n.target, n.local) = derive_next_cmd(ch, open_hits, r);
        n.epoch = epoch;
    }
}

/// The next DRAM command queued request `r` needs, from the channel's
/// current state: `(class, target μbank, μbank-local earliest cycle)`.
/// Everything it reads lies in `r`'s physical bank — the μbank's open row
/// and timers, the structural victim (always a sibling) and both μbanks'
/// `open_hits` — so it stays exact while that bank's epoch is unchanged.
fn derive_next_cmd(ch: &Channel, open_hits: &[u32], r: &MemRequest) -> (CmdClass, u32, Cycle) {
    let flat = r.flat as usize;
    // Serve hits before closing: a precharge waits (`Cycle::MAX`) while
    // another queued request still hits the row it would close.
    let precharge = |target: usize| {
        let local = if open_hits[target] == 0 {
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
        // Conflict: close the open row.
        Some(_) => precharge(flat),
        // The device variant's structural rules may block this ACT behind
        // a sibling μbank's open row (DESIGN §5h): close that victim.
        None => match ch.act_blocker(flat, r.loc.row) {
            Some(victim) => precharge(victim),
            None => (CmdClass::Activate, r.flat, ch.local_activate_flat(flat)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_core::request::ReqKind;

    fn cfg(nw: usize, nb: usize) -> MemConfig {
        MemConfig::lpddr_tsi()
            .with_ubanks(nw, nb)
            .with_channels(1)
            .with_refresh(false)
    }

    fn ctrl(cfg: &MemConfig, policy: PolicyKind) -> MemoryController {
        MemoryController::new(cfg, SchedulerKind::default(), policy, 4)
    }

    fn mkreq(c: &MemoryController, id: u64, addr: u64, kind: ReqKind, thread: u16) -> MemRequest {
        let mut r = MemRequest::new(id, addr, kind, thread, 0);
        r.loc = c.map().decode(addr);
        r
    }

    /// Run the controller until `n` completions have been collected.
    fn run_until(c: &mut MemoryController, n: usize, limit: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        let mut now = 0;
        while done.len() < n && now < limit {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert!(
            done.len() >= n,
            "only {} of {n} completed by {limit}",
            done.len()
        );
        done
    }

    /// A request with a hand-crafted device coordinate (the address-map
    /// decode is bypassed so tests can target a specific sibling μbank).
    fn mkreq_at(id: u64, bank: u8, w: u8, b: u8, row: u32, kind: ReqKind) -> MemRequest {
        let mut r = MemRequest::new(id, 0, kind, 0, 0);
        r.loc = microbank_core::address::Location {
            channel: 0,
            rank: 0,
            bank,
            w,
            b,
            row,
            col: 0,
        };
        r
    }

    #[test]
    fn salp1_precharges_victim_to_unblock_sibling_subarray() {
        use microbank_core::variant::{DeviceVariant, SalpMode};
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Salp {
                subarrays: 2,
                mode: SalpMode::Salp1,
            })
            .with_channels(1)
            .with_refresh(false);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Open subarray 0's row, then demand a row in subarray 1 of the
        // same bank. SALP-1 allows one open row per bank: the controller
        // must precharge the first subarray (the victim) before the second
        // can activate.
        c.enqueue(mkreq_at(1, 0, 0, 0, 7, ReqKind::Read), 0);
        let _ = run_until(&mut c, 1, 10_000);
        assert_eq!(c.channel.stats.precharges, 0, "open policy keeps row 7");
        c.enqueue(mkreq_at(2, 0, 0, 1, 3, ReqKind::Read), 10_000);
        let mut done = Vec::new();
        let mut now = 10_000;
        while done.is_empty() && now < 30_000 {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!(done.len(), 1, "blocked request must complete");
        assert!(
            c.channel.stats.precharges >= 1,
            "victim precharge must have been issued"
        );
        let f0 = 0usize; // bank 0, subarray 0 is flat 0
        assert_eq!(c.channel.open_row_flat(f0), None, "victim was closed");
    }

    /// The perfect predictor's oracle precharge closes a row at enqueue
    /// time. A sibling request whose cached command was "precharge that
    /// row as the structural victim" must be re-derived (into an ACT).
    #[test]
    fn oracle_precharge_revalidates_a_sibling_blocked_behind_it() {
        use microbank_core::variant::{DeviceVariant, SalpMode};
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Salp {
                subarrays: 2,
                mode: SalpMode::Salp1,
            })
            .with_channels(1)
            .with_refresh(false);
        // FR-FCFS: a pending PAR-BS batch would stop `next_event` before
        // its demand fold derives the queued commands.
        let perfect = PolicyKind::Predictive(PredictorKind::Perfect);
        let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, perfect, 4);
        c.enqueue(mkreq_at(1, 0, 0, 0, 7, ReqKind::Read), 0);
        let _ = run_until(&mut c, 1, 10_000);
        // Subarray 1 is blocked behind subarray 0's open row 7.
        c.enqueue(mkreq_at(2, 0, 0, 1, 3, ReqKind::Read), 10_000);
        assert_eq!(c.next_event(10_000), None, "the victim PRE is legal now");
        c.check_indexes().unwrap();
        // A different row for subarray 0: the oracle closes row 7.
        c.enqueue(mkreq_at(3, 0, 0, 0, 9, ReqKind::Read), 10_000);
        assert_eq!(c.channel.open_row_flat(0), None, "oracle precharge fired");
        c.check_indexes().unwrap();
    }

    /// A refresh of an already idle rank pushes every μbank's `next_act`
    /// past tRFC; a cached ACT must not keep its old local deadline.
    #[test]
    fn refresh_of_an_idle_rank_revalidates_cached_activates() {
        let cf = MemConfig::lpddr_tsi().with_ubanks(1, 1).with_channels(1);
        // FR-FCFS, as above, so that `next_event` derives the command.
        let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
        let due = c.channel.next_refresh_at(0).unwrap();
        c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), due - 1);
        assert_eq!(c.next_event(due - 1), None, "the ACT is legal now");
        c.tick(due);
        assert_eq!(c.channel.stats.refreshes, 1);
        c.check_indexes().unwrap();
    }

    #[test]
    fn sectored_appends_same_row_without_precharge() {
        use microbank_core::variant::DeviceVariant;
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 8,
            })
            .with_channels(1)
            .with_refresh(false);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Same row, both wordline groups: the second ACT appends sectors
        // without closing the first (shared decoder already at row 5).
        c.enqueue(mkreq_at(1, 0, 0, 0, 5, ReqKind::Read), 0);
        c.enqueue(mkreq_at(2, 0, 1, 0, 5, ReqKind::Read), 0);
        let _ = run_until(&mut c, 2, 20_000);
        assert_eq!(c.channel.stats.activates, 2);
        assert_eq!(c.channel.stats.precharges, 0, "append must not precharge");
    }

    #[test]
    fn sectored_closes_decoder_victim_for_a_different_row() {
        use microbank_core::variant::DeviceVariant;
        let cf = MemConfig::lpddr_tsi()
            .with_variant(DeviceVariant::Sectored {
                sectors: 16,
                sectors_per_act: 8,
            })
            .with_channels(1)
            .with_refresh(false);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enqueue(mkreq_at(1, 0, 0, 0, 5, ReqKind::Read), 0);
        let _ = run_until(&mut c, 1, 10_000);
        // Different row in the sibling group: the shared row decoder is
        // held at row 5, so the open sector must be precharged first.
        c.enqueue(mkreq_at(2, 0, 1, 0, 6, ReqKind::Read), 10_000);
        let mut done = Vec::new();
        let mut now = 10_000;
        while done.is_empty() && now < 30_000 {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!(done.len(), 1);
        assert!(c.channel.stats.precharges >= 1);
        assert_eq!(c.channel.open_row_flat(0), None, "row-5 sector closed");
        assert_eq!(c.channel.open_row_flat(1), Some(6));
    }

    #[test]
    fn single_read_completes_with_closed_bank_latency() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        let r = mkreq(&c, 1, 0x40, ReqKind::Read, 0);
        assert!(c.enqueue(r, 0));
        let done = run_until(&mut c, 1, 10_000);
        let t = cf.timings();
        // ACT at t=0, RD at tRCD, data at tRCD + tAA + tBURST.
        assert_eq!(done[0].at, t.t_rcd + t.t_aa + t.t_burst);
        assert_eq!(c.stats.served_reads, 1);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Two reads to the same row (iB = 13: consecutive lines share a row).
        c.enqueue(mkreq(&c, 1, 0x0, ReqKind::Read, 0), 0);
        c.enqueue(mkreq(&c, 2, 0x40, ReqKind::Read, 0), 0);
        let done = run_until(&mut c, 2, 10_000);
        let t = cf.timings();
        let gap = done[1].at - done[0].at;
        assert!(
            gap <= t.t_ccd.max(t.t_burst) + t.t_cmd,
            "hit gap {gap} too large"
        );
        assert_eq!(
            c.channel.stats.activates, 1,
            "second access must not re-activate"
        );
    }

    #[test]
    fn open_policy_keeps_row_open_close_policy_precharges() {
        for (policy, want_idle) in [(PolicyKind::Open, false), (PolicyKind::Close, true)] {
            let cf = cfg(1, 1);
            let mut c = ctrl(&cf, policy);
            c.enqueue(mkreq(&c, 1, 0x0, ReqKind::Read, 0), 0);
            let _ = run_until(&mut c, 1, 10_000);
            // Give the close policy time to issue its speculative PRE.
            for now in 10_000..11_000 {
                c.tick(now);
            }
            let flat = c.map().decode(0).ubank_flat(&cf);
            assert_eq!(c.channel.ubank(flat).is_idle(), want_idle, "{policy:?}");
        }
    }

    /// Mean access latency (completion − enqueue) for `n` serialized
    /// requests from `pattern`, with an idle `gap` after each completion so
    /// tRC never binds and the speculative page decision is what matters.
    fn mean_latency(
        cf: &MemConfig,
        policy: PolicyKind,
        pattern: impl Fn(u64) -> u64,
        n: u64,
        gap: Cycle,
    ) -> f64 {
        let mut c = ctrl(cf, policy);
        let mut now: Cycle = 0;
        let mut total: u64 = 0;
        for i in 0..n {
            let r = mkreq(&c, i, pattern(i), ReqKind::Read, 0);
            let issued_at = now;
            assert!(c.enqueue(r, now));
            let mut done: Vec<Completion> = Vec::new();
            while done.is_empty() {
                c.tick(now);
                c.take_completions(&mut done);
                now += 1;
                assert!(now < issued_at + 100_000, "request {i} stuck");
            }
            total += done[0].at - issued_at;
            // Idle gap: lets the policy's speculative PRE (if any) land.
            let resume = done[0].at.max(now) + gap;
            while now < resume {
                c.tick(now);
                now += 1;
            }
        }
        total as f64 / n as f64
    }

    #[test]
    fn close_policy_wins_on_alternating_rows() {
        // Alternating rows in one bank: close-page precharges during the
        // gap, so each access pays ACT+RD only; open-page pays PRE too.
        let cf = cfg(1, 1);
        let alt = |i: u64| (i % 2) * (1 << 16) + (i / 2 % 8) * 64; // rows 0/1, bank 0
        let open = mean_latency(&cf, PolicyKind::Open, alt, 64, 300);
        let close = mean_latency(&cf, PolicyKind::Close, alt, 64, 300);
        let t = cf.timings();
        assert!(close + 2.0 < open, "close {close} !< open {open}");
        assert!((open - close) > 0.8 * t.t_rp as f64, "gap {}", open - close);
    }

    #[test]
    fn open_policy_wins_on_row_streams() {
        let cf = cfg(1, 1);
        let stream = |i: u64| (i % 32) * 64; // one row, bank 0
        let open = mean_latency(&cf, PolicyKind::Open, stream, 64, 300);
        let close = mean_latency(&cf, PolicyKind::Close, stream, 64, 300);
        let t = cf.timings();
        assert!(open + 2.0 < close, "open {open} !< close {close}");
        assert!(
            (close - open) > 0.8 * t.t_rcd as f64,
            "gap {}",
            close - open
        );
    }

    #[test]
    fn perfect_policy_matches_best_static_on_both_patterns() {
        let cf = cfg(1, 1);
        let stream = |i: u64| (i % 32) * 64;
        let alt = |i: u64| (i % 2) * (1 << 16) + (i / 2 % 8) * 64;
        for pattern in [stream as fn(u64) -> u64, alt as fn(u64) -> u64] {
            let open = mean_latency(&cf, PolicyKind::Open, pattern, 64, 300);
            let close = mean_latency(&cf, PolicyKind::Close, pattern, 64, 300);
            let perfect = mean_latency(
                &cf,
                PolicyKind::Predictive(PredictorKind::Perfect),
                pattern,
                64,
                300,
            );
            let best = open.min(close);
            assert!(
                perfect <= best + 2.0,
                "perfect {perfect} vs best static {best}"
            );
        }
    }

    #[test]
    fn queue_full_rejects() {
        let cf = cfg(1, 1).with_queue_size(2);
        let mut c = ctrl(&cf, PolicyKind::Open);
        assert!(c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0));
        assert!(c.enqueue(mkreq(&c, 2, 64, ReqKind::Read, 0), 0));
        assert!(!c.enqueue(mkreq(&c, 3, 128, ReqKind::Read, 0), 0));
        assert_eq!(c.queue_len(), 2);
    }

    #[test]
    fn completion_arrival_is_the_accepting_enqueue_cycle() {
        let cf = cfg(1, 1).with_queue_size(1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        // Both requests carry a stale `arrival` stamp of 0 from `mkreq`.
        assert!(c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 5));
        let t0 = 6;
        assert!(!c.enqueue(mkreq(&c, 2, 64, ReqKind::Read, 0), t0));
        let mut done = Vec::new();
        let mut now = t0;
        while done.is_empty() && now < 10_000 {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!((done[0].id, done[0].arrival), (1, 5));
        // Request 2 is retried and accepted at t1 > t0: its arrival is
        // the accepting cycle, not the rejected attempt nor its stamp.
        let t1 = now;
        assert!(t1 > t0);
        assert!(c.enqueue(mkreq(&c, 2, 64, ReqKind::Read, 0), t1));
        done.clear();
        while done.is_empty() && now < 20_000 {
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!((done[0].id, done[0].arrival), (2, t1));
        assert!(done[0].at > t1);
    }

    #[test]
    fn completion_arrival_survives_ecc_retry_and_remap() {
        let cf = cfg(4, 4);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enable_faults(&FaultConfig::stress(11), 0);
        let mut accepted = std::collections::HashMap::new();
        let mut done = Vec::new();
        let (mut next_id, mut x) = (0u64, 1u64);
        for now in 0..400_000 {
            if now % 8 == 0 && next_id < 20_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (x >> 20) % (1 << 24) * 64;
                if c.enqueue(mkreq(&c, next_id, addr, ReqKind::Read, 0), now) {
                    accepted.insert(next_id, now);
                    next_id += 1;
                }
            }
            c.tick(now);
            c.take_completions(&mut done);
        }
        let s = c.faults.as_ref().unwrap().summary;
        assert!(s.retries > 0, "no ECC retry exercised: {s:?}");
        assert!(s.retired_rows + s.retired_ubanks > 0, "no remap: {s:?}");
        assert!(done.len() > 1_000);
        for d in &done {
            assert_eq!(d.arrival, accepted[&d.id], "request {}", d.id);
        }
    }

    #[test]
    fn writes_complete_and_count() {
        let cf = cfg(2, 2);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enqueue(mkreq(&c, 1, 0x1000, ReqKind::Write, 0), 0);
        let done = run_until(&mut c, 1, 10_000);
        assert!(done[0].is_write);
        assert_eq!(c.stats.served_writes, 1);
        assert_eq!(c.channel.stats.writes, 1);
    }

    #[test]
    fn refresh_eventually_issues_and_service_resumes() {
        let cf = MemConfig::lpddr_tsi().with_ubanks(1, 1).with_channels(1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        let t = cf.timings();
        // Keep a row open so the drain path is exercised.
        c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0);
        let mut done = Vec::new();
        for now in 0..(t.t_refi + t.t_rfc + 2000) {
            c.tick(now);
            c.take_completions(&mut done);
        }
        assert_eq!(c.channel.stats.refreshes, 1);
        // Post-refresh request still completes.
        let at = t.t_refi + t.t_rfc + 2000;
        c.enqueue(mkreq(&c, 2, 1 << 22, ReqKind::Read, 0), at);
        for now in at..(at + 10_000) {
            c.tick(now);
            c.take_completions(&mut done);
        }
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn microbanks_overlap_conflicting_requests() {
        use microbank_core::address::{AddressMap, Location};
        // Baseline (1,1): two rows of bank 0 conflict and serialize over
        // tRC. (4,4): the "second row" lives in a different μbank of the
        // same bank (b = 1), so the two requests overlap.
        let mut finish = Vec::new();
        for (nw, nb) in [(1usize, 1usize), (4, 4)] {
            let cf = cfg(nw, nb);
            let map = AddressMap::new(&cf);
            let mk = |b: u8, row: u32| Location {
                channel: 0,
                rank: 0,
                bank: 0,
                w: 0,
                b,
                row,
                col: 0,
            };
            let (l1, l2) = if nb == 1 {
                (mk(0, 0), mk(0, 1))
            } else {
                (mk(0, 0), mk(1, 0))
            };
            let mut c = ctrl(&cf, PolicyKind::Open);
            c.enqueue(mkreq(&c, 1, map.encode(&l1), ReqKind::Read, 0), 0);
            c.enqueue(mkreq(&c, 2, map.encode(&l2), ReqKind::Read, 0), 0);
            let done = run_until(&mut c, 2, 100_000);
            finish.push(done.iter().map(|d| d.at).max().unwrap());
        }
        assert!(
            finish[1] + 20 < finish[0],
            "ubank {} not faster than baseline {}",
            finish[1],
            finish[0]
        );
    }

    #[test]
    fn local_predictor_policy_learns_open_friendly_stream() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Predictive(PredictorKind::Local));
        let mut now = 0;
        let mut done: Vec<Completion> = Vec::new();
        let mut next = 0u64;
        // Same row repeatedly, serialized so every access is speculative.
        while done.len() < 60 && now < 1_000_000 {
            if next < 60 && next <= done.len() as u64 {
                c.enqueue(mkreq(&c, next, (next % 32) * 64, ReqKind::Read, 0), now);
                next += 1;
            }
            c.tick(now);
            c.take_completions(&mut done);
            now += 1;
        }
        assert_eq!(done.len(), 60);
        assert!(
            c.policy_hit_rate() > 0.8,
            "hit rate {}",
            c.policy_hit_rate()
        );
        // After warmup the predictor keeps the row open: ~1 activate total.
        assert!(
            c.channel.stats.activates <= 3,
            "{} ACTs",
            c.channel.stats.activates
        );
    }

    #[test]
    fn mean_queue_occupancy_reported() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0);
        for now in 0..100 {
            c.tick(now);
        }
        assert!(c.stats.mean_queue_occupancy() > 0.0);
        assert_eq!(c.stats.tick_calls, 100);
    }

    #[test]
    fn sleeping_tick_charges_its_slot_and_issues_nothing() {
        let cf = cfg(1, 1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        assert!(c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 0));
        assert!(c.enqueue(mkreq(&c, 2, 64, ReqKind::Read, 0), 0));
        c.sleep_until(50);
        assert_eq!(c.wake(), 50);
        let dram = c.channel.stats;
        for now in 0..50 {
            assert!(!c.tick(now), "tick at {now} ran before the wake");
        }
        assert_eq!(c.stats.tick_calls, 50);
        assert_eq!(c.stats.occupancy_acc, 2 * 50);
        assert_eq!(c.channel.stats, dram, "no command issued");
        assert_eq!(c.queue_len(), 2);
        assert!(c.tick(50));
        assert_eq!(c.channel.stats.activates, 1, "the wake slot acts");
        assert_eq!(c.stats.occupancy_acc, 2 * 51);
    }

    #[test]
    fn accepted_enqueue_wakes_and_rejected_one_does_not() {
        let cf = cfg(1, 1).with_queue_size(1);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.sleep_until(Cycle::MAX);
        assert!(c.enqueue(mkreq(&c, 1, 0, ReqKind::Read, 0), 7));
        assert_eq!(c.wake(), 7);
        c.sleep_until(100);
        assert!(!c.enqueue(mkreq(&c, 2, 64, ReqKind::Read, 0), 8));
        assert_eq!(c.wake(), 100, "a rejected enqueue leaves the sleep");
        assert!(!c.tick(8));
    }

    /// Regression: retiring a μbank while its close deadline is armed must
    /// drop that deadline with it. The failure mode was a stale deadline
    /// issuing a policy PRE against a μbank the degradation ladder had
    /// already removed.
    #[test]
    fn retiring_a_ubank_drops_its_pending_close_deadline() {
        let cf = cfg(4, 4);
        let mut fc = FaultConfig::new(3);
        fc.subarray_faults = 1;
        // Locate the bad μbank with a probe engine: `FaultEngine::new` is
        // deterministic per (seed, channel), so the controller's own engine
        // carries the same fault map.
        let mut probe = FaultEngine::new(&cf, &fc, 0);
        let bad = (0..cf.ubanks_per_channel() as u32)
            .find(|&f| probe.assess_demand_read(f, 0, 0.0, false) == AccessVerdict::Uncorrectable)
            .expect("subarray fault marks one μbank bad");
        let window = 200;
        let mut c = ctrl(
            &cf,
            PolicyKind::MinimalistOpen {
                window_cycles: window,
            },
        );
        c.enable_faults(&fc, 0);
        // A read addressed at the bad μbank, row 0 (low addresses decode to
        // row 0; scan for the address that lands on the target flat).
        let addr = (0..1 << 20)
            .step_by(64)
            .find(|&a| {
                let loc = c.map().decode(a);
                loc.ubank_flat(&cf) as u32 == bad && loc.row == 0
            })
            .expect("some cache line maps to the bad μbank");
        assert!(c.enqueue(mkreq(&c, 1, addr, ReqKind::Read, 0), 0));
        let done = run_until(&mut c, 1, 10_000);
        assert_eq!(done.len(), 1, "uncorrectable reads still complete");
        let flat = bad as usize;
        assert!(
            c.faults.as_ref().unwrap().degrade.is_ubank_retired(bad),
            "the uncorrectable read retires the μbank"
        );
        // The deadline `speculate` armed on service must be gone, along
        // with the pending decision for the flat.
        assert!(!c.policy_pre.contains_key(&flat));
        assert!(c.pending[flat].is_none());
        // And no policy PRE may fire once the window elapses.
        let pres = c.channel.stats.precharges;
        let start = done[0].at;
        for now in start..start + 4 * window {
            c.tick(now);
        }
        assert_eq!(
            c.channel.stats.precharges, pres,
            "policy precharge issued against a retired μbank"
        );
    }

    // ---- multi-tenant QoS (DESIGN §5g) ----

    fn mkreq_t(
        c: &MemoryController,
        id: u64,
        addr: u64,
        kind: ReqKind,
        tenant: TenantId,
    ) -> MemRequest {
        let mut r = mkreq(c, id, addr, kind, tenant.0 as u16);
        r.tenant = tenant;
        r
    }

    /// Tick `c` through `[0, end)` and bucket completion times.
    fn drain_until(c: &mut MemoryController, end: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in 0..end {
            c.tick(now);
            c.take_completions(&mut done);
        }
        done
    }

    #[test]
    fn strict_throttling_bounds_completions_per_window() {
        let cf = cfg(1, 1);
        let period = 10_000;
        let qc = QosConfig::tracking()
            .with_replenish_period(period)
            .with_work_conserving(false)
            .with_tenant(Some(2), 0);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enable_qos(&qc);
        for i in 0..6u64 {
            // Same row: row hits, so only the token bucket paces issue.
            assert!(c.enqueue(mkreq_t(&c, i, i * 64, ReqKind::Read, TenantId(0)), 0));
        }
        let done = drain_until(&mut c, 3 * period);
        assert_eq!(done.len(), 6, "all requests eventually complete");
        for w in 0..3u64 {
            let in_window = done
                .iter()
                .filter(|d| d.at >= w * period && d.at < (w + 1) * period)
                .count();
            assert!(
                in_window <= 2,
                "window {w} served {in_window} > budget 2 without reclaim"
            );
        }
        let q = c.qos.as_ref().unwrap();
        assert!(q.stats.throttled[0] > 0, "empty-bucket rounds must count");
        assert_eq!(q.stats.reclaimed[0], 0, "strict mode never reclaims");
    }

    #[test]
    fn work_conserving_reclaim_never_idles_the_channel() {
        let cf = cfg(1, 1);
        let period = 10_000;
        let qc = QosConfig::tracking()
            .with_replenish_period(period)
            .with_work_conserving(true)
            .with_tenant(Some(2), 0);
        let mut c = ctrl(&cf, PolicyKind::Open);
        c.enable_qos(&qc);
        for i in 0..6u64 {
            assert!(c.enqueue(mkreq_t(&c, i, i * 64, ReqKind::Read, TenantId(0)), 0));
        }
        // No competing token-holder exists, so reclaim back-fills the
        // budget gap: everything finishes well inside the first window.
        let done = drain_until(&mut c, period);
        assert_eq!(done.len(), 6, "reclaim must not idle eligible demand");
        let q = c.qos.as_ref().unwrap();
        assert_eq!(q.stats.reclaimed[0], 4, "issues beyond budget 2 reclaim");
        assert_eq!(q.stats.served_cols[0], 6);
    }

    #[test]
    fn priority_tenant_is_served_before_earlier_batch_arrivals() {
        let cf = cfg(1, 1);
        // Tenant 0 (batch): priority 1; tenant 1 (latency-critical): 0.
        let qc = QosConfig::tracking()
            .with_tenant(None, 1)
            .with_tenant(None, 0);
        let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
        c.enable_qos(&qc);
        for i in 0..4u64 {
            assert!(c.enqueue(mkreq_t(&c, i, i * 64, ReqKind::Read, TenantId(0)), 0));
        }
        // Arrives last (highest id, same cycle): must still win the first
        // service round — tenant priority ranks above row-hit order.
        assert!(c.enqueue(mkreq_t(&c, 9, 0x100, ReqKind::Read, TenantId(1)), 0));
        let done = run_until(&mut c, 5, 100_000);
        assert_eq!(done[0].tenant, TenantId(1), "priority tenant first");
        assert_eq!(done[0].id, 9);
    }

    #[test]
    fn next_event_falls_back_to_ticking_when_a_bucket_is_empty() {
        let cf = cfg(1, 1);
        let mk = |qc: &QosConfig| {
            // FrFcfs: PAR-BS batch formation would force `None` on its own.
            let mut c = MemoryController::new(&cf, SchedulerKind::FrFcfs, PolicyKind::Open, 4);
            c.enable_qos(qc);
            assert!(c.enqueue(mkreq_t(&c, 1, 0x40, ReqKind::Read, TenantId(0)), 0));
            c.tick(0); // ACT issues; the RD becomes a strictly future event
            c
        };
        let mut tracking = mk(&QosConfig::tracking());
        assert!(
            tracking.next_event(1).is_some(),
            "unregulated queue exposes the future RD as a skip target"
        );
        let mut starved = mk(&QosConfig::tracking().with_tenant(Some(0), 0));
        assert_eq!(
            starved.next_event(1),
            None,
            "an empty bucket demands per-cycle ticking (refills are invisible \
             to the demand fold)"
        );
    }
}
