//! Memory-access scheduling: FR-FCFS and PAR-BS (Mutlu & Moscibroda [46]),
//! the paper's default scheduler (§VI-A).
//!
//! PAR-BS forms *batches*: when no marked requests remain, it marks up to
//! `marking_cap` oldest requests per (thread, bank) pair. Marked requests
//! have absolute priority over unmarked ones, which bounds each thread's
//! memory-induced delay. Within the batch, FR-FCFS row-hit-first ordering
//! preserves locality, threads are ranked shortest-job-first (fewest marked
//! requests first — "the memory access scheduler detects and restores
//! spatial locality that can be extracted from the request queue", §VI-C),
//! and age breaks ties.

use crate::qos::{tenant_slot, MAX_TENANTS};
use crate::queue::{FxBuild, RequestQueue};
use microbank_core::request::TenantId;
use microbank_core::Cycle;
use std::collections::HashMap;

/// Scheduling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// First-ready, first-come-first-served: row hits first, then oldest.
    FrFcfs,
    /// Parallelism-aware batch scheduling with the given per-(thread, bank)
    /// marking cap (the paper's default; cap 5 in the original PAR-BS).
    ParBs { marking_cap: usize },
}

impl Default for SchedulerKind {
    fn default() -> Self {
        SchedulerKind::ParBs { marking_cap: 5 }
    }
}

/// What the controller could do for one queue entry right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// RD/WR to an open row (a row hit).
    Column,
    /// ACT on an idle bank.
    Activate,
    /// PRE of a conflicting open row.
    PrechargeConflict,
    /// PRE of a *sibling* μbank whose open row structurally blocks this
    /// request's ACT under the device variant's issue rules (SALP open-row
    /// limit, Sectored shared row decoder). Carries the victim's flat
    /// index — the request's own μbank is closed and untouched.
    PrechargeVictim(u32),
}

/// A schedulable (queue entry, action) pair with priority inputs.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Index into the request queue.
    pub idx: usize,
    pub action: Action,
    pub id: u64,
    /// Part of the current PAR-BS batch (copied from the queue entry).
    pub marked: bool,
    pub thread: u16,
    pub arrival: Cycle,
    /// Owning tenant (always `TenantId(0)` outside multi-tenant runs);
    /// consulted only when a QoS priority table is installed.
    pub tenant: TenantId,
}

/// Stateful scheduler (batch bookkeeping for PAR-BS).
///
/// The batch marks live on the queue entries
/// ([`RequestQueue::is_marked`]); the scheduler keeps only their count.
/// Invariant: `marked` equals the number of marked queue entries. Marks
/// are set only in [`Scheduler::maybe_form_batch`], and a marked entry
/// leaves the queue only through the controller's column path, which
/// reports it via [`Scheduler::note_serviced`]. "Any queued request is
/// still marked" is therefore `marked > 0`, with no queue scan.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    marked: usize,
    /// Shortest-job-first rank per thread in the current batch, indexed
    /// by thread; `u32::MAX` (also past the end) for unranked threads.
    thread_rank: Vec<u32>,
    pub batches_formed: u64,
    // Reusable batch-formation scratch (cleared each use; the maps are
    // never iterated, and `threads` is fully sorted by a total key, so the
    // hasher cannot influence behavior).
    order: Vec<usize>,
    per_pair: HashMap<(u16, u32), usize, FxBuild>,
    per_thread: HashMap<u16, u32, FxBuild>,
    threads: Vec<(u16, u32)>,
    /// Per-tenant scheduling priority (lower wins), installed by the QoS
    /// subsystem. All-zero (the default) contributes a constant to the
    /// selection key, so single-tenant and QoS-off runs are bit-identical
    /// to the pre-QoS scheduler.
    tenant_prio: [u8; MAX_TENANTS],
}

impl Scheduler {
    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler {
            kind,
            marked: 0,
            thread_rank: Vec::new(),
            batches_formed: 0,
            order: Vec::new(),
            per_pair: HashMap::default(),
            per_thread: HashMap::default(),
            threads: Vec::new(),
            tenant_prio: [0; MAX_TENANTS],
        }
    }

    /// Install the QoS tenant-priority table (see
    /// [`crate::qos::QosConfig::priorities`]).
    pub fn set_tenant_priorities(&mut self, prio: [u8; MAX_TENANTS]) {
        self.tenant_prio = prio;
    }

    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Number of queued requests in the current batch.
    pub fn marked_count(&self) -> usize {
        self.marked
    }

    /// Shortest-job-first rank of `thread` in the current batch (lower is
    /// higher priority); unmarked threads rank last.
    pub fn rank_of(&self, thread: u16) -> u32 {
        self.thread_rank
            .get(usize::from(thread))
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// A request left the queue; `marked` is its batch mark.
    pub fn note_serviced(&mut self, marked: bool) {
        self.marked -= usize::from(marked);
    }

    /// Would the next [`Scheduler::maybe_form_batch`] call actually form
    /// a batch? Formation snapshots the queue *at the forming tick*, so
    /// its timing is observable: the controller's event horizon must
    /// demand a real tick whenever a formation is pending, or a request
    /// arriving before the deferred tick would be marked into a batch
    /// that the per-cycle reference formed without it (DESIGN §5f).
    pub fn would_form_batch(&self, queue: &RequestQueue) -> bool {
        matches!(self.kind, SchedulerKind::ParBs { .. }) && self.marked == 0 && !queue.is_empty()
    }

    /// Form a new batch if the current one is exhausted (PAR-BS only),
    /// marking the chosen entries in `queue`. Uses each entry's cached
    /// flat μbank index ([`MemRequest::flat`], stamped by the queue on
    /// push).
    ///
    /// [`MemRequest::flat`]: microbank_core::request::MemRequest::flat
    pub fn maybe_form_batch(&mut self, queue: &mut RequestQueue) {
        let SchedulerKind::ParBs { marking_cap } = self.kind else {
            return;
        };
        if self.marked > 0 {
            return; // batch still in flight (see the invariant)
        }
        self.thread_rank.fill(u32::MAX);
        if queue.is_empty() {
            return;
        }
        // Sort entry indices by age so we mark the oldest per (thread, bank).
        self.order.clear();
        self.order.extend(queue.indices());
        self.order
            .sort_unstable_by_key(|&i| (queue.get(i).arrival, queue.get(i).id));
        self.per_pair.clear();
        self.per_thread.clear();
        for &i in &self.order {
            let (thread, flat) = (queue.get(i).thread, queue.get(i).flat);
            let n = self.per_pair.entry((thread, flat)).or_insert(0);
            if *n < marking_cap {
                *n += 1;
                queue.mark(i);
                self.marked += 1;
                *self.per_thread.entry(thread).or_insert(0) += 1;
            }
        }
        // Shortest job first: fewest marked requests → rank 0. Sorted by a
        // total key, so the map's iteration order is immaterial.
        self.threads.clear();
        self.threads
            .extend(self.per_thread.iter().map(|(&t, &n)| (t, n)));
        self.threads.sort_unstable_by_key(|&(t, n)| (n, t));
        for (rank, &(t, _)) in self.threads.iter().enumerate() {
            let t = usize::from(t);
            if t >= self.thread_rank.len() {
                self.thread_rank.resize(t + 1, u32::MAX);
            }
            self.thread_rank[t] = rank as u32;
        }
        self.batches_formed += 1;
    }

    /// Choose the best candidate to issue this cycle. Priority (highest
    /// first): batch-marked, QoS tenant priority, row-hit (Column action),
    /// thread rank, age. The tenant axis sits inside the batch boundary —
    /// PAR-BS's starvation bound survives prioritization — but above
    /// row-hit ordering, so a latency-critical miss beats a batch tenant's
    /// hit; with no priority table installed it is a constant.
    pub fn select<'a>(&self, candidates: &'a [Candidate]) -> Option<&'a Candidate> {
        candidates.iter().min_by_key(|c| {
            let miss = c.action != Action::Column;
            (
                !c.marked, // false (0) sorts first
                self.tenant_prio[tenant_slot(c.tenant)],
                miss,
                self.rank_of(c.thread),
                c.arrival,
                c.id,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_core::address::AddressMap;
    use microbank_core::config::MemConfig;
    use microbank_core::request::{MemRequest, ReqKind};

    fn cfg() -> MemConfig {
        MemConfig::lpddr_tsi().with_queue_size(32)
    }

    fn push(queue: &mut RequestQueue, cfg: &MemConfig, id: u64, thread: u16, addr: u64) {
        let map = AddressMap::new(cfg);
        let mut r = MemRequest::new(id, addr, ReqKind::Read, thread, id);
        r.loc = map.decode(addr);
        let flat = r.loc.ubank_flat(cfg);
        assert!(queue.push(r, flat));
    }

    /// Queue index of the entry with request id `id`.
    fn idx_of(q: &RequestQueue, id: u64) -> usize {
        q.indices().find(|&i| q.get(i).id == id).unwrap()
    }

    fn cand(idx: usize, action: Action, id: u64, marked: bool, arrival: Cycle) -> Candidate {
        Candidate {
            idx,
            action,
            id,
            marked,
            thread: 0,
            arrival,
            tenant: TenantId::default(),
        }
    }

    #[test]
    fn frfcfs_prefers_row_hits_then_age() {
        let s = Scheduler::new(SchedulerKind::FrFcfs);
        let cands = [
            cand(0, Action::Activate, 0, false, 0),
            cand(1, Action::Column, 1, false, 10),
            cand(2, Action::Column, 2, false, 5),
        ];
        let best = s.select(&cands).unwrap();
        assert_eq!(
            best.idx, 2,
            "younger hit beats older miss; older hit beats younger"
        );
    }

    #[test]
    fn parbs_marks_at_most_cap_per_thread_bank() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // 8 requests from one thread to the same bank/row region.
        for i in 0..8u64 {
            push(&mut q, &c, i, 0, i * 64); // iB=13 → same row, same bank
        }
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&mut q);
        let marked: Vec<u64> = q
            .indices()
            .filter(|&i| q.is_marked(i))
            .map(|i| q.get(i).id)
            .collect();
        assert_eq!(marked, [0, 1, 2, 3, 4], "the five oldest are marked");
        assert_eq!(s.marked_count(), 5);
        assert_eq!(s.batches_formed, 1);
    }

    #[test]
    fn parbs_ranks_light_threads_first() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // Thread 0: four requests to distinct banks; thread 1: one request.
        for i in 0..4u64 {
            push(&mut q, &c, i, 0, i << 20);
        }
        push(&mut q, &c, 99, 1, 5 << 20);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&mut q);
        assert!(s.rank_of(1) < s.rank_of(0), "shortest job first");
        assert_eq!(
            s.rank_of(7),
            u32::MAX,
            "threads outside the batch rank last"
        );
    }

    #[test]
    fn batch_persists_until_drained() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        push(&mut q, &c, 1, 0, 0);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&mut q);
        assert!(q.is_marked(idx_of(&q, 1)));
        // New arrivals do not join the in-flight batch.
        push(&mut q, &c, 2, 1, 1 << 20);
        s.maybe_form_batch(&mut q);
        assert!(!q.is_marked(idx_of(&q, 2)));
        assert_eq!(s.batches_formed, 1);
        assert!(!s.would_form_batch(&q));
        // Drain the batch; next call forms a fresh one including id 2.
        let idx = idx_of(&q, 1);
        s.note_serviced(q.is_marked(idx));
        q.remove(idx);
        assert_eq!(s.marked_count(), 0);
        assert!(s.would_form_batch(&q));
        s.maybe_form_batch(&mut q);
        assert!(q.is_marked(idx_of(&q, 2)));
        assert_eq!(s.batches_formed, 2);
        // Thread 0 left the batch with its request: its rank is cleared.
        assert_eq!(s.rank_of(0), u32::MAX);
        assert_eq!(s.rank_of(1), 0);
    }

    #[test]
    fn marked_requests_outrank_unmarked_hits() {
        let s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        let cands = [
            // Unmarked row hit (arrived after the batch formed)…
            cand(5, Action::Column, 42, false, 100),
            // …vs a marked activate.
            cand(0, Action::Activate, 1, true, 0),
        ];
        assert_eq!(s.select(&cands).unwrap().id, 1);
    }

    #[test]
    fn frfcfs_never_marks() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        push(&mut q, &c, 1, 0, 0);
        let mut s = Scheduler::new(SchedulerKind::FrFcfs);
        s.maybe_form_batch(&mut q);
        assert!(!q.is_marked(0));
        assert_eq!(s.marked_count(), 0);
        assert_eq!(s.batches_formed, 0);
    }
}
