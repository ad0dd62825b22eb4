//! Memory-access scheduling: FR-FCFS and PAR-BS (Mutlu & Moscibroda \[46\]),
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
use crate::queue::RequestQueue;
use microbank_core::request::MemRequest;

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

/// Selection priority of one queued request, lower first: orders exactly
/// like the tuple `(!marked, tenant_prio, miss, thread_rank, arrival,
/// id)` (see [`Scheduler::key`]). The first five fields pack into one
/// `u128` — arrival in bits 0–63, thread rank 64–111, miss 112, tenant
/// priority 113–120, unmarked 121 — so a comparison is one wide compare
/// plus the id on a tie.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    order: u128,
    id: u64,
}

impl Key {
    const MISS: u128 = 1 << 112;
    /// Above every request's key (whose packed fields end at bit 121).
    pub const MAX: Key = Key {
        order: u128::MAX,
        id: u64::MAX,
    };

    /// The key with its row-hit field set from `hit` (keys start as a
    /// miss): a request whose next command is a column ranks as a hit.
    #[inline]
    pub fn with_hit(self, hit: bool) -> Key {
        Key {
            order: self.order & !(u128::from(hit) * Self::MISS),
            id: self.id,
        }
    }
}

/// Stateful scheduler (batch bookkeeping for PAR-BS).
///
/// The batch marks live on the queue entries
/// ([`RequestQueue::is_marked`]), so the batch has drained exactly when
/// the queue's mark bitset is empty; the scheduler keeps only the thread
/// ranks of the batch that set them.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// Shortest-job-first rank per thread in the current batch, indexed
    /// by thread: its marked count above its 16-bit id, so ranks order by
    /// (marked count, thread id). [`Scheduler::UNRANKED`] (also past the
    /// end) for threads without a marked request.
    thread_rank: Vec<u64>,
    /// Per-tenant scheduling priority (lower wins), installed by the QoS
    /// subsystem. All-zero (the default) contributes a constant to the
    /// selection key, so single-tenant and QoS-off runs are bit-identical
    /// to the pre-QoS scheduler.
    tenant_prio: [u8; MAX_TENANTS],
}

impl Scheduler {
    /// Rank of a thread outside the current batch, above every marked
    /// thread's (a count below 2^32 above a 16-bit id).
    pub const UNRANKED: u64 = (1 << 48) - 1;

    pub fn new(kind: SchedulerKind) -> Self {
        Scheduler {
            kind,
            thread_rank: Vec::new(),
            tenant_prio: [0; MAX_TENANTS],
        }
    }

    /// Install the QoS tenant-priority table (see
    /// [`crate::qos::QosConfig::priorities`]).
    pub fn set_tenant_priorities(&mut self, prio: [u8; MAX_TENANTS]) {
        self.tenant_prio = prio;
    }

    /// Shortest-job-first rank of `thread` in the current batch (lower is
    /// higher priority); unmarked threads rank last.
    pub fn rank_of(&self, thread: u16) -> u64 {
        self.thread_rank
            .get(usize::from(thread))
            .copied()
            .unwrap_or(Self::UNRANKED)
    }

    /// Would the next [`Scheduler::maybe_form_batch`] call actually form
    /// a batch? Formation snapshots the queue *at the forming tick*, so
    /// its timing is observable: the controller's event horizon must
    /// demand a real tick whenever a formation is pending, or a request
    /// arriving before the deferred tick would be marked into a batch
    /// that the per-cycle reference formed without it (DESIGN §5f).
    pub fn would_form_batch(&self, queue: &RequestQueue) -> bool {
        matches!(self.kind, SchedulerKind::ParBs { .. })
            && !queue.is_empty()
            && queue.marked_entries().iter().all(|&w| w == 0)
    }

    /// Form a new batch if the current one has drained (PAR-BS only):
    /// mark every entry with fewer than `marking_cap` older entries
    /// (by arrival, then id) of its own thread in its μbank — counted
    /// within the μbank's bank mask — and rank threads by their marked
    /// count, then id.
    pub fn maybe_form_batch(&mut self, queue: &mut RequestQueue) {
        let SchedulerKind::ParBs { marking_cap } = self.kind else {
            return;
        };
        if !self.would_form_batch(queue) {
            return;
        }
        // `thread_rank` counts each thread's marks, then becomes the rank.
        self.thread_rank.fill(0);
        for i in queue.indices() {
            let r = queue.get(i);
            let older = queue
                .ubank_entries(r.flat as usize)
                .map(|j| queue.get(j))
                .filter(|o| o.thread == r.thread && (o.arrival, o.id) < (r.arrival, r.id))
                .count();
            if older < marking_cap {
                let t = usize::from(r.thread);
                if t >= self.thread_rank.len() {
                    self.thread_rank.resize(t + 1, 0);
                }
                self.thread_rank[t] += 1;
                queue.mark(i);
            }
        }
        // Shortest job first: fewest marked requests, then lowest id.
        for (t, rank) in self.thread_rank.iter_mut().enumerate() {
            *rank = if *rank == 0 {
                Self::UNRANKED
            } else {
                *rank << 16 | t as u64
            };
        }
        self.rekey(queue);
    }

    /// Selection priority of queued request `r` with batch mark
    /// `marked`, as a row miss ([`Key::with_hit`] makes it a hit). Lower
    /// wins. Priority, highest first: batch-marked, QoS tenant priority,
    /// row-hit, thread rank, age, id. The tenant axis sits inside the
    /// batch boundary — PAR-BS's starvation bound survives prioritization
    /// — but above row-hit ordering, so a latency-critical miss beats a
    /// batch tenant's hit; with no priority table installed it is a
    /// constant. Everything but the row hit holds until the next batch
    /// forms, so the queue caches each entry's key.
    pub fn key(&self, r: &MemRequest, marked: bool) -> Key {
        let head = u128::from(!marked) << 121
            | u128::from(self.tenant_prio[tenant_slot(r.tenant)]) << 113
            | Key::MISS
            | u128::from(self.rank_of(r.thread)) << 64;
        Key {
            order: head | u128::from(r.arrival),
            id: r.id,
        }
    }

    /// Recompute every queued entry's cached key: after a batch forms
    /// (marks and thread ranks change) and after the tenant priority
    /// table changes.
    pub(crate) fn rekey(&self, queue: &mut RequestQueue) {
        for i in queue.indices() {
            let key = self.key(queue.get(i), queue.is_marked(i));
            queue.set_key(i, key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microbank_core::address::AddressMap;
    use microbank_core::config::MemConfig;
    use microbank_core::request::{ReqKind, TenantId};
    use microbank_core::Cycle;

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

    /// A request with the selection inputs the tests vary.
    fn req(id: u64, thread: u16, arrival: Cycle, tenant: u8) -> MemRequest {
        let mut r = MemRequest::new(id, 0, ReqKind::Read, thread, arrival);
        r.tenant = TenantId(tenant);
        r
    }

    /// Id of the lowest key among `(request, marked, hit)` rows; on a tie
    /// the first row wins, as in the controller's scan.
    fn best(s: &Scheduler, rows: &[(MemRequest, bool, bool)]) -> u64 {
        rows.iter()
            .min_by_key(|(r, marked, hit)| s.key(r, *marked).with_hit(*hit))
            .unwrap()
            .0
            .id
    }

    #[test]
    fn frfcfs_prefers_row_hits_then_age() {
        let s = Scheduler::new(SchedulerKind::FrFcfs);
        let rows = [
            (req(0, 0, 0, 0), false, false),
            (req(1, 0, 10, 0), false, true),
            (req(2, 0, 5, 0), false, true),
        ];
        assert_eq!(
            best(&s, &rows),
            2,
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
    }

    #[test]
    fn parbs_ranks_light_threads_first() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // Thread 0: four requests to distinct banks; threads 1 and 2: one
        // request each.
        for i in 0..4u64 {
            push(&mut q, &c, i, 0, i << 20);
        }
        push(&mut q, &c, 98, 2, 6 << 20);
        push(&mut q, &c, 99, 1, 5 << 20);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&mut q);
        assert!(s.rank_of(1) < s.rank_of(0), "shortest job first");
        assert!(s.rank_of(1) < s.rank_of(2), "equal counts: lower id first");
        assert_eq!(
            s.rank_of(7),
            Scheduler::UNRANKED,
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
        assert!(q.is_marked(idx_of(&q, 1)) && !q.is_marked(idx_of(&q, 2)));
        assert!(!s.would_form_batch(&q));
        // Drain the batch; next call forms a fresh one including id 2.
        q.remove(idx_of(&q, 1));
        assert!(s.would_form_batch(&q));
        s.maybe_form_batch(&mut q);
        assert!(q.is_marked(idx_of(&q, 2)));
        // Thread 0 left the batch with its request: its rank is cleared.
        assert_eq!(s.rank_of(0), Scheduler::UNRANKED);
        assert_eq!(s.rank_of(1), 1 << 16 | 1, "one mark, thread 1");
    }

    #[test]
    fn marked_requests_outrank_unmarked_hits() {
        let s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        let rows = [
            // Unmarked row hit (arrived after the batch formed)…
            (req(42, 0, 100, 0), false, true),
            // …vs a marked activate.
            (req(1, 0, 0, 0), true, false),
        ];
        assert_eq!(best(&s, &rows), 1);
    }

    #[test]
    fn tenant_priority_ranks_inside_the_batch_and_above_row_hits() {
        let mut s = Scheduler::new(SchedulerKind::FrFcfs);
        s.set_tenant_priorities({
            let mut p = [0; MAX_TENANTS];
            p[0] = 1;
            p
        });
        // A priority-0 tenant's younger miss beats a priority-1 hit…
        let rows = [
            (req(1, 0, 0, 0), false, true),
            (req(2, 0, 9, 1), false, false),
        ];
        assert_eq!(best(&s, &rows), 2);
        // …but not a marked request of the lower-priority tenant.
        let rows = [
            (req(1, 0, 0, 0), true, false),
            (req(2, 0, 9, 1), false, true),
        ];
        assert_eq!(best(&s, &rows), 1);
    }

    #[test]
    fn thread_rank_orders_before_age_and_id_breaks_ties() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        // Thread 0: three requests; thread 1: one, so thread 1 ranks first.
        for i in 0..3u64 {
            push(&mut q, &c, i, 0, i << 20);
        }
        push(&mut q, &c, 9, 1, 3 << 20);
        let mut s = Scheduler::new(SchedulerKind::ParBs { marking_cap: 5 });
        s.maybe_form_batch(&mut q);
        let rows = [
            (req(1, 0, 0, 0), true, false),
            (req(9, 1, 50, 0), true, false),
        ];
        assert_eq!(best(&s, &rows), 9, "lighter thread beats an older request");
        let rows = [
            (req(7, 0, 5, 0), false, false),
            (req(3, 0, 5, 0), false, false),
        ];
        assert_eq!(best(&s, &rows), 3, "same age: lower id");
    }

    #[test]
    fn frfcfs_never_marks() {
        let c = cfg();
        let mut q = RequestQueue::new(&c);
        push(&mut q, &c, 1, 0, 0);
        let mut s = Scheduler::new(SchedulerKind::FrFcfs);
        s.maybe_form_batch(&mut q);
        assert!(!q.is_marked(0));
        assert!(!s.would_form_batch(&q));
    }
}
