//! The full chip-multiprocessor: cores, private L1s, per-cluster shared
//! L2s, the MESI directory, and the memory port toward the controllers.
//!
//! The simulator crate owns the memory controllers; this crate talks to
//! them through the [`MemPort`] trait and receives fills via
//! [`CmpSystem::on_fill`]. All latencies on the cache/NoC path come from
//! [`crate::config::CmpConfig`].

use crate::cache::Cache;
use crate::coherence::{CoherenceAction, Directory, LineState};
use crate::config::CmpConfig;
use crate::instr::InstrSource;
use crate::mshr::MshrFile;
use crate::prefetch::StreamPrefetcher;
use crate::rob::{Core, MemOutcome, StallKind};
use microbank_core::fxhash::{FxHashMap, FxHashSet};
use microbank_core::request::TenantId;
use microbank_core::Cycle;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A main-memory line request leaving the CMP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmittedReq {
    pub id: u64,
    pub addr: u64,
    pub is_write: bool,
    /// Issuing core (hardware thread) — consumed by PAR-BS batching.
    pub thread: u16,
    /// Owning tenant (from the issuing core's instruction source) —
    /// consumed by the controller's QoS regulator. `TenantId(0)` in
    /// single-tenant runs.
    pub tenant: TenantId,
}

/// The CMP's window to the memory controllers (implemented by the sim).
pub trait MemPort {
    /// Try to hand a request to the owning controller; `false` = queue full
    /// (the CMP retries from its backlog next cycle).
    fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool;
}

/// An in-flight main-memory read: the one record of a miss's waiters and
/// write intent, which every access from its cluster merges into.
#[derive(Debug, Clone)]
struct PendingMem {
    line: u64,
    cluster: usize,
    /// Loads to wake: (core index, ROB sequence).
    waiters: Vec<(usize, u64)>,
    /// The arriving line must be installed dirty (merged store).
    write_intent: bool,
}

/// Aggregate CMP statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SystemStats {
    pub dram_reads: u64,
    pub dram_writes: u64,
    /// Completed cache-to-cache transfers (coherence forwards).
    pub forwards: u64,
    /// L2 upgrade operations (write to a Shared line).
    pub upgrades: u64,
    /// Prefetch reads issued to main memory.
    pub prefetches: u64,
    /// Demand accesses that hit a line brought in by the prefetcher.
    pub prefetch_hits: u64,
}

/// Everything outside the cores, grouped so `tick` can split borrows.
struct Uncore {
    cfg: CmpConfig,
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    mshr: Vec<MshrFile>,
    prefetchers: Vec<StreamPrefetcher>,
    /// Lines a prefetch brought into a cluster's L2 that no demand access
    /// has hit yet: (cluster, line). An entry goes when the line leaves
    /// that L2 (eviction, invalidation, ownership migration).
    prefetched: FxHashSet<(usize, u64)>,
    dir: Directory,
    /// Line index (`line >> 6`, below [`Directory::REACH`] like the
    /// directory's keys) → in-flight request id.
    pending_by_line: FxHashMap<u32, u64>,
    inflight: FxHashMap<u64, PendingMem>,
    /// Requests not yet accepted by a full controller queue.
    backlog: VecDeque<SubmittedReq>,
    next_id: u64,
    stats: SystemStats,
    /// Per-core tenant table, sampled once from the instruction sources at
    /// construction; indexed by core (== hardware thread) id.
    tenants: Vec<TenantId>,
}

impl Uncore {
    fn line_of(addr: u64) -> u64 {
        addr & !(microbank_core::CACHE_LINE_BYTES - 1)
    }

    fn cores_of(&self, cluster: usize) -> std::ops::Range<usize> {
        let k = self.cfg.cores_per_cluster;
        cluster * k..(cluster * k + k).min(self.l1.len())
    }

    /// Tenant owning hardware thread `thread` (core index).
    fn tenant_of(&self, thread: u16) -> TenantId {
        self.tenants
            .get(thread as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Give the next request id to a request for `addr` on behalf of
    /// `thread`, and submit it, or queue it behind the backlog. Returns the
    /// id.
    fn send<P: MemPort + ?Sized>(
        &mut self,
        addr: u64,
        is_write: bool,
        thread: u16,
        now: Cycle,
        port: &mut P,
    ) -> u64 {
        let req = SubmittedReq {
            id: self.next_id,
            addr,
            is_write,
            thread,
            tenant: self.tenant_of(thread),
        };
        self.next_id += 1;
        if !self.backlog.is_empty() || !port.submit(req, now) {
            self.backlog.push_back(req);
        }
        req.id
    }

    /// Send (or queue) a posted memory write.
    fn post_write<P: MemPort + ?Sized>(
        &mut self,
        line: u64,
        thread: u16,
        now: Cycle,
        port: &mut P,
    ) {
        self.stats.dram_writes += 1;
        self.send(line, true, thread, now, port);
    }

    /// Open a miss: read `line` from memory into `core`'s cluster on the
    /// core's behalf, waking the load with ROB sequence `load` when it
    /// arrives and installing it dirty if `write_intent`. Every miss,
    /// demand or prefetch, opens here; [`CmpSystem::on_fill`] closes it.
    fn fetch<P: MemPort + ?Sized>(
        &mut self,
        line: u64,
        core: usize,
        load: Option<u64>,
        write_intent: bool,
        now: Cycle,
        port: &mut P,
    ) {
        let id = self.send(line, false, core as u16, now, port);
        self.inflight.insert(
            id,
            PendingMem {
                line,
                cluster: core / self.cfg.cores_per_cluster,
                waiters: load.map(|seq| (core, seq)).into_iter().collect(),
                write_intent,
            },
        );
        self.pending_by_line.insert(Directory::key(line), id);
        self.stats.dram_reads += 1;
    }

    /// An L2 slice evicted `victim`: keep inclusion (drop L1 copies, OR in
    /// their dirtiness), update the directory, write back if needed.
    fn handle_l2_victim<P: MemPort + ?Sized>(
        &mut self,
        cluster: usize,
        addr: u64,
        mut dirty: bool,
        thread: u16,
        now: Cycle,
        port: &mut P,
    ) {
        for core in self.cores_of(cluster) {
            if let Some(l1_dirty) = self.l1[core].invalidate(addr) {
                dirty |= l1_dirty;
            }
        }
        self.forget_prefetch(cluster, addr);
        if self.dir.evict(addr, cluster, dirty) {
            self.post_write(addr, thread, now, port);
        }
    }

    /// Install `line` (clean) in `core`'s L1. A dirty L1 victim is written
    /// into the cluster's L2, which already holds it (the L2 is inclusive
    /// of its cluster's L1s), so that write evicts nothing.
    fn fill_l1(&mut self, core: usize, cluster: usize, line: u64) {
        if let Some(v) = self.l1[core].fill(line, false) {
            if v.dirty {
                let evicted = self.l2[cluster].fill(v.addr, true);
                debug_assert!(evicted.is_none(), "inclusive L2 lost {:#x}", v.addr);
            }
        }
    }

    /// Apply write invalidations to every other cluster in `bitmap`.
    fn apply_invalidations(&mut self, line: u64, bitmap: u64) {
        let mut bits = bitmap;
        while bits != 0 {
            let c = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // A dirty invalidated copy migrates to the writer, which
            // installs the line dirty, so nothing is written back here.
            self.drop_from_cluster(c, line);
        }
    }

    /// Remove `line` from `cluster`'s L2 and its cores' L1s (coherence:
    /// invalidation or ownership migration).
    fn drop_from_cluster(&mut self, cluster: usize, line: u64) {
        self.l2[cluster].invalidate(line);
        for core in self.cores_of(cluster) {
            self.l1[core].invalidate(line);
        }
        self.forget_prefetch(cluster, line);
    }

    /// `line` left `cluster`'s L2: a later demand hit there is no longer
    /// the prefetcher's.
    fn forget_prefetch(&mut self, cluster: usize, line: u64) {
        if !self.prefetched.is_empty() {
            self.prefetched.remove(&(cluster, line));
        }
    }

    /// Issue stream prefetches triggered by a demand miss to `line`.
    /// Prefetches fetch only directory-uncached lines (never disturbing a
    /// remote owner), carry no waiters, and bypass the MSHR budget the way
    /// a hardware prefetch queue does.
    fn issue_prefetches<P: MemPort + ?Sized>(
        &mut self,
        core: usize,
        cluster: usize,
        line: u64,
        now: Cycle,
        port: &mut P,
    ) {
        if !self.prefetchers[core].enabled() {
            return;
        }
        for pf in self.prefetchers[core].on_miss(line) {
            if self.l2[cluster].contains(pf)
                || self.pending_by_line.contains_key(&Directory::key(pf))
            {
                continue;
            }
            let (state, _) = self.dir.state_of(pf);
            if state != LineState::Uncached {
                continue;
            }
            self.dir.read_miss(pf, cluster);
            self.prefetched.insert((cluster, pf));
            self.stats.prefetches += 1;
            self.fetch(pf, core, None, false, now, port);
        }
    }

    /// The full memory-access path for one instruction. Returns how the
    /// core should treat it.
    fn mem_access<P: MemPort + ?Sized>(
        &mut self,
        core: usize,
        addr: u64,
        is_write: bool,
        seq: u64,
        now: Cycle,
        port: &mut P,
    ) -> MemOutcome {
        let cfg = self.cfg;
        let line = Self::line_of(addr);
        // L1 hit (single way scan).
        if self.l1[core].probe_hit(line, is_write) {
            return MemOutcome::ReadyAt(now + cfg.l1_latency);
        }
        self.l1[core].misses += 1; // classified miss (fill path below)
        let cluster = core / cfg.cores_per_cluster;
        // L2 hit (single way scan; the LRU/dirty update commutes with the
        // directory calls below, which never touch this cluster's own
        // caches).
        if self.l2[cluster].probe_hit(line, is_write) {
            if self.prefetched.remove(&(cluster, line)) {
                self.stats.prefetch_hits += 1;
            }
            let mut latency = cfg.l1_latency + cfg.l2_latency;
            if is_write {
                // MESI: writing a line we may only share → upgrade.
                // The data is already local, so only the invalidations
                // count.
                let (_, inv) = self.dir.write_miss(line, cluster);
                if inv != 0 {
                    self.stats.upgrades += 1;
                    latency += cfg.dir_latency + cfg.noc_latency;
                }
                self.apply_invalidations(line, inv);
            }
            // The probe left the line most recent in this L2, and the
            // invalidations above touch other clusters only.
            self.fill_l1(core, cluster, line);
            if is_write {
                // Make the written line most recent again. It is still
                // present: an L1 victim is already in the inclusive L2, so
                // the refill above evicted nothing.
                self.l2[cluster].fill(line, true);
            }
            return MemOutcome::ReadyAt(now + latency);
        }
        self.l2[cluster].misses += 1;
        // A store to a line on its way from memory is posted; a load waits
        // for the line.
        let missed = if is_write {
            MemOutcome::ReadyAt(now + cfg.l1_latency)
        } else {
            MemOutcome::Pending
        };
        // Merge into an in-flight fill for the same line+cluster.
        if let Some(&id) = self.pending_by_line.get(&Directory::key(line)) {
            let p = self.inflight.get_mut(&id).expect("pending id");
            if p.cluster == cluster {
                if !is_write {
                    p.waiters.push((core, seq));
                }
                p.write_intent |= is_write;
                return missed;
            }
            // Different cluster racing on the same line: rare; let it go
            // through the directory as its own transaction below.
        }
        // Structural limit on outstanding misses per core.
        if self.mshr[core].is_full() {
            return MemOutcome::Stall;
        }
        // Coherence resolution at the line's home directory.
        let (action, inv) = if is_write {
            self.dir.write_miss(line, cluster)
        } else {
            (self.dir.read_miss(line, cluster), 0)
        };
        self.apply_invalidations(line, inv);
        match action {
            CoherenceAction::ForwardFromOwner {
                owner,
                demote_writeback,
            } => {
                self.stats.forwards += 1;
                if demote_writeback {
                    self.l2[owner].clean(line);
                    self.post_write(line, core as u16, now, port);
                }
                if is_write && owner != cluster {
                    // Exclusive ownership migrates away from `owner`.
                    self.drop_from_cluster(owner, line);
                }
                if let Some(v) = self.l2[cluster].fill(line, is_write) {
                    self.handle_l2_victim(cluster, v.addr, v.dirty, core as u16, now, port);
                }
                self.fill_l1(core, cluster, line);
                let latency = cfg.l1_latency
                    + cfg.l2_latency
                    + cfg.dir_latency
                    + cfg.noc_latency
                    + cfg.remote_l2_latency;
                MemOutcome::ReadyAt(now + if is_write { cfg.l1_latency } else { latency })
            }
            CoherenceAction::FetchFromMemory => {
                // The core may still hold the line from a fetch whose
                // `pending_by_line` entry another cluster's fetch replaced.
                if !self.mshr[core].contains(line) {
                    self.mshr[core].allocate(line);
                }
                let load = (!is_write).then_some(seq);
                self.fetch(line, core, load, is_write, now, port);
                self.issue_prefetches(core, cluster, line, now, port);
                missed
            }
        }
    }
}

/// A core's scheduling state, kept apart from [`Core`] so the tick loop
/// reads one 24-byte slot per visited core.
#[derive(Debug, Clone, Copy)]
struct Lane {
    /// Earliest-progress cycle: while `wake > now` the core can make no
    /// progress before `wake` — its ROB is full with an unready head, or
    /// its dispatch is wedged on an MSHR-stalled access — so ticking it
    /// would only bump the stall counter named by `stall`. Any fill for
    /// the core (or, for MSHR wedges, any fill to its cluster that frees
    /// an MSHR) resets it to 0 (see [`CmpSystem::on_fill`]).
    wake: Cycle,
    /// First cycle not yet charged to the stall counter. A quiesced core
    /// costs nothing per cycle: `stall` is charged `now - since` cycles in
    /// one go when it next ticks (or at [`CmpSystem::settle_stalls`]).
    since: Cycle,
    /// Which stall counter the quiesced core accrues per stalled cycle
    /// (valid while `wake > now`; see [`Core::quiesced_until`]).
    stall: StallKind,
}

/// The 64-core CMP with its instruction sources.
pub struct CmpSystem<S: InstrSource> {
    pub cfg: CmpConfig,
    cores: Vec<Core>,
    sources: Vec<S>,
    uncore: Uncore,
    /// Per-core scheduling state, indexed by core.
    lanes: Vec<Lane>,
    /// Cores that [`CmpSystem::tick`] runs, one bit per core: exactly the
    /// cores with `lanes[i].wake <= now` at the next tick. Walked in
    /// ascending core index, the order the full per-core loop used.
    awake: Vec<u64>,
    /// Finite wakes of quiesced cores as a min-heap of `(wake, core)`. An
    /// entry is stale unless `lanes[core].wake` still equals its wake (a
    /// fill woke the core early); stale entries are dropped lazily.
    timed: BinaryHeap<Reverse<(Cycle, usize)>>,
}

impl<S: InstrSource> CmpSystem<S> {
    /// Build a CMP running one instruction source per core.
    pub fn new(cfg: CmpConfig, sources: Vec<S>) -> Self {
        assert_eq!(sources.len(), cfg.cores, "one source per core");
        let cores = (0..cfg.cores)
            .map(|i| Core::new(i as u16, cfg.rob_entries, cfg.issue_width, cfg.alu_latency))
            .collect();
        let clusters = cfg.clusters();
        let tenants = sources.iter().map(|s| s.tenant()).collect();
        let mut awake = vec![0u64; cfg.cores.div_ceil(64)];
        for i in 0..cfg.cores {
            awake[i / 64] |= 1 << (i % 64);
        }
        CmpSystem {
            cfg,
            cores,
            sources,
            lanes: vec![
                Lane {
                    wake: 0,
                    since: 0,
                    stall: StallKind::RobFull,
                };
                cfg.cores
            ],
            awake,
            timed: BinaryHeap::new(),
            uncore: Uncore {
                cfg,
                l1: (0..cfg.cores)
                    .map(|_| Cache::new(cfg.l1_bytes, cfg.l1_assoc))
                    .collect(),
                l2: (0..clusters)
                    .map(|_| Cache::new(cfg.l2_bytes, cfg.l2_assoc))
                    .collect(),
                mshr: (0..cfg.cores)
                    .map(|_| MshrFile::new(cfg.mshrs_per_core))
                    .collect(),
                prefetchers: (0..cfg.cores)
                    .map(|_| StreamPrefetcher::new(cfg.prefetch_degree))
                    .collect(),
                prefetched: FxHashSet::default(),
                dir: Directory::new(),
                pending_by_line: FxHashMap::default(),
                inflight: FxHashMap::default(),
                backlog: VecDeque::new(),
                next_id: 0,
                stats: SystemStats::default(),
                tenants,
            },
        }
    }

    /// Advance every awake core one cycle, submitting memory traffic to
    /// `port`. Quiesced cores are not visited: a core whose timed wake
    /// has come rejoins the awake set here, and its stalled cycles are
    /// charged when it ticks.
    pub fn tick<P: MemPort + ?Sized>(&mut self, now: Cycle, port: &mut P) {
        // Retry backlogged submissions first (bounded by MSHRs).
        while let Some(&req) = self.uncore.backlog.front() {
            if port.submit(req, now) {
                self.uncore.backlog.pop_front();
            } else {
                break;
            }
        }
        while let Some(&Reverse((wake, i))) = self.timed.peek() {
            if wake > now {
                break;
            }
            self.timed.pop();
            if self.lanes[i].wake == wake {
                self.awake[i / 64] |= 1 << (i % 64);
            }
        }
        let uncore = &mut self.uncore;
        for w in 0..self.awake.len() {
            // Only the core being ticked leaves the set during the walk,
            // so iterating a snapshot of the word is exact.
            let mut bits = self.awake[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let core = &mut self.cores[i];
                let lane = &mut self.lanes[i];
                if now > lane.since {
                    core.account_stall_cycles(lane.stall, now - lane.since);
                }
                core.commit(now);
                let src = &mut self.sources[i];
                core.dispatch(now, src, |addr, w, seq| {
                    uncore.mem_access(i, addr, w, seq, now, port)
                });
                let (wake, stall) = core.quiesced_until();
                *lane = Lane {
                    wake,
                    since: now + 1,
                    stall,
                };
                if wake > now + 1 {
                    self.awake[w] &= !(1 << (i % 64));
                    if wake != Cycle::MAX {
                        self.timed.push(Reverse((wake, i)));
                    }
                }
            }
        }
        // Drop stale heads so `core_horizon` reads a live wake.
        while let Some(&Reverse((wake, i))) = self.timed.peek() {
            if self.lanes[i].wake == wake {
                break;
            }
            self.timed.pop();
        }
    }

    /// Earliest cycle after `now` at which any *core* could make progress,
    /// with CPU state frozen as [`CmpSystem::tick`] left it at `now`:
    /// `now + 1` while some core is awake, else the earliest timed wake
    /// (`Cycle::MAX` when every core waits on a fill). Every skipped cycle
    /// before it is a pure stall for every core, which the lazy stall
    /// charge covers. A fill ([`CmpSystem::on_fill`]) wakes cores and
    /// thereby ends any skip stretch; the drive loop delivers fills before
    /// re-asking. The submit backlog is ignored: a caller that jumps past
    /// cycles with a non-empty backlog must prove each skipped cycle's head
    /// retry fails — the head targets a full controller queue and that
    /// controller does not tick inside the jump. A failed retry changes
    /// no state, so there is nothing to replay.
    pub fn core_horizon(&self, now: Cycle) -> Cycle {
        if self.awake.iter().any(|&w| w != 0) {
            return now + 1;
        }
        self.timed.peek().map_or(Cycle::MAX, |r| r.0 .0)
    }

    /// Address of the oldest backlogged (rejected) submission, if any.
    /// Only the head is retried each tick, so the head alone decides
    /// whether a skipped cycle's retry would have succeeded.
    pub fn backlog_head_addr(&self) -> Option<u64> {
        self.uncore.backlog.front().map(|r| r.addr)
    }

    /// Kept for callers that predate the lazy stall charge, which now
    /// accounts skipped cycles by itself; does nothing.
    #[doc(hidden)]
    pub fn account_skipped_cycles(&mut self, n: u64) {
        let _ = n;
    }

    /// Charge every core the stall cycles it has accrued before `end` but
    /// not yet been charged, as if the run had ticked every cycle up to
    /// `end - 1`. Call at the end of a run (with the run's cycle count)
    /// before reading stall counters from [`CmpSystem::core`].
    pub fn settle_stalls(&mut self, end: Cycle) {
        for (core, lane) in self.cores.iter_mut().zip(&mut self.lanes) {
            if end > lane.since {
                core.account_stall_cycles(lane.stall, end - lane.since);
                lane.since = end;
            }
        }
    }

    /// A main-memory read for request `id` completed; install the line and
    /// wake its waiters. Unknown ids (posted writes) are ignored.
    pub fn on_fill<P: MemPort + ?Sized>(&mut self, id: u64, now: Cycle, port: &mut P) {
        let Some(p) = self.uncore.inflight.remove(&id) else {
            return;
        };
        self.uncore.pending_by_line.remove(&Directory::key(p.line));
        if let Some(v) = self.uncore.l2[p.cluster].fill(p.line, p.write_intent) {
            self.uncore
                .handle_l2_victim(p.cluster, v.addr, v.dirty, 0, now, port);
        }
        let ready = now + self.cfg.l2_latency;
        for &(core, seq) in &p.waiters {
            self.uncore.fill_l1(core, p.cluster, p.line);
            self.cores[core].complete_load(seq, ready);
            self.wake_core(core);
        }
        // Release every core's MSHR entry for this line. A freed entry can
        // unwedge a core whose dispatch is replaying against a full MSHR
        // file even when none of its own loads completed, so its wake must
        // be re-evaluated at the next tick.
        for core in self.uncore.cores_of(p.cluster) {
            if self.uncore.mshr[core].complete(p.line)
                && self.lanes[core].stall == StallKind::MshrReplay
            {
                self.wake_core(core);
            }
        }
    }

    /// Make `core` tick at the next [`CmpSystem::tick`], which
    /// re-evaluates its stall.
    fn wake_core(&mut self, core: usize) {
        self.lanes[core].wake = 0;
        self.awake[core / 64] |= 1 << (core % 64);
    }

    /// Total committed instructions across all cores.
    pub fn total_committed(&self) -> u64 {
        self.cores.iter().map(|c| c.stats.committed).sum()
    }

    /// System IPC (committed instructions per cycle, summed over cores).
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total_committed() as f64 / cycles as f64
        }
    }

    /// Core `i`. Its stall counters lag while it is quiesced; see
    /// [`CmpSystem::settle_stalls`].
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    pub fn stats(&self) -> SystemStats {
        self.uncore.stats
    }

    pub fn directory(&self) -> &Directory {
        &self.uncore.dir
    }

    /// Aggregate L1 hit rate across cores.
    pub fn l1_hit_rate(&self) -> f64 {
        aggregate_hit_rate(&self.uncore.l1)
    }

    /// Aggregate L2 hit rate across clusters.
    pub fn l2_hit_rate(&self) -> f64 {
        aggregate_hit_rate(&self.uncore.l2)
    }

    /// Outstanding main-memory requests (diagnostics; bounded by MSHRs).
    pub fn inflight_fills(&self) -> usize {
        self.uncore.inflight.len()
    }

    /// Requests waiting to be resubmitted because a controller queue was
    /// full — back-pressure the epoch sampler reports alongside controller
    /// queue occupancy.
    pub fn backlog_len(&self) -> usize {
        self.uncore.backlog.len()
    }
}

/// Hits over demand accesses, summed across `caches`.
fn aggregate_hit_rate(caches: &[Cache]) -> f64 {
    let (h, m) = caches
        .iter()
        .fold((0u64, 0u64), |(h, m), c| (h + c.hits, m + c.misses));
    if h + m == 0 {
        0.0
    } else {
        h as f64 / (h + m) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{FixedSource, Instr};

    /// A memory that answers every read after a fixed delay.
    struct TestMemory {
        delay: Cycle,
        pending: Vec<(u64, Cycle)>,
        accepted: u64,
        reject_all: bool,
    }

    impl TestMemory {
        fn new(delay: Cycle) -> Self {
            TestMemory {
                delay,
                pending: Vec::new(),
                accepted: 0,
                reject_all: false,
            }
        }

        fn due(&mut self, now: Cycle) -> Vec<u64> {
            let (ready, rest): (Vec<_>, Vec<_>) =
                self.pending.drain(..).partition(|&(_, t)| t <= now);
            self.pending = rest;
            ready.into_iter().map(|(id, _)| id).collect()
        }
    }

    impl MemPort for TestMemory {
        fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
            if self.reject_all {
                return false;
            }
            self.accepted += 1;
            if !req.is_write {
                self.pending.push((req.id, now + self.delay));
            }
            true
        }
    }

    fn small_system(cores: usize, sources: Vec<FixedSource>) -> CmpSystem<FixedSource> {
        CmpSystem::new(CmpConfig::small(cores), sources)
    }

    fn run(sys: &mut CmpSystem<FixedSource>, mem: &mut TestMemory, cycles: Cycle) {
        for now in 0..cycles {
            for id in mem.due(now) {
                sys.on_fill(id, now, mem);
            }
            sys.tick(now, mem);
        }
    }

    #[test]
    fn compute_bound_core_hits_two_ipc() {
        let mut sys = small_system(1, vec![FixedSource::new(vec![], u64::MAX / 2)]);
        let mut mem = TestMemory::new(100);
        run(&mut sys, &mut mem, 1000);
        assert!(sys.ipc(1000) > 1.9, "{}", sys.ipc(1000));
        assert_eq!(mem.accepted, 0);
    }

    #[test]
    fn cache_resident_workload_avoids_dram() {
        // 8 lines in a 16 KB L1: after warmup everything hits.
        let addrs: Vec<u64> = (0..8).map(|i| i * 64).collect();
        let mut sys = small_system(1, vec![FixedSource::new(addrs, 4)]);
        let mut mem = TestMemory::new(100);
        run(&mut sys, &mut mem, 5000);
        assert!(mem.accepted <= 8, "{} DRAM requests", mem.accepted);
        assert!(sys.ipc(5000) > 1.5, "{}", sys.ipc(5000));
        assert!(sys.l1_hit_rate() > 0.9);
    }

    #[test]
    fn memory_latency_throttles_ipc() {
        // Every 4th instruction misses everywhere (huge strides).
        let addrs: Vec<u64> = (0..4096).map(|i| i * (1 << 16)).collect();
        let mut slow_ipc = 0.0;
        let mut fast_ipc = 0.0;
        for (delay, out) in [(400u64, &mut slow_ipc), (50, &mut fast_ipc)] {
            let mut sys = small_system(1, vec![FixedSource::new(addrs.clone(), 4)]);
            let mut mem = TestMemory::new(delay);
            run(&mut sys, &mut mem, 20_000);
            *out = sys.ipc(20_000);
        }
        assert!(
            fast_ipc > 1.5 * slow_ipc,
            "fast {fast_ipc} vs slow {slow_ipc}"
        );
    }

    #[test]
    fn rob_bounds_outstanding_misses() {
        let addrs: Vec<u64> = (0..4096).map(|i| i * (1 << 16)).collect();
        let mut sys = small_system(1, vec![FixedSource::new(addrs, 1)]);
        let mut mem = TestMemory::new(10_000); // effectively never answers
        run(&mut sys, &mut mem, 2000);
        // MSHRs (8) bound the in-flight fills.
        assert!(sys.inflight_fills() <= 8, "{}", sys.inflight_fills());
        assert_eq!(sys.total_committed(), 0, "all loads blocked");
    }

    #[test]
    fn fills_wake_loads_and_commit_resumes() {
        let addrs: Vec<u64> = (0..64).map(|i| i * (1 << 16)).collect();
        let mut sys = small_system(1, vec![FixedSource::new(addrs, 2)]);
        let mut mem = TestMemory::new(80);
        run(&mut sys, &mut mem, 10_000);
        assert!(sys.total_committed() > 1000, "{}", sys.total_committed());
        assert!(mem.accepted >= 64);
    }

    #[test]
    fn backlog_retries_when_port_rejects() {
        let addrs: Vec<u64> = (0..64).map(|i| i * (1 << 16)).collect();
        let mut sys = small_system(1, vec![FixedSource::new(addrs, 1)]);
        let mut mem = TestMemory::new(50);
        mem.reject_all = true;
        run(&mut sys, &mut mem, 100);
        assert_eq!(mem.accepted, 0);
        // Port opens: backlog drains and progress resumes.
        mem.reject_all = false;
        run(&mut sys, &mut mem, 5000);
        assert!(sys.total_committed() > 100, "{}", sys.total_committed());
    }

    #[test]
    fn shared_reads_are_forwarded_between_clusters() {
        // 8 cores = 2 clusters, all reading the same small array.
        let addrs: Vec<u64> = (0..16).map(|i| i * 64).collect();
        let sources = (0..8).map(|_| FixedSource::new(addrs.clone(), 4)).collect();
        let mut sys = small_system(8, sources);
        let mut mem = TestMemory::new(80);
        run(&mut sys, &mut mem, 10_000);
        assert!(sys.stats().forwards > 0, "no cache-to-cache transfers");
        // Memory traffic stays near the cold-miss minimum (≤ 2 clusters ×
        // 16 lines), far below total accesses.
        assert!(mem.accepted < 64, "{}", mem.accepted);
        sys.directory().check_invariants().unwrap();
    }

    #[test]
    fn prefetch_entries_leave_with_their_lines() {
        /// A [`FixedSource`] whose accesses are all loads or all stores.
        struct Stream(FixedSource, bool);
        impl InstrSource for Stream {
            fn next_instr(&mut self) -> crate::instr::Instr {
                match self.0.next_instr() {
                    crate::instr::Instr::Mem { addr, .. } => crate::instr::Instr::Mem {
                        addr,
                        is_write: self.1,
                    },
                    other => other,
                }
            }
        }
        // Two clusters with a 4 KiB L2 each: core 0 streams loads over
        // four times its L2, so prefetched lines are evicted, and core 4
        // stores over the same lines, so they are invalidated too.
        let mut cfg = CmpConfig::small(8);
        cfg.prefetch_degree = 4;
        cfg.l1_bytes = 1024;
        cfg.l1_assoc = 2;
        cfg.l2_bytes = 4096;
        cfg.l2_assoc = 4;
        let lines: Vec<u64> = (0..256).map(|i| i * 64).collect();
        let sources = (0..8)
            .map(|i| match i {
                0 => Stream(FixedSource::new(lines.clone(), 2), false),
                4 => Stream(
                    FixedSource::new(lines.iter().rev().copied().collect(), 3),
                    true,
                ),
                _ => Stream(FixedSource::new(vec![], 1), false),
            })
            .collect();
        let mut sys = CmpSystem::new(cfg, sources);
        let mut mem = TestMemory::new(80);
        for now in 0..20_000 {
            for id in mem.due(now) {
                sys.on_fill(id, now, &mut mem);
            }
            sys.tick(now, &mut mem);
        }
        assert!(sys.stats().prefetches > 0);
        let u = &sys.uncore;
        for &(cluster, line) in &u.prefetched {
            let inflight = u
                .pending_by_line
                .get(&Directory::key(line))
                .is_some_and(|id| u.inflight[id].cluster == cluster);
            assert!(
                inflight || u.l2[cluster].contains(line),
                "cluster {cluster} still counts {line:#x} as prefetched after it left its L2"
            );
        }
    }

    /// The records of the in-flight misses agree: each core's MSHR file
    /// holds at most `mshrs_per_core` distinct lines, each in flight for
    /// the core's cluster; every `pending_by_line` entry names a live
    /// record of its line; every prefetched line is in its cluster's L2 or
    /// in flight for that cluster; and the directory keeps MESI.
    fn check_inflight(u: &Uncore) -> Result<(), String> {
        let inflight: FxHashSet<(usize, u64)> =
            u.inflight.values().map(|p| (p.cluster, p.line)).collect();
        for (core, m) in u.mshr.iter().enumerate() {
            let lines = m.lines();
            let cluster = core / u.cfg.cores_per_cluster;
            if lines.len() > u.cfg.mshrs_per_core {
                return Err(format!("core {core}: {} MSHR entries", lines.len()));
            }
            for (i, &line) in lines.iter().enumerate() {
                if lines[..i].contains(&line) {
                    return Err(format!("core {core}: {line:#x} held twice"));
                }
                if !inflight.contains(&(cluster, line)) {
                    return Err(format!(
                        "core {core}: MSHR holds {line:#x}, not in flight for cluster {cluster}"
                    ));
                }
            }
        }
        for (&key, id) in &u.pending_by_line {
            if u.inflight.get(id).map(|p| Directory::key(p.line)) != Some(key) {
                return Err(format!("line index {key:#x}: no live record {id}"));
            }
        }
        for &(cluster, line) in &u.prefetched {
            if !u.l2[cluster].contains(line) && !inflight.contains(&(cluster, line)) {
                return Err(format!(
                    "cluster {cluster}: prefetched {line:#x} neither in its L2 nor in flight"
                ));
            }
        }
        u.dir.check_invariants()
    }

    /// A memory that answers read 0 after 3000 cycles and read `id` after
    /// 40–399, rejects every submit in the last 60 cycles of each 500, and
    /// logs the accepted reads as (cycle, id, addr, thread).
    #[derive(Default)]
    struct WindowedMemory {
        pending: BinaryHeap<Reverse<(Cycle, u64)>>,
        reads: Vec<(Cycle, u64, u64, u16)>,
    }

    impl MemPort for WindowedMemory {
        fn submit(&mut self, req: SubmittedReq, now: Cycle) -> bool {
            if now % 500 >= 440 {
                return false;
            }
            if !req.is_write {
                self.reads.push((now, req.id, req.addr, req.thread));
                let delay = if req.id == 0 {
                    3000
                } else {
                    40 + (req.id * 7919) % 360
                };
                self.pending.push(Reverse((now + delay, req.id)));
            }
            true
        }
    }

    /// Deliver fills in `(at, id)` order, tick, and check the in-flight
    /// invariants after every cycle.
    fn drive_checked<S: InstrSource>(sys: &mut CmpSystem<S>, cycles: Cycle) -> WindowedMemory {
        let mut mem = WindowedMemory::default();
        for now in 0..cycles {
            while let Some(&Reverse((at, id))) = mem.pending.peek() {
                if at > now {
                    break;
                }
                mem.pending.pop();
                sys.on_fill(id, now, &mut mem);
            }
            sys.tick(now, &mut mem);
            if let Err(e) = check_inflight(&sys.uncore) {
                panic!("cycle {now}: {e}");
            }
        }
        mem
    }

    /// Seeded loads and stores (about 30%) in runs over a line pool every
    /// cluster shares or over the core's private region, line by line.
    struct Traffic {
        rng: u64,
        base: u64,
        next: u64,
        run_left: u64,
        private: bool,
    }

    impl InstrSource for Traffic {
        fn next_instr(&mut self) -> Instr {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut r = self.rng;
            r = (r ^ (r >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            r ^= r >> 31;
            if !r.is_multiple_of(3) {
                return Instr::Compute;
            }
            if self.run_left == 0 {
                self.run_left = 4 + (r >> 40) % 16;
                self.private = (r >> 56).is_multiple_of(2);
            }
            self.run_left -= 1;
            self.next = (self.next + 1) % 4096;
            let addr = if self.private {
                self.base + self.next * 64
            } else {
                ((r >> 8) % 96) * 64
            };
            Instr::Mem {
                addr,
                is_write: (r >> 24) % 10 < 3,
            }
        }
    }

    #[test]
    fn inflight_records_agree_every_cycle() {
        for seed in 1..=3u64 {
            for prefetch_degree in [0, 4] {
                let cfg = CmpConfig {
                    l1_bytes: 1024,
                    l1_assoc: 2,
                    l2_bytes: 8192,
                    l2_assoc: 4,
                    prefetch_degree,
                    ..CmpConfig::small(16)
                };
                let sources = (0..16u64)
                    .map(|c| Traffic {
                        rng: seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ c,
                        base: (1 << 30) + (c << 24),
                        next: 0,
                        run_left: 0,
                        private: false,
                    })
                    .collect();
                let mut sys = CmpSystem::new(cfg, sources);
                drive_checked(&mut sys, 8000);
                let s = sys.stats();
                assert!(s.forwards > 0 && s.upgrades > 0, "{s:?}");
                assert_eq!(s.prefetches > 0, prefetch_degree > 0, "{s:?}");
            }
        }
    }

    /// A core misses again on a line its MSHR file still holds. Its first
    /// fetch is held back by the memory; meanwhile another cluster took
    /// the line and evicted it, and a third fetched it and evicted it, so
    /// the directory has it uncached and `pending_by_line` no longer names
    /// the first fetch. The second fetch must not take a second MSHR entry.
    #[test]
    fn refetch_of_a_line_the_core_still_holds() {
        struct Script(std::vec::IntoIter<Instr>);
        impl InstrSource for Script {
            fn next_instr(&mut self) -> Instr {
                self.0.next().unwrap_or(Instr::Compute)
            }
        }
        /// Runs of `pad` compute instructions (two retire per cycle), each
        /// followed by its accesses.
        fn script(runs: &[(usize, &[(u64, bool)])]) -> Script {
            let mut v = Vec::new();
            for &(pad, accesses) in runs {
                v.extend(vec![Instr::Compute; pad]);
                v.extend(
                    accesses
                        .iter()
                        .map(|&(addr, is_write)| Instr::Mem { addr, is_write }),
                );
            }
            Script(v.into_iter())
        }
        // Lines 1 KiB apart share a set of the 4 KiB 4-way L2, so a core
        // that streams six of them after line 0 evicts it.
        let set_lines = |from: u64| {
            (from..from + 6)
                .map(|k| (k * 1024, false))
                .collect::<Vec<_>>()
        };
        let cfg = CmpConfig {
            l2_bytes: 4096,
            l2_assoc: 4,
            ..CmpConfig::small(12)
        };
        let mut sources: Vec<Script> = (0..12).map(|_| script(&[])).collect();
        // Core 0's store opens request 0, which the memory holds for 3000
        // cycles; the core stores to line 0 again at about cycle 2200.
        sources[0] = script(&[(0, &[(0, true)]), (4400, &[(0, true)])]);
        // Core 4 (cluster 1) takes the line by a forward, then evicts it.
        sources[4] = script(&[(100, &[(0, true)]), (0, &set_lines(1))]);
        // Core 8 (cluster 2) fetches it at about cycle 750, then evicts it.
        sources[8] = script(&[(1500, &[(0, false)]), (200, &set_lines(7))]);
        let mut sys = CmpSystem::new(cfg, sources);
        let mem = drive_checked(&mut sys, 2800);
        let reads_of_0: Vec<_> = mem.reads.iter().filter(|r| r.2 == 0).collect();
        assert_eq!(reads_of_0.len(), 3, "{:?}", mem.reads);
        assert_eq!(
            (reads_of_0[0].3, reads_of_0[2].3),
            (0, 0),
            "{:?}",
            mem.reads
        );
        let left: Vec<_> = sys.uncore.inflight.keys().collect();
        assert_eq!(left, [&0], "request 0 is still in flight");
        assert!(
            !sys.uncore.mshr[0].contains(0),
            "the second fill released the entry"
        );
    }

    #[test]
    fn writes_invalidate_remote_readers() {
        // Cluster 0 reads a line; core 4 (cluster 1) writes it repeatedly.
        let read_src = FixedSource::new(vec![0x40], 2);
        let mut write_src = FixedSource::new(vec![0x40], 2);
        // Make the writer's accesses stores.
        struct W(FixedSource);
        impl InstrSource for W {
            fn next_instr(&mut self) -> Instr {
                match self.0.next_instr() {
                    Instr::Mem { addr, .. } => Instr::Mem {
                        addr,
                        is_write: true,
                    },
                    other => other,
                }
            }
        }
        // Mixed source types: wrap everything as a trait-object-compatible
        // enum is overkill for the test; give every core the same W type.
        let mut sources: Vec<W> = Vec::new();
        for i in 0..8 {
            if i == 4 {
                sources.push(W(std::mem::replace(
                    &mut write_src,
                    FixedSource::new(vec![], 2),
                )));
            } else {
                sources.push(W(FixedSource::new(
                    if i == 0 {
                        read_src.addrs.clone()
                    } else {
                        vec![]
                    },
                    if i == 0 { 2 } else { u64::MAX / 2 },
                )));
            }
        }
        // Core 0 reads…  (W turns them into writes too; acceptable: we
        // exercise ownership migration between clusters both ways.)
        let mut sys = CmpSystem::new(CmpConfig::small(8), sources);
        let mut mem = TestMemory::new(60);
        for now in 0..20_000u64 {
            for id in mem.due(now) {
                sys.on_fill(id, now, &mut mem);
            }
            sys.tick(now, &mut mem);
        }
        sys.directory().check_invariants().unwrap();
        let (state, sharers) = sys.directory().state_of(0x40);
        assert!(sharers.count_ones() <= 1, "modified line with {sharers:b}");
        let _ = state;
        assert!(sys.stats().forwards > 0 || sys.stats().upgrades > 0);
    }
}
