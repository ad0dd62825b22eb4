//! CMP configuration (paper §VI-A).

use crate::cache::MAX_ASSOC;
use microbank_core::validate::{Checker, ConfigError};
use serde::{Deserialize, Serialize};

/// Most clusters a CMP can have: the directory keeps one sharer bit per
/// cluster in a `u64`.
pub(crate) const MAX_CLUSTERS: usize = 64;

/// Chip-multiprocessor parameters. Defaults reproduce the paper's platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CmpConfig {
    /// Total cores (64).
    pub cores: usize,
    /// Cores sharing one L2 slice / cluster (4).
    pub cores_per_cluster: usize,
    /// Issue/commit width (2).
    pub issue_width: usize,
    /// Reorder-buffer entries per core (32).
    pub rob_entries: usize,
    /// Miss-status holding registers per core (outstanding line misses).
    pub mshrs_per_core: usize,
    /// L1 data cache: total bytes (16 KB) and associativity (4).
    pub l1_bytes: usize,
    pub l1_assoc: usize,
    /// L2 cache per cluster: total bytes (2 MB) and associativity (16).
    pub l2_bytes: usize,
    pub l2_assoc: usize,
    /// L1 hit latency, cycles.
    pub l1_latency: u64,
    /// L2 hit latency, cycles (lookup + crossbar within the cluster).
    pub l2_latency: u64,
    /// One-way NoC latency between a cluster and a memory controller or a
    /// remote L2 (cluster mesh hop budget).
    pub noc_latency: u64,
    /// Directory lookup latency at the home memory controller.
    pub dir_latency: u64,
    /// Latency of a cache-to-cache transfer from a remote owner L2.
    pub remote_l2_latency: u64,
    /// Non-memory instruction latency (cycles until ready to commit).
    pub alu_latency: u64,
    /// L2 stream-prefetcher degree: on a detected sequential miss stream,
    /// fetch this many lines ahead. 0 disables prefetching (the paper's
    /// platform; kept as an extension for ablation).
    pub prefetch_degree: usize,
}

impl Default for CmpConfig {
    fn default() -> Self {
        CmpConfig {
            cores: 64,
            cores_per_cluster: 4,
            issue_width: 2,
            rob_entries: 32,
            mshrs_per_core: 8,
            l1_bytes: 16 * 1024,
            l1_assoc: 4,
            l2_bytes: 2 * 1024 * 1024,
            l2_assoc: 16,
            l1_latency: 3,
            l2_latency: 12,
            noc_latency: 8,
            dir_latency: 4,
            remote_l2_latency: 40,
            alu_latency: 1,
            prefetch_degree: 0,
        }
    }
}

impl CmpConfig {
    /// The paper's 64-core platform.
    pub fn paper() -> Self {
        Self::default()
    }

    /// A small platform for fast unit tests.
    pub fn small(cores: usize) -> Self {
        CmpConfig {
            cores,
            ..Self::default()
        }
    }

    pub fn clusters(&self) -> usize {
        self.cores.div_ceil(self.cores_per_cluster)
    }

    /// Check the invariants the core/cache/coherence models assume,
    /// reporting every violation at once. Mirrors the `assert!`s in
    /// `Cache::new` (set geometry, at most 256 ways), the directory's
    /// one-bit-per-cluster sharer mask (at most 64 clusters) and the
    /// divide-by-zero hazards in the cluster math, so a sweep can reject a
    /// bad platform before construction panics.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut c = Checker::new();
        let ge1 = |c: &mut Checker, name: &str, v: usize| {
            c.check(v >= 1, || format!("{name} = {v}: must be >= 1"));
        };
        ge1(&mut c, "cores", self.cores);
        ge1(&mut c, "cores_per_cluster", self.cores_per_cluster);
        ge1(&mut c, "issue_width", self.issue_width);
        ge1(&mut c, "rob_entries", self.rob_entries);
        ge1(&mut c, "mshrs_per_core", self.mshrs_per_core);
        if self.cores_per_cluster >= 1 {
            c.check(self.clusters() <= MAX_CLUSTERS, || {
                format!(
                    "{} cores / {} per cluster = {} clusters: the directory's sharer \
                     mask holds at most {MAX_CLUSTERS}",
                    self.cores,
                    self.cores_per_cluster,
                    self.clusters()
                )
            });
        }
        c.check(self.alu_latency >= 1, || {
            format!("alu_latency = {}: must be >= 1 cycle", self.alu_latency)
        });
        let mut cache = |name: &str, bytes: usize, assoc: usize| {
            let line = microbank_core::CACHE_LINE_BYTES as usize;
            if !c.check((1..=MAX_ASSOC).contains(&assoc), || {
                format!("{name}_assoc = {assoc}: must be in 1..={MAX_ASSOC}")
            }) {
                return;
            }
            let lines = bytes / line;
            c.check(
                bytes.is_multiple_of(line)
                    && lines >= assoc
                    && lines.is_multiple_of(assoc)
                    && (lines / assoc).is_power_of_two(),
                || {
                    format!(
                        "{name}: {bytes} B / {assoc}-way: capacity must be a multiple of \
                         assoc x 64 B with a power-of-two set count"
                    )
                },
            );
        };
        cache("l1", self.l1_bytes, self.l1_assoc);
        cache("l2", self.l2_bytes, self.l2_assoc);
        c.finish("CmpConfig")
    }

    /// Round-trip latency from a core to main memory excluding DRAM time:
    /// L1 + L2 lookup, NoC both ways, directory.
    pub fn memory_overhead_latency(&self) -> u64 {
        self.l1_latency + self.l2_latency + 2 * self.noc_latency + self.dir_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_shape() {
        let c = CmpConfig::paper();
        assert_eq!(c.cores, 64);
        assert_eq!(c.clusters(), 16);
        assert_eq!(c.rob_entries, 32);
        assert_eq!(c.issue_width, 2);
        assert_eq!(c.l1_bytes, 16 * 1024);
        assert_eq!(c.l2_bytes, 2 * 1024 * 1024);
    }

    #[test]
    fn more_than_sixty_four_clusters_are_rejected() {
        assert!(CmpConfig::small(256).validate().is_ok());
        let err = CmpConfig::small(260).validate().unwrap_err();
        assert!(err.to_string().contains("65 clusters"), "{err}");
    }

    #[test]
    fn associativity_beyond_one_byte_of_way_index_is_rejected() {
        let mut c = CmpConfig::paper();
        c.l2_bytes = 256 * 64;
        c.l2_assoc = 256;
        assert!(c.validate().is_ok());
        c.l2_bytes = 512 * 64;
        c.l2_assoc = 512;
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("l2_assoc = 512"), "{err}");
    }

    #[test]
    fn overhead_latency_is_composed() {
        let c = CmpConfig::paper();
        assert_eq!(
            c.memory_overhead_latency(),
            c.l1_latency + c.l2_latency + 2 * c.noc_latency + c.dir_latency
        );
    }
}
