//! Miss-status holding registers: the per-core limit on outstanding line
//! misses.
//!
//! An MSHR file only counts: it holds the lines its core has a main-memory
//! miss outstanding on, and a core whose file is full stalls. The miss
//! itself — the loads to wake and whether the line arrives dirty — is
//! recorded once per cluster in the CMP's in-flight table
//! ([`crate::system`]), where later accesses to the line merge.

/// Per-core MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Outstanding lines, unordered and distinct. Grown on first use, so an
    /// idle core's file allocates nothing.
    lines: Vec<u64>,
}

impl MshrFile {
    pub fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            lines: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.lines.len() >= self.capacity
    }

    /// Is a miss to `line` already outstanding?
    pub fn contains(&self, line: u64) -> bool {
        self.lines.contains(&line)
    }

    /// Record a miss to `line`, which must not be outstanding yet. Returns
    /// false when full (caller must stall).
    pub fn allocate(&mut self, line: u64) -> bool {
        if self.is_full() {
            return false;
        }
        debug_assert!(!self.contains(line), "line {line:#x} already outstanding");
        self.lines.push(line);
        true
    }

    /// The fill for `line` arrived: release its entry. Returns whether
    /// there was one.
    pub fn complete(&mut self, line: u64) -> bool {
        match self.lines.iter().position(|&l| l == line) {
            Some(i) => {
                self.lines.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
impl MshrFile {
    /// The outstanding lines, in no particular order.
    pub(crate) fn lines(&self) -> &[u64] {
        &self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_until_full() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(0));
        assert!(m.allocate(64));
        assert!(m.is_full());
        assert!(!m.allocate(128));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn complete_releases_only_its_line() {
        let mut m = MshrFile::new(2);
        m.allocate(0);
        m.allocate(64);
        assert!(m.complete(0));
        assert!(!m.contains(0));
        assert!(m.contains(64));
        assert!(!m.is_full());
        assert!(m.allocate(128), "the freed entry is reusable");
        assert!(!m.complete(0), "already released");
    }

    #[test]
    fn complete_unknown_line_is_false() {
        let mut m = MshrFile::new(1);
        assert!(!m.complete(0));
        assert!(m.is_empty());
    }
}
