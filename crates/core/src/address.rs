//! Physical-address ↔ DRAM-coordinate mapping with a configurable
//! interleaving base bit `iB` (paper Fig. 11).
//!
//! The mapper slices a physical address, LSB to MSB, into:
//!
//! ```text
//! | row | col_hi | rank | ctrl | bank | μbank_b | μbank_w | col_lo | offset |
//!  MSB                                            ^--- group starts at iB --- LSB
//! ```
//!
//! `col_lo` holds the `iB − 6` least-significant column bits. With `iB = 6`
//! consecutive cache lines round-robin across μbanks, banks, and controllers
//! (cache-line interleaving); with `iB = 6 + log2(columns per μbank row)` a
//! whole DRAM row is contiguous (row/page interleaving), the paper's
//! preferred scheme for μbank systems (§VI-C). The μbank index `w` (wordline
//! direction) consumes the top column bits — a row-shrink from `nW`
//! repartitions the column space — and `b` (bitline direction) consumes the
//! low row bits so that row-sequential streams spread over `nB` μbanks.

use crate::config::MemConfig;
use crate::CACHE_LINE_BITS;
use serde::{Deserialize, Serialize};

/// Fully decoded DRAM coordinates for one cache-line address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Memory controller / channel index.
    pub channel: u16,
    pub rank: u8,
    pub bank: u8,
    /// Wordline-direction μbank index, `0..nW`.
    pub w: u8,
    /// Bitline-direction μbank index, `0..nB`.
    pub b: u8,
    /// Row within the μbank, `0..rows_per_bank/nB`.
    pub row: u32,
    /// Cache-line column within the μbank row, `0..128/nW`.
    pub col: u16,
}

impl Location {
    /// Flat μbank index within the owning channel, used to index the
    /// channel's μbank FSM array.
    pub fn ubank_flat(&self, cfg: &MemConfig) -> usize {
        let per_bank = cfg.ubank.ubanks_per_bank();
        let within_bank = self.b as usize * cfg.ubank.n_w + self.w as usize;
        ((self.rank as usize * cfg.banks_per_rank) + self.bank as usize) * per_bank + within_bank
    }

    /// Identifier for (channel, rank, bank, μbank), ignoring row/col. Two
    /// requests with equal `bank_key` contend for the same row buffer.
    pub fn bank_key(&self, cfg: &MemConfig) -> usize {
        self.channel as usize * cfg.ubanks_per_channel() + self.ubank_flat(cfg)
    }
}

/// One named bit-field in the address layout (for Fig. 11-style printouts).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSpec {
    pub name: &'static str,
    /// Position of the field's least-significant bit.
    pub lsb: u32,
    pub width: u32,
}

/// Address mapper for one [`MemConfig`]. Construction precomputes all field
/// widths and shifts; `decode`/`encode` are branch-free bit slicing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddressMap {
    col_bits: u32,
    col_lo_bits: u32,
    col_hi_bits: u32,
    w_bits: u32,
    b_bits: u32,
    bank_bits: u32,
    rank_bits: u32,
    ctrl_bits: u32,
    row_bits: u32,
    /// Effective interleave base (requested `iB` clamped to the legal range).
    pub interleave_base: u32,
    n_w: usize,
    n_b: usize,
    banks_per_rank: usize,
    ubanks_per_channel: usize,
    /// Permutation-based interleaving: XOR the bank field with low row
    /// bits (self-inverse, so encode/decode stay bijective).
    xor_hash: bool,
    /// Position and mask of the controller field, for [`AddressMap::channel_of`].
    ctrl_shift: u32,
    ctrl_mask: u64,
}

impl AddressMap {
    pub fn new(cfg: &MemConfig) -> Self {
        let col_bits = (cfg.ubank_cols() as u32).trailing_zeros()
            + if cfg.ubank_cols().is_power_of_two() {
                0
            } else {
                panic!("cols not pow2")
            };
        let row_bits = (cfg.ubank_rows() as u32).trailing_zeros();
        let ib = cfg
            .interleave_base
            .clamp(CACHE_LINE_BITS, CACHE_LINE_BITS + col_bits);
        let col_lo_bits = ib - CACHE_LINE_BITS;
        let (w_bits, b_bits) = (cfg.ubank.log2_nw(), cfg.ubank.log2_nb());
        let bank_bits = (cfg.banks_per_rank as u32).trailing_zeros();
        let ctrl_bits = (cfg.channels as u32).trailing_zeros();
        AddressMap {
            col_bits,
            col_lo_bits,
            col_hi_bits: col_bits - col_lo_bits,
            w_bits,
            b_bits,
            bank_bits,
            rank_bits: (cfg.ranks_per_channel as u32).trailing_zeros(),
            ctrl_bits,
            row_bits,
            interleave_base: ib,
            n_w: cfg.ubank.n_w,
            n_b: cfg.ubank.n_b,
            banks_per_rank: cfg.banks_per_rank,
            ubanks_per_channel: cfg.ubanks_per_channel(),
            xor_hash: cfg.bank_xor_hash,
            ctrl_shift: CACHE_LINE_BITS + col_lo_bits + w_bits + b_bits + bank_bits,
            ctrl_mask: (1u64 << ctrl_bits) - 1,
        }
    }

    /// The XOR-hash mask applied to the bank field (low row bits).
    fn bank_hash(&self, row: u64) -> u64 {
        if self.xor_hash {
            row & ((1u64 << self.bank_bits) - 1)
        } else {
            0
        }
    }

    /// Number of address bits the mapper consumes (= log2 total capacity).
    pub fn address_bits(&self) -> u32 {
        CACHE_LINE_BITS
            + self.col_bits
            + self.w_bits
            + self.b_bits
            + self.bank_bits
            + self.rank_bits
            + self.ctrl_bits
            + self.row_bits
    }

    /// Decode a physical byte address into DRAM coordinates. Address bits
    /// above the capacity wrap (masked off), so synthetic workloads with
    /// arbitrary 64-bit addresses are always mappable.
    pub fn decode(&self, addr: u64) -> Location {
        let mut a = addr >> CACHE_LINE_BITS;
        let mut take = |bits: u32| -> u64 {
            let v = a & (((1u64 << bits) - 1) * (bits != 0) as u64);
            a >>= bits;
            v
        };
        let col_lo = take(self.col_lo_bits);
        let w = take(self.w_bits);
        let b = take(self.b_bits);
        let bank = take(self.bank_bits);
        let ctrl = take(self.ctrl_bits);
        let rank = take(self.rank_bits);
        let col_hi = take(self.col_hi_bits);
        let row = take(self.row_bits);
        let bank = bank ^ self.bank_hash(row);
        Location {
            channel: ctrl as u16,
            rank: rank as u8,
            bank: bank as u8,
            w: w as u8,
            b: b as u8,
            row: row as u32,
            col: ((col_hi << self.col_lo_bits) | col_lo) as u16,
        }
    }

    /// The channel field of [`AddressMap::decode`] alone: one shift and
    /// mask, for routing a request (or rejecting it against a full queue)
    /// before decoding the rest. The XOR hash touches only the bank field.
    #[inline]
    pub fn channel_of(&self, addr: u64) -> u16 {
        ((addr >> self.ctrl_shift) & self.ctrl_mask) as u16
    }

    /// Re-encode DRAM coordinates into the canonical physical address.
    pub fn encode(&self, loc: &Location) -> u64 {
        let col = loc.col as u64;
        let col_lo = col & (((1u64 << self.col_lo_bits) - 1) * (self.col_lo_bits != 0) as u64);
        let col_hi = col >> self.col_lo_bits;
        let mut a: u64 = 0;
        let mut shift: u32 = CACHE_LINE_BITS;
        let mut put = |v: u64, bits: u32| {
            a |= v << shift;
            shift += bits;
        };
        put(col_lo, self.col_lo_bits);
        put(loc.w as u64, self.w_bits);
        put(loc.b as u64, self.b_bits);
        // XOR hashing is self-inverse: store bank ^ hash(row).
        put(
            loc.bank as u64 ^ self.bank_hash(loc.row as u64),
            self.bank_bits,
        );
        put(loc.channel as u64, self.ctrl_bits);
        put(loc.rank as u64, self.rank_bits);
        put(col_hi, self.col_hi_bits);
        put(loc.row as u64, self.row_bits);
        a
    }

    /// The field layout, LSB first, for Fig. 11-style diagrams.
    pub fn layout(&self) -> Vec<FieldSpec> {
        let mut out = Vec::new();
        let mut lsb = 0;
        let mut push = |name: &'static str, width: u32, lsb: &mut u32| {
            if width > 0 {
                out.push(FieldSpec {
                    name,
                    lsb: *lsb,
                    width,
                });
            }
            *lsb += width;
        };
        push("cache line", CACHE_LINE_BITS, &mut lsb);
        push("column (low)", self.col_lo_bits, &mut lsb);
        push("ubank-w", self.w_bits, &mut lsb);
        push("ubank-b", self.b_bits, &mut lsb);
        push("bank", self.bank_bits, &mut lsb);
        push("mem ctrl", self.ctrl_bits, &mut lsb);
        push("rank", self.rank_bits, &mut lsb);
        push("column (high)", self.col_hi_bits, &mut lsb);
        push("row", self.row_bits, &mut lsb);
        out
    }

    /// Total μbanks per channel (convenience mirror of the config).
    pub fn ubanks_per_channel(&self) -> usize {
        self.ubanks_per_channel
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        1 << self.ctrl_bits
    }

    /// Validate that a location's fields are within range.
    pub fn location_in_range(&self, loc: &Location) -> bool {
        (loc.channel as usize) < (1 << self.ctrl_bits)
            && (loc.rank as usize) < (1 << self.rank_bits)
            && (loc.bank as usize) < self.banks_per_rank
            && (loc.w as usize) < self.n_w
            && (loc.b as usize) < self.n_b
            && (loc.row as u64) < (1 << self.row_bits)
            && (loc.col as u64) < (1 << self.col_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;
    use proptest::prelude::*;

    fn cfg(nw: usize, nb: usize, ib: u32) -> MemConfig {
        MemConfig::lpddr_tsi()
            .with_ubanks(nw, nb)
            .with_interleave_base(ib)
    }

    #[test]
    fn cache_line_interleave_spreads_consecutive_lines() {
        let c = cfg(2, 8, 6);
        let m = AddressMap::new(&c);
        let a = m.decode(0);
        let b = m.decode(64);
        // iB = 6: the next cache line lands in a different μbank (w changes
        // first, being the lowest group field).
        assert_ne!((a.w, a.b, a.bank, a.channel), (b.w, b.b, b.bank, b.channel));
    }

    #[test]
    fn row_interleave_keeps_a_row_together() {
        let c = cfg(2, 8, 12); // max iB for nW = 2
        let m = AddressMap::new(&c);
        let base = m.decode(0);
        // All 64 columns of the μbank row are consecutive addresses.
        for line in 0..c.ubank_cols() as u64 {
            let l = m.decode(line * 64);
            assert_eq!(
                (l.channel, l.rank, l.bank, l.w, l.b, l.row),
                (base.channel, base.rank, base.bank, base.w, base.b, base.row)
            );
            assert_eq!(l.col as u64, line);
        }
        // The next line after the row boundary leaves the μbank group.
        let next = m.decode(c.ubank_cols() as u64 * 64);
        assert_ne!(
            (next.w, next.b, next.bank, next.channel, next.rank, next.row),
            (base.w, base.b, base.bank, base.channel, base.rank, base.row)
        );
    }

    #[test]
    fn ib_is_clamped_to_legal_range() {
        let c = cfg(8, 2, 13); // max legal is 10 for nW = 8
        let m = AddressMap::new(&c);
        assert_eq!(m.interleave_base, 10);
        let c2 = cfg(1, 1, 2);
        assert_eq!(AddressMap::new(&c2).interleave_base, 6);
    }

    #[test]
    fn layout_covers_all_bits_contiguously() {
        for (nw, nb, ib) in [(1, 1, 13), (2, 8, 6), (4, 4, 9), (16, 16, 8)] {
            let m = AddressMap::new(&cfg(nw, nb, ib));
            let fields = m.layout();
            let mut expect = 0;
            for f in &fields {
                assert_eq!(f.lsb, expect, "gap before {}", f.name);
                expect += f.width;
            }
            assert_eq!(expect, m.address_bits());
        }
    }

    #[test]
    fn bank_key_distinguishes_ubanks() {
        let c = cfg(4, 4, 6);
        let m = AddressMap::new(&c);
        let mut keys = std::collections::HashSet::new();
        for line in 0..4096u64 {
            let loc = m.decode(line * 64);
            keys.insert(loc.bank_key(&c));
        }
        // 16 channels × 8 banks × 16 μbanks = 2048 distinct row buffers;
        // 4096 consecutive lines at iB=6 must touch many of them.
        assert!(keys.len() > 1000, "only {} keys", keys.len());
    }

    #[test]
    fn xor_hash_spreads_row_strides_across_banks() {
        // Row-stride pattern (same bank field bits): without hashing all
        // accesses land in one bank; with hashing they spread over all 8.
        let base = MemConfig::lpddr_tsi().with_channels(1);
        let plain = AddressMap::new(&base);
        let hashed = AddressMap::new(&base.clone().with_bank_xor_hash(true));
        let row_stride = 1u64 << (plain.address_bits() - 13); // row bit 0
        let mut banks_plain = std::collections::HashSet::new();
        let mut banks_hashed = std::collections::HashSet::new();
        for i in 0..16u64 {
            banks_plain.insert(plain.decode(i * row_stride).bank);
            banks_hashed.insert(hashed.decode(i * row_stride).bank);
        }
        assert_eq!(
            banks_plain.len(),
            1,
            "row stride stays in one bank unhashed"
        );
        assert!(
            banks_hashed.len() >= 8,
            "hashing spreads: {}",
            banks_hashed.len()
        );
    }

    #[test]
    fn xor_hash_roundtrips() {
        let cfg = MemConfig::lpddr_tsi()
            .with_ubanks(4, 4)
            .with_bank_xor_hash(true);
        let m = AddressMap::new(&cfg);
        for addr in (0..(1u64 << 22)).step_by(64 * 641) {
            let loc = m.decode(addr);
            assert!(m.location_in_range(&loc));
            assert_eq!(m.encode(&loc), addr & !63, "{addr:#x}");
        }
    }

    proptest! {
        #[test]
        fn decode_encode_roundtrip(
            addr in 0u64..(1u64 << 36),
            nw in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
            nb in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
            ib in 6u32..=13,
        ) {
            let c = cfg(nw, nb, ib);
            let m = AddressMap::new(&c);
            let masked = addr & ((1u64 << m.address_bits()) - 1) & !63;
            let loc = m.decode(masked);
            prop_assert!(m.location_in_range(&loc));
            prop_assert_eq!(m.encode(&loc), masked);
        }

        #[test]
        fn channel_of_is_the_decoded_channel(
            addr in any::<u64>(),
            channels in prop::sample::select(vec![1usize, 2, 4, 8, 16, 32]),
            nw in prop::sample::select(vec![1usize, 2, 4, 16]),
            nb in prop::sample::select(vec![1usize, 2, 4, 16]),
            ib in 0u32..=20,
            xor in any::<bool>(),
        ) {
            let c = cfg(nw, nb, ib)
                .with_channels(channels)
                .with_bank_xor_hash(xor);
            let m = AddressMap::new(&c);
            prop_assert_eq!(m.channel_of(addr), m.decode(addr).channel);
        }

        #[test]
        fn distinct_lines_distinct_coordinates(
            a in 0u64..1_000_000u64,
            b in 0u64..1_000_000u64,
            nw in prop::sample::select(vec![1usize, 2, 4, 8]),
            nb in prop::sample::select(vec![1usize, 2, 4, 8]),
        ) {
            prop_assume!(a != b);
            let c = cfg(nw, nb, 6);
            let m = AddressMap::new(&c);
            let la = m.decode(a * 64);
            let lb = m.decode(b * 64);
            prop_assert_ne!((la.channel, la.rank, la.bank, la.w, la.b, la.row, la.col),
                            (lb.channel, lb.rank, lb.bank, lb.w, lb.b, lb.row, lb.col));
        }

        #[test]
        fn ubank_flat_is_dense_and_unique(
            nw in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
            nb in prop::sample::select(vec![1usize, 2, 4, 8, 16]),
        ) {
            let c = cfg(nw, nb, 6);
            let total = c.ubanks_per_channel();
            let mut seen = vec![false; total];
            for bank in 0..c.banks_per_rank {
                for w in 0..nw {
                    for b in 0..nb {
                        let loc = Location {
                            channel: 0, rank: 0, bank: bank as u8,
                            w: w as u8, b: b as u8, row: 0, col: 0,
                        };
                        let f = loc.ubank_flat(&c);
                        prop_assert!(f < total);
                        prop_assert!(!seen[f], "duplicate flat index {}", f);
                        seen[f] = true;
                    }
                }
            }
        }
    }
}
