//! Repair plans and cost accounting.
//!
//! The paper's core argument is about *bytes*: recovering one RS-coded block
//! reads and ships `k` whole blocks across racks, and the Piggybacked-RS code
//! reduces that amount by about 30 %. The types in this module describe, for
//! any code, exactly which helper shards must be contacted and which fraction
//! of each shard must be read, so the cluster simulator can convert a plan
//! into cross-rack traffic without touching data bytes.

use core::fmt;

/// An exact rational fraction of a shard, used to express partial-shard reads
/// (the Piggybacked-RS code reads half-shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fraction {
    num: u32,
    den: u32,
}

impl Fraction {
    /// The whole shard.
    pub const ONE: Fraction = Fraction { num: 1, den: 1 };
    /// Half of the shard (one of the two byte-level substripes).
    pub const HALF: Fraction = Fraction { num: 1, den: 2 };

    /// Creates a fraction `num / den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den` (a fetch can never exceed one
    /// shard).
    pub fn new(num: u32, den: u32) -> Self {
        assert!(den != 0, "fraction denominator must be non-zero");
        assert!(num <= den, "cannot fetch more than a whole shard");
        Fraction { num, den }
    }

    /// Numerator.
    pub const fn numerator(&self) -> u32 {
        self.num
    }

    /// Denominator.
    pub const fn denominator(&self) -> u32 {
        self.den
    }

    /// The fraction as a float.
    pub fn as_f64(&self) -> f64 {
        f64::from(self.num) / f64::from(self.den)
    }

    /// Number of bytes this fraction represents for a shard of `shard_len`
    /// bytes (rounded up, since partial symbols still have to be read).
    pub fn bytes_of(&self, shard_len: usize) -> u64 {
        let len = shard_len as u64;
        (len * u64::from(self.num)).div_ceil(u64::from(self.den))
    }
}

impl fmt::Display for Fraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.num == self.den {
            write!(f, "1")
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// One helper read in a repair plan: read `fraction` of shard `shard` and
/// transfer it to the node performing the rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FetchRequest {
    /// Index of the helper shard within the stripe.
    pub shard: usize,
    /// Fraction of the helper shard that must be read and transferred.
    pub fraction: Fraction,
}

/// A complete plan for rebuilding one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairPlan {
    /// The shard being rebuilt.
    pub target: usize,
    /// The helper reads required.
    pub fetches: Vec<FetchRequest>,
}

impl RepairPlan {
    /// Number of distinct helper shards contacted.
    pub fn helper_count(&self) -> usize {
        self.fetches.len()
    }

    /// Sum of the fetched fractions, in units of "whole shards".
    ///
    /// A `(k, r)` RS single-shard repair yields exactly `k`; a (10, 4)
    /// Piggybacked-RS data-shard repair yields 6.5 or 7.0.
    pub fn total_fraction(&self) -> f64 {
        self.fetches.iter().map(|f| f.fraction.as_f64()).sum()
    }

    /// Total bytes read from disk (equal to bytes transferred in this model)
    /// for shards of `shard_len` bytes.
    pub fn bytes_read(&self, shard_len: usize) -> u64 {
        self.fetches
            .iter()
            .map(|f| f.fraction.bytes_of(shard_len))
            .sum()
    }

    /// Converts the plan into [`RepairMetrics`] for a given shard length.
    pub fn metrics(&self, shard_len: usize) -> RepairMetrics {
        let bytes = self.bytes_read(shard_len);
        RepairMetrics {
            helpers: self.helper_count(),
            bytes_read: bytes,
            bytes_transferred: bytes,
        }
    }

    /// Indices of the helper shards, in plan order.
    pub fn helper_indices(&self) -> Vec<usize> {
        self.fetches.iter().map(|f| f.shard).collect()
    }
}

/// One contiguous byte range of a helper shard that a repair actually reads.
///
/// A [`RepairPlan`] prices a repair in *fractions* of shards; a `ShardRead`
/// pins the fraction down to concrete bytes, so callers that execute repairs
/// against real storage (the `pbrs-store` crate) can read exactly the ranges
/// the rebuild consumes instead of whole shards. Produced by
/// [`crate::ErasureCode::repair_reads`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardRead {
    /// Index of the helper shard within the stripe.
    pub shard: usize,
    /// Byte offset of the range within the shard.
    pub offset: usize,
    /// Length of the range in bytes.
    pub len: usize,
}

impl ShardRead {
    /// A read of the whole shard.
    pub fn whole(shard: usize, shard_len: usize) -> Self {
        ShardRead {
            shard,
            offset: 0,
            len: shard_len,
        }
    }

    /// One past the last byte of the range.
    pub fn end(&self) -> usize {
        self.offset + self.len
    }

    /// The byte range within the helper shard, ready for slice indexing.
    pub fn range(&self) -> core::ops::Range<usize> {
        self.offset..self.end()
    }
}

/// Total bytes covered by a set of reads.
pub fn total_read_bytes(reads: &[ShardRead]) -> u64 {
    reads.iter().map(|r| r.len as u64).sum()
}

/// The reads of a plan that touch helper shard `shard`, in plan order.
///
/// Chunk-at-a-time executors (the `pbrs-store` crate's degraded reads, the
/// `chunkd` wire protocol) serve one helper shard per request, so they need
/// the per-shard slice of a plan rather than the flat list.
pub fn reads_for_shard(reads: &[ShardRead], shard: usize) -> impl Iterator<Item = &ShardRead> {
    reads.iter().filter(move |r| r.shard == shard)
}

/// Read/transfer accounting of an executed (or planned) repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairMetrics {
    /// Number of helper shards contacted.
    pub helpers: usize,
    /// Bytes read from helper disks.
    pub bytes_read: u64,
    /// Bytes moved over the network to the rebuilding node.
    pub bytes_transferred: u64,
}

impl RepairMetrics {
    /// Sums two metrics, e.g. to aggregate over many block repairs.
    pub fn combined(self, other: RepairMetrics) -> RepairMetrics {
        RepairMetrics {
            helpers: self.helpers + other.helpers,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_transferred: self.bytes_transferred + other.bytes_transferred,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_basics() {
        assert_eq!(Fraction::ONE.as_f64(), 1.0);
        assert_eq!(Fraction::HALF.as_f64(), 0.5);
        assert_eq!(Fraction::new(3, 4).as_f64(), 0.75);
        assert_eq!(Fraction::ONE.to_string(), "1");
        assert_eq!(Fraction::HALF.to_string(), "1/2");
        assert_eq!(Fraction::new(2, 2).to_string(), "1");
    }

    #[test]
    fn fraction_bytes_rounding() {
        assert_eq!(Fraction::HALF.bytes_of(10), 5);
        assert_eq!(Fraction::HALF.bytes_of(11), 6, "partial symbols round up");
        assert_eq!(Fraction::ONE.bytes_of(256 * 1024 * 1024), 256 * 1024 * 1024);
        assert_eq!(Fraction::new(1, 3).bytes_of(10), 4);
        assert_eq!(Fraction::new(0, 5).bytes_of(100), 0);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Fraction::new(1, 0);
    }

    #[test]
    #[should_panic(expected = "whole shard")]
    fn improper_fraction_panics() {
        let _ = Fraction::new(3, 2);
    }

    #[test]
    fn plan_accounting() {
        let plan = RepairPlan {
            target: 0,
            fetches: vec![
                FetchRequest {
                    shard: 1,
                    fraction: Fraction::ONE,
                },
                FetchRequest {
                    shard: 2,
                    fraction: Fraction::HALF,
                },
                FetchRequest {
                    shard: 13,
                    fraction: Fraction::HALF,
                },
            ],
        };
        assert_eq!(plan.helper_count(), 3);
        assert!((plan.total_fraction() - 2.0).abs() < 1e-12);
        assert_eq!(plan.bytes_read(100), 100 + 50 + 50);
        assert_eq!(plan.helper_indices(), vec![1, 2, 13]);
        let m = plan.metrics(100);
        assert_eq!(m.helpers, 3);
        assert_eq!(m.bytes_read, 200);
        assert_eq!(m.bytes_transferred, 200);
    }

    #[test]
    fn metrics_combine() {
        let a = RepairMetrics {
            helpers: 10,
            bytes_read: 100,
            bytes_transferred: 100,
        };
        let b = RepairMetrics {
            helpers: 7,
            bytes_read: 65,
            bytes_transferred: 65,
        };
        let c = a.combined(b);
        assert_eq!(c.helpers, 17);
        assert_eq!(c.bytes_read, 165);
        assert_eq!(c.bytes_transferred, 165);
        assert_eq!(RepairMetrics::default().combined(a), a);
    }
}
