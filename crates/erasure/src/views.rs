//! Borrowed shard views over contiguous backing buffers.
//!
//! The paper's whole argument is about bytes moved per repair, so the hot
//! encode/repair paths must not copy shards around before the GF(2^8)
//! kernels run. These types describe a stripe (or the data half of one) as a
//! *view* over a single contiguous byte buffer:
//!
//! * [`ShardSet`] — a shared view: `shards` equal slices of `shard_len`
//!   bytes, laid out `stride` bytes apart;
//! * [`ShardSetMut`] — the mutable counterpart, with a safe
//!   [`ShardSetMut::split_one_mut`] that yields one shard `&mut [u8]` plus
//!   read access to every other shard (the shape every in-place decode
//!   needs: write the missing shard while reading the helpers);
//! * [`ShardBuffer`] — an owned contiguous stripe buffer that hands out the
//!   two views above, for callers that do not already manage their own
//!   memory.
//!
//! `stride` and `shard_len` are separate so a view can *narrow* to a byte
//! range of every shard without copying — the Piggybacked-RS code decodes
//! its two substripes by narrowing the stripe view to each half.

use crate::repair::ShardRead;
use crate::CodeError;

/// Checks the `(shards, stride, shard_len, buffer length)` geometry shared
/// by both view types.
fn validate_geometry(buf_len: usize, shards: usize, shard_len: usize) -> Result<(), CodeError> {
    if shards == 0 || shard_len == 0 {
        return Err(CodeError::InvalidParams {
            reason: "a shard view needs at least one shard of at least one byte".into(),
        });
    }
    let needed = shards
        .checked_mul(shard_len)
        .ok_or_else(|| CodeError::InvalidParams {
            reason: "shard view size overflows".into(),
        })?;
    if buf_len != needed {
        return Err(CodeError::ShardSizeMismatch {
            expected: needed,
            actual: buf_len,
        });
    }
    Ok(())
}

/// A shared, borrowed view of `shards` equal-length shards inside one
/// contiguous buffer.
///
/// # Example
///
/// ```
/// use pbrs_erasure::ShardSet;
///
/// let buf: Vec<u8> = (0..12u8).collect();
/// let set = ShardSet::new(&buf, 3, 4).unwrap();
/// assert_eq!(set.shard(1), &[4, 5, 6, 7]);
/// assert_eq!(set.iter().count(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardSet<'a> {
    buf: &'a [u8],
    shards: usize,
    /// Distance in bytes between consecutive shard starts.
    stride: usize,
    /// Byte offset of the viewed range within each stride.
    offset: usize,
    /// Viewed bytes per shard (`<= stride - offset`).
    shard_len: usize,
}

impl<'a> ShardSet<'a> {
    /// Creates a view of `shards` shards of `shard_len` bytes each, packed
    /// back to back in `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for zero dimensions and
    /// [`CodeError::ShardSizeMismatch`] if `buf.len() != shards * shard_len`.
    pub fn new(buf: &'a [u8], shards: usize, shard_len: usize) -> Result<Self, CodeError> {
        validate_geometry(buf.len(), shards, shard_len)?;
        Ok(ShardSet {
            buf,
            shards,
            stride: shard_len,
            offset: 0,
            shard_len,
        })
    }

    /// Number of shards in the view.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Viewed bytes per shard.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Shard `index` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard(&self, index: usize) -> &'a [u8] {
        assert!(index < self.shards, "shard index out of range");
        let start = index * self.stride + self.offset;
        &self.buf[start..start + self.shard_len]
    }

    /// Iterates over the shard slices in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + '_ {
        (0..self.shards).map(move |i| self.shard(i))
    }

    /// A view of the byte range `offset..offset + len` of every shard.
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit within a shard.
    pub fn narrow(&self, offset: usize, len: usize) -> ShardSet<'a> {
        assert!(
            len > 0
                && offset
                    .checked_add(len)
                    .is_some_and(|end| end <= self.shard_len),
            "narrowed range must fit within the shard"
        );
        ShardSet {
            buf: self.buf,
            shards: self.shards,
            stride: self.stride,
            offset: self.offset + offset,
            shard_len: len,
        }
    }
}

/// Read access to every shard of a [`ShardSetMut`] except one, produced by
/// [`ShardSetMut::split_one_mut`].
#[derive(Debug)]
pub struct SplitShards<'a> {
    before: &'a [u8],
    after: &'a [u8],
    pivot: usize,
    shards: usize,
    stride: usize,
    offset: usize,
    shard_len: usize,
}

impl SplitShards<'_> {
    /// Shard `index` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `index` is the split-out pivot shard or out of range.
    pub fn shard(&self, index: usize) -> &[u8] {
        assert!(index < self.shards, "shard index out of range");
        assert!(
            index != self.pivot,
            "the pivot shard is mutably borrowed elsewhere"
        );
        if index < self.pivot {
            let start = index * self.stride + self.offset;
            &self.before[start..start + self.shard_len]
        } else {
            // `after` starts right past the pivot's viewed range.
            let start = (index - self.pivot) * self.stride - self.shard_len;
            &self.after[start..start + self.shard_len]
        }
    }
}

/// A mutable, borrowed view of `shards` equal-length shards inside one
/// contiguous buffer.
///
/// # Example
///
/// ```
/// use pbrs_erasure::ShardSetMut;
///
/// let mut buf = vec![0u8; 8];
/// let mut set = ShardSetMut::new(&mut buf, 2, 4).unwrap();
/// set.shard_mut(1).fill(7);
/// let (one, rest) = set.split_one_mut(1);
/// one.copy_from_slice(rest.shard(0));
/// assert_eq!(buf, vec![0u8; 8]);
/// ```
#[derive(Debug)]
pub struct ShardSetMut<'a> {
    buf: &'a mut [u8],
    shards: usize,
    stride: usize,
    offset: usize,
    shard_len: usize,
}

impl<'a> ShardSetMut<'a> {
    /// Creates a mutable view of `shards` shards of `shard_len` bytes each,
    /// packed back to back in `buf`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] for zero dimensions and
    /// [`CodeError::ShardSizeMismatch`] if `buf.len() != shards * shard_len`.
    pub fn new(buf: &'a mut [u8], shards: usize, shard_len: usize) -> Result<Self, CodeError> {
        validate_geometry(buf.len(), shards, shard_len)?;
        Ok(ShardSetMut {
            buf,
            shards,
            stride: shard_len,
            offset: 0,
            shard_len,
        })
    }

    /// Number of shards in the view.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Viewed bytes per shard.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Shard `index` as a shared slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard(&self, index: usize) -> &[u8] {
        assert!(index < self.shards, "shard index out of range");
        let start = index * self.stride + self.offset;
        &self.buf[start..start + self.shard_len]
    }

    /// Shard `index` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard_mut(&mut self, index: usize) -> &mut [u8] {
        assert!(index < self.shards, "shard index out of range");
        let start = index * self.stride + self.offset;
        &mut self.buf[start..start + self.shard_len]
    }

    /// A shared [`ShardSet`] view of the same shards.
    pub fn as_shard_set(&self) -> ShardSet<'_> {
        ShardSet {
            buf: self.buf,
            shards: self.shards,
            stride: self.stride,
            offset: self.offset,
            shard_len: self.shard_len,
        }
    }

    /// Splits the view into shard `index` mutably and read access to every
    /// other shard — the safe shape of every in-place decode: write one
    /// missing shard while reading helpers.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn split_one_mut(&mut self, index: usize) -> (&mut [u8], SplitShards<'_>) {
        assert!(index < self.shards, "shard index out of range");
        let start = index * self.stride + self.offset;
        let (before, rest) = self.buf.split_at_mut(start);
        let (target, after) = rest.split_at_mut(self.shard_len);
        (
            target,
            SplitShards {
                before,
                after,
                pivot: index,
                shards: self.shards,
                stride: self.stride,
                offset: self.offset,
                shard_len: self.shard_len,
            },
        )
    }

    /// Splits the view into the shards selected by `take` (mutably, in
    /// index order) and every other shard (shared, in index order) — the
    /// shape of a multi-output kernel call: write several shards at once
    /// while reading the rest.
    ///
    /// This generalises [`ShardSetMut::split_one_mut`] to any number of
    /// targets; a caller rebuilding several missing shards (or encoding all
    /// parities) hands the mutable side to
    /// [`pbrs_gf::slice_ops::matrix_mul_into`] and feeds the shared side as
    /// sources. The borrows are carved out of the backing buffer with
    /// `split_at_mut`, so no `unsafe` is involved.
    ///
    /// # Panics
    ///
    /// Panics if `take.len() != shard_count()`.
    pub fn split_parts_mut(&mut self, take: &[bool]) -> (Vec<&mut [u8]>, Vec<&[u8]>) {
        assert_eq!(
            take.len(),
            self.shards,
            "one take flag is required per shard"
        );
        let mut taken = Vec::new();
        let mut rest = Vec::new();
        // Walk the buffer carving each shard's viewed range; `consumed`
        // tracks how much of the original buffer precedes `remaining`.
        let mut remaining: &mut [u8] = self.buf;
        let mut consumed = 0usize;
        for (i, &wanted) in take.iter().enumerate() {
            let start = i * self.stride + self.offset;
            let (_, from_start) = std::mem::take(&mut remaining).split_at_mut(start - consumed);
            let (shard, after) = from_start.split_at_mut(self.shard_len);
            if wanted {
                taken.push(shard);
            } else {
                rest.push(shard as &[u8]);
            }
            remaining = after;
            consumed = start + self.shard_len;
        }
        (taken, rest)
    }

    /// A mutable view of the byte range `offset..offset + len` of every
    /// shard (used to address one substripe of a multi-substripe code).
    ///
    /// # Panics
    ///
    /// Panics if the range does not fit within a shard.
    pub fn narrow_mut(&mut self, offset: usize, len: usize) -> ShardSetMut<'_> {
        assert!(
            len > 0
                && offset
                    .checked_add(len)
                    .is_some_and(|end| end <= self.shard_len),
            "narrowed range must fit within the shard"
        );
        ShardSetMut {
            buf: self.buf,
            shards: self.shards,
            stride: self.stride,
            offset: self.offset + offset,
            shard_len: len,
        }
    }
}

/// An owned, contiguous stripe buffer that hands out [`ShardSet`] /
/// [`ShardSetMut`] views.
///
/// # Example
///
/// ```
/// use pbrs_erasure::ShardBuffer;
///
/// let mut stripe = ShardBuffer::zeroed(14, 64);
/// stripe.shard_mut(0).fill(0xAB);
/// assert_eq!(stripe.as_set().shard(0), &[0xAB; 64]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardBuffer {
    buf: Vec<u8>,
    shards: usize,
    shard_len: usize,
}

impl ShardBuffer {
    /// An all-zero buffer of `shards` shards of `shard_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeroed(shards: usize, shard_len: usize) -> Self {
        assert!(
            shards > 0 && shard_len > 0,
            "a shard buffer needs at least one shard of at least one byte"
        );
        ShardBuffer {
            buf: vec![0u8; shards * shard_len],
            shards,
            shard_len,
        }
    }

    /// Packs owned shards into one contiguous buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] if `shards` is empty or the first
    /// shard is empty, and [`CodeError::ShardSizeMismatch`] for ragged
    /// shards.
    pub fn from_shards(shards: &[Vec<u8>]) -> Result<Self, CodeError> {
        let (Some(first), len) = (shards.first(), shards.len()) else {
            return Err(CodeError::InvalidParams {
                reason: "cannot pack an empty shard list".into(),
            });
        };
        let shard_len = first.len();
        if shard_len == 0 {
            return Err(CodeError::InvalidParams {
                reason: "shards must not be empty".into(),
            });
        }
        let mut buf = Vec::with_capacity(len * shard_len);
        for shard in shards {
            if shard.len() != shard_len {
                return Err(CodeError::ShardSizeMismatch {
                    expected: shard_len,
                    actual: shard.len(),
                });
            }
            buf.extend_from_slice(shard);
        }
        Ok(ShardBuffer {
            buf,
            shards: len,
            shard_len,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Bytes per shard.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Shard `index` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard(&self, index: usize) -> &[u8] {
        assert!(index < self.shards, "shard index out of range");
        &self.buf[index * self.shard_len..(index + 1) * self.shard_len]
    }

    /// Shard `index` as a mutable slice.
    ///
    /// # Panics
    ///
    /// Panics if `index >= shard_count()`.
    pub fn shard_mut(&mut self, index: usize) -> &mut [u8] {
        assert!(index < self.shards, "shard index out of range");
        &mut self.buf[index * self.shard_len..(index + 1) * self.shard_len]
    }

    /// A shared view of the whole buffer.
    pub fn as_set(&self) -> ShardSet<'_> {
        // pbrs-lint: allow(panic-hygiene) -- geometry was validated when the buffer was constructed
        ShardSet::new(&self.buf, self.shards, self.shard_len).expect("geometry is validated")
    }

    /// A mutable view of the whole buffer.
    pub fn as_set_mut(&mut self) -> ShardSetMut<'_> {
        // pbrs-lint: allow(panic-hygiene) -- geometry was validated when the buffer was constructed
        ShardSetMut::new(&mut self.buf, self.shards, self.shard_len).expect("geometry is validated")
    }

    /// A shared view of shards `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn subset(&self, range: core::ops::Range<usize>) -> ShardSet<'_> {
        assert!(
            range.start < range.end && range.end <= self.shards,
            "shard range out of bounds"
        );
        ShardSet::new(
            &self.buf[range.start * self.shard_len..range.end * self.shard_len],
            range.end - range.start,
            self.shard_len,
        )
        // pbrs-lint: allow(panic-hygiene) -- geometry was validated when the buffer was constructed
        .expect("geometry is validated")
    }

    /// A mutable view of shards `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn subset_mut(&mut self, range: core::ops::Range<usize>) -> ShardSetMut<'_> {
        assert!(
            range.start < range.end && range.end <= self.shards,
            "shard range out of bounds"
        );
        ShardSetMut::new(
            &mut self.buf[range.start * self.shard_len..range.end * self.shard_len],
            range.end - range.start,
            self.shard_len,
        )
        // pbrs-lint: allow(panic-hygiene) -- geometry was validated when the buffer was constructed
        .expect("geometry is validated")
    }

    /// Splits the buffer at shard `at` into a shared view of the first `at`
    /// shards and a mutable view of the rest — the shape of a systematic
    /// encode, which reads the data shards while writing the parity shards
    /// of the same stripe buffer.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < at < shard_count()`.
    pub fn split_mut(&mut self, at: usize) -> (ShardSet<'_>, ShardSetMut<'_>) {
        assert!(
            at > 0 && at < self.shards,
            "split point must leave shards on both sides"
        );
        let (left, right) = self.buf.split_at_mut(at * self.shard_len);
        (
            // pbrs-lint: allow(panic-hygiene) -- split point is asserted in range; both halves keep valid geometry
            ShardSet::new(left, at, self.shard_len).expect("geometry is validated"),
            ShardSetMut::new(right, self.shards - at, self.shard_len)
                // pbrs-lint: allow(panic-hygiene) -- split point is asserted in range; both halves keep valid geometry
                .expect("geometry is validated"),
        )
    }

    /// One mutable window per read, in `reads` order: window `i` is bytes
    /// `reads[i].range()` of shard `reads[i].shard`. The windows are carved
    /// out of the buffer with `split_at_mut`, so a caller can fill all of
    /// them at once — the shape of issuing every helper read of a repair
    /// before waiting for any.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidShardIndex`] for a shard outside the
    /// buffer and [`CodeError::InvalidParams`] when a range leaves its
    /// shard or two reads overlap.
    pub fn windows_mut(&mut self, reads: &[ShardRead]) -> Result<Vec<&mut [u8]>, CodeError> {
        let mut order: Vec<usize> = (0..reads.len()).collect();
        order.sort_unstable_by_key(|&i| (reads[i].shard, reads[i].offset));
        let mut windows: Vec<Option<&mut [u8]>> = reads.iter().map(|_| None).collect();
        let mut rest: &mut [u8] = &mut self.buf;
        let mut consumed = 0usize;
        for i in order {
            let read = &reads[i];
            if read.shard >= self.shards {
                return Err(CodeError::InvalidShardIndex {
                    index: read.shard,
                    total: self.shards,
                });
            }
            let start = read.shard * self.shard_len + read.offset;
            let skip = start
                .checked_sub(consumed)
                .filter(|_| read.len <= self.shard_len && read.offset <= self.shard_len - read.len)
                .ok_or_else(|| CodeError::InvalidParams {
                    reason: format!(
                        "read of shard {} bytes {}..{} overlaps another or leaves the shard",
                        read.shard,
                        read.offset,
                        read.offset.saturating_add(read.len)
                    ),
                })?;
            let (_, tail) = std::mem::take(&mut rest).split_at_mut(skip);
            let (window, tail) = tail.split_at_mut(read.len);
            windows[i] = Some(window);
            rest = tail;
            consumed = start + read.len;
        }
        Ok(windows.into_iter().flatten().collect())
    }

    /// Copies the shards out into owned vectors (the legacy representation).
    pub fn to_shards(&self) -> Vec<Vec<u8>> {
        (0..self.shards).map(|i| self.shard(i).to_vec()).collect()
    }

    /// Consumes the buffer, returning the raw contiguous bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_set_geometry_and_access() {
        let buf: Vec<u8> = (0..24u8).collect();
        let set = ShardSet::new(&buf, 4, 6).unwrap();
        assert_eq!(set.shard_count(), 4);
        assert_eq!(set.shard_len(), 6);
        assert_eq!(set.shard(0), &buf[0..6]);
        assert_eq!(set.shard(3), &buf[18..24]);
        let collected: Vec<&[u8]> = set.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[2], &buf[12..18]);
    }

    #[test]
    fn shard_set_rejects_bad_geometry() {
        let buf = vec![0u8; 10];
        assert!(matches!(
            ShardSet::new(&buf, 3, 4),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
        assert!(matches!(
            ShardSet::new(&buf, 0, 4),
            Err(CodeError::InvalidParams { .. })
        ));
        assert!(matches!(
            ShardSet::new(&[], 1, 0),
            Err(CodeError::InvalidParams { .. })
        ));
    }

    #[test]
    fn narrow_views_one_substripe() {
        let buf: Vec<u8> = (0..12u8).collect();
        let set = ShardSet::new(&buf, 3, 4).unwrap();
        let right = set.narrow(2, 2);
        assert_eq!(right.shard(0), &[2, 3]);
        assert_eq!(right.shard(2), &[10, 11]);
        // Narrowing a narrowed view composes.
        let tail = right.narrow(1, 1);
        assert_eq!(tail.shard(1), &[7]);
    }

    #[test]
    #[should_panic(expected = "narrowed range must fit")]
    fn narrow_rejects_out_of_range() {
        let buf = vec![0u8; 8];
        let set = ShardSet::new(&buf, 2, 4).unwrap();
        let _ = set.narrow(3, 2);
    }

    #[test]
    fn split_one_mut_reads_both_sides() {
        let mut buf: Vec<u8> = (0..20u8).collect();
        let mut set = ShardSetMut::new(&mut buf, 5, 4).unwrap();
        let (mid, rest) = set.split_one_mut(2);
        assert_eq!(mid, &[8, 9, 10, 11]);
        assert_eq!(rest.shard(0), &[0, 1, 2, 3]);
        assert_eq!(rest.shard(1), &[4, 5, 6, 7]);
        assert_eq!(rest.shard(3), &[12, 13, 14, 15]);
        assert_eq!(rest.shard(4), &[16, 17, 18, 19]);
        mid.fill(0xEE);
        assert_eq!(&buf[8..12], &[0xEE; 4]);
    }

    #[test]
    #[should_panic(expected = "mutably borrowed")]
    fn split_one_mut_denies_pivot_read() {
        let mut buf = vec![0u8; 8];
        let mut set = ShardSetMut::new(&mut buf, 2, 4).unwrap();
        let (_one, rest) = set.split_one_mut(1);
        let _ = rest.shard(1);
    }

    #[test]
    fn split_one_mut_on_narrowed_view() {
        // Shards of 6 bytes; narrow to the last 3 bytes of each, then split.
        let mut buf: Vec<u8> = (0..18u8).collect();
        let mut set = ShardSetMut::new(&mut buf, 3, 6).unwrap();
        let mut right = set.narrow_mut(3, 3);
        let (mid, rest) = right.split_one_mut(1);
        assert_eq!(mid, &[9, 10, 11]);
        assert_eq!(rest.shard(0), &[3, 4, 5]);
        assert_eq!(rest.shard(2), &[15, 16, 17]);
        mid.copy_from_slice(&[7, 7, 7]);
        assert_eq!(&buf[9..12], &[7, 7, 7]);
        assert_eq!(&buf[6..9], &[6, 7, 8], "the left half is untouched");
    }

    #[test]
    fn split_parts_mut_separates_targets_from_sources() {
        let mut buf: Vec<u8> = (0..20u8).collect();
        let mut set = ShardSetMut::new(&mut buf, 5, 4).unwrap();
        let (mut taken, rest) = set.split_parts_mut(&[false, true, false, true, false]);
        assert_eq!(taken.len(), 2);
        assert_eq!(rest.len(), 3);
        assert_eq!(&*taken[0], &[4, 5, 6, 7]);
        assert_eq!(&*taken[1], &[12, 13, 14, 15]);
        assert_eq!(rest[0], &[0, 1, 2, 3]);
        assert_eq!(rest[2], &[16, 17, 18, 19]);
        taken[0].fill(0xAA);
        taken[1].copy_from_slice(rest[1]);
        drop(taken);
        assert_eq!(&buf[4..8], &[0xAA; 4]);
        assert_eq!(&buf[12..16], &[8, 9, 10, 11]);
    }

    #[test]
    fn split_parts_mut_on_narrowed_view() {
        // 3 shards of 6 bytes, narrowed to the middle 2 bytes of each.
        let mut buf: Vec<u8> = (0..18u8).collect();
        let mut set = ShardSetMut::new(&mut buf, 3, 6).unwrap();
        let mut mid = set.narrow_mut(2, 2);
        let (taken, rest) = mid.split_parts_mut(&[true, false, true]);
        assert_eq!(&*taken[0], &[2, 3]);
        assert_eq!(&*taken[1], &[14, 15]);
        assert_eq!(rest, vec![&[8u8, 9][..]]);
        drop(taken);
        // Bytes outside the narrowed window are untouched and readable.
        assert_eq!(&buf[..2], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "one take flag is required per shard")]
    fn split_parts_mut_rejects_wrong_mask_width() {
        let mut buf = vec![0u8; 8];
        let mut set = ShardSetMut::new(&mut buf, 2, 4).unwrap();
        let _ = set.split_parts_mut(&[true]);
    }

    #[test]
    fn shard_buffer_round_trips() {
        let shards = vec![vec![1u8; 4], vec![2u8; 4], vec![3u8; 4]];
        let mut packed = ShardBuffer::from_shards(&shards).unwrap();
        assert_eq!(packed.shard_count(), 3);
        assert_eq!(packed.shard_len(), 4);
        assert_eq!(packed.to_shards(), shards);
        packed.shard_mut(1).fill(9);
        assert_eq!(packed.shard(1), &[9; 4]);
        assert_eq!(packed.as_set().shard(2), &[3; 4]);
        assert_eq!(packed.subset(1..3).shard(0), &[9; 4]);
        packed.subset_mut(0..1).shard_mut(0).fill(5);
        assert_eq!(packed.shard(0), &[5; 4]);
        assert_eq!(packed.into_inner().len(), 12);
    }

    #[test]
    fn split_mut_separates_data_and_parity() {
        let mut buf =
            ShardBuffer::from_shards(&[vec![1u8; 4], vec![2u8; 4], vec![0u8; 4]]).unwrap();
        let (data, mut parity) = buf.split_mut(2);
        assert_eq!(data.shard_count(), 2);
        assert_eq!(parity.shard_count(), 1);
        let xor: Vec<u8> = data
            .shard(0)
            .iter()
            .zip(data.shard(1))
            .map(|(a, b)| a ^ b)
            .collect();
        parity.shard_mut(0).copy_from_slice(&xor);
        assert_eq!(buf.shard(2), &[3u8; 4]);
    }

    #[test]
    fn shard_buffer_rejects_bad_shapes() {
        assert!(ShardBuffer::from_shards(&[]).is_err());
        assert!(ShardBuffer::from_shards(&[vec![]]).is_err());
        assert!(matches!(
            ShardBuffer::from_shards(&[vec![1, 2], vec![3]]),
            Err(CodeError::ShardSizeMismatch { .. })
        ));
    }
    #[test]
    fn windows_mut_carves_disjoint_ranges_in_read_order() {
        let mut stripe = ShardBuffer::zeroed(3, 8);
        let reads = [
            ShardRead {
                shard: 2,
                offset: 4,
                len: 4,
            },
            ShardRead::whole(0, 8),
            ShardRead {
                shard: 2,
                offset: 0,
                len: 4,
            },
        ];
        {
            let mut windows = stripe.windows_mut(&reads).unwrap();
            assert_eq!(windows.len(), 3);
            windows[0].fill(1);
            windows[1].fill(2);
            windows[2].fill(3);
        }
        assert_eq!(stripe.shard(0), &[2; 8]);
        assert_eq!(stripe.shard(1), &[0; 8]);
        assert_eq!(stripe.shard(2), &[3, 3, 3, 3, 1, 1, 1, 1]);
        assert!(stripe.windows_mut(&[]).unwrap().is_empty());

        let overlapping = [
            ShardRead::whole(1, 8),
            ShardRead {
                shard: 1,
                offset: 4,
                len: 2,
            },
        ];
        assert!(matches!(
            stripe.windows_mut(&overlapping),
            Err(CodeError::InvalidParams { .. })
        ));
        let past_the_end = [ShardRead {
            shard: 1,
            offset: 6,
            len: 4,
        }];
        assert!(matches!(
            stripe.windows_mut(&past_the_end),
            Err(CodeError::InvalidParams { .. })
        ));
        assert!(matches!(
            stripe.windows_mut(&[ShardRead::whole(3, 8)]),
            Err(CodeError::InvalidShardIndex { index: 3, total: 3 })
        ));
    }
}
