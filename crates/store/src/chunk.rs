//! The on-disk chunk file format.
//!
//! Every shard of every stripe is stored as one *chunk file* on its disk,
//! a length-prefixed header followed by the raw shard payload:
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"PBRSCHK2"
//!      8     8  stripe id                        (u64 LE)
//!     16     4  shard index                      (u32 LE)
//!     20     4  payload length                   (u32 LE)
//!     24     4  CRC-32 of payload[..len / 2]     (u32 LE)
//!     28     4  CRC-32 of payload[len / 2..]     (u32 LE)
//!     32     4  header CRC-32 over bytes 0..32   (u32 LE)
//!     36     …  payload
//! ```
//!
//! The header carries its own CRC so a chunk whose *metadata* is damaged is
//! detected without touching the payload. The payload is checksummed in two
//! halves rather than as a whole because the repair paths read *partial*
//! chunks: every byte range [`pbrs_erasure::ErasureCode::repair_reads`]
//! emits is exactly a half-chunk or a whole chunk (Piggybacked-RS reads
//! half-shards; every other code reads whole shards), so
//! [`read_chunk_range`] can verify the checksum of precisely the halves it
//! touches — a bit-rotted helper can never poison a degraded read or be
//! laundered into a freshly-checksummed rebuilt chunk. Ranges that are not
//! half-aligned are served by reading (and verifying) the covering halves.
//!
//! Writes go to a `*.tmp` sibling first and are atomically renamed into
//! place, so a crashed writer leaves no truncated chunk behind. The rename
//! alone is not durable, though: the new directory entry lives in the
//! *directory's* data blocks, so after the rename the parent directory is
//! fsynced too ([`fsync_dir`]) — otherwise a power loss can forget the
//! rename and resurrect the old file (or no file at all) even though the
//! chunk's own bytes were synced.

use std::fs::{self, File};
use std::io::{self, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::Path;

use pbrs_gf::crc32::{crc32, Crc32};

use crate::error::{Result, StoreError};

/// Magic bytes opening every chunk file.
pub const MAGIC: [u8; 8] = *b"PBRSCHK2";

/// Size of the fixed chunk header in bytes.
pub const HEADER_LEN: usize = 36;

/// The identity of one chunk within its object: which stripe, which shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkId {
    /// Stripe index within the object.
    pub stripe: u64,
    /// Shard index within the stripe.
    pub shard: usize,
}

/// Health of a chunk file, as judged by [`verify_chunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkStatus {
    /// Present, header and payload checksums valid, identity matches.
    Healthy,
    /// The file does not exist (e.g. its disk directory was lost).
    Missing,
    /// The file exists but is unreadable as the expected chunk.
    Corrupt {
        /// What was wrong.
        reason: String,
    },
}

impl ChunkStatus {
    /// Whether the chunk can serve reads.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ChunkStatus::Healthy)
    }

    /// The verdict as a read's inner result: `Ok` for a healthy chunk, the
    /// status itself for a missing or damaged one.
    pub fn into_read(self) -> std::result::Result<(), ChunkStatus> {
        match self {
            ChunkStatus::Healthy => Ok(()),
            damaged => Err(damaged),
        }
    }
}

/// The result shape shared by the fallible readers: the outer error is a
/// hard I/O failure, the inner one a missing/corrupt chunk.
pub type ChunkRead<T> = Result<std::result::Result<T, ChunkStatus>>;

/// Fsyncs a directory, making the entry mutations inside it (renames, file
/// and subdirectory creations) durable. A no-op on platforms where
/// directories cannot be opened for syncing.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

fn encode_header(id: ChunkId, payload_len: u32, crc_lo: u32, crc_hi: u32) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..8].copy_from_slice(&MAGIC);
    header[8..16].copy_from_slice(&id.stripe.to_le_bytes());
    header[16..20].copy_from_slice(&(id.shard as u32).to_le_bytes());
    header[20..24].copy_from_slice(&payload_len.to_le_bytes());
    header[24..28].copy_from_slice(&crc_lo.to_le_bytes());
    header[28..32].copy_from_slice(&crc_hi.to_le_bytes());
    let header_crc = crc32(&header[0..32]);
    header[32..36].copy_from_slice(&header_crc.to_le_bytes());
    header
}

/// The two payload-half checksums recovered from a valid header.
#[derive(Clone, Copy)]
struct HalfCrcs {
    lo: u32,
    hi: u32,
}

fn decode_header(
    header: &[u8; HEADER_LEN],
    expect: ChunkId,
    expect_len: usize,
) -> std::result::Result<HalfCrcs, ChunkStatus> {
    let corrupt = |reason: String| ChunkStatus::Corrupt { reason };
    if header[0..8] != MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let stored_crc = le_u32(&header[32..36]);
    if crc32(&header[0..32]) != stored_crc {
        return Err(corrupt("header checksum mismatch".into()));
    }
    let stripe = le_u64(&header[8..16]);
    let shard = le_u32(&header[16..20]) as usize;
    let payload_len = le_u32(&header[20..24]) as usize;
    if stripe != expect.stripe || shard != expect.shard {
        return Err(corrupt(format!(
            "chunk identity is stripe {stripe} shard {shard}, \
             expected stripe {} shard {}",
            expect.stripe, expect.shard
        )));
    }
    if payload_len != expect_len {
        return Err(corrupt(format!(
            "payload length is {payload_len}, expected {expect_len}"
        )));
    }
    Ok(HalfCrcs {
        lo: le_u32(&header[24..28]),
        hi: le_u32(&header[28..32]),
    })
}

/// Little-endian u32 from the first 4 bytes of `b`; callers slice a
/// fixed-size header, so the length is known.
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Little-endian u64 from the first 8 bytes of `b`; same contract as
/// [`le_u32`].
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Writes a chunk file atomically and durably: the bytes go to a `path.tmp`
/// sibling, are fsynced, renamed over `path`, and the parent directory is
/// fsynced so the rename itself survives power loss.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on any filesystem failure.
pub fn write_chunk(path: &Path, id: ChunkId, payload: &[u8]) -> Result<()> {
    let half = payload.len() / 2;
    let header = encode_header(
        id,
        u32::try_from(payload.len()).map_err(|_| StoreError::InvalidConfig {
            reason: format!("chunk payload of {} bytes exceeds u32", payload.len()),
        })?,
        crc32(&payload[..half]),
        crc32(&payload[half..]),
    );
    let tmp = path.with_extension("tmp");
    let write = |tmp: &Path| -> io::Result<()> {
        let mut file = File::create(tmp)?;
        write_all_parts(
            &mut file,
            &mut [IoSlice::new(&header), IoSlice::new(payload)],
        )?;
        file.sync_data()?;
        Ok(())
    };
    write(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent).map_err(|e| StoreError::io(parent, e))?;
    }
    Ok(())
}

/// `write_all` of several buffers, one `writev` per pass: a chunk file's
/// header and payload go to the kernel in one call unless it takes them
/// in pieces.
fn write_all_parts(w: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    let mut left: usize = parts.iter().map(|part| part.len()).sum();
    while left > 0 {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                IoSlice::advance_slices(&mut parts, n);
                left -= n;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Classifies an I/O error: "file missing" vs "hard failure".
fn missing_or_err(path: &Path, e: io::Error) -> std::result::Result<ChunkStatus, StoreError> {
    if e.kind() == io::ErrorKind::NotFound {
        Ok(ChunkStatus::Missing)
    } else {
        Err(StoreError::io(path, e))
    }
}

/// `read_exact` where a short file means "corrupt chunk" (with `reason`)
/// rather than a hard error.
fn read_exact_or_corrupt(
    file: &mut File,
    path: &Path,
    buf: &mut [u8],
    reason: &str,
) -> ChunkRead<()> {
    match file.read_exact(buf) {
        Ok(()) => Ok(Ok(())),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(Err(ChunkStatus::Corrupt {
            reason: reason.to_string(),
        })),
        Err(e) => Err(StoreError::io(path, e)),
    }
}

/// Opens the file and reads + validates the header, yielding the half CRCs.
fn open_and_check_header(
    path: &Path,
    expect: ChunkId,
    expect_len: usize,
) -> ChunkRead<(File, HalfCrcs)> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) => return missing_or_err(path, e).map(Err),
    };
    let mut header = [0u8; HEADER_LEN];
    if let Err(status) = read_exact_or_corrupt(
        &mut file,
        path,
        &mut header,
        "file shorter than the chunk header",
    )? {
        return Ok(Err(status));
    }
    match decode_header(&header, expect, expect_len) {
        Ok(crcs) => Ok(Ok((file, crcs))),
        Err(status) => Ok(Err(status)),
    }
}

/// Reads and fully verifies a chunk, returning its payload — or a
/// [`ChunkStatus`] explaining why the chunk cannot serve reads.
///
/// Allocating wrapper over [`read_chunk_range`] of the whole payload.
///
/// # Errors
///
/// Returns [`StoreError::Io`] only for failures other than "file missing".
pub fn read_chunk(path: &Path, expect: ChunkId, expect_len: usize) -> ChunkRead<Vec<u8>> {
    let mut payload = vec![0u8; expect_len];
    match read_chunk_range(path, expect, expect_len, 0, &mut payload)? {
        Ok(()) => Ok(Ok(payload)),
        Err(status) => Ok(Err(status)),
    }
}

/// Reads `out.len()` payload bytes starting at `offset`, checksum-verified.
///
/// This is the one chunk read: a whole chunk (`offset` 0, `out` the whole
/// payload) for a healthy read, and the partial read behind degraded reads
/// and repairs, whose byte ranges come from
/// [`pbrs_erasure::ErasureCode::repair_reads`], so only the helper bytes
/// the rebuild consumes are read (and counted). On a missing/corrupt inner
/// result the contents of `out` are unspecified.
///
/// Verification works at half-chunk granularity — the requested range is
/// covered by whole payload halves, each read in full and checked against
/// its stored CRC, so a payload-corrupt helper is detected here and can
/// never poison a rebuild. Every range the current codes emit is exactly a
/// half or a whole chunk: those are read straight into `out` and verified
/// in place, with nothing extra read and no copy. Only an unaligned range
/// goes through a side buffer holding the covering halves.
///
/// Returns `Err(status)` in the inner result when the chunk is missing,
/// header-damaged, or fails a half checksum.
///
/// # Errors
///
/// Returns [`StoreError::Io`] for hard I/O failures.
pub fn read_chunk_range(
    path: &Path,
    expect: ChunkId,
    expect_len: usize,
    offset: usize,
    out: &mut [u8],
) -> ChunkRead<()> {
    debug_assert!(offset + out.len() <= expect_len, "range exceeds payload");
    let (mut file, crcs) = match open_and_check_header(path, expect, expect_len)? {
        Ok(ok) => ok,
        Err(status) => return Ok(Err(status)),
    };
    let (start, end) = (offset, offset + out.len());
    let half = expect_len / 2;
    // The payload halves the range touches: each is verified in full.
    let halves = [(0usize, half, crcs.lo), (half, expect_len, crcs.hi)];
    let covering = halves
        .iter()
        .filter(|&&(h_start, h_end, _)| h_start < h_end && start < h_end && h_start < end);
    let seek = |file: &mut File, at: usize| {
        file.seek(SeekFrom::Start((HEADER_LEN + at) as u64))
            .map_err(|e| StoreError::io(path, e))
    };
    let mismatch = || ChunkStatus::Corrupt {
        reason: "payload checksum mismatch".into(),
    };
    let short = "file shorter than its declared payload";
    // Every range `repair_reads` emits is exactly one half or the whole
    // payload, i.e. exactly its covering halves: read it straight into
    // `out` and checksum it there.
    let first = covering.clone().next().map(|h| h.0);
    let last = covering.clone().next_back().map(|h| h.1);
    if first == Some(start) && last == Some(end) {
        seek(&mut file, start)?;
        if let Err(status) = read_exact_or_corrupt(&mut file, path, out, short)? {
            return Ok(Err(status));
        }
        for &(h_start, h_end, expect_crc) in covering {
            if crc32(&out[h_start - start..h_end - start]) != expect_crc {
                return Ok(Err(mismatch()));
            }
        }
        return Ok(Ok(()));
    }
    // Unaligned range: read each covering half into a side buffer, verify
    // it, and copy out the part that was asked for.
    let mut buf = Vec::new();
    for &(h_start, h_end, expect_crc) in covering {
        buf.resize(h_end - h_start, 0);
        seek(&mut file, h_start)?;
        if let Err(status) = read_exact_or_corrupt(&mut file, path, &mut buf, short)? {
            return Ok(Err(status));
        }
        if crc32(&buf) != expect_crc {
            return Ok(Err(mismatch()));
        }
        let copy_start = start.max(h_start);
        let copy_end = end.min(h_end);
        out[copy_start - start..copy_end - start]
            .copy_from_slice(&buf[copy_start - h_start..copy_end - h_start]);
    }
    Ok(Ok(()))
}

/// Fully verifies a chunk (header + both payload-half CRCs) without
/// returning its bytes; used by the scrub pass. Also reports how many
/// payload bytes were read (0 when missing or header-corrupt).
///
/// # Errors
///
/// Returns [`StoreError::Io`] for hard I/O failures.
pub fn verify_chunk(path: &Path, expect: ChunkId, expect_len: usize) -> Result<(ChunkStatus, u64)> {
    let (mut file, crcs) = match open_and_check_header(path, expect, expect_len)? {
        Ok(ok) => ok,
        Err(status) => return Ok((status, 0)),
    };
    let half = expect_len / 2;
    let mut hashers = [(Crc32::new(), crcs.lo), (Crc32::new(), crcs.hi)];
    let mut position = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    let mut read_bytes = 0u64;
    while position < expect_len {
        let want = (expect_len - position).min(buf.len());
        match file.read(&mut buf[..want]) {
            Ok(0) => {
                return Ok((
                    ChunkStatus::Corrupt {
                        reason: "file shorter than its declared payload".into(),
                    },
                    read_bytes,
                ))
            }
            Ok(n) => {
                // Feed the bytes to whichever half hasher(s) they fall in.
                let (chunk_start, chunk_end) = (position, position + n);
                if chunk_start < half {
                    hashers[0]
                        .0
                        .update(&buf[..half.min(chunk_end) - chunk_start]);
                }
                if chunk_end > half {
                    hashers[1]
                        .0
                        .update(&buf[half.max(chunk_start) - chunk_start..n]);
                }
                position = chunk_end;
                read_bytes += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(StoreError::io(path, e)),
        }
    }
    if hashers
        .iter()
        .any(|(hasher, expect)| hasher.finish() != *expect)
    {
        return Ok((
            ChunkStatus::Corrupt {
                reason: "payload checksum mismatch".into(),
            },
            read_bytes,
        ));
    }
    Ok((ChunkStatus::Healthy, read_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::TempDir;

    const ID: ChunkId = ChunkId {
        stripe: 7,
        shard: 3,
    };

    /// A writer that takes at most `step` bytes per call, across the
    /// buffers of a vectored write, and counts its calls.
    struct Trickle {
        step: usize,
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.step - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn header_and_payload_go_out_in_one_call_and_short_writes_loop() {
        let (header, body) = ([1u8; HEADER_LEN], payload());
        let whole = [&header[..], &body[..]].concat();
        for step in [1, 7, HEADER_LEN, HEADER_LEN + 1, whole.len()] {
            let mut w = Trickle {
                step,
                bytes: Vec::new(),
                calls: 0,
            };
            write_all_parts(&mut w, &mut [IoSlice::new(&header), IoSlice::new(&body)]).unwrap();
            assert_eq!(w.bytes, whole, "step {step}");
            assert_eq!(w.calls, whole.len().div_ceil(step), "step {step}");
        }
        let mut stuck = Trickle {
            step: 0,
            bytes: Vec::new(),
            calls: 0,
        };
        let err = write_all_parts(&mut stuck, &mut [IoSlice::new(&header)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    fn payload() -> Vec<u8> {
        (0..1024u32).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn write_read_round_trip() {
        let dir = TempDir::new("chunk-roundtrip");
        let path = dir.path().join("c.chunk");
        write_chunk(&path, ID, &payload()).unwrap();
        assert_eq!(read_chunk(&path, ID, 1024).unwrap().unwrap(), payload());
        let (status, bytes) = verify_chunk(&path, ID, 1024).unwrap();
        assert!(status.is_healthy());
        assert_eq!(bytes, 1024);
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp file renamed away"
        );
    }

    /// A chunk file written by the byte-at-a-time CRC this crate shipped
    /// with: 36-byte header plus a 27-byte payload (halves of 13 and 14
    /// bytes, so both the eight-byte blocks and the tail are exercised).
    const GOLDEN_ID: ChunkId = ChunkId {
        stripe: 0x0102_0304_0506_0708,
        shard: 9,
    };
    #[rustfmt::skip]
    const GOLDEN_CHUNK: [u8; 63] = [
        0x50, 0x42, 0x52, 0x53, 0x43, 0x48, 0x4B, 0x32, 0x08, 0x07, 0x06, 0x05,
        0x04, 0x03, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00, 0x1B, 0x00, 0x00, 0x00,
        0xA2, 0xB3, 0xBF, 0xD5, 0x2C, 0x02, 0x8C, 0x24, 0x87, 0x88, 0x70, 0xB7,
        0x0B, 0x30, 0x55, 0x7A, 0x9F, 0xC4, 0xE9, 0x13, 0x38, 0x5D, 0x82, 0xA7,
        0xCC, 0xF1, 0x1B, 0x40, 0x65, 0x8A, 0xAF, 0xD4, 0xF9, 0x23, 0x48, 0x6D,
        0x92, 0xB7, 0xDC,
    ];

    #[test]
    fn chunks_written_before_the_crc_rewrite_still_verify() {
        let dir = TempDir::new("chunk-golden");
        let path = dir.path().join("g.chunk");
        fs::write(&path, GOLDEN_CHUNK).unwrap();
        let payload = &GOLDEN_CHUNK[HEADER_LEN..];
        assert_eq!(read_chunk(&path, GOLDEN_ID, 27).unwrap().unwrap(), payload);
        assert_eq!(
            verify_chunk(&path, GOLDEN_ID, 27).unwrap(),
            (ChunkStatus::Healthy, 27)
        );
        let mut hi = [0u8; 14];
        read_chunk_range(&path, GOLDEN_ID, 27, 13, &mut hi)
            .unwrap()
            .unwrap();
        assert_eq!(hi, payload[13..]);
        // And the writer still produces the same bytes, header CRC included.
        let rewritten = dir.path().join("w.chunk");
        write_chunk(&rewritten, GOLDEN_ID, payload).unwrap();
        assert_eq!(fs::read(&rewritten).unwrap(), GOLDEN_CHUNK);
    }

    /// A 65,536-byte payload, byte i = `(i·2654435761 mod 2³²) >> 13`: its
    /// 32 KiB halves are long enough for the carry-less-multiply fold,
    /// which the 27-byte fixture above never reaches.
    fn golden_fold_payload() -> Vec<u8> {
        (0..65_536u64)
            .map(|i| (((i * 2_654_435_761) % (1 << 32)) >> 13) as u8)
            .collect()
    }

    /// The header of [`golden_fold_payload`] as stripe `GOLDEN_ID`: half
    /// CRCs `0x2CD836FF` / `0xDB86C86A`, every checksum from Python's
    /// `zlib.crc32`, an oracle independent of this crate.
    #[rustfmt::skip]
    const GOLDEN_FOLD_HEADER: [u8; HEADER_LEN] = [
        0x50, 0x42, 0x52, 0x53, 0x43, 0x48, 0x4B, 0x32, 0x08, 0x07, 0x06, 0x05,
        0x04, 0x03, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0xFF, 0x36, 0xD8, 0x2C, 0x6A, 0xC8, 0x86, 0xDB, 0xB7, 0x97, 0x4A, 0x94,
    ];

    #[test]
    fn a_chunk_long_enough_for_the_crc_fold_matches_zlib() {
        const LEN: usize = 65_536;
        const HALF: usize = LEN / 2;
        let payload = golden_fold_payload();
        assert_eq!(crc32(&payload), 0x186E_16A2);
        let dir = TempDir::new("chunk-golden-fold");
        let path = dir.path().join("f.chunk");
        write_chunk(&path, GOLDEN_ID, &payload).unwrap();
        let written = fs::read(&path).unwrap();
        assert_eq!(written[..HEADER_LEN], GOLDEN_FOLD_HEADER);
        assert_eq!(written[HEADER_LEN..], payload[..]);

        let read_half = |offset: usize| {
            let mut half = vec![0u8; HALF];
            read_chunk_range(&path, GOLDEN_ID, LEN, offset, &mut half)
                .unwrap()
                .map(|()| half)
        };
        assert_eq!(read_chunk(&path, GOLDEN_ID, LEN).unwrap().unwrap(), payload);
        assert_eq!(read_half(0).unwrap(), payload[..HALF]);
        assert_eq!(read_half(HALF).unwrap(), payload[HALF..]);
        assert_eq!(
            verify_chunk(&path, GOLDEN_ID, LEN).unwrap(),
            (ChunkStatus::Healthy, LEN as u64)
        );

        // One flipped payload byte per half: every reader covering that
        // half reports it, and the other half still reads.
        for (at, damaged, clean) in [(HALF - 1, 0, HALF), (HALF + 12_345, HALF, 0)] {
            let mut bytes = written.clone();
            bytes[HEADER_LEN + at] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
            let corrupt = |status: ChunkStatus| matches!(status, ChunkStatus::Corrupt { .. });
            assert!(corrupt(
                read_chunk(&path, GOLDEN_ID, LEN).unwrap().unwrap_err()
            ));
            assert!(corrupt(read_half(damaged).unwrap_err()), "byte {at}");
            assert!(corrupt(verify_chunk(&path, GOLDEN_ID, LEN).unwrap().0));
            assert_eq!(read_half(clean).unwrap(), payload[clean..clean + HALF]);
        }
    }

    #[test]
    fn odd_length_payloads_round_trip() {
        let dir = TempDir::new("chunk-odd");
        let path = dir.path().join("c.chunk");
        let data: Vec<u8> = (0..333u32).map(|i| (i % 17) as u8).collect();
        write_chunk(&path, ID, &data).unwrap();
        assert_eq!(read_chunk(&path, ID, 333).unwrap().unwrap(), data);
        assert!(verify_chunk(&path, ID, 333).unwrap().0.is_healthy());
        let mut out = vec![0u8; 333];
        read_chunk_range(&path, ID, 333, 0, &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn partial_reads_return_exact_ranges() {
        let dir = TempDir::new("chunk-range");
        let path = dir.path().join("c.chunk");
        let data = payload();
        write_chunk(&path, ID, &data).unwrap();
        // A half-aligned range (the shape repair_reads emits).
        let mut out = vec![0u8; 512];
        read_chunk_range(&path, ID, 1024, 512, &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(out, &data[512..1024]);
        // The other half and the whole payload take the same direct path.
        read_chunk_range(&path, ID, 1024, 0, &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(out, &data[..512]);
        let mut whole = vec![0u8; 1024];
        read_chunk_range(&path, ID, 1024, 0, &mut whole)
            .unwrap()
            .unwrap();
        assert_eq!(whole, data);
        // An unaligned range spanning the half boundary still reads exactly.
        let mut out = vec![0u8; 100];
        read_chunk_range(&path, ID, 1024, 462, &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(out, &data[462..562]);
        // Zero-length range at the end is fine.
        let mut empty = [0u8; 0];
        read_chunk_range(&path, ID, 1024, 1024, &mut empty)
            .unwrap()
            .unwrap();
    }

    #[test]
    fn partial_reads_detect_payload_corruption() {
        let dir = TempDir::new("chunk-range-corrupt");
        let path = dir.path().join("c.chunk");
        write_chunk(&path, ID, &payload()).unwrap();
        // Corrupt a byte in the second half only.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 700] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        // A first-half read is unaffected…
        let mut out = vec![0u8; 512];
        read_chunk_range(&path, ID, 1024, 0, &mut out)
            .unwrap()
            .unwrap();
        assert_eq!(out, &payload()[..512]);
        // …but any read touching the second half sees the corruption.
        assert!(matches!(
            read_chunk_range(&path, ID, 1024, 512, &mut out)
                .unwrap()
                .unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
        let mut whole = vec![0u8; 1024];
        assert!(matches!(
            read_chunk_range(&path, ID, 1024, 0, &mut whole)
                .unwrap()
                .unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
        let mut straddling = vec![0u8; 100];
        assert!(matches!(
            read_chunk_range(&path, ID, 1024, 462, &mut straddling)
                .unwrap()
                .unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
    }

    #[test]
    fn missing_and_corrupt_are_distinguished() {
        let dir = TempDir::new("chunk-damage");
        let path = dir.path().join("c.chunk");
        assert_eq!(
            read_chunk(&path, ID, 1024).unwrap().unwrap_err(),
            ChunkStatus::Missing
        );

        // Payload corruption: caught by the full read and by verify.
        write_chunk(&path, ID, &payload()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER_LEN + 17] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_chunk(&path, ID, 1024).unwrap().unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
        let (status, _) = verify_chunk(&path, ID, 1024).unwrap();
        assert!(matches!(status, ChunkStatus::Corrupt { .. }));

        // Header corruption: caught even by partial reads.
        write_chunk(&path, ID, &payload()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[9] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let mut out = vec![0u8; 8];
        assert!(matches!(
            read_chunk_range(&path, ID, 1024, 0, &mut out)
                .unwrap()
                .unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));

        // Truncation below the header.
        fs::write(&path, b"PBRS").unwrap();
        assert!(matches!(
            read_chunk(&path, ID, 1024).unwrap().unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
    }

    #[test]
    fn wrong_identity_is_corrupt() {
        let dir = TempDir::new("chunk-identity");
        let path = dir.path().join("c.chunk");
        write_chunk(&path, ID, &payload()).unwrap();
        let other = ChunkId {
            stripe: 8,
            shard: 3,
        };
        assert!(matches!(
            read_chunk(&path, other, 1024).unwrap().unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
        assert!(matches!(
            read_chunk(&path, ID, 512).unwrap().unwrap_err(),
            ChunkStatus::Corrupt { .. }
        ));
    }
}
