//! The frame codec: a frame reads back as written, the length cap holds
//! on both sides, and a writer that takes a frame in pieces still gets the
//! whole frame, in order, with one vectored write per piece it accepts.

use std::io::{self, IoSlice, Write};

use pbrs_wire::{read_frame, write_frame, write_frame_parts, FRAME_OVERHEAD, MAX_FRAME};

#[test]
fn frames_round_trip_and_enforce_the_cap() {
    let mut wire = Vec::new();
    let sent = write_frame(&mut wire, 0xDEAD_BEEF, b"hello").unwrap();
    assert_eq!(sent as usize, FRAME_OVERHEAD + 5);
    assert_eq!(wire.len(), FRAME_OVERHEAD + 5);
    let (id, body) = read_frame(&mut wire.as_slice()).unwrap();
    assert_eq!(id, 0xDEAD_BEEF);
    assert_eq!(body, b"hello");
    // Parts concatenate into one body.
    let mut parts = Vec::new();
    write_frame_parts(&mut parts, 0xDEAD_BEEF, &[b"he", b"", b"llo"]).unwrap();
    assert_eq!(parts, wire);
    // A hostile length prefix is rejected before allocation.
    let mut huge = Vec::new();
    huge.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    huge.extend_from_slice(&0u64.to_le_bytes());
    let err = read_frame(&mut huge.as_slice()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    // And an over-cap body is never written, however it is split.
    let mib = vec![0u8; 1 << 20];
    let over = vec![&mib[..]; MAX_FRAME / mib.len() + 1];
    let mut sink = Vec::new();
    assert!(write_frame_parts(&mut sink, 1, &over).is_err());
    assert!(sink.is_empty());
}

/// A writer that takes at most `step` bytes per call — across the slices
/// of a vectored write, like a socket with a nearly full send buffer — and
/// counts its calls.
struct Trickle {
    step: usize,
    wire: Vec<u8>,
    calls: usize,
}

impl Trickle {
    fn new(step: usize) -> Self {
        Trickle {
            step,
            wire: Vec::new(),
            calls: 0,
        }
    }
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
            self.wire.extend_from_slice(&buf[..n]);
            taken += n;
        }
        Ok(taken)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn partial_vectored_writes_still_deliver_whole_frames() {
    let body: Vec<u8> = (0..40u8).collect();
    let frame_len = FRAME_OVERHEAD + body.len();
    // Every split: mid-header, at the header/body seam, mid-body, and the
    // whole frame in one call.
    for step in 1..=frame_len {
        let mut w = Trickle::new(step);
        let sent = write_frame_parts(&mut w, 77, &[&body[..10], &body[10..]]).unwrap();
        assert_eq!(sent as usize, frame_len, "step {step}");
        assert_eq!(w.calls, frame_len.div_ceil(step), "step {step}");
        let (id, got) = read_frame(&mut w.wire.as_slice()).unwrap();
        assert_eq!((id, got), (77, body.clone()), "step {step}");
    }
    // An empty body is a header-only frame, not a zero-length write.
    let mut w = Trickle::new(5);
    assert_eq!(
        write_frame(&mut w, 1, &[]).unwrap() as usize,
        FRAME_OVERHEAD
    );
    assert_eq!(read_frame(&mut w.wire.as_slice()).unwrap().1, b"");
    // A writer that stops accepting bytes is an error, not a spin.
    let err = write_frame(&mut Trickle::new(0), 1, b"x").unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::WriteZero);
}
