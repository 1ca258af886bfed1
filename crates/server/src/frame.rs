//! Length-prefixed framing over a byte stream.
//!
//! Every message on the wire — in both directions — is one *frame*: a
//! 4-byte big-endian payload length followed by exactly that many payload
//! bytes. Framing is deliberately dumb; all structure lives in
//! [`crate::proto`]. The only policy enforced here is [`MAX_FRAME`]: a
//! length prefix larger than that is rejected *before* any allocation, so
//! a hostile or corrupted prefix (`0xFFFF_FFFF`) cannot make the server
//! reserve 4 GiB.
//!
//! EOF handling distinguishes the two disconnect shapes the protocol
//! cares about:
//!
//! * EOF **at a frame boundary** (before any prefix byte) is a clean
//!   close — [`read_frame`] returns `Ok(None)`.
//! * EOF **mid-frame** (inside the prefix or the payload) means the peer
//!   vanished mid-message — an [`RumorError::Io`] error.

use std::io::{ErrorKind, Read, Write};

use rumor_types::{Result, RumorError};

/// Upper bound on a frame payload, enforced on both send and receive.
///
/// Large enough for any plausible batch (a `PUSH_BATCH` of 100k wide
/// tuples fits comfortably), small enough that a garbage length prefix
/// cannot drive allocation.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Frame buffers are reused from frame to frame only up to this size: one
/// grown past it by a large frame is released rather than kept, so a
/// connection does not pin [`MAX_FRAME`] for life.
pub(crate) const REUSE_CAP: usize = 64 * 1024;

fn check_outgoing(len: usize) -> Result<()> {
    if len > MAX_FRAME {
        return Err(RumorError::io(format!(
            "outgoing frame of {len} bytes exceeds MAX_FRAME ({MAX_FRAME})"
        )));
    }
    Ok(())
}

/// Writes one length-prefixed frame. The caller is responsible for
/// flushing any buffered writer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    check_outgoing(payload.len())?;
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Appends one frame to `out`, its payload written in place by `encode`:
/// the 4-byte prefix is reserved first and back-patched afterwards, so
/// frames accumulate back to back with no payload→frame copy. A payload
/// over [`MAX_FRAME`] is rolled back out of `out` and reported.
pub(crate) fn append_frame(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
    let at = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = out.len() - at - 4;
    if let Err(e) = check_outgoing(len) {
        out.truncate(at);
        return Err(e);
    }
    out[at..at + 4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; mid-frame EOF, short prefixes, and oversized length
/// prefixes all surface as [`RumorError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a caller-owned buffer, so a connection reading
/// frame after frame reuses one allocation. `payload` holds exactly the
/// frame's payload on `Ok(true)`; `Ok(false)` is the clean EOF.
pub(crate) fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<bool> {
    let mut prefix = [0u8; 4];
    // Read the first prefix byte separately so a close between frames is
    // distinguishable from a close inside one.
    loop {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut prefix[1..])
        .map_err(|e| truncated("length prefix", e))?;
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(RumorError::io(format!(
            "oversized frame: length prefix claims {len} bytes (max {MAX_FRAME})"
        )));
    }
    payload.clear();
    if payload.capacity() > REUSE_CAP && len <= REUSE_CAP {
        *payload = Vec::new();
    }
    payload.resize(len, 0);
    r.read_exact(payload).map_err(|e| truncated("payload", e))?;
    Ok(true)
}

fn truncated(what: &str, e: std::io::Error) -> RumorError {
    if e.kind() == ErrorKind::UnexpectedEof {
        RumorError::io(format!("truncated frame: EOF inside {what}"))
    } else {
        e.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, RumorError::Io(_)), "got {err:?}");
        assert!(err.to_string().contains("oversized"), "{err}");
    }

    #[test]
    fn truncated_prefix_and_payload_are_io_errors() {
        // One byte of a four-byte prefix.
        let err = read_frame(&mut Cursor::new(vec![0u8])).unwrap_err();
        assert!(err.to_string().contains("length prefix"), "{err}");
        // Full prefix claiming 10 bytes, only 3 present.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("payload"), "{err}");
    }

    #[test]
    fn appended_frames_equal_written_frames_and_the_read_buffer_is_reused() {
        let mut written = Vec::new();
        write_frame(&mut written, b"hello").unwrap();
        write_frame(&mut written, b"").unwrap();
        let mut appended = Vec::new();
        append_frame(&mut appended, |out| out.extend_from_slice(b"hello")).unwrap();
        append_frame(&mut appended, |_| {}).unwrap();
        assert_eq!(appended, written);
        // An oversized payload is rolled back, leaving earlier frames intact.
        let err = append_frame(&mut appended, |out| {
            out.resize(out.len() + MAX_FRAME + 1, 0)
        });
        assert!(err.is_err());
        assert_eq!(appended, written);

        let mut r = Cursor::new(appended);
        let mut payload = Vec::with_capacity(64);
        let held = payload.as_ptr();
        assert!(read_frame_into(&mut r, &mut payload).unwrap());
        assert_eq!(payload, b"hello");
        assert!(read_frame_into(&mut r, &mut payload).unwrap());
        assert!(payload.is_empty());
        assert_eq!(payload.as_ptr(), held, "no reallocation between frames");
        assert!(!read_frame_into(&mut r, &mut payload).unwrap(), "clean EOF");
    }

    #[test]
    fn outgoing_oversize_rejected() {
        let big = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &big).is_err());
        assert!(sink.is_empty(), "nothing written for rejected frame");
    }
}
