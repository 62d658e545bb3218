//! Shared non-blocking framing primitives for the poll reactors (the
//! client front-end in [`crate::server`] and the worker-port coordinator
//! in [`crate::coordinator`]) and for the worker side of the fleet port.
//!
//! Control traffic is one JSON document per `\n`-terminated line over
//! non-blocking sockets; the subtle edge cases (orderly close on `Ok(0)`,
//! `WouldBlock` as "drained", hard errors as close, partial writes) live
//! here once.  A line may be at most [`MAX_LINE`] bytes: a peer that
//! streams more without a terminator is cut off instead of buffered.
//!
//! The fleet port additionally carries **binary frames**
//! ([`rvz_bench::binfmt`]) on the same socket: every grant and every
//! checkpoint transfer is one, and nothing else is.  A JSON line always
//! opens with `{`, a binary frame with the `RVZB` magic, so
//! [`InBuf::next_frame`] can pop whichever is buffered next.

use rvz_bench::binfmt;
use rvz_bench::json::Json;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// The longest JSON line either port accepts, terminator excluded.
/// Control frames are a few hundred bytes and checkpoints travel as
/// binary frames (capped by [`binfmt::MAX_FRAME`]), so a longer line
/// can only come from a peer that is not speaking the protocol.
pub(crate) const MAX_LINE: usize = 1 << 20;

/// A connection's receive buffer: the bytes read but not yet popped, and
/// how far the pending line has already been searched for its
/// terminator, so a line arriving over many reads is scanned once.
#[derive(Default)]
pub(crate) struct InBuf {
    bytes: Vec<u8>,
    scanned: usize,
}

impl InBuf {
    /// Append bytes read by the caller.
    pub(crate) fn extend(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    /// Drain everything currently readable from a non-blocking `stream`.
    /// Returns `(progress, closed)`: whether any bytes arrived, and
    /// whether the connection ended (EOF or a hard error).
    pub(crate) fn read_available(&mut self, stream: &mut TcpStream) -> (bool, bool) {
        let mut progress = false;
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return (progress, true),
                Ok(n) => {
                    self.extend(&buf[..n]);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (progress, false),
                Err(_) => return (progress, true),
            }
        }
    }

    /// Pop the next `\n`-terminated line (blank or not, without its
    /// terminator).  `Ok(None)` means "incomplete, keep reading"; `Err`
    /// means the line is longer than [`MAX_LINE`] and the caller should
    /// drop the connection.
    fn pop_line(&mut self) -> Result<Option<String>, String> {
        let Some(pos) = self.bytes[self.scanned..].iter().position(|&b| b == b'\n') else {
            self.scanned = self.bytes.len();
            if self.scanned > MAX_LINE {
                return Err(format!("a line exceeds {MAX_LINE} bytes"));
            }
            return Ok(None);
        };
        let end = self.scanned + pos;
        if end > MAX_LINE {
            return Err(format!("a line exceeds {MAX_LINE} bytes"));
        }
        let line = String::from_utf8_lossy(&self.bytes[..end]).into_owned();
        self.bytes.drain(..=end);
        self.scanned = 0;
        Ok(Some(line))
    }

    /// Pop the next complete, non-blank line (the client port's only
    /// frame), with [`pop_line`](Self::pop_line)'s contract.
    pub(crate) fn next_line(&mut self) -> Result<Option<String>, String> {
        while let Some(line) = self.pop_line()? {
            if !line.trim().is_empty() {
                return Ok(Some(line));
            }
        }
        Ok(None)
    }

    /// Pop the next complete frame — JSON line or binary frame — off a
    /// fleet-port connection.  `Ok(None)` means "incomplete, keep
    /// reading"; `Err` means the buffer head is corrupt (bad magic,
    /// unsupported version, oversized frame or line) and the caller
    /// should drop the connection rather than wait forever.
    pub(crate) fn next_frame(&mut self) -> Result<Option<WireFrame>, String> {
        loop {
            // Skip inter-frame whitespace (blank lines between JSON
            // frames).  A partly scanned line starts with a non-blank
            // byte, so this never skips into one.
            let skip = self.bytes.iter().take_while(|b| b" \t\r\n".contains(b)).count();
            self.bytes.drain(..skip);
            let Some(&first) = self.bytes.first() else { return Ok(None) };
            if first == binfmt::MAGIC[0] {
                return match binfmt::frame_len(&self.bytes)? {
                    Some(total) if self.bytes.len() >= total => {
                        Ok(Some(WireFrame::Binary(self.bytes.drain(..total).collect())))
                    }
                    _ => Ok(None),
                };
            }
            match self.pop_line()? {
                None => return Ok(None),
                Some(line) if line.trim().is_empty() => {}
                Some(line) => return Ok(Some(WireFrame::Json(line))),
            }
        }
    }
}

/// One frame popped off a fleet-port connection.
pub(crate) enum WireFrame {
    /// A complete JSON control line (without its terminator).
    Json(String),
    /// A complete binary frame (header + body), ready for
    /// [`binfmt::parse_frame`].
    Binary(Vec<u8>),
}

/// The `op` discriminator of a protocol frame, if it carries one.
pub(crate) fn op(frame: &Json) -> Option<&str> {
    frame.get("op").and_then(Json::as_str)
}

/// The `(job, target, lease)` identity every unit-scoped JSON frame (and
/// every grant's meta section) carries.
pub(crate) fn unit_fields(frame: &Json) -> Option<(String, u8, u64)> {
    let job = frame.get("job").and_then(Json::as_str)?.to_string();
    let target = u8::try_from(frame.get("target").and_then(Json::as_u64)?).ok()?;
    let lease = frame.get("lease").and_then(Json::as_u64)?;
    Some((job, target, lease))
}

/// Append one rendered frame (plus terminator) to `outbuf`.
pub(crate) fn queue_line(outbuf: &mut Vec<u8>, doc: &Json) {
    outbuf.extend_from_slice(doc.render().as_bytes());
    outbuf.push(b'\n');
}

/// Write as much of `outbuf` as the socket accepts.  Returns
/// `(progress, closed)` like [`InBuf::read_available`].
pub(crate) fn flush(stream: &mut TcpStream, outbuf: &mut Vec<u8>) -> (bool, bool) {
    let mut progress = false;
    while !outbuf.is_empty() {
        match stream.write(outbuf) {
            Ok(0) => return (progress, true),
            Ok(n) => {
                outbuf.drain(..n);
                progress = true;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return (progress, false),
            Err(_) => return (progress, true),
        }
    }
    (progress, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inbuf(bytes: &[u8]) -> InBuf {
        let mut buf = InBuf::default();
        buf.extend(bytes);
        buf
    }

    #[test]
    fn next_line_skips_blanks_and_preserves_order() {
        let mut buf = inbuf(b"\n  \n{\"a\":1}\n{\"b\":2}\npartial");
        assert_eq!(buf.next_line().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(buf.next_line().unwrap().as_deref(), Some("{\"b\":2}"));
        assert_eq!(buf.next_line().unwrap(), None, "incomplete line stays buffered");
        assert_eq!(buf.bytes, b"partial");
        // The rest of the line arrives later and completes it.
        buf.extend(b" line\n");
        assert_eq!(buf.next_line().unwrap().as_deref(), Some("partial line"));
    }

    #[test]
    fn a_line_arriving_in_pieces_is_scanned_once() {
        let mut buf = InBuf::default();
        for _ in 0..100 {
            buf.extend(&[b'x'; 100]);
            assert_eq!(buf.next_line().unwrap(), None);
            assert_eq!(buf.scanned, buf.bytes.len(), "every byte is searched once");
        }
        buf.extend(b"\n");
        assert_eq!(buf.next_line().unwrap().map(|l| l.len()), Some(10_000));
        assert_eq!(buf.scanned, 0);
    }

    #[test]
    fn an_overlong_line_is_an_error_not_a_buffer() {
        // Without a terminator: refused once the buffer passes the cap.
        let mut buf = inbuf(&vec![b'x'; MAX_LINE]);
        assert_eq!(buf.next_line().unwrap(), None, "exactly MAX_LINE bytes may still end");
        buf.extend(b"x");
        assert!(buf.next_line().is_err());
        // With a terminator, a line longer than the cap is refused too.
        let mut long = vec![b'x'; MAX_LINE + 1];
        long.push(b'\n');
        assert!(inbuf(&long).next_line().is_err());
        assert!(inbuf(&long).next_frame().is_err());
        // A line of exactly MAX_LINE bytes is accepted.
        let mut max = vec![b'x'; MAX_LINE];
        max.push(b'\n');
        assert_eq!(inbuf(&max).next_line().unwrap().map(|l| l.len()), Some(MAX_LINE));
        // The fleet port's JSON branch applies the same cap.
        let mut fleet = inbuf(b"{");
        fleet.extend(&vec![b'x'; MAX_LINE]);
        assert!(fleet.next_frame().is_err());
    }

    #[test]
    fn next_frame_interleaves_json_lines_and_binary_frames() {
        let bin = binfmt::FrameBuilder::new(binfmt::KIND_GRANT)
            .str_section(binfmt::TAG_JOB, "j1")
            .build();
        let mut buf = inbuf(b"{\"a\":1}\n\n");
        buf.extend(&bin);
        buf.extend(b"{\"b\":2}\n");
        buf.extend(&bin[..5]); // a partial binary frame stays buffered
        match buf.next_frame().unwrap() {
            Some(WireFrame::Json(line)) => assert_eq!(line, "{\"a\":1}"),
            _ => panic!("expected a JSON line"),
        }
        match buf.next_frame().unwrap() {
            Some(WireFrame::Binary(frame)) => assert_eq!(frame, bin),
            _ => panic!("expected a binary frame"),
        }
        match buf.next_frame().unwrap() {
            Some(WireFrame::Json(line)) => assert_eq!(line, "{\"b\":2}"),
            _ => panic!("expected a JSON line"),
        }
        assert!(buf.next_frame().unwrap().is_none(), "partial frame stays buffered");
        assert_eq!(buf.bytes, &bin[..5]);
        // Corrupt magic is an error (drop the connection), not a stall.
        assert!(inbuf(b"RVXXgarbage").next_frame().is_err());
    }

    #[test]
    fn queue_line_terminates_frames() {
        let mut out = Vec::new();
        queue_line(&mut out, &Json::obj().field("ok", true));
        queue_line(&mut out, &Json::obj().field("ok", false));
        assert_eq!(out, b"{\"ok\":true}\n{\"ok\":false}\n");
    }
}
