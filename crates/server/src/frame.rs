//! NDJSON framing: bytes in, frames out; replies out, in order.
//!
//! Both front-ends — the epoll reactor and stdio — turn their input bytes
//! into request frames through one [`FrameDecoder`].
//! The decoder owns every framing rule: the [`MAX_FRAME_BYTES`] bound (an
//! oversized line is discarded up to its newline and surfaces as
//! [`Frame::Oversized`], so the connection stays usable and the offender
//! gets a structured error reply instead of unbounded buffering), skipping
//! blank lines, lossy UTF-8 decoding, and treating a final unterminated
//! line at end of stream as a frame. The reactor pushes whatever its
//! nonblocking reads return; stdio goes through [`read_frame`], a thin
//! loop over the decoder over a blocking reader.
//!
//! Replies leave stdio through [`write_reply`], which writes one request's
//! frames in order. It appends newline terminators and flushes while it
//! waits on a still-running job and after every `solve_stream` chunk; the
//! terminal frame's flush is the caller's. The reactor assembles its own
//! output segments for `writev`.

use crate::service::{PendingResponse, StreamFrame};
use std::io::{self, BufRead, Write};
use std::time::Instant;

/// Hard bound on the length of one NDJSON frame (request line), in bytes.
/// Frames beyond this are rejected with a `protocol` error reply but do not
/// terminate the connection.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// One decoded request frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// A complete, non-blank line (without its newline). Invalid UTF-8 is
    /// replaced lossily — the JSON parser then rejects the frame with a
    /// structured error rather than the reader killing the connection.
    Line(String),
    /// The line exceeded the limit; it was consumed and dropped.
    Oversized {
        /// How many bytes the peer sent in the rejected frame (lower bound
        /// if the stream ended mid-frame).
        discarded: usize,
        /// When the overflow was detected — draining the rest of a multi-MB
        /// frame can take real time, and accounting it from this instant
        /// (rather than from after the drain) keeps the `invalid` latency
        /// histogram honest.
        started: Instant,
    },
}

/// The incremental frame decoder: push bytes as they arrive, pull frames
/// with [`FrameDecoder::next_frame`].
///
/// Frames are consumed by advancing a cursor; the consumed prefix is
/// dropped once per [`FrameDecoder::push`], so a burst of N buffered frames
/// costs O(buffer) rather than O(N × buffer) in byte moves.
#[derive(Debug)]
pub(crate) struct FrameDecoder {
    max: usize,
    buf: Vec<u8>,
    /// Start of the undecoded region of `buf`.
    start: usize,
    /// Scan position: `buf[start..scanned]` holds no newline.
    scanned: usize,
    /// Mid-discard of an oversized line: when it was detected and how many
    /// bytes of it were dropped so far.
    overflow: Option<(Instant, usize)>,
}

impl FrameDecoder {
    /// A decoder that rejects lines longer than `max` bytes.
    pub(crate) fn new(max: usize) -> FrameDecoder {
        FrameDecoder {
            max,
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            overflow: None,
        }
    }

    /// Appends freshly read bytes.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub(crate) fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Nothing buffered and no oversized line in progress.
    pub(crate) fn is_empty(&self) -> bool {
        self.buffered() == 0 && self.overflow.is_none()
    }

    /// The next complete frame, or `None` until more bytes arrive. With
    /// `eof` set (the stream ended) the trailing unterminated line — or the
    /// oversized line being discarded — is a frame too.
    pub(crate) fn next_frame(&mut self, eof: bool) -> Option<Frame> {
        loop {
            let newline = self.buf[self.scanned..]
                .iter()
                .position(|&b| b == b'\n')
                .map(|pos| self.scanned + pos);
            let end = newline.unwrap_or(self.buf.len());
            let len = end - self.start;
            if let Some((started, discarded)) = self.overflow {
                self.consume_to(newline.map_or(end, |pos| pos + 1));
                if newline.is_none() && !eof {
                    self.overflow = Some((started, discarded + len));
                    return None;
                }
                self.overflow = None;
                return Some(Frame::Oversized {
                    discarded: discarded + len,
                    started,
                });
            }
            if len > self.max {
                self.overflow = Some((Instant::now(), 0));
                continue; // the overflow branch consumes and counts it
            }
            if newline.is_none() && (!eof || len == 0) {
                self.scanned = end;
                return None;
            }
            let bytes = &self.buf[self.start..end];
            let line = String::from_utf8(bytes.to_vec())
                .unwrap_or_else(|_| String::from_utf8_lossy(bytes).into_owned());
            self.consume_to(newline.map_or(end, |pos| pos + 1));
            if !line.trim().is_empty() {
                return Some(Frame::Line(line));
            }
        }
    }

    fn consume_to(&mut self, to: usize) {
        self.start = to;
        self.scanned = to;
    }
}

/// Reads the next frame from a blocking reader, pulling more bytes only
/// when no complete frame is buffered; `None` at end of stream. I/O errors
/// abort the read.
pub(crate) fn read_frame(
    reader: &mut impl BufRead,
    decoder: &mut FrameDecoder,
) -> io::Result<Option<Frame>> {
    loop {
        if let Some(frame) = decoder.next_frame(false) {
            return Ok(Some(frame));
        }
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(decoder.next_frame(true));
        }
        let n = available.len();
        decoder.push(available);
        reader.consume(n);
    }
}

/// Writes one dispatched request's reply frames, in order, ending with its
/// terminal frame, then stamps the request's write stage. While the job is
/// still running, everything written so far is flushed before parking on
/// it; `solve_stream` chunks are flushed as they arrive, so the peer sees
/// labeling progress while the job is still producing. The terminal frame
/// itself is not flushed — that is the caller's batching policy.
///
/// On an I/O error the caller drops `pending`, which closes the frame
/// channel and aborts a producing stream.
pub(crate) fn write_reply(
    writer: &mut impl Write,
    pending: &mut PendingResponse,
) -> io::Result<()> {
    loop {
        let frame = match pending.try_frame() {
            Some(frame) => frame,
            None => {
                writer.flush()?;
                pending.wait_frame()
            }
        };
        match frame {
            StreamFrame::Chunk(line) => {
                write_frame(writer, &line)?;
                writer.flush()?;
            }
            StreamFrame::Final(line) => {
                write_frame(writer, &line)?;
                break;
            }
            // The spliced pieces stream straight into the writer; no
            // per-frame `String` is assembled.
            StreamFrame::Spliced(spliced) => {
                spliced.write_to(writer)?;
                break;
            }
        }
    }
    if let Some(trace) = pending.take_trace() {
        trace.finish_written();
    }
    Ok(())
}

/// Writes one frame (`line` must not contain a newline) and its `\n`
/// terminator.
fn write_frame(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn frames(input: &[u8], max: usize) -> Vec<Frame> {
        let mut reader = BufReader::with_capacity(7, input); // tiny buffer: force refills
        let mut decoder = FrameDecoder::new(max);
        let mut out = Vec::new();
        while let Some(frame) = read_frame(&mut reader, &mut decoder).unwrap() {
            out.push(frame);
        }
        assert!(decoder.is_empty(), "end of stream drains the decoder");
        out
    }

    #[test]
    fn splits_lines() {
        let got = frames(b"one\ntwo\n", 100);
        assert_eq!(
            got,
            vec![Frame::Line("one".into()), Frame::Line("two".into())]
        );
    }

    #[test]
    fn final_unterminated_line_is_returned() {
        let got = frames(b"tail-no-newline", 100);
        assert_eq!(got, vec![Frame::Line("tail-no-newline".into())]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let got = frames(b"\n  \n\r\na\n\t\n \n", 100);
        assert_eq!(got, vec![Frame::Line("a".into())]);
        assert!(frames(b"\n \n   ", 100).is_empty());
    }

    #[test]
    fn oversized_line_is_discarded_but_stream_continues() {
        let mut input = vec![b'a'; 50];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let got = frames(&input, 10);
        assert!(
            matches!(got[0], Frame::Oversized { discarded: 50, .. }),
            "{:?}",
            got[0]
        );
        assert_eq!(got[1], Frame::Line("ok".into()));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn oversized_line_at_eof_is_reported() {
        let got = frames(&[b'x'; 40], 10);
        assert!(
            matches!(got[..], [Frame::Oversized { discarded: 40, .. }]),
            "{got:?}"
        );
    }

    #[test]
    fn oversized_blank_line_is_still_oversized() {
        let mut input = vec![b' '; 20];
        input.push(b'\n');
        let got = frames(&input, 10);
        assert!(
            matches!(got[..], [Frame::Oversized { discarded: 20, .. }]),
            "{got:?}"
        );
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        let got = frames(b"\xff\xfe{\n", 100);
        match &got[0] {
            Frame::Line(line) => assert!(line.contains('{')),
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn exact_max_is_allowed() {
        let mut input = vec![b'a'; 10];
        input.push(b'\n');
        let got = frames(&input, 10);
        assert_eq!(got[0], Frame::Line("a".repeat(10)));
        let got = frames(&[b'a'; 10], 10);
        assert_eq!(got, vec![Frame::Line("a".repeat(10))], "also at eof");
    }

    #[test]
    fn pushes_of_any_size_decode_identically() {
        let mut input = b"{\"a\":1}\n\n".to_vec();
        input.extend(std::iter::repeat_n(b'z', 37));
        input.extend_from_slice(b"\nmid\xffdle\n  \nlast");
        let whole = frames(&input, 16);
        for step in 1..input.len() {
            let mut decoder = FrameDecoder::new(16);
            let mut got = Vec::new();
            for chunk in input.chunks(step) {
                decoder.push(chunk);
                while let Some(frame) = decoder.next_frame(false) {
                    got.push(frame);
                }
            }
            got.extend(decoder.next_frame(true));
            assert_eq!(got.len(), whole.len(), "step {step}");
            for (a, b) in got.iter().zip(&whole) {
                match (a, b) {
                    (
                        Frame::Oversized { discarded: x, .. },
                        Frame::Oversized { discarded: y, .. },
                    ) => assert_eq!(x, y, "step {step}"),
                    _ => assert_eq!(a, b, "step {step}"),
                }
            }
        }
    }
}
