//! Length-prefixed framing over a byte stream.
//!
//! Each frame is a big-endian `u32` payload length followed by the
//! payload. The length is bounded by [`MAX_FRAME_BYTES`] so a corrupt or
//! hostile peer cannot make the reader allocate unbounded memory — the
//! classic framing pitfall. A frame leaves in one `write` call (prefix
//! and payload in one buffer), so on a `TCP_NODELAY` socket it costs one
//! syscall and one segment, not two.

use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};

use adcomp_obs::metrics::{Counter, Registry};

use crate::codec::WireEncode;

/// Upper bound on a frame payload (1 MiB — far above any protocol
/// message, far below trouble).
pub const MAX_FRAME_BYTES: u32 = 1 << 20;

/// `(frames, bytes)` counters for one direction of the wire. Both client
/// and server go through [`write_frame`]/[`read_frame`], so these count
/// process-wide traffic ("out" = frames written, "in" = frames read).
fn traffic(dir: &'static str) -> &'static (Arc<Counter>, Arc<Counter>) {
    static IN: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    static OUT: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    let cell = if dir == "in" { &IN } else { &OUT };
    cell.get_or_init(|| {
        let reg = Registry::global();
        (
            reg.counter_with("adcomp_wire_frames_total", &[("dir", dir)]),
            reg.counter_with("adcomp_wire_bytes_total", &[("dir", dir)]),
        )
    })
}

/// Framing failures.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying I/O failed.
    Io(std::io::Error),
    /// Peer closed the connection cleanly between frames.
    Closed,
    /// Declared length exceeds [`MAX_FRAME_BYTES`].
    TooLarge {
        /// The declared payload length.
        declared: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { declared } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {MAX_FRAME_BYTES} limit"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload) in one `write_all` and
/// flushes.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> Result<(), FrameError> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(payload);
    send(writer, frame)
}

/// Encodes `message` straight into one frame buffer, behind a reserved
/// length prefix, and writes it in one `write_all` — the send path of
/// both client and server.
pub fn write_message<W: Write, T: WireEncode + ?Sized>(
    writer: &mut W,
    message: &T,
) -> Result<(), FrameError> {
    let mut frame = vec![0; 4];
    message.encode(&mut frame);
    send(writer, frame)
}

/// Fills in the length prefix of `frame` (4 placeholder bytes, then the
/// payload) and writes it whole.
fn send<W: Write>(writer: &mut W, mut frame: Vec<u8>) -> Result<(), FrameError> {
    let len = frame.len() - 4;
    assert!(
        len as u64 <= MAX_FRAME_BYTES as u64,
        "oversized outgoing frame"
    );
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    writer.write_all(&frame)?;
    writer.flush()?;
    let (frames, bytes) = traffic("out");
    frames.inc();
    bytes.add(frame.len() as u64);
    Ok(())
}

/// Reads one frame. Returns [`FrameError::Closed`] on a clean EOF at a
/// frame boundary; a mid-frame EOF is an I/O error.
pub fn read_frame<R: Read>(reader: &mut R) -> Result<Vec<u8>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // Distinguish clean close (no bytes) from torn frame (some bytes).
    match reader.read(&mut len_bytes)? {
        0 => return Err(FrameError::Closed),
        n => reader.read_exact(&mut len_bytes[n..])?,
    }
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge { declared: len });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    let (frames, bytes) = traffic("in");
    frames.inc();
    bytes.add(4 + u64::from(len));
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![7u8; 1000]);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    /// Counts `write` calls and accepts every byte offered.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        let mut sink = CountingWriter::default();
        write_frame(&mut sink, b"hello").unwrap();
        assert_eq!(sink.writes, 1, "write_frame");
        write_frame(&mut sink, b"").unwrap();
        assert_eq!(sink.writes, 2, "empty payload");
        write_message(&mut sink, "hello").unwrap();
        assert_eq!(sink.writes, 3, "write_message");
        let mut cursor = Cursor::new(sink.bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            crate::codec::to_bytes("hello")
        );
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_be_bytes());
        let mut cursor = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn torn_length_prefix_is_io_error() {
        let mut cursor = Cursor::new(vec![0u8, 0]); // 2 of 4 length bytes
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }

    #[test]
    fn torn_payload_is_io_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc"); // 3 of 10 payload bytes
        let mut cursor = Cursor::new(buf);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }

    #[test]
    #[should_panic(expected = "oversized outgoing frame")]
    fn oversized_write_panics() {
        let mut sink = Vec::new();
        let huge = vec![0u8; (MAX_FRAME_BYTES + 1) as usize];
        let _ = write_frame(&mut sink, &huge);
    }
}
