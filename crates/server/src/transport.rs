//! Connection transports.
//!
//! The server speaks to anything `Read + Write`; two transports ship:
//! real TCP (`std::net`) for `crserve`, and an in-process duplex pipe
//! for tests and benchmarks — same framing, same handshake, no sockets,
//! so CI exercises the full request path deterministically.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};

/// One end of an in-process duplex byte stream. Cheap stand-in for a
/// socket: what one end writes, the other reads, in order. Dropping an
/// end makes the peer's reads return EOF and its writes fail with
/// `BrokenPipe` — the same failure surface a closed socket has.
pub struct PipeConn {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    /// Bytes received but not yet consumed by `read`.
    pending: VecDeque<u8>,
}

/// Create a connected pair of in-process streams.
pub fn pipe() -> (PipeConn, PipeConn) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        PipeConn {
            tx: a_tx,
            rx: a_rx,
            pending: VecDeque::new(),
        },
        PipeConn {
            tx: b_tx,
            rx: b_rx,
            pending: VecDeque::new(),
        },
    )
}

impl Read for PipeConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pending.is_empty() {
            match self.rx.recv() {
                Ok(chunk) => self.pending = chunk.into(),
                Err(_) => return Ok(0), // peer dropped: EOF
            }
        }
        self.pending.read(buf)
    }
}

impl Write for PipeConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx
            .send(buf.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"))?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_carries_bytes_in_order() {
        let (mut a, mut b) = pipe();
        a.write_all(b"hello ").unwrap();
        a.write_all(b"world").unwrap();
        let mut buf = [0u8; 11];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn drop_signals_eof_and_broken_pipe() {
        let (a, mut b) = pipe();
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert_eq!(b.write(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn works_across_threads() {
        let (mut a, mut b) = pipe();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            b.write_all(&buf).unwrap();
        });
        a.write_all(b"fives").unwrap();
        let mut echo = [0u8; 5];
        a.read_exact(&mut echo).unwrap();
        t.join().unwrap();
        assert_eq!(&echo, b"fives");
    }
}
