//! A blocking client for the wire protocol — what the benchmark and the
//! integration tests speak. One request in flight at a
//! time per client; the `seq` echo is still checked on every response so
//! a protocol bug surfaces as a typed error, not silent misattribution.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::protocol::*;

/// A server-reported failure, split out from transport errors so callers
/// can tell "the server shed me" from "the socket died".
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with an `ERROR` frame.
    Server { code: ErrorCode, message: String },
    /// The transport failed (includes read-timeout expiry).
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Server { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, if this was a server-reported error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            ClientError::Io(_) => None,
        }
    }
}

/// One `EXECUTE` response.
#[derive(Debug, Clone)]
pub struct ExecReply {
    /// Wire code of the tier that served (`protocol::TIER_*`).
    pub tier: u8,
    /// In-query milliseconds measured server-side.
    pub query_ms: f64,
    /// The result rows.
    pub rows: String,
}

impl ExecReply {
    /// The serving tier's display name (`interp`/`jit`/`native`).
    pub fn tier_name(&self) -> &'static str {
        crate::protocol::tier_name(self.tier)
    }

    /// Whether the native (out-of-process binary) tier served.
    pub fn native(&self) -> bool {
        self.tier == crate::protocol::TIER_NATIVE
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    seq: u32,
}

impl Client {
    /// Connect with no read timeout (reads block until the server
    /// answers or closes).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        Client::connect_timeout(addr, None)
    }

    /// Connect with a read timeout; a server that goes silent for longer
    /// surfaces as a `WouldBlock`/`TimedOut` transport error.
    pub fn connect_timeout(addr: SocketAddr, read_timeout: Option<Duration>) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(read_timeout)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            seq: 0,
        })
    }

    /// Send one request frame and read its response. An unexpected `seq`
    /// or an EOF mid-conversation is a transport error.
    fn roundtrip(&mut self, opcode: u8, payload: &[u8]) -> Result<Frame, ClientError> {
        self.seq = self.seq.wrapping_add(1);
        let seq = self.seq;
        write_frame(&mut self.writer, opcode, seq, payload)?;
        self.read_reply(seq)
    }

    /// Read one response frame for `seq`, mapping `ERROR` frames to
    /// [`ClientError::Server`].
    fn read_reply(&mut self, seq: u32) -> Result<Frame, ClientError> {
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before responding",
            ))
        })?;
        if frame.seq != seq {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response seq {} for request {}", frame.seq, seq),
            )));
        }
        if frame.opcode == OP_ERROR {
            let (code, message) = decode_error(&frame.payload).ok_or_else(|| {
                ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unparseable error frame",
                ))
            })?;
            return Err(ClientError::Server { code, message });
        }
        Ok(frame)
    }

    fn expect(frame: Frame, opcode: u8) -> Result<Frame, ClientError> {
        if frame.opcode != opcode {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected opcode {opcode:#x}, got {:#x}", frame.opcode),
            )));
        }
        Ok(frame)
    }

    /// Prepare a query spec; returns the statement id to execute.
    pub fn prepare(&mut self, spec: &str) -> Result<u32, ClientError> {
        let f = Self::expect(self.roundtrip(OP_PREPARE, spec.as_bytes())?, OP_PREPARED)?;
        let id4: [u8; 4] = f.payload[..].try_into().map_err(|_| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "runt PREPARED payload",
            ))
        })?;
        Ok(u32::from_be_bytes(id4))
    }

    /// Execute a prepared statement and collect its rows. A bare
    /// execute runs with the statement's spec-derived bindings (or the
    /// template defaults); see [`Client::execute_params`] to override
    /// them per call.
    pub fn execute(&mut self, stmt: u32) -> Result<ExecReply, ClientError> {
        let first = self.roundtrip(OP_EXECUTE, &stmt.to_be_bytes())?;
        self.collect_result(first)
    }

    /// Execute a prepared statement with explicit positional parameter
    /// bindings for this call only. Positions follow the template's
    /// parameter declarations; a shorter vector leaves the tail at the
    /// declared defaults.
    pub fn execute_params(
        &mut self,
        stmt: u32,
        params: &[dblab_runtime::Value],
    ) -> Result<ExecReply, ClientError> {
        let mut payload = stmt.to_be_bytes().to_vec();
        payload.extend_from_slice(&encode_params(params));
        let first = self.roundtrip(OP_EXECUTE, &payload)?;
        self.collect_result(first)
    }

    /// Assemble one execute response: a single `RESULT` frame, or a
    /// `RESULT_CHUNK*` + `RESULT_END` stream whose slices concatenate
    /// byte-identically to the single-frame payload. The `RESULT_END`
    /// length claim is verified — a short or long stream is a
    /// transport error, never a silently truncated row set.
    fn collect_result(&mut self, first: Frame) -> Result<ExecReply, ClientError> {
        let payload = match first.opcode {
            OP_RESULT => first.payload,
            OP_RESULT_CHUNK => {
                let seq = first.seq;
                let mut assembled = first.payload;
                loop {
                    // `read_reply` enforces the seq echo on every chunk.
                    let f = self.read_reply(seq)?;
                    match f.opcode {
                        OP_RESULT_CHUNK => assembled.extend_from_slice(&f.payload),
                        OP_RESULT_END => {
                            let claimed = decode_result_end(&f.payload).ok_or_else(|| {
                                ClientError::Io(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    "runt RESULT_END payload",
                                ))
                            })?;
                            if claimed != assembled.len() as u64 {
                                return Err(ClientError::Io(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!(
                                        "stream claims {claimed} bytes, got {}",
                                        assembled.len()
                                    ),
                                )));
                            }
                            break;
                        }
                        other => {
                            return Err(ClientError::Io(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("opcode {other:#x} inside a result stream"),
                            )))
                        }
                    }
                }
                assembled
            }
            other => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected opcode {OP_RESULT:#x}, got {other:#x}"),
                )))
            }
        };
        let (tier, query_ms, rows) = decode_result(&payload).ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "runt RESULT payload",
            ))
        })?;
        Ok(ExecReply {
            tier,
            query_ms,
            rows,
        })
    }

    /// Fetch the server's stats JSON.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let f = Self::expect(self.roundtrip(OP_STATS, &[])?, OP_STATS_REPLY)?;
        Ok(String::from_utf8_lossy(&f.payload).into_owned())
    }

    /// Say goodbye; the server acknowledges and closes the session.
    pub fn close(mut self) -> Result<(), ClientError> {
        Self::expect(self.roundtrip(OP_CLOSE, &[])?, OP_BYE)?;
        Ok(())
    }

    /// Escape hatch for protocol tests: send a raw frame without waiting
    /// for a response.
    pub fn send_raw(&mut self, opcode: u8, seq: u32, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, opcode, seq, payload)
    }

    /// Escape hatch for protocol tests: read the next frame.
    pub fn recv_raw(&mut self) -> io::Result<Option<Frame>> {
        read_frame(&mut self.reader)
    }

    /// Escape hatch for protocol tests: write arbitrary bytes (e.g. a
    /// garbage length prefix) straight onto the socket.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }
}
