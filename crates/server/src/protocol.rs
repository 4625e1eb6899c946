//! The wire protocol: length-prefixed binary frames.
//!
//! Every frame is `len:u32be` followed by `len` body bytes; the body is
//! `opcode:u8 seq:u32be payload`. `seq` is chosen by the client and
//! echoed verbatim in the response, so one connection can have several
//! requests in flight and still match answers to questions. The server
//! never leaves a request unanswered: every admitted, shed, timed-out or
//! malformed request produces exactly one response frame (load shedding
//! is an explicit [`ErrorCode::Busy`] frame, never a silent drop).
//!
//! | request | payload | response | payload |
//! |---------|---------|----------|---------|
//! | `PREPARE` | query spec, UTF-8 (`"tpch:6"` or `"tpch:6?discount=0.07"`) | `PREPARED` | `stmt:u32be` |
//! | `EXECUTE` | `stmt:u32be [params]` | `RESULT` | `tier:u8 query_ms:f64be rows` |
//! | `EXECUTE` (large result) | — | `RESULT_CHUNK`* then `RESULT_END` | payload slices; `total:u64be` |
//! | `STATS` | empty | `STATS_REPLY` | JSON, UTF-8 |
//! | `CLOSE` | empty | `BYE` | empty |
//! | any | — | `ERROR` | `code:u8 message` |
//!
//! A result payload above the server's streaming threshold arrives as
//! one or more `RESULT_CHUNK` frames (all with the request's `seq`)
//! whose payloads concatenate to exactly the single-frame `RESULT`
//! payload, terminated by a `RESULT_END` frame carrying the total
//! payload length as a `u64be` integrity check. Below the threshold the
//! classic single `RESULT` frame is unchanged, so pre-streaming clients
//! keep working.
//!
//! The optional `EXECUTE` parameter section (see [`encode_params`]) binds
//! the statement's declared parameters positionally for this one
//! execution; a bare 4-byte payload — everything a pre-parameter client
//! sends — keeps the bindings the statement was prepared with.
//!
//! Frames above [`MAX_FRAME`] are rejected as malformed — a client that
//! sends a garbage length prefix gets one `ERROR` frame and the socket
//! closed, because framing cannot resync after that.

use std::io::{self, Read, Write};

/// Upper bound on a frame body; anything larger is a framing error.
pub const MAX_FRAME: usize = 16 << 20;

/// Body overhead before the payload: opcode byte + sequence number.
pub const HEADER: usize = 5;

// Request opcodes.
pub const OP_PREPARE: u8 = 0x01;
pub const OP_EXECUTE: u8 = 0x02;
pub const OP_STATS: u8 = 0x03;
pub const OP_CLOSE: u8 = 0x04;

// Response opcodes.
pub const OP_PREPARED: u8 = 0x81;
pub const OP_RESULT: u8 = 0x82;
pub const OP_STATS_REPLY: u8 = 0x83;
pub const OP_BYE: u8 = 0x84;
/// One slice of a streamed result; slices concatenate to a `RESULT`
/// payload.
pub const OP_RESULT_CHUNK: u8 = 0x85;
/// Terminates a `RESULT_CHUNK` sequence; payload is the total streamed
/// payload length as `u64be`.
pub const OP_RESULT_END: u8 = 0x86;
pub const OP_ERROR: u8 = 0xC0;

/// Typed failure causes carried by `ERROR` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unparseable frame, unknown opcode, or a payload the opcode cannot
    /// accept.
    Malformed = 1,
    /// Unknown query spec or statement id.
    Unknown = 2,
    /// Admission control shed this request: the pending queue is full.
    Busy = 3,
    /// The per-request deadline elapsed (queueing included) before rows
    /// were produced; the execution was abandoned, not left running.
    Timeout = 4,
    /// The server is draining for shutdown and admits no new work.
    ShuttingDown = 5,
    /// The execution itself failed.
    Internal = 6,
}

impl ErrorCode {
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Unknown,
            3 => ErrorCode::Busy,
            4 => ErrorCode::Timeout,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unknown => "unknown",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        })
    }
}

/// One decoded frame (either direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub opcode: u8,
    pub seq: u32,
    pub payload: Vec<u8>,
}

/// Write one frame. The whole frame is assembled first and written with
/// one `write_all`, so concurrent writers serialized by a mutex can never
/// interleave half-frames.
pub fn write_frame(w: &mut impl Write, opcode: u8, seq: u32, payload: &[u8]) -> io::Result<()> {
    let len = HEADER + payload.len();
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body {len} exceeds MAX_FRAME"),
        ));
    }
    let mut buf = Vec::with_capacity(4 + len);
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    buf.push(opcode);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Read one frame. `Ok(None)` is a clean EOF at a frame boundary (the
/// peer closed); an EOF mid-frame, an oversized length prefix or a body
/// shorter than the header all come back as `InvalidData` — the caller
/// cannot resync and should drop the connection.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len4 = [0u8; 4];
    // Retried as `read_exact` retries: a socket read with a timeout
    // returns `EINTR` whenever the process is signalled or frozen, and
    // that is no transport error.
    loop {
        match r.read(&mut len4[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len4[1..])?;
    let len = u32::from_be_bytes(len4) as usize;
    if !(HEADER..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside [{HEADER}, {MAX_FRAME}]"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let opcode = body[0];
    let seq = u32::from_be_bytes(body[1..5].try_into().unwrap());
    Ok(Some(Frame {
        opcode,
        seq,
        payload: body[5..].to_vec(),
    }))
}

/// Wire codes for the tier that served a `RESULT`. Native keeps its
/// original code `1`: the jit tier (`2`) was appended when the ladder
/// grew a middle rung, so old clients still parse interp/native frames —
/// the codes are wire history, not ladder order. The server never sends
/// `TIER_INTERP` any more (the interpreter serves no traffic); the code
/// stays reserved because the frozen benchmark names it.
pub const TIER_INTERP: u8 = 0;
pub const TIER_NATIVE: u8 = 1;
pub const TIER_JIT: u8 = 2;

/// The stats-key/display name of a wire tier code.
pub fn tier_name(code: u8) -> &'static str {
    match code {
        TIER_INTERP => "interp",
        TIER_NATIVE => "native",
        TIER_JIT => "jit",
        _ => "unknown",
    }
}

/// Encode a `RESULT` payload: the wire code of the tier that served
/// ([`TIER_INTERP`]/[`TIER_NATIVE`]/[`TIER_JIT`]), the in-query
/// milliseconds, then the result rows.
pub fn encode_result(tier: u8, query_ms: f64, rows: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(9 + rows.len());
    p.push(tier);
    p.extend_from_slice(&query_ms.to_bits().to_be_bytes());
    p.extend_from_slice(rows.as_bytes());
    p
}

/// Decode a `RESULT` payload into `(tier, query_ms, rows)`.
pub fn decode_result(payload: &[u8]) -> Option<(u8, f64, String)> {
    if payload.len() < 9 || payload[0] > TIER_JIT {
        return None;
    }
    let ms = f64::from_bits(u64::from_be_bytes(payload[1..9].try_into().unwrap()));
    Some((
        payload[0],
        ms,
        String::from_utf8_lossy(&payload[9..]).into_owned(),
    ))
}

/// Encode a `RESULT_END` payload: the total streamed payload length.
pub fn encode_result_end(total: usize) -> [u8; 8] {
    (total as u64).to_be_bytes()
}

/// Decode a `RESULT_END` payload back to the total length the sender
/// claims; `None` unless the payload is exactly the `u64be`.
pub fn decode_result_end(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.try_into().ok()?;
    Some(u64::from_be_bytes(bytes))
}

// Parameter-value tags in the `EXECUTE` parameter section.
const PT_BOOL: u8 = 0;
const PT_INT: u8 = 1;
const PT_LONG: u8 = 2;
const PT_DOUBLE: u8 = 3;
const PT_STR: u8 = 4;

/// Encode an `EXECUTE` parameter section: `count:u16be`, then per value a
/// tag byte (`0` bool, `1` i32, `2` i64, `3` f64 bits, `4` `len:u32be` +
/// UTF-8) and its big-endian body. Appended after the statement id;
/// absent entirely for clients that keep the prepared bindings.
pub fn encode_params(params: &[dblab_runtime::Value]) -> Vec<u8> {
    use dblab_runtime::Value;
    let mut p = Vec::with_capacity(2 + params.len() * 9);
    p.extend_from_slice(&(params.len() as u16).to_be_bytes());
    for v in params {
        match v {
            Value::Null | Value::Bool(_) => {
                p.push(PT_BOOL);
                p.push(matches!(v, Value::Bool(true)) as u8);
            }
            Value::Int(i) => {
                p.push(PT_INT);
                p.extend_from_slice(&i.to_be_bytes());
            }
            Value::Long(l) => {
                p.push(PT_LONG);
                p.extend_from_slice(&l.to_be_bytes());
            }
            Value::Double(d) => {
                p.push(PT_DOUBLE);
                p.extend_from_slice(&d.to_bits().to_be_bytes());
            }
            Value::Str(s) => {
                p.push(PT_STR);
                p.extend_from_slice(&(s.len() as u32).to_be_bytes());
                p.extend_from_slice(s.as_bytes());
            }
        }
    }
    p
}

/// Decode an `EXECUTE` parameter section. `None` on any truncation, bad
/// tag, or trailing garbage — a malformed binding must never silently
/// execute with defaults.
pub fn decode_params(mut b: &[u8]) -> Option<Vec<dblab_runtime::Value>> {
    use dblab_runtime::Value;
    let count = u16::from_be_bytes(b.get(..2)?.try_into().unwrap()) as usize;
    b = &b[2..];
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (tag, rest) = b.split_first()?;
        b = rest;
        let v = match *tag {
            PT_BOOL => {
                let (x, rest) = b.split_first()?;
                b = rest;
                Value::Bool(*x != 0)
            }
            PT_INT => {
                let x = i32::from_be_bytes(b.get(..4)?.try_into().unwrap());
                b = &b[4..];
                Value::Int(x)
            }
            PT_LONG => {
                let x = i64::from_be_bytes(b.get(..8)?.try_into().unwrap());
                b = &b[8..];
                Value::Long(x)
            }
            PT_DOUBLE => {
                let x = f64::from_bits(u64::from_be_bytes(b.get(..8)?.try_into().unwrap()));
                b = &b[8..];
                Value::Double(x)
            }
            PT_STR => {
                let len = u32::from_be_bytes(b.get(..4)?.try_into().unwrap()) as usize;
                let s = std::str::from_utf8(b.get(4..4 + len)?).ok()?;
                let v = Value::str(s);
                b = &b[4 + len..];
                v
            }
            _ => return None,
        };
        out.push(v);
    }
    b.is_empty().then_some(out)
}

/// Encode an `ERROR` payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut p = Vec::with_capacity(1 + message.len());
    p.push(code as u8);
    p.extend_from_slice(message.as_bytes());
    p
}

/// Decode an `ERROR` payload into `(code, message)`.
pub fn decode_error(payload: &[u8]) -> Option<(ErrorCode, String)> {
    let code = ErrorCode::from_u8(*payload.first()?)?;
    Some((code, String::from_utf8_lossy(&payload[1..]).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, OP_PREPARE, 7, b"tpch:6").unwrap();
        write_frame(&mut buf, OP_EXECUTE, 8, &1u32.to_be_bytes()).unwrap();
        let mut r = &buf[..];
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            (f1.opcode, f1.seq, &f1.payload[..]),
            (OP_PREPARE, 7, &b"tpch:6"[..])
        );
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!((f2.opcode, f2.seq), (OP_EXECUTE, 8));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // Every read interrupted once first, as a frozen or signalled
        // reader's socket read with a timeout is: the same frames.
        struct Eintr<'a>(&'a [u8], bool);
        impl Read for Eintr<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = !self.1;
                match self.1 {
                    true => Err(io::ErrorKind::Interrupted.into()),
                    false => self.0.read(buf),
                }
            }
        }
        let mut r = Eintr(&buf, false);
        assert_eq!(read_frame(&mut r).unwrap(), Some(f1));
        assert_eq!(read_frame(&mut r).unwrap(), Some(f2));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_and_runt_lengths_are_framing_errors() {
        let mut r = &((MAX_FRAME as u32 + 1).to_be_bytes())[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
        let mut r = &(2u32.to_be_bytes())[..]; // shorter than the header
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn param_sections_round_trip_and_reject_garbage() {
        use dblab_runtime::Value;
        let vals = vec![
            Value::Bool(true),
            Value::Int(-7),
            Value::Long(1 << 40),
            Value::Double(0.07),
            Value::str("N H"),
        ];
        let enc = encode_params(&vals);
        let dec = decode_params(&enc).expect("round trip");
        assert_eq!(dec.len(), 5);
        assert!(matches!(dec[0], Value::Bool(true)));
        assert!(matches!(dec[1], Value::Int(-7)));
        assert!(matches!(dec[2], Value::Long(x) if x == 1 << 40));
        assert!(matches!(dec[3], Value::Double(x) if x == 0.07));
        assert!(matches!(&dec[4], Value::Str(s) if &**s == "N H"));
        assert_eq!(decode_params(&[]).as_deref(), None, "truncated count");
        assert!(decode_params(&enc[..enc.len() - 1]).is_none(), "truncated");
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(decode_params(&trailing).is_none(), "trailing garbage");
        let mut bad_tag = encode_params(&[Value::Int(1)]);
        bad_tag[2] = 9;
        assert!(decode_params(&bad_tag).is_none(), "unknown tag");
        assert_eq!(decode_params(&encode_params(&[])), Some(vec![]));
    }

    #[test]
    fn result_end_payloads_round_trip_and_reject_wrong_widths() {
        assert_eq!(decode_result_end(&encode_result_end(0)), Some(0));
        assert_eq!(
            decode_result_end(&encode_result_end(usize::MAX)),
            Some(usize::MAX as u64)
        );
        assert_eq!(decode_result_end(&[]), None, "empty");
        assert_eq!(decode_result_end(&[0; 7]), None, "runt");
        assert_eq!(decode_result_end(&[0; 9]), None, "oversized");
    }

    /// Property test: seeded random frames (arbitrary opcode, seq and
    /// payload bytes) survive encode→decode byte-identically, with no
    /// over-read past the frame boundary.
    #[test]
    fn random_frames_round_trip_byte_identically() {
        let mut rng = dblab_tpch::rng::Rng64::seed_from_u64(0xf2a3_0001);
        for case in 0..256u32 {
            let opcode = rng.next_u64() as u8;
            let seq = rng.next_u64() as u32;
            let len = (rng.next_u64() % 4096) as usize;
            let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut buf = Vec::new();
            write_frame(&mut buf, opcode, seq, &payload).unwrap();
            // A trailing sentinel proves the decoder reads exactly one
            // frame and not a byte more.
            buf.push(0xA5);
            let mut r = &buf[..];
            let f = read_frame(&mut r).unwrap().expect("one frame");
            assert_eq!(
                (f.opcode, f.seq, f.payload),
                (opcode, seq, payload),
                "case {case}"
            );
            assert_eq!(r, [0xA5], "case {case}: decoder over-read");
        }
    }

    /// Fuzz: every truncation prefix of a valid frame, and random
    /// single-byte corruptions of one, either decode to something or
    /// fail with a clean `io::Error` — never a panic, never a read past
    /// the input.
    #[test]
    fn truncations_and_corruptions_never_panic() {
        let mut rng = dblab_tpch::rng::Rng64::seed_from_u64(0xf2a3_0002);
        let mut wire = Vec::new();
        write_frame(&mut wire, OP_EXECUTE, 9, &encode_params(&[])).unwrap();
        for cut in 0..wire.len() {
            let mut r = &wire[..cut];
            match read_frame(&mut r) {
                Ok(None) => assert_eq!(cut, 0, "only an empty input is a clean EOF"),
                Ok(Some(_)) => panic!("{cut}-byte prefix decoded as a whole frame"),
                Err(_) => {} // truncation surfaces as a typed io::Error
            }
        }
        for _ in 0..512 {
            let mut dented = wire.clone();
            let at = (rng.next_u64() as usize) % dented.len();
            dented[at] ^= (rng.next_u64() as u8) | 1;
            let mut r = &dented[..];
            // Either outcome is fine; what's asserted is "no panic" and
            // that decoding stops within the input.
            let _ = read_frame(&mut r);
        }
        // Payload decoders on random garbage: return `None`/partial, never
        // panic, even on adversarial inner length fields.
        for _ in 0..512 {
            let len = (rng.next_u64() % 64) as usize;
            let junk: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let _ = decode_result(&junk);
            let _ = decode_error(&junk);
            let _ = decode_params(&junk);
            let _ = decode_result_end(&junk);
        }
        // A params section claiming a huge string must fail cleanly, not
        // slice out of bounds.
        let mut lying = encode_params(&[dblab_runtime::Value::str("x")]);
        let claim = (u32::MAX).to_be_bytes();
        lying[3..7].copy_from_slice(&claim);
        assert_eq!(decode_params(&lying), None, "length claim exceeds input");
    }

    #[test]
    fn result_and_error_payloads_round_trip() {
        for tier in [TIER_INTERP, TIER_NATIVE, TIER_JIT] {
            let p = encode_result(tier, 12.5, "a|b\n");
            assert_eq!(decode_result(&p), Some((tier, 12.5, "a|b\n".to_string())));
        }
        assert_eq!(decode_result(&[9]), None, "runt");
        let bad_tier = encode_result(3, 1.0, "x");
        assert_eq!(decode_result(&bad_tier), None, "unknown tier code");
        let p = encode_error(ErrorCode::Busy, "queue full");
        assert_eq!(
            decode_error(&p),
            Some((ErrorCode::Busy, "queue full".to_string()))
        );
        assert_eq!(decode_error(&[0xEE]), None);
        for code in [1, 2, 3, 4, 5, 6] {
            assert_eq!(ErrorCode::from_u8(code).map(|c| c as u8), Some(code));
        }
    }
}
