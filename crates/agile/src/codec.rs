//! Wire encoding for datagrams.
//!
//! The Agile Objects implementation sends HELP over IP multicast and PLEDGE
//! over UDP (§6), so discovery messages cross a byte boundary. This module
//! is that boundary: a small explicit binary codec over plain `Vec<u8>`
//! buffers — the format is four fixed-layout message types, and hand-rolling
//! keeps the wire honest and the dependency set closed (the workspace builds
//! with zero external crates).
//!
//! Layout: one tag byte, then fixed-width big-endian fields.

use realtor_core::{Advert, Help, Message, Pledge};
use realtor_simcore::SimTime;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// Unknown message tag byte.
    BadTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "datagram truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
        }
    }
}

impl std::error::Error for CodecError {}

const TAG_HELP: u8 = 0x01;
const TAG_PLEDGE: u8 = 0x02;
const TAG_ADVERT: u8 = 0x03;
const TAG_ADMISSION_REQ: u8 = 0x04;
const TAG_ADMISSION_REP: u8 = 0x05;

const FLAG_COMMIT: u8 = 0b01;
const FLAG_RECOVERY: u8 = 0b10;

/// Cap on the component snapshot carried by an admission request. Snapshots
/// are a few dozen bytes; anything larger on the wire is corruption, and
/// rejecting it here keeps a flipped length field from asking the decoder
/// for gigabytes.
const MAX_COMPONENT_BYTES: u32 = 64 * 1024;

/// Reliable admission-negotiation request (crosses the TCP-like channel as
/// bytes, like every other wire message).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionRequest {
    /// Queue demand of the migrating component.
    pub size_secs: f64,
    /// Component snapshot; empty for a reserve-only probe (non-speculative
    /// first phase).
    pub component: Vec<u8>,
    /// True when this request transfers the component (commit), false for a
    /// reserve-only probe.
    pub commit: bool,
    /// True when the component is being re-admitted after its host died
    /// (supervised recovery) rather than freshly migrated — recovery
    /// admissions must not recount in the migration statistics.
    pub recovery: bool,
}

/// Reply to an [`AdmissionRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionReply {
    /// Whether the receiver admitted (or reserved) the work.
    pub accepted: bool,
}

/// Big-endian field writer over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a payload with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an IEEE-754 `f64` in big-endian byte order.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Finish and take the payload.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Big-endian field reader over a byte slice; every accessor checks bounds
/// and returns [`CodecError::Truncated`] instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a payload slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a big-endian IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Encode a discovery message into a fresh datagram payload.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut buf = Writer::with_capacity(64);
    match msg {
        Message::Help(h) => {
            buf.put_u8(TAG_HELP);
            buf.put_u64(h.organizer as u64);
            buf.put_u32(h.member_count);
            buf.put_f64(h.urgency);
            buf.put_u8(h.relay_ttl);
        }
        Message::Pledge(p) => {
            buf.put_u8(TAG_PLEDGE);
            buf.put_u64(p.pledger as u64);
            buf.put_f64(p.headroom_secs);
            buf.put_u32(p.community_count);
            buf.put_f64(p.grant_probability);
            buf.put_u64(p.sent_at.ticks());
        }
        Message::Advert(a) => {
            buf.put_u8(TAG_ADVERT);
            buf.put_u64(a.advertiser as u64);
            buf.put_f64(a.headroom_secs);
            buf.put_u64(a.sent_at.ticks());
        }
    }
    buf.into_vec()
}

/// Decode a datagram payload back into a discovery message.
pub fn decode_message(payload: &[u8]) -> Result<Message, CodecError> {
    let mut buf = Reader::new(payload);
    match buf.get_u8()? {
        TAG_HELP => Ok(Message::Help(Help {
            organizer: buf.get_u64()? as usize,
            member_count: buf.get_u32()?,
            urgency: buf.get_f64()?,
            relay_ttl: buf.get_u8()?,
        })),
        TAG_PLEDGE => Ok(Message::Pledge(Pledge {
            pledger: buf.get_u64()? as usize,
            headroom_secs: buf.get_f64()?,
            community_count: buf.get_u32()?,
            grant_probability: buf.get_f64()?,
            sent_at: SimTime::from_ticks(buf.get_u64()?),
        })),
        TAG_ADVERT => Ok(Message::Advert(Advert {
            advertiser: buf.get_u64()? as usize,
            headroom_secs: buf.get_f64()?,
            sent_at: SimTime::from_ticks(buf.get_u64()?),
        })),
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode an admission-negotiation request.
pub fn encode_admission_request(req: &AdmissionRequest) -> Vec<u8> {
    let mut buf = Writer::with_capacity(16 + req.component.len());
    buf.put_u8(TAG_ADMISSION_REQ);
    let mut flags = 0u8;
    if req.commit {
        flags |= FLAG_COMMIT;
    }
    if req.recovery {
        flags |= FLAG_RECOVERY;
    }
    buf.put_u8(flags);
    buf.put_f64(req.size_secs);
    buf.put_u32(req.component.len() as u32);
    let mut v = buf.into_vec();
    v.extend_from_slice(&req.component);
    v
}

/// Decode an admission-negotiation request; rejects truncation, unknown
/// tags, and absurd component lengths.
pub fn decode_admission_request(payload: &[u8]) -> Result<AdmissionRequest, CodecError> {
    let mut buf = Reader::new(payload);
    match buf.get_u8()? {
        TAG_ADMISSION_REQ => {
            let flags = buf.get_u8()?;
            let size_secs = buf.get_f64()?;
            let len = buf.get_u32()?;
            if len > MAX_COMPONENT_BYTES || (len as usize) > buf.remaining() {
                return Err(CodecError::Truncated);
            }
            let component = buf.take(len as usize)?.to_vec();
            Ok(AdmissionRequest {
                size_secs,
                component,
                commit: flags & FLAG_COMMIT != 0,
                recovery: flags & FLAG_RECOVERY != 0,
            })
        }
        t => Err(CodecError::BadTag(t)),
    }
}

/// Encode an admission reply.
pub fn encode_admission_reply(rep: &AdmissionReply) -> Vec<u8> {
    let mut buf = Writer::with_capacity(2);
    buf.put_u8(TAG_ADMISSION_REP);
    buf.put_u8(rep.accepted as u8);
    buf.into_vec()
}

/// Decode an admission reply.
pub fn decode_admission_reply(payload: &[u8]) -> Result<AdmissionReply, CodecError> {
    let mut buf = Reader::new(payload);
    match buf.get_u8()? {
        TAG_ADMISSION_REP => Ok(AdmissionReply {
            accepted: buf.get_u8()? != 0,
        }),
        t => Err(CodecError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let encoded = encode_message(&msg);
        let decoded = decode_message(&encoded).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn help_round_trips() {
        round_trip(Message::Help(Help {
            organizer: 17,
            member_count: 12,
            urgency: 0.625,
            relay_ttl: 3,
        }));
    }

    #[test]
    fn pledge_round_trips() {
        round_trip(Message::Pledge(Pledge {
            pledger: 4,
            headroom_secs: 37.5,
            community_count: 9,
            grant_probability: 0.75,
            sent_at: SimTime::from_secs(12),
        }));
    }

    #[test]
    fn advert_round_trips() {
        round_trip(Message::Advert(Advert {
            advertiser: 3,
            headroom_secs: 99.0,
            sent_at: SimTime::from_secs(7),
        }));
    }

    #[test]
    fn truncated_rejected() {
        let full = encode_message(&Message::Advert(Advert {
            advertiser: 1,
            headroom_secs: 1.0,
            sent_at: SimTime::ZERO,
        }));
        for cut in 0..full.len() {
            assert_eq!(
                decode_message(&full[..cut]),
                Err(CodecError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(
            decode_message(&[0xFF, 0, 0, 0]),
            Err(CodecError::BadTag(0xFF))
        );
    }

    #[test]
    fn admission_request_round_trips() {
        for (commit, recovery) in [(false, false), (true, false), (true, true), (false, true)] {
            let req = AdmissionRequest {
                size_secs: 12.25,
                component: vec![1, 2, 3, 4, 5],
                commit,
                recovery,
            };
            let decoded = decode_admission_request(&encode_admission_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    #[test]
    fn admission_reply_round_trips() {
        for accepted in [false, true] {
            let rep = AdmissionReply { accepted };
            assert_eq!(
                decode_admission_reply(&encode_admission_reply(&rep)).unwrap(),
                rep
            );
        }
    }

    #[test]
    fn admission_request_truncations_rejected() {
        let full = encode_admission_request(&AdmissionRequest {
            size_secs: 3.0,
            component: vec![9; 16],
            commit: true,
            recovery: false,
        });
        for cut in 0..full.len() {
            assert_eq!(
                decode_admission_request(&full[..cut]),
                Err(CodecError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn admission_request_rejects_absurd_length() {
        let mut w = Writer::with_capacity(16);
        w.put_u8(TAG_ADMISSION_REQ);
        w.put_u8(FLAG_COMMIT);
        w.put_f64(1.0);
        w.put_u32(u32::MAX); // claims a 4 GiB component
        assert_eq!(
            decode_admission_request(&w.into_vec()),
            Err(CodecError::Truncated)
        );
    }

    #[test]
    fn admission_messages_reject_wrong_tags() {
        assert_eq!(
            decode_admission_request(&[TAG_ADMISSION_REP, 1]),
            Err(CodecError::BadTag(TAG_ADMISSION_REP))
        );
        assert_eq!(
            decode_admission_reply(&[TAG_ADMISSION_REQ, 0]),
            Err(CodecError::BadTag(TAG_ADMISSION_REQ))
        );
    }

    #[test]
    fn reader_tracks_remaining() {
        let mut r = Reader::new(&[1, 0, 0, 0, 2]);
        assert_eq!(r.remaining(), 5);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u32().unwrap(), 2);
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u8(), Err(CodecError::Truncated));
    }
}
