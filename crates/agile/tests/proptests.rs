//! Property-based tests for the Agile Objects runtime pieces that have
//! clean algebraic contracts: the wire codec, component snapshots and the
//! naming service. On the in-tree `check` harness.

use realtor_agile::codec::{
    decode_admission_reply, decode_admission_request, decode_message, encode_admission_reply,
    encode_admission_request, encode_message, AdmissionReply, AdmissionRequest,
};
use realtor_agile::{AgileComponent, ComponentId, NameService};
use realtor_core::{Advert, Help, Message, Pledge};
use realtor_simcore::prelude::*;
use realtor_simcore::{prop_assert, prop_assert_eq};

/// Raw generator output a message is built from — primitives only, so the
/// harness can shrink it; [`build_message`] maps it onto one of the three
/// message variants.
type RawMessage = (u8, usize, u32, f64, u8, f64);

fn gen_raw_message(r: &mut SimRng) -> RawMessage {
    (
        gen::u8_in(r, 0, 3),
        gen::usize_in(r, 0, 1000),
        gen::u32_in(r, 0, 100),
        gen::f64_in(r, 0.0, 1.0),
        gen::u8_in(r, 0, 4),
        gen::f64_in(r, 0.0, 1e6),
    )
}

fn build_message(&(variant, id, count, unit, ttl, secs): &RawMessage) -> Message {
    match variant {
        0 => Message::Help(Help {
            organizer: id,
            member_count: count,
            urgency: unit,
            relay_ttl: ttl,
        }),
        1 => Message::Pledge(Pledge {
            pledger: id,
            headroom_secs: secs,
            community_count: count,
            grant_probability: unit,
            sent_at: SimTime::from_ticks((id as u64).wrapping_mul(1_000_003)),
        }),
        _ => Message::Advert(Advert {
            advertiser: id,
            headroom_secs: secs,
            sent_at: SimTime::from_ticks((id as u64).wrapping_mul(999_983)),
        }),
    }
}

/// decode(encode(m)) == m for every message.
#[test]
fn codec_round_trips() {
    forall("codec_round_trips", 0xA61E01, 256, gen_raw_message, |raw| {
        let msg = build_message(raw);
        let decoded = decode_message(&encode_message(&msg)).unwrap();
        prop_assert_eq!(decoded, msg);
        Ok(())
    });
}

/// The decoder never panics on arbitrary bytes — it returns an error or
/// a message, but must be total.
#[test]
fn decoder_is_total() {
    forall(
        "decoder_is_total",
        0xA61E02,
        256,
        |r| gen::vec(r, 0, 128, gen::any_u8),
        |bytes| {
            let _ = decode_message(bytes);
            Ok(())
        },
    );
}

/// Any prefix truncation of a valid datagram is rejected, never
/// mis-decoded.
#[test]
fn truncation_always_detected() {
    forall(
        "truncation_always_detected",
        0xA61E03,
        256,
        |r| (gen_raw_message(r), gen::usize_in(r, 0, 28)),
        |(raw, keep)| {
            let full = encode_message(&build_message(raw));
            if *keep < full.len() {
                prop_assert!(decode_message(&full[..*keep]).is_err());
            }
            Ok(())
        },
    );
}

/// Component snapshots round-trip.
#[test]
fn component_snapshot_round_trips() {
    forall(
        "component_snapshot_round_trips",
        0xA61E04,
        256,
        |r| {
            (
                gen::any_u64(r),
                gen::f64_in(r, 0.001, 1e6),
                gen::u64_in(r, 0, 100),
            )
        },
        |&(id, size, migs)| {
            let mut c = AgileComponent::new(ComponentId(id), size);
            for _ in 0..migs {
                c.migrated();
            }
            let restored = AgileComponent::restore(&c.snapshot()).unwrap();
            prop_assert_eq!(restored, c);
            Ok(())
        },
    );
}

/// Raw generator output an admission request is built from.
type RawAdmission = (f64, Vec<u8>, u8, u8);

fn gen_raw_admission(r: &mut SimRng) -> RawAdmission {
    (
        gen::f64_in(r, 0.001, 1e6),
        gen::vec(r, 0, 64, gen::any_u8),
        gen::u8_in(r, 0, 1),
        gen::u8_in(r, 0, 1),
    )
}

fn build_admission(raw: &RawAdmission) -> AdmissionRequest {
    AdmissionRequest {
        size_secs: raw.0,
        component: raw.1.clone(),
        commit: raw.2 == 1,
        recovery: raw.3 == 1,
    }
}

/// Admission requests round-trip for every flag combination and component
/// payload, and replies for both outcomes.
#[test]
fn admission_messages_round_trip() {
    forall(
        "admission_messages_round_trip",
        0xA61E06,
        256,
        gen_raw_admission,
        |raw| {
            let req = build_admission(raw);
            let decoded = decode_admission_request(&encode_admission_request(&req)).unwrap();
            prop_assert_eq!(decoded, req);
            let rep = AdmissionReply {
                accepted: raw.2 == 1,
            };
            prop_assert_eq!(
                decode_admission_reply(&encode_admission_reply(&rep)).unwrap(),
                rep
            );
            Ok(())
        },
    );
}

/// Every proper prefix of an encoded admission request is rejected as
/// truncated — a cut TCP stream can never mis-decode.
#[test]
fn admission_truncation_always_detected() {
    forall(
        "admission_truncation_always_detected",
        0xA61E07,
        256,
        |r| (gen_raw_admission(r), gen::usize_in(r, 0, 128)),
        |(raw, keep)| {
            let full = encode_admission_request(&build_admission(raw));
            if *keep < full.len() {
                prop_assert!(decode_admission_request(&full[..*keep]).is_err());
            }
            Ok(())
        },
    );
}

/// The admission decoders never panic on arbitrary bytes.
#[test]
fn admission_decoders_are_total() {
    forall(
        "admission_decoders_are_total",
        0xA61E08,
        256,
        |r| gen::vec(r, 0, 96, gen::any_u8),
        |bytes| {
            let _ = decode_admission_request(bytes);
            let _ = decode_admission_reply(bytes);
            Ok(())
        },
    );
}

/// A duplicated buffer (the message concatenated with itself, as a
/// duplicating transport would deliver it) still decodes to the original
/// message — trailing bytes never corrupt the first frame.
#[test]
fn admission_duplication_is_harmless() {
    forall(
        "admission_duplication_is_harmless",
        0xA61E09,
        256,
        gen_raw_admission,
        |raw| {
            let req = build_admission(raw);
            let mut doubled = encode_admission_request(&req);
            doubled.extend_from_slice(&doubled.clone());
            prop_assert_eq!(decode_admission_request(&doubled).unwrap(), req);
            Ok(())
        },
    );
}

/// Naming-service updates converge to the highest version regardless of
/// application order.
#[test]
fn naming_updates_are_order_independent() {
    forall(
        "naming_updates_are_order_independent",
        0xA61E05,
        256,
        |r| {
            gen::vec(r, 1, 30, |r| {
                (gen::usize_in(r, 0, 8), gen::u64_in(r, 1, 50))
            })
        },
        |updates| {
            let apply = |order: &[(usize, u64)]| {
                let ns = NameService::new();
                ns.register(ComponentId(1), 0);
                for &(host, version) in order {
                    ns.update(ComponentId(1), host, version);
                }
                ns.lookup_versioned(ComponentId(1)).unwrap()
            };
            let mut updates = updates.clone();
            let forward = apply(&updates);
            updates.reverse();
            let backward = apply(&updates);
            prop_assert_eq!(forward.1, backward.1, "versions must agree");
            // the winning host is whichever carried the max version; if several
            // carry the max the first applied wins, so only compare versions
            // unless the max is unique.
            let max_v = forward.1;
            let carriers: std::collections::BTreeSet<usize> = updates
                .iter()
                .filter(|&&(_, v)| v == max_v)
                .map(|&(h, _)| h)
                .collect();
            if carriers.len() == 1 {
                prop_assert_eq!(forward.0, backward.0);
            }
            Ok(())
        },
    );
}
