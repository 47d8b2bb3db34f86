//! Golden Figure-5/6 values pinned bit-for-bit.
//!
//! These numbers were captured from the simulator *before* the unreliable-
//! channel delivery path landed, at `Scenario::paper(kind, λ, 1000s, seed 42)`.
//! The channel refactor's safety property is that the default (ideal)
//! channel reproduces them exactly: the delivery rewrite must not perturb a
//! single RNG draw, event ordering, or f64 operation. Any diff here is a
//! behavior change to the paper reproduction and needs an explicit
//! re-capture with justification in the commit message.
//!
//! `events_processed` is deliberately not pinned: stale negotiation
//! timeouts and per-recipient delivery events legitimately change the event
//! count without changing any published metric.

use realtor::core::ProtocolKind;
use realtor::sim::{run_scenario, Scenario};

struct Golden {
    kind: ProtocolKind,
    lambda: f64,
    offered: u64,
    admitted: u64,
    adm_p_bits: u64,
    total_msgs_bits: u64,
    help: u64,
    pledge: u64,
    push: u64,
    migr: u64,
    migr_ok: u64,
}

macro_rules! golden {
    ($kind:ident, $lambda:expr, $offered:expr, $admitted:expr, $adm:expr, $msgs:expr,
     $help:expr, $pledge:expr, $push:expr, $migr:expr, $migr_ok:expr) => {
        Golden {
            kind: ProtocolKind::$kind,
            lambda: $lambda,
            offered: $offered,
            admitted: $admitted,
            adm_p_bits: $adm,
            total_msgs_bits: $msgs,
            help: $help,
            pledge: $pledge,
            push: $push,
            migr: $migr,
            migr_ok: $migr_ok,
        }
    };
}

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    golden!(PurePull,     2.0, 2032, 2032, 0x3ff0000000000000, 0x0000000000000000,    0,     0,     0,    0,   0),
    golden!(PurePull,     5.0, 4997, 4989, 0x3feff2e28ad5d64c, 0x40ed660000000000,  456, 10284,     0,  104, 102),
    golden!(PurePull,     8.0, 8063, 7033, 0x3febe98561b1d4e2, 0x411ce7b000000000, 5915, 56151,     0, 1547, 685),
    golden!(PurePush,     2.0, 2032, 2032, 0x3ff0000000000000, 0x412e8c5000000000,    0,     0, 25025,    0,   0),
    golden!(PurePush,     5.0, 4997, 4997, 0x3ff0000000000000, 0x412e937000000000,    0,     0, 25025,  114, 114),
    golden!(PurePush,     8.0, 8063, 7074, 0x3fec132d4ea5094e, 0x412ee8e000000000,    0,     0, 25025, 1481, 977),
    golden!(AdaptivePush, 2.0, 2032, 2032, 0x3ff0000000000000, 0x0000000000000000,    0,     0,     0,    0,   0),
    golden!(AdaptivePush, 5.0, 4997, 4948, 0x3fefafab925dc094, 0x40d5fc0000000000,    0,     0,   544,   94,  94),
    golden!(AdaptivePush, 8.0, 8063, 7166, 0x3fec70a61da78b6a, 0x4102cec000000000,    0,     0,  3640, 1059, 1034),
    golden!(AdaptivePull, 2.0, 2032, 2032, 0x3ff0000000000000, 0x0000000000000000,    0,     0,     0,    0,   0),
    golden!(AdaptivePull, 5.0, 4997, 4989, 0x3feff2e28ad5d64c, 0x40dbdb0000000000,  211,  4803,     0,  109, 107),
    golden!(AdaptivePull, 8.0, 8063, 7046, 0x3febf6baa0565c23, 0x40efac0000000000,  636,  6884,     0, 1486, 776),
    golden!(Realtor,      2.0, 2032, 2032, 0x3ff0000000000000, 0x0000000000000000,    0,     0,     0,    0,   0),
    golden!(Realtor,      5.0, 4997, 4991, 0x3feff629e82060b9, 0x40dfc10000000000,  215,  5759,     0,  110, 109),
    golden!(Realtor,      8.0, 8063, 7083, 0x3fec1c522b3e5340, 0x40fce04000000000,  562, 21723,     0, 1113, 774),
];

#[test]
fn ideal_channel_reproduces_pre_channel_golden_values() {
    for g in GOLDEN {
        let r = run_scenario(&Scenario::paper(g.kind, g.lambda, 1000, 42));
        let tag = format!("({:?}, λ={})", g.kind, g.lambda);
        assert_eq!(r.offered, g.offered, "{tag} offered");
        assert_eq!(r.admitted(), g.admitted, "{tag} admitted");
        assert_eq!(
            r.admission_probability().to_bits(),
            g.adm_p_bits,
            "{tag} admission probability drifted: {:.17} (bits {:#018x})",
            r.admission_probability(),
            r.admission_probability().to_bits()
        );
        assert_eq!(
            r.total_messages().to_bits(),
            g.total_msgs_bits,
            "{tag} total message cost drifted: {:.3} (bits {:#018x})",
            r.total_messages(),
            r.total_messages().to_bits()
        );
        assert_eq!(r.ledger.help_count, g.help, "{tag} help count");
        assert_eq!(r.ledger.pledge_count, g.pledge, "{tag} pledge count");
        assert_eq!(r.ledger.push_count, g.push, "{tag} push count");
        assert_eq!(r.ledger.migration_count, g.migr, "{tag} migration count");
        assert_eq!(
            r.migration_successes, g.migr_ok,
            "{tag} migration successes"
        );
        // An ideal channel loses and duplicates nothing, by construction.
        assert_eq!(r.ledger.lost_count, 0, "{tag} lost");
        assert_eq!(r.ledger.duplicated_count, 0, "{tag} duplicated");
    }
}
