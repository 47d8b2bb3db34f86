//! Protocol messages.
//!
//! Section 4 of the paper defines exactly two community-protocol message
//! types and gives their full field lists:
//!
//! > `HELP`: Hostid (community organizer identifier), Type(help), The number
//! > of current members (number of members), The urgency of the resource
//! > request (degree of demand).
//! >
//! > `PLEDGE`: Hostid (identifier of the pledger), Type(pledge), Resource
//! > availability (degree), Number of communities of which it is a member
//! > (number of communities), Probabilities of resource grant when requested
//! > (distribution).
//!
//! The push-based baselines additionally disseminate an unsolicited
//! availability advertisement, which we model as [`Advert`].

use realtor_net::NodeId;
use realtor_simcore::SimTime;

/// A community invitation / refresh, flooded by an organizer seeking
/// resources (Algorithm H).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Help {
    /// The community organizer (originator of the flood).
    pub organizer: NodeId,
    /// Size of the organizer's community at send time.
    pub member_count: u32,
    /// Degree of demand: how far local usage is above the HELP threshold,
    /// in `[0, 1]` (0 = exactly at threshold, 1 = completely full).
    pub urgency: f64,
    /// Remaining inter-community relay budget (the §7 future-work
    /// extension). `0` — the paper's flat protocol — means gateways never
    /// re-flood this HELP into neighboring groups.
    pub relay_ttl: u8,
}

/// A membership pledge, unicast to a community organizer (Algorithm P).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pledge {
    /// The pledging host.
    pub pledger: NodeId,
    /// Resource availability degree: spare queue capacity in seconds of
    /// work the pledger can currently absorb.
    pub headroom_secs: f64,
    /// Number of communities the pledger currently belongs to.
    pub community_count: u32,
    /// Probability that a resource request would be granted if issued now
    /// (the paper's "probabilities of resource grant when requested").
    pub grant_probability: f64,
    /// When the pledger sent this report. Receivers use it as a freshness
    /// watermark so duplicated or reordered deliveries cannot roll an
    /// availability entry backwards in time.
    pub sent_at: SimTime,
}

/// An unsolicited availability advertisement (pure/adaptive PUSH baselines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Advert {
    /// The advertising host.
    pub advertiser: NodeId,
    /// Spare queue capacity in seconds of work.
    pub headroom_secs: f64,
    /// When the advertiser sent this report (freshness watermark, same
    /// semantics as [`Pledge::sent_at`]).
    pub sent_at: SimTime,
}

/// Any discovery-protocol message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// Community invitation/refresh flood.
    Help(Help),
    /// Membership pledge unicast.
    Pledge(Pledge),
    /// Push-style availability advertisement flood.
    Advert(Advert),
}

impl Message {
    /// The node the message claims to originate from.
    pub fn origin(&self) -> NodeId {
        match self {
            Message::Help(h) => h.organizer,
            Message::Pledge(p) => p.pledger,
            Message::Advert(a) => a.advertiser,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origins_name_the_sender() {
        let h = Message::Help(Help {
            organizer: 3,
            member_count: 7,
            urgency: 0.5,
            relay_ttl: 0,
        });
        let p = Message::Pledge(Pledge {
            pledger: 4,
            headroom_secs: 60.0,
            community_count: 2,
            grant_probability: 0.6,
            sent_at: SimTime::ZERO,
        });
        let a = Message::Advert(Advert {
            advertiser: 5,
            headroom_secs: 10.0,
            sent_at: SimTime::ZERO,
        });
        assert_eq!(h.origin(), 3);
        assert_eq!(p.origin(), 4);
        assert_eq!(a.origin(), 5);
    }
}
