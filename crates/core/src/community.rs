//! Community membership — the soft state at the heart of REALTOR.
//!
//! From the paper (Section 4): each host owns one community (the set of
//! nodes able to receive its migrating components) and is a member of
//! several others. *"The membership of a node in a community is valid only
//! for the interval between two consecutive refresh messages"* — HELP floods
//! act as the refresh. A member that has pledged keeps sending unsolicited
//! PLEDGE updates (threshold crossings) to the organizer until the
//! membership expires; an organizer that stops sending HELP lets its
//! community disband naturally.

use realtor_net::{IdMap, NodeId};
use realtor_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// The communities this host is a *member* of, keyed by organizer.
///
/// Every received HELP refreshes a membership and then reads the live
/// count for its PLEDGE, so the count is kept incrementally instead of
/// being recomputed by a scan: `live` holds the number of entries of
/// `joined` that had not expired at `horizon`, and `refreshes` lists the
/// refreshes in time order so expiry can be applied front to back.
///
/// Times passed in are expected to be non-decreasing from call to call, as
/// the simulator's clock is; `refresh` and `purge_expired` treat an earlier
/// time as the latest one seen.
#[derive(Debug, Clone, Default)]
pub struct MembershipTable {
    /// Last-refresh time per organizer, indexed by node id: the refresh
    /// runs once per received HELP, so lookups must be O(1), and id-indexed
    /// iteration keeps the membership listings id-ordered.
    joined: IdMap<SimTime>,
    /// `(organizer, refresh time)` in time order. A record *matches* while
    /// `joined[organizer]` still holds its time; each entry of `joined` has
    /// exactly one matching record. Records that stopped matching (the
    /// organizer refreshed again, was left or purged) are skipped lazily
    /// and dropped by compaction.
    refreshes: VecDeque<(NodeId, SimTime)>,
    /// `refreshes[..expired]` have expired at `horizon`; the matching ones
    /// among them are the expired entries [`Self::purge_expired`] removes.
    expired: usize,
    /// Entries of `joined` live at `horizon`.
    live: u32,
    /// The latest time expiry has been applied up to.
    horizon: SimTime,
    ttl: SimDuration,
    joins: u64,
}

impl MembershipTable {
    /// Create a table whose memberships expire `ttl` after the last refresh.
    pub fn new(ttl: SimDuration) -> Self {
        Self::with_id_capacity(ttl, 0)
    }

    /// Like [`new`](Self::new), for organizer ids below `nodes`: the
    /// table is sized to them on its first refresh and never reallocates.
    pub(crate) fn with_id_capacity(ttl: SimDuration, nodes: usize) -> Self {
        MembershipTable {
            joined: IdMap::with_id_capacity(nodes),
            ttl,
            ..Default::default()
        }
    }

    /// Advance the horizon to `now` and move every record that has expired
    /// there behind the `expired` mark, uncounting the matching ones.
    /// Returns the new horizon: a `now` earlier than the horizon is taken
    /// as the horizon, which keeps `refreshes` in time order.
    fn expire_to(&mut self, now: SimTime) -> SimTime {
        let now = self.horizon.max(now);
        self.horizon = now;
        while let Some(&(org, t)) = self.refreshes.get(self.expired) {
            if now.since(t) <= self.ttl {
                break;
            }
            if self.joined.get(org) == Some(&t) {
                self.live -= 1;
            }
            self.expired += 1;
        }
        now
    }

    /// Queue a refresh record. Records that no longer match are dropped
    /// once they outnumber the entries, so the queue stays O(entries) at
    /// O(1) amortised cost per refresh.
    fn enqueue(&mut self, organizer: NodeId, now: SimTime) {
        self.refreshes.push_back((organizer, now));
        if self.refreshes.len() <= 2 * self.joined.len() + 16 {
            return;
        }
        let (joined, expired) = (&self.joined, self.expired);
        let (mut index, mut kept_expired) = (0, 0);
        self.refreshes.retain(|&(org, t)| {
            let keep = joined.get(org) == Some(&t);
            if keep && index < expired {
                kept_expired += 1;
            }
            index += 1;
            keep
        });
        self.expired = kept_expired;
    }

    /// Record a HELP (refresh) from `organizer` at `now`, joining the
    /// community or extending an existing membership. Returns `true` when
    /// this was a *new* join (no existing entry) rather than a refresh.
    pub fn refresh(&mut self, organizer: NodeId, now: SimTime) -> bool {
        let now = self.expire_to(now);
        match self.joined.insert(organizer, now) {
            // Refreshed twice at one instant: the queued record still matches.
            Some(t) if t == now => false,
            Some(t) => {
                // An expired, unpurged membership comes back to life.
                self.live += u32::from(now.since(t) > self.ttl);
                self.enqueue(organizer, now);
                false
            }
            None => {
                self.joins += 1;
                self.live += 1;
                // A record left behind by `leave` at this very instant
                // matches again: queueing a second one would count it twice.
                let requeued = self
                    .refreshes
                    .range(self.expired..)
                    .rev()
                    .take_while(|&&(_, t)| t == now)
                    .any(|&(org, _)| org == organizer);
                if !requeued {
                    self.enqueue(organizer, now);
                }
                true
            }
        }
    }

    /// Lifetime count of *new* community joins (a refresh of an existing
    /// membership does not count; rejoining after leave/expiry-purge does).
    /// Survives TTL expiry of the memberships themselves — used to observe
    /// that a restored node actually re-joined communities after amnesia.
    pub fn lifetime_joins(&self) -> u64 {
        self.joins
    }

    /// Explicitly leave a community (e.g. the organizer was observed dead).
    pub fn leave(&mut self, organizer: NodeId) {
        if let Some(t) = self.joined.remove(organizer) {
            if self.horizon.since(t) <= self.ttl {
                self.live -= 1;
            }
        }
    }

    /// Is this host currently a member of `organizer`'s community?
    pub fn is_member(&self, organizer: NodeId, now: SimTime) -> bool {
        self.joined
            .get(organizer)
            .is_some_and(|&t| now.since(t) <= self.ttl)
    }

    /// Organizers whose communities this host currently belongs to, in id
    /// order. Expired entries are skipped (and can be purged with
    /// [`MembershipTable::purge_expired`]).
    pub fn current(&self, now: SimTime) -> impl Iterator<Item = NodeId> + '_ {
        let ttl = self.ttl;
        self.joined
            .iter()
            .filter(move |&(_, &t)| now.since(t) <= ttl)
            .map(|(org, _)| org)
    }

    /// Number of live memberships — the `number of communities` field of a
    /// PLEDGE message.
    ///
    /// Costs only the refreshes that expired since the last
    /// [`refresh`](Self::refresh) or [`purge_expired`](Self::purge_expired),
    /// not a scan of the table. Invariant: it equals the number of entries
    /// with `now - refresh <= ttl`, as a scan would count them, whenever
    /// `now` is no earlier than the time of any earlier call.
    pub fn count(&self, now: SimTime) -> u32 {
        let newly_expired = self
            .refreshes
            .range(self.expired..)
            .take_while(|&&(_, t)| now.since(t) > self.ttl)
            .filter(|&&(org, t)| self.joined.get(org) == Some(&t))
            .count();
        self.live - newly_expired as u32
    }

    /// Drop expired memberships; returns how many were removed.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.expire_to(now);
        let mut removed = 0;
        for (org, t) in self.refreshes.drain(..self.expired) {
            if self.joined.get(org) == Some(&t) {
                self.joined.remove(org);
                removed += 1;
            }
        }
        self.expired = 0;
        removed
    }
}

/// The community this host *owns* as an organizer: its pledged members.
///
/// Tracked for the `number of current members` field of HELP and for
/// diagnostics; the actual candidate data lives in
/// [`crate::pledge::AvailabilityStore`].
#[derive(Debug, Clone, Default)]
pub struct OwnCommunity {
    /// Last-pledge time per member, indexed by node id (one update per
    /// received PLEDGE — the organizer-side hot path).
    members: IdMap<SimTime>,
    ttl: SimDuration,
}

impl OwnCommunity {
    /// Create with the given member-expiry TTL (a member that has not
    /// re-pledged within `ttl` "de facto leaves the community").
    pub fn new(ttl: SimDuration) -> Self {
        Self::with_id_capacity(ttl, 0)
    }

    /// Like [`new`](Self::new), for member ids below `nodes`: the table is
    /// sized to them on its first pledge and never reallocates.
    pub(crate) fn with_id_capacity(ttl: SimDuration, nodes: usize) -> Self {
        OwnCommunity {
            members: IdMap::with_id_capacity(nodes),
            ttl,
        }
    }

    /// Record a PLEDGE from `member`.
    pub fn pledge_received(&mut self, member: NodeId, now: SimTime) {
        self.members.insert(member, now);
    }

    /// Drop `member` immediately (it was observed dead) rather than waiting
    /// for its pledge to age out.
    pub fn remove(&mut self, member: NodeId) {
        self.members.remove(member);
    }

    /// Number of live members at `now`.
    pub fn member_count(&self, now: SimTime) -> u32 {
        self.members
            .values()
            .filter(|&&t| now.since(t) <= self.ttl)
            .count() as u32
    }

    /// Live member ids at `now`.
    pub fn members(&self, now: SimTime) -> Vec<NodeId> {
        self.members
            .iter()
            .filter(|&(_, &t)| now.since(t) <= self.ttl)
            .map(|(m, _)| m)
            .collect()
    }

    /// Drop expired members.
    pub fn purge_expired(&mut self, now: SimTime) {
        let ttl = self.ttl;
        self.members.retain(|_, &mut t| now.since(t) <= ttl);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TTL: SimDuration = SimDuration::from_secs(100);

    #[test]
    fn membership_expires_after_ttl() {
        let mut m = MembershipTable::new(TTL);
        m.refresh(7, SimTime::from_secs(0));
        assert!(m.is_member(7, SimTime::from_secs(100)));
        assert!(!m.is_member(7, SimTime::from_secs(101)));
        assert_eq!(m.count(SimTime::from_secs(50)), 1);
        assert_eq!(m.count(SimTime::from_secs(200)), 0);
    }

    #[test]
    fn refresh_extends_membership() {
        let mut m = MembershipTable::new(TTL);
        m.refresh(7, SimTime::from_secs(0));
        m.refresh(7, SimTime::from_secs(90));
        assert!(m.is_member(7, SimTime::from_secs(150)));
    }

    #[test]
    fn current_lists_only_live_memberships() {
        let mut m = MembershipTable::new(TTL);
        m.refresh(1, SimTime::from_secs(0));
        m.refresh(2, SimTime::from_secs(150));
        assert_eq!(
            m.current(SimTime::from_secs(160)).collect::<Vec<_>>(),
            vec![2]
        );
        m.purge_expired(SimTime::from_secs(160));
        assert_eq!(m.count(SimTime::from_secs(160)), 1);
    }

    #[test]
    fn leave_is_immediate() {
        let mut m = MembershipTable::new(TTL);
        m.refresh(1, SimTime::ZERO);
        m.leave(1);
        assert!(!m.is_member(1, SimTime::ZERO));
    }

    #[test]
    fn lifetime_joins_counts_distinct_joins_not_refreshes() {
        let mut m = MembershipTable::new(TTL);
        assert_eq!(m.lifetime_joins(), 0);
        assert!(m.refresh(1, SimTime::ZERO), "first contact is a join");
        assert!(
            !m.refresh(1, SimTime::from_secs(5)),
            "refresh, not a new join"
        );
        assert!(m.refresh(2, SimTime::ZERO));
        assert_eq!(m.lifetime_joins(), 2);
        m.leave(1);
        assert!(m.refresh(1, SimTime::from_secs(10)), "rejoin after leaving");
        assert_eq!(m.lifetime_joins(), 3);
    }

    #[test]
    fn an_earlier_time_counts_as_the_latest_seen() {
        let mut m = MembershipTable::new(TTL);
        m.refresh(1, SimTime::from_secs(50));
        m.refresh(2, SimTime::from_secs(200));
        // Back in time: organizer 1 is refreshed as of t = 200.
        assert!(!m.refresh(1, SimTime::from_secs(60)));
        assert!(m.is_member(1, SimTime::from_secs(300)));
        assert_eq!(m.count(SimTime::from_secs(300)), 2);
        assert_eq!(m.purge_expired(SimTime::from_secs(301)), 2);
        assert_eq!(m.count(SimTime::from_secs(301)), 0);
    }

    #[test]
    fn purge_reports_how_many_expired() {
        let mut m = MembershipTable::new(TTL);
        m.refresh(1, SimTime::from_secs(0));
        m.refresh(2, SimTime::from_secs(0));
        m.refresh(3, SimTime::from_secs(150));
        assert_eq!(m.purge_expired(SimTime::from_secs(160)), 2);
        assert_eq!(m.purge_expired(SimTime::from_secs(160)), 0);
    }

    #[test]
    fn own_community_remove_is_immediate() {
        let mut c = OwnCommunity::new(TTL);
        c.pledge_received(3, SimTime::ZERO);
        c.remove(3);
        assert_eq!(c.member_count(SimTime::ZERO), 0);
    }

    #[test]
    fn own_community_counts_live_members() {
        let mut c = OwnCommunity::new(TTL);
        c.pledge_received(3, SimTime::from_secs(0));
        c.pledge_received(4, SimTime::from_secs(60));
        assert_eq!(c.member_count(SimTime::from_secs(50)), 2);
        assert_eq!(c.member_count(SimTime::from_secs(120)), 1);
        assert_eq!(c.members(SimTime::from_secs(120)), vec![4]);
        c.purge_expired(SimTime::from_secs(120));
        assert_eq!(c.members(SimTime::from_secs(0)), vec![4]);
    }
}
