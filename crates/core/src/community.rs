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

/// Marks an empty index slot. Organizer ids are below it.
const NONE: u32 = u32::MAX;

/// The index key of `organizer`, if it can have an entry at all.
fn key(organizer: NodeId) -> Option<u32> {
    u32::try_from(organizer).ok().filter(|&k| k != NONE)
}

/// The communities this host is a *member* of, keyed by organizer.
///
/// A membership is soft state: it lives for `ttl` after the organizer's
/// last HELP. Memory follows the memberships, not the size of the world:
///
/// * The log holds one record per refresh of the last `ttl`, in time
///   order, with sequence numbers `head..head + len`. A record is *stale*
///   once its organizer refreshed again or was left: its stale bit is set,
///   and it is popped with the rest when it expires.
/// * `index` maps each organizer with an entry to the sequence of its
///   latest record. An entry is *live* at `horizon` while its record is in
///   the log, and *lapsed* once expiry has popped the record: expired, but
///   remembered until [`purge_expired`](Self::purge_expired), so that a
///   later HELP from it counts as a refresh rather than a join.
///
/// So a table costs about 12.5 B per refresh of the last `ttl` and 16–24
/// B per entry, whatever the organizers' ids; nothing is allocated before
/// the first refresh. Sequences are `u64`, which a refresh per
/// nanosecond would take five centuries to wrap.
///
/// Every received HELP refreshes a membership and then reads the live
/// count for its PLEDGE, so the count is kept incrementally: `live` and
/// `lapsed` count the entries of each kind, expiry pops records from the
/// front of the log as the horizon advances, and neither it nor
/// [`count`](Self::count) looks anything up in the index.
///
/// Time contract: times passed in are expected to be non-decreasing from
/// call to call, as the simulator's clock is. [`refresh`](Self::refresh)
/// and [`purge_expired`](Self::purge_expired) move the horizon and treat an
/// earlier time as the horizon. [`count`](Self::count),
/// [`is_member`](Self::is_member) and [`current`](Self::current) answer for
/// any time at or after the horizon; before it, a membership popped at the
/// horizon may still have been live, and the answer is out of contract.
#[derive(Debug, Clone, Default)]
pub struct MembershipTable {
    index: OrganizerIndex,
    /// The log, in blocks of [`BLOCK`] records: the record with sequence
    /// `s` is record `s % BLOCK` of block `s / BLOCK - head / BLOCK`.
    /// The log grows and shrinks a block at a time and never copies a
    /// record: the tables of one world hear the same floods, so a log that
    /// reallocated would do so in all of them at the same HELP.
    blocks: VecDeque<Block>,
    /// Sequence number of the oldest record.
    head: u64,
    /// Records in the log.
    len: usize,
    /// The time of the latest record, and the sequence of the first record
    /// at that time: a refresh at that instant of an organizer whose
    /// record is among them repeats it.
    instant: (SimTime, u64),
    /// Entries whose record is in the log: live at `horizon`.
    live: u32,
    /// Entries whose record has been popped: expired at `horizon`.
    lapsed: u32,
    /// The latest time expiry has been applied up to.
    horizon: SimTime,
    ttl: SimDuration,
    joins: u64,
}

/// Records per log block: one stale word's worth.
const BLOCK: u64 = 64;

/// [`BLOCK`] consecutive records of the log.
#[derive(Debug, Clone)]
struct Block {
    /// Bit `i` is set once record `i` is stale. It sits beside the block
    /// pointer, so marking a superseded record touches this dense array,
    /// not the record at a random place in the log.
    stale: u64,
    records: Vec<Record>,
}

/// One refresh. Packed to 12 B, as the log holds every refresh of the
/// last TTL.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Record {
    at: SimTime,
    organizer: u32,
}

impl MembershipTable {
    /// Create a table whose memberships expire `ttl` after the last refresh.
    pub fn new(ttl: SimDuration) -> Self {
        MembershipTable {
            ttl,
            ..Default::default()
        }
    }

    /// Advance the horizon to `now` and pop every record that has expired
    /// there, turning the live entries among them into lapsed ones.
    /// Returns the new horizon: a `now` earlier than the horizon is taken
    /// as the horizon, which keeps the log in time order.
    fn expire_to(&mut self, now: SimTime) -> SimTime {
        let now = self.horizon.max(now);
        self.horizon = now;
        while self.len > 0 && now.since(self.record(self.head).at) > self.ttl {
            if !self.is_stale(self.head) {
                self.live -= 1;
                self.lapsed += 1;
            }
            self.head += 1;
            self.len -= 1;
            if self.head.is_multiple_of(BLOCK) {
                self.blocks.pop_front();
            }
        }
        now
    }

    /// The block holding sequence `seq`, which must be in the log, and the
    /// record's place in it.
    fn locate(&self, seq: u64) -> (usize, usize) {
        (
            (seq / BLOCK - self.head / BLOCK) as usize,
            (seq % BLOCK) as usize,
        )
    }

    fn record(&self, seq: u64) -> Record {
        let (block, i) = self.locate(seq);
        self.blocks[block].records[i]
    }

    fn is_stale(&self, seq: u64) -> bool {
        let (block, i) = self.locate(seq);
        self.blocks[block].stale & 1 << i != 0
    }

    fn mark_stale(&mut self, seq: u64) {
        let (block, i) = self.locate(seq);
        self.blocks[block].stale |= 1 << i;
    }

    /// The sequences of the log, oldest first.
    fn seqs(&self) -> std::ops::Range<u64> {
        self.head..self.head + self.len as u64
    }

    /// Record a HELP (refresh) from `organizer` at `now`, joining the
    /// community or extending an existing membership. Returns `true` when
    /// this was a *new* join (no existing entry) rather than a refresh.
    ///
    /// # Panics
    /// If `organizer` does not fit below `u32::MAX`.
    pub fn refresh(&mut self, organizer: NodeId, now: SimTime) -> bool {
        let now = self.expire_to(now);
        let org = key(organizer).expect("organizer ids fit below u32::MAX");
        let next = self.head + self.len as u64;
        let (slot, held) = self.index.entry(org, next);
        match held {
            None => {
                self.joins += 1;
                self.live += 1;
            }
            Some(seq) if seq >= self.head => {
                // Refreshed twice at one instant: the record stands.
                if self.instant.0 == now && seq >= self.instant.1 {
                    return false;
                }
                self.mark_stale(seq);
                self.index.set(slot, next);
            }
            // A lapsed membership comes back to life.
            Some(_) => {
                self.lapsed -= 1;
                self.live += 1;
                self.index.set(slot, next);
            }
        }
        if self.instant.0 != now {
            self.instant = (now, next);
        }
        if next.is_multiple_of(BLOCK) {
            self.blocks.push_back(Block {
                stale: 0,
                records: Vec::with_capacity(BLOCK as usize),
            });
        }
        let block = self.blocks.back_mut().expect("the block of `next` exists");
        block.records.push(Record {
            at: now,
            organizer: org,
        });
        self.len += 1;
        held.is_none()
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
        let Some(seq) = key(organizer).and_then(|org| self.index.remove(org)) else {
            return;
        };
        if seq >= self.head {
            self.mark_stale(seq);
            self.live -= 1;
        } else {
            self.lapsed -= 1;
        }
    }

    /// Is this host currently a member of `organizer`'s community?
    pub fn is_member(&self, organizer: NodeId, now: SimTime) -> bool {
        key(organizer)
            .and_then(|org| self.index.get(org))
            .filter(|&seq| seq >= self.head)
            .is_some_and(|seq| now.since(self.record(seq).at) <= self.ttl)
    }

    /// Organizers whose communities this host currently belongs to, in id
    /// order: the live records at the back of the log, sorted. It
    /// allocates, so it is meant for threshold crossings, not per message.
    /// Expired entries are skipped (and can be purged with
    /// [`MembershipTable::purge_expired`]).
    pub fn current(&self, now: SimTime) -> impl Iterator<Item = NodeId> {
        let mut live: Vec<NodeId> = self
            .seqs()
            .rev()
            .map(|seq| (seq, self.record(seq)))
            .take_while(|(_, r)| now.since(r.at) <= self.ttl)
            .filter(|&(seq, _)| !self.is_stale(seq))
            .map(|(_, r)| r.organizer as NodeId)
            .collect();
        live.sort_unstable();
        live.into_iter()
    }

    /// Number of live memberships — the `number of communities` field of a
    /// PLEDGE message.
    ///
    /// Costs only the records that expired between the horizon and `now`,
    /// not a scan of the table. Invariant: it equals the number of entries
    /// with `now - refresh <= ttl`, as a scan would count them, whenever
    /// `now` is at or after the horizon.
    pub fn count(&self, now: SimTime) -> u32 {
        let newly_expired = self
            .seqs()
            .take_while(|&seq| now.since(self.record(seq).at) > self.ttl)
            .filter(|&seq| !self.is_stale(seq))
            .count();
        self.live - newly_expired as u32
    }

    /// Drop expired memberships; returns how many were removed. Touches
    /// the index only when some entry has lapsed.
    pub fn purge_expired(&mut self, now: SimTime) -> usize {
        self.expire_to(now);
        let lapsed = std::mem::take(&mut self.lapsed) as usize;
        if lapsed > 0 {
            let head = self.head;
            let removed = self.index.retain(|seq| seq >= head);
            debug_assert_eq!(removed, lapsed);
        }
        lapsed
    }
}

/// A map from organizer id to the sequence number of its latest refresh
/// record: open addressing with linear probing over a slot array at most
/// 3/4 full. Removal shifts the rest of a probe chain back, so there are
/// no tombstones. Nothing is allocated before the first entry; the array
/// grows by half with the entries and never shrinks.
///
/// Not `std`'s `HashMap<u32, u64>`: with its default hasher a replay of
/// 1600 tables under HELP floods cost ~1.8× as much per refresh, and its
/// 17 B buckets double in count. The ids are node ids of the system's own
/// peers, so a plain multiplicative hash needs no protection against
/// crafted collisions.
#[derive(Debug, Clone, Default)]
struct OrganizerIndex {
    slots: Vec<Slot>,
    len: usize,
}

/// An index slot: `key` is [`NONE`] when the slot is empty. Packed to
/// 12 B: the index holds every organizer a node has heard from since its
/// last purge, which is most of them on a busy mesh.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    key: u32,
    seq: u64,
}

const EMPTY: Slot = Slot { key: NONE, seq: 0 };

impl OrganizerIndex {
    /// The first slot of `key`'s probe chain: a Fibonacci hash, scaled
    /// to the slot count.
    #[inline]
    fn home(&self, key: u32) -> usize {
        let hash = u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        ((hash * self.slots.len() as u64) >> 32) as usize
    }

    /// The slot after `i`, wrapping around.
    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// How many steps a probe takes from slot `from` to slot `to`.
    fn distance(&self, from: usize, to: usize) -> usize {
        if to >= from {
            to - from
        } else {
            to + self.slots.len() - from
        }
    }

    /// The slot holding `key`, or else the empty slot that ends its probe
    /// chain. The array must be allocated.
    #[inline]
    fn probe(&self, key: u32) -> Result<usize, usize> {
        let mut i = self.home(key);
        loop {
            match self.slots[i].key {
                k if k == key => return Ok(i),
                NONE => return Err(i),
                _ => i = self.next(i),
            }
        }
    }

    fn find(&self, key: u32) -> Option<usize> {
        if self.slots.is_empty() {
            None
        } else {
            self.probe(key).ok()
        }
    }

    fn get(&self, key: u32) -> Option<u64> {
        self.find(key).map(|i| self.slots[i].seq)
    }

    /// The slot of `key` and the sequence it held, or, when `key` had no
    /// entry, the slot it was inserted into with `seq`, and `None`.
    fn entry(&mut self, key: u32, seq: u64) -> (usize, Option<u64>) {
        if let Some(i) = self.find(key) {
            return (i, Some(self.slots[i].seq));
        }
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.probe(key).expect_err("key is absent");
        self.slots[i] = Slot { key, seq };
        self.len += 1;
        (i, None)
    }

    /// Store `seq` in the occupied slot `i`.
    fn set(&mut self, i: usize, seq: u64) {
        self.slots[i].seq = seq;
    }

    fn grow(&mut self) {
        let cap = (self.slots.len() * 3 / 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        for s in old.into_iter().filter(|s| s.key != NONE) {
            let i = self.probe(s.key).expect_err("keys are distinct");
            self.slots[i] = s;
        }
    }

    /// Remove `key`; returns its sequence.
    fn remove(&mut self, key: u32) -> Option<u64> {
        let i = self.find(key)?;
        let seq = self.slots[i].seq;
        self.remove_at(i);
        Some(seq)
    }

    /// Empty slot `hole`, shifting the later members of its probe chain
    /// back so that every key stays reachable from its home slot.
    fn remove_at(&mut self, mut hole: usize) {
        let mut j = hole;
        loop {
            j = self.next(j);
            let s = self.slots[j];
            if s.key == NONE {
                break;
            }
            // `s` may move into the hole when the hole lies on its probe
            // path: cyclically in `[home, j)`.
            if self.distance(self.home(s.key), j) >= self.distance(hole, j) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Remove every entry whose sequence fails `keep`; returns how many.
    fn retain(&mut self, keep: impl Fn(u64) -> bool) -> usize {
        let before = self.len;
        let mut i = 0;
        while i < self.slots.len() {
            let s = self.slots[i];
            if s.key != NONE && !keep(s.seq) {
                // The shift may move a later entry into slot `i`: look again.
                // Entries shifted in from before `i` (across the wrap) were
                // already kept.
                self.remove_at(i);
            } else {
                i += 1;
            }
        }
        before - self.len
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
    fn log_holds_only_the_refreshes_of_the_last_ttl() {
        let mut m = MembershipTable::new(TTL);
        let mut refreshed_at = Vec::new();
        let mut now = SimTime::ZERO;
        // Ten HELPs a second from 300 organizers, with leaves and purges.
        for step in 0..20_000usize {
            now = SimTime::from_secs(step as u64 / 10);
            m.refresh(step * 7919 % 300 + 1_000_000, now);
            refreshed_at.push(now);
            if step % 97 == 0 {
                m.leave(step * 31 % 300 + 1_000_000);
            }
            if step % 1000 == 0 {
                m.purge_expired(now);
            }
        }
        let within_ttl = refreshed_at
            .iter()
            .filter(|&&t| now.since(t) <= TTL)
            .count();
        assert!(m.len <= within_ttl, "{} records", m.len);
        assert!(m.blocks.len() <= m.len.div_ceil(BLOCK as usize) + 1);
        assert_eq!(m.index.len, (m.live + m.lapsed) as usize);
        assert!(m.index.slots.len() <= 512, "{} slots", m.index.slots.len());
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
    }
}
