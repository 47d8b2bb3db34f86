//! A map keyed by [`NodeId`], backed by a dense `Vec` of slots.
//!
//! The protocol hot path touches per-node tables once per *delivered
//! message* (pledge reports, and the pledges an organizer counts). Node ids are small dense integers — a simulation with
//! `n` nodes uses ids `0..n` — so a `BTreeMap<NodeId, T>` pays a pointer
//! chase per lookup for no benefit. [`IdMap`] makes every lookup a bounds
//! check and an index, and iterates **in id order**, which is the property
//! the protocol contracts actually depend on (sweep verdicts and membership
//! listings are specified to be id-ordered). Swapping a `BTreeMap` for an
//! `IdMap` is therefore behaviour-preserving wherever the key space is node
//! ids.
//!
//! Memory is the slot array and nothing else: a slot stores its value
//! directly, and one reserved value per type ([`Vacancy::VACANT`]) marks an
//! empty slot, so a slot costs `size_of::<T>()` — 8 B for a timestamp — not
//! the 16 B of an `Option`. A full table costs N slots at N nodes, so an
//! `IdMap` suits only the tables whose key sets are dense on real traffic:
//! an organizer's pledge store and own community, which nearly every peer
//! writes to. A node's community memberships follow the communities it is
//! in and use a sparse index instead; see DESIGN.md A17 for the budget.
//! The slot array is sized once, on the first insert, to the capacity the
//! map was made with (the world's node count), and grows exactly — never
//! by doubling — only for an id beyond it.

use crate::topology::NodeId;
use realtor_simcore::SimTime;

/// A value type an [`IdMap`] stores in place: one value of the type is
/// reserved to mark an empty slot and is never stored as an entry.
pub trait Vacancy: Sized {
    /// The marker of an empty slot. [`IdMap::insert`] panics on it.
    const VACANT: Self;

    /// True when `self` is the vacant marker.
    fn is_vacant(&self) -> bool;
}

/// A receive or refresh time is never [`SimTime::MAX`], the end of time.
impl Vacancy for SimTime {
    const VACANT: SimTime = SimTime::MAX;

    #[inline]
    fn is_vacant(&self) -> bool {
        *self == SimTime::MAX
    }
}

/// A dense map from [`NodeId`] to `T`. Lookups are O(1); iteration is in
/// id order; memory is one `T` per id up to the larger of the capacity it
/// was made with and the highest id ever inserted.
#[derive(Debug, Clone)]
pub struct IdMap<T> {
    slots: Vec<T>,
    len: usize,
    /// Slots allocated by the first insert (0: as many as its id needs).
    id_capacity: usize,
}

impl<T: Vacancy> Default for IdMap<T> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<T: Vacancy> IdMap<T> {
    /// An empty map that grows exactly to the highest id inserted.
    pub fn new() -> Self {
        IdMap::with_id_capacity(0)
    }

    /// An empty map that allocates slots for ids `0..n` on its first
    /// insert, so inserts in any order never reallocate below `n`. Nothing
    /// is allocated until then: a table that stays empty costs nothing.
    pub fn with_id_capacity(n: usize) -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
            id_capacity: n,
        }
    }

    /// Number of entries present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `id`, if present.
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        self.slots.get(id).filter(|v| !v.is_vacant())
    }

    /// Mutable access to the value for `id`, if present. The caller must
    /// not overwrite it with the vacant marker.
    #[inline]
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut T> {
        self.slots.get_mut(id).filter(|v| !v.is_vacant())
    }

    /// True when `id` has an entry.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Make the slot for `id` exist: the first allocation covers
    /// `id_capacity` slots, later ones exactly `id + 1`.
    #[inline]
    fn grow_to(&mut self, id: NodeId) {
        if id >= self.slots.len() {
            let target = if self.slots.is_empty() {
                self.id_capacity.max(id + 1)
            } else {
                id + 1
            };
            self.slots.reserve_exact(target - self.slots.len());
            self.slots.resize_with(target, || T::VACANT);
        }
    }

    /// Insert or replace the value for `id`; returns the previous value.
    ///
    /// # Panics
    /// If `value` is the vacant marker.
    #[inline]
    pub fn insert(&mut self, id: NodeId, value: T) -> Option<T> {
        assert!(!value.is_vacant(), "IdMap cannot store the vacant marker");
        self.grow_to(id);
        let old = std::mem::replace(&mut self.slots[id], value);
        if old.is_vacant() {
            self.len += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Remove and return the value for `id`.
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> Option<T> {
        let slot = self.slots.get_mut(id).filter(|v| !v.is_vacant())?;
        self.len -= 1;
        Some(std::mem::replace(slot, T::VACANT))
    }

    /// Mutable access to the slot for `id`, allocating it if needed. The
    /// caller may fill an empty slot through the returned handle;
    /// [`SlotMut::insert`] keeps the length accurate.
    #[inline]
    pub fn slot_mut(&mut self, id: NodeId) -> SlotMut<'_, T> {
        self.grow_to(id);
        SlotMut {
            slot: &mut self.slots[id],
            len: &mut self.len,
        }
    }

    /// Iterate present entries in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_vacant())
    }

    /// Iterate present entries mutably, in id order. The caller must not
    /// overwrite a value with the vacant marker.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut T)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter(|(_, v)| !v.is_vacant())
    }

    /// Iterate present values in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.slots.iter().filter(|v| !v.is_vacant())
    }

    /// Drop every entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.slots.fill_with(|| T::VACANT);
        self.len = 0;
    }
}

/// A slot handle returned by [`IdMap::slot_mut`]: lets a caller do the
/// check-then-update-or-insert dance of a hot-path upsert with a single
/// bounds check, while keeping the map's length accurate.
pub struct SlotMut<'a, T> {
    slot: &'a mut T,
    len: &'a mut usize,
}

impl<'a, T: Vacancy> SlotMut<'a, T> {
    /// The current value in the slot, if any. The caller must not
    /// overwrite it with the vacant marker.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut T> {
        if self.slot.is_vacant() {
            None
        } else {
            Some(&mut *self.slot)
        }
    }

    /// Fill the slot (replacing any previous value).
    ///
    /// # Panics
    /// If `value` is the vacant marker.
    #[inline]
    pub fn insert(self, value: T) {
        assert!(!value.is_vacant(), "IdMap cannot store the vacant marker");
        if std::mem::replace(self.slot, value).is_vacant() {
            *self.len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn a_time_slot_is_8_bytes() {
        // Every node keeps N of these: a wider slot widens N² of them.
        let mut m = IdMap::new();
        m.insert(0, t(1));
        assert_eq!(std::mem::size_of_val(&m.slots[0]), 8);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = IdMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(3, t(1)), None);
        assert_eq!(m.insert(3, t(2)), Some(t(1)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(3), Some(&t(2)));
        assert_eq!(m.get(0), None);
        assert_eq!(m.remove(3), Some(t(2)));
        assert_eq!(m.remove(3), None);
        assert!(m.is_empty());
    }

    #[test]
    fn zero_is_a_value_not_a_vacancy() {
        let mut m = IdMap::new();
        m.insert(0, SimTime::ZERO);
        assert_eq!(m.get(0), Some(&SimTime::ZERO));
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "vacant marker")]
    fn inserting_the_vacant_marker_panics() {
        IdMap::new().insert(2, SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "vacant marker")]
    fn filling_a_slot_with_the_vacant_marker_panics() {
        IdMap::new().slot_mut(2).insert(SimTime::MAX);
    }

    #[test]
    fn iteration_is_id_ordered_regardless_of_insert_order() {
        let mut m = IdMap::new();
        m.insert(9, t(90));
        m.insert(2, t(20));
        m.insert(5, t(50));
        let ids: Vec<NodeId> = m.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
        let vals: Vec<SimTime> = m.values().copied().collect();
        assert_eq!(vals, vec![t(20), t(50), t(90)]);
        for (_, v) in m.iter_mut() {
            *v = v.saturating_add(realtor_simcore::SimDuration::from_secs(1));
        }
        assert_eq!(m.get(9), Some(&t(91)));
    }

    #[test]
    fn clear_empties_the_map() {
        let mut m = IdMap::new();
        for id in 0..10 {
            m.insert(id, t(id as u64));
        }
        assert_eq!(m.len(), 10);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn slot_mut_upsert_tracks_len() {
        let mut m = IdMap::new();
        let mut s = m.slot_mut(7);
        assert!(s.get_mut().is_none());
        s.insert(t(1));
        assert_eq!(m.len(), 1);
        let mut s = m.slot_mut(7);
        *s.get_mut().unwrap() = t(2);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(7), Some(&t(2)));
    }

    #[test]
    fn out_of_range_reads_are_none() {
        let mut m: IdMap<SimTime> = IdMap::new();
        assert_eq!(m.get(100), None);
        assert!(!m.contains(100));
        assert_eq!(m.remove(100), None);
        assert_eq!(m.get_mut(100), None);
    }

    #[test]
    fn first_insert_sizes_to_the_capacity_then_growth_is_exact() {
        let mut m = IdMap::with_id_capacity(10);
        assert_eq!(m.slots.capacity(), 0, "nothing allocated before an insert");
        m.insert(3, t(1));
        assert_eq!((m.slots.len(), m.slots.capacity()), (10, 10));
        m.insert(9, t(1));
        assert_eq!(m.slots.capacity(), 10, "no reallocation below the capacity");
        m.insert(12, t(1));
        assert_eq!((m.slots.len(), m.slots.capacity()), (13, 13));

        let mut exact = IdMap::new();
        exact.insert(4, t(1));
        assert_eq!(exact.slots.capacity(), 5);
        exact.insert(6, t(1));
        assert_eq!(exact.slots.capacity(), 7, "no doubling");
    }
}
