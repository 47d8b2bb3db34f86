//! Hashed timer wheel — the banded middle rung of the ladder event queue.
//!
//! A [`TimerWheel`] hashes entries into `BUCKETS` time bands of width
//! `2^width_log2` ticks each, covering the half-open window
//! `[base, base + BUCKETS << width_log2)`. Scheduling into the window is
//! O(1): compute the band index, push onto that band's vector. Draining is
//! banded: [`TimerWheel::pop_band_swap`] removes the next non-empty band
//! *whole*, so the thousands of near-identical protocol timer expiries the
//! REALTOR stack arms (TTL refreshes, Algorithm-H interval ticks,
//! failure-detector sweeps) come back as one batch instead of one heap pop
//! each — the classic hashed-timing-wheel trade (Varghese & Lauck) applied
//! to a DES future-event list.
//!
//! Entries inside a band are **unordered**; the caller (the ladder queue in
//! [`crate::event`]) establishes the exact deterministic `(time, seq)`
//! order when it distills a band into its sorted head run. The wheel only
//! guarantees the banded invariant: every entry in band `i` activates
//! strictly before every entry in band `j > i`.
//!
//! The window is re-anchored with [`TimerWheel::rebase`] when it drains:
//! the ladder queue picks a fresh `base`/`width_log2` from the overflow
//! rung's span so the wheel always covers the *currently pending* horizon,
//! which is what makes scheduling near-O(1) regardless of how far apart
//! event times are spread.
//!
//! An empty band vector keeps at most [`RETAIN_CAP`] entries of capacity.
//! Band vectors rotate allocations with the ladder queue's head run and
//! scratch buffer, so without the cap one burst's allocation would end up
//! parked in a band slot for good, and a long run would retain its largest
//! bursts in every slot of every rung.

use crate::time::SimTime;

/// Number of bands per wheel window (power of two; index = offset >> width).
pub const BUCKETS: usize = 256;

/// Most capacity, in entries, an empty band vector (or the ladder queue's
/// empty scratch and overflow vectors) keeps. Bands up to this size recycle
/// their allocations and allocate nothing in steady state; a larger band's
/// allocation is swapped for a `RETAIN_CAP`-entry one once it has drained.
pub const RETAIN_CAP: usize = 64;

/// Swap an empty vector holding more than [`RETAIN_CAP`] entries of
/// capacity for a fresh one of exactly `RETAIN_CAP`.
///
/// The old block is freed whole, then the fresh one allocated. Shrinking
/// in place kept more memory resident, and allocating before freeing made
/// the next simulation's set-up fault pages back in (DESIGN.md, A17). The
/// vector is not left unallocated either: it rotates into a band, and a
/// band of up to `RETAIN_CAP` entries must fill it without growing.
#[inline]
pub(crate) fn release_excess<T>(v: &mut Vec<T>) {
    debug_assert!(v.is_empty(), "only drained vectors give capacity back");
    if v.capacity() > RETAIN_CAP {
        drop(std::mem::take(v));
        v.reserve_exact(RETAIN_CAP);
    }
}

/// One wheel entry: an activation key plus an opaque payload.
///
/// `seq` is the queue-global FIFO tie-break counter; the wheel stores it so
/// a distilled band can be ordered exactly without touching the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelEntry<T> {
    /// Activation instant.
    pub time: SimTime,
    /// FIFO tie-break sequence number (unique per queue).
    pub seq: u64,
    /// Payload (the ladder queue stores the event itself here).
    pub item: T,
}

impl<T> WheelEntry<T> {
    /// The total-order key: earliest time first, FIFO within an instant.
    #[inline]
    pub fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A hashed timer wheel over [`BUCKETS`] bands of `2^width_log2` ticks.
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    bands: Vec<Vec<WheelEntry<T>>>,
    /// First tick of band 0.
    base: u64,
    /// log2 of the band width in ticks.
    width_log2: u32,
    /// First tick past the window (saturated; band indexing is the
    /// authoritative bounds check).
    end: u64,
    /// Next band [`TimerWheel::pop_band_swap`] will consider.
    cursor: usize,
    /// Entries currently stored across all bands.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with a degenerate (zero-width) window: every insert
    /// misses until the first [`TimerWheel::rebase`].
    pub fn new() -> Self {
        TimerWheel {
            bands: (0..BUCKETS).map(|_| Vec::new()).collect(),
            base: 0,
            width_log2: 0,
            end: 0,
            cursor: BUCKETS,
            len: 0,
        }
    }

    /// Entries currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// First tick of the window (band 0's start).
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// First tick past the window (saturated at `u64::MAX`).
    #[inline]
    pub fn window_end(&self) -> u64 {
        self.end
    }

    /// True when no entry is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The band width that makes the window `BUCKETS << width_log2` cover
    /// `span + 1` ticks (the whole overflow rung on a rebase), as a log2.
    pub fn width_log2_for(span: u64) -> u32 {
        let need = span >> BUCKETS.trailing_zeros();
        u64::BITS - need.leading_zeros()
    }

    /// Re-anchor the (empty) window at `base` with bands of
    /// `2^width_log2` ticks and reset the drain cursor to band 0.
    pub fn rebase(&mut self, base: SimTime, width_log2: u32) {
        debug_assert_eq!(self.len, 0, "rebase requires an empty wheel");
        self.base = base.ticks();
        self.width_log2 = width_log2;
        let window = (BUCKETS as u128) << width_log2;
        self.end = u128::from(self.base)
            .saturating_add(window)
            .min(u128::from(u64::MAX)) as u64;
        self.cursor = 0;
    }

    /// Insert an entry if its time falls inside the *unswept* part of the
    /// window; hand it back otherwise (the caller escalates it to another
    /// rung). Entries at or past the cursor's band are accepted; entries in
    /// already-swept bands are refused so a band is never mutated after it
    /// was distilled.
    #[inline]
    pub fn insert(&mut self, entry: WheelEntry<T>) -> Result<(), WheelEntry<T>> {
        let t = entry.time.ticks();
        let Some(offset) = t.checked_sub(self.base) else {
            return Err(entry);
        };
        let idx = (offset >> self.width_log2) as usize;
        if idx >= BUCKETS || idx < self.cursor {
            return Err(entry);
        }
        self.bands[idx].push(entry);
        self.len += 1;
        Ok(())
    }

    /// First tick strictly past band `idx`'s span (saturated).
    #[inline]
    fn band_end(&self, idx: usize) -> u64 {
        let span = ((idx as u128) + 1) << self.width_log2;
        u128::from(self.base)
            .saturating_add(span)
            .min(u128::from(u64::MAX)) as u64
    }

    /// Drain the next non-empty band whole by **swapping** vectors: `out`
    /// (which must be empty) receives the band's entries, unordered, and the
    /// band keeps `out`'s old allocation for the next window. Returns the
    /// first tick past the band (every drained entry activates before it)
    /// and advances the cursor past the band; `None` when the wheel is
    /// empty. This is the ladder queue's zero-copy distill path: the head
    /// run, scratch buffer and band vectors rotate allocations between
    /// them, and the queue caps `out` at [`RETAIN_CAP`] before it can
    /// rotate back into a band.
    pub fn pop_band_swap(&mut self, out: &mut Vec<WheelEntry<T>>) -> Option<SimTime> {
        debug_assert!(out.is_empty(), "swap target must be empty");
        if self.len == 0 {
            return None;
        }
        while self.cursor < BUCKETS {
            if self.bands[self.cursor].is_empty() {
                self.cursor += 1;
                continue;
            }
            let band = &mut self.bands[self.cursor];
            self.len -= band.len();
            std::mem::swap(band, out);
            let end = self.band_end(self.cursor);
            self.cursor += 1;
            return Some(SimTime::from_ticks(end));
        }
        unreachable!("len > 0 but every band was empty");
    }

    /// Earliest activation time stored, scanning from the cursor (read-only
    /// peek; O(BUCKETS + band occupancy)).
    pub fn peek_min_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        self.bands[self.cursor..]
            .iter()
            .find(|b| !b.is_empty())
            .map(|b| b.iter().map(|e| e.time).min().expect("band is non-empty"))
    }

    /// Drop every entry, capping each emptied band at [`RETAIN_CAP`]; the
    /// window stays where it was. O(1) when the wheel is already empty (the
    /// common case: retiring a drained rung), since empty bands are never
    /// above the cap.
    pub fn clear(&mut self) {
        if self.len != 0 {
            for b in &mut self.bands {
                b.clear();
                release_excess(b);
            }
            self.len = 0;
        }
        self.cursor = BUCKETS;
    }

    /// Entries allocated across all band vectors.
    pub(crate) fn retained_capacity(&self) -> usize {
        self.bands.iter().map(Vec::capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(t: u64, seq: u64) -> WheelEntry<u32> {
        WheelEntry {
            time: SimTime::from_ticks(t),
            seq,
            item: seq as u32,
        }
    }

    /// Drain the next band into a fresh vector.
    fn pop(w: &mut TimerWheel<u32>) -> Option<(SimTime, Vec<WheelEntry<u32>>)> {
        let mut out = Vec::new();
        w.pop_band_swap(&mut out).map(|end| (end, out))
    }

    #[test]
    fn bands_partition_the_window() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::from_ticks(1_000), 4); // bands of 16 ticks
        assert!(w.insert(e(1_000, 0)).is_ok()); // band 0
        assert!(w.insert(e(1_015, 1)).is_ok()); // band 0
        assert!(w.insert(e(1_016, 2)).is_ok()); // band 1
        assert!(w.insert(e(999, 3)).is_err()); // below base
        assert!(w.insert(e(1_000 + 256 * 16, 4)).is_err()); // past window
        assert_eq!(w.len(), 3);

        let (end0, band0) = pop(&mut w).unwrap();
        assert_eq!(end0, SimTime::from_ticks(1_016));
        assert_eq!(band0.len(), 2, "same-band timers batch-fire together");
        let (end1, band1) = pop(&mut w).unwrap();
        assert_eq!(end1, SimTime::from_ticks(1_032));
        assert_eq!(band1.len(), 1);
        assert!(pop(&mut w).is_none());
    }

    #[test]
    fn swept_bands_refuse_inserts() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::from_ticks(0), 4);
        assert!(w.insert(e(0, 0)).is_ok());
        assert!(w.insert(e(40, 1)).is_ok());
        let _ = pop(&mut w).unwrap(); // sweeps band 0
        assert!(w.insert(e(5, 2)).is_err(), "band 0 already swept");
        assert!(w.insert(e(41, 3)).is_ok(), "band 2 still live");
    }

    #[test]
    fn width_covers_the_span() {
        for span in [0, 1, 255, 256, 257, 1 << 20, u64::MAX / 2, u64::MAX] {
            let wlog = TimerWheel::<u32>::width_log2_for(span);
            let window = (BUCKETS as u128) << wlog;
            assert!(
                window > u128::from(span),
                "span {span}: window {window} must exceed it"
            );
        }
    }

    #[test]
    fn rebase_near_max_saturates_safely() {
        let mut w = TimerWheel::new();
        let base = u64::MAX - 100;
        w.rebase(SimTime::from_ticks(base), 60);
        assert!(w.insert(e(u64::MAX, 0)).is_ok());
        assert!(w.insert(e(base, 1)).is_ok());
        let (_, band) = pop(&mut w).unwrap();
        assert_eq!(band.len(), 2);
    }

    #[test]
    fn same_instant_burst_lands_in_one_band() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::ZERO, 10);
        for seq in 0..1_000 {
            assert!(w.insert(e(512, seq)).is_ok());
        }
        let (_, band) = pop(&mut w).unwrap();
        assert_eq!(band.len(), 1_000, "one pop drains the whole burst");
        assert!(w.is_empty());
    }

    #[test]
    fn peek_min_matches_contents() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::ZERO, 4);
        assert_eq!(w.peek_min_time(), None);
        assert!(w.insert(e(100, 0)).is_ok());
        assert!(w.insert(e(37, 1)).is_ok());
        assert!(w.insert(e(38, 2)).is_ok());
        assert_eq!(w.peek_min_time(), Some(SimTime::from_ticks(37)));
    }

    #[test]
    fn clear_empties_without_rebase() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::ZERO, 4);
        assert!(w.insert(e(10, 0)).is_ok());
        w.clear();
        assert!(w.is_empty());
        assert!(pop(&mut w).is_none());
    }

    #[test]
    fn swap_parks_the_callers_allocation_in_the_band() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::ZERO, 4);
        for seq in 0..1_000 {
            assert!(w.insert(e(3, seq)).is_ok());
        }
        let mut out = Vec::with_capacity(8);
        assert_eq!(w.pop_band_swap(&mut out), Some(SimTime::from_ticks(16)));
        assert_eq!(out.len(), 1_000);
        assert_eq!(w.retained_capacity(), 8, "the band holds out's old vector");
    }

    #[test]
    fn clear_caps_oversized_bands() {
        let mut w = TimerWheel::new();
        w.rebase(SimTime::ZERO, 4);
        for seq in 0..1_000 {
            assert!(w.insert(e(3 + 16 * (seq % 2), seq)).is_ok());
        }
        assert!(w.retained_capacity() >= 1_000);
        w.clear();
        assert_eq!(
            w.retained_capacity(),
            2 * RETAIN_CAP,
            "both 500-entry bands capped"
        );
    }
}
