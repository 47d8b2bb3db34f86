//! The pending-event set of the discrete-event engine.
//!
//! Since A17 the future-event list is a **ladder queue**: a stack of
//! timer-wheel rungs plus a sorted head run, a late run and an overflow
//! rung, giving near-O(1) scheduling and popping while reproducing the
//! `(time, seq)` FIFO order of the original binary heap bit-exactly
//! (`seq` is a monotonically increasing insertion counter that breaks
//! ties between events scheduled for the same instant):
//!
//! 1. **Head run** — the band currently being drained, sorted descending
//!    once at distillation so every pop is a `Vec::pop` off the back:
//!    O(1), no per-pop heap sift. Its length is one band's occupancy
//!    (typically tens of events), not the whole queue. Nothing is ever
//!    inserted into it after the sort.
//! 2. **Late run** — a binary min-heap on the same `(time, seq)` key for
//!    events scheduled *below* the sweep frontier, i.e. into the band
//!    being drained (a lossy flood's per-recipient copies and their
//!    replies). Every late event precedes everything still in the rungs,
//!    so a pop takes the earlier of the two runs' fronts and distills the
//!    next band only once both are empty. A same-instant burst of `n`
//!    copies costs O(n log n) here, where splicing each copy into the
//!    sorted head run shifted every copy queued before it: O(n²).
//! 3. **Rung stack** — hashed timer wheels ([`crate::wheel::TimerWheel`])
//!    of 256 time bands each. The outermost rung covers the whole pending
//!    horizon; when a distilled band is oversized (more than
//!    `SPAWN_THRESHOLD` entries spanning multiple instants) a fresh rung
//!    is pushed that subdivides just that band with 256× finer bands,
//!    recursively, until bands are small enough to sort. This is what
//!    keeps far-future outliers from degrading near-term resolution: the
//!    thousands of near-identical protocol timers (TTL refresh,
//!    Algorithm-H ticks, detector sweeps) batch-fire per fine band while
//!    outliers sit untouched in coarse outer bands. Drained rungs retire
//!    to a spare pool and are reused, so spawning a rung allocates only
//!    when the ladder is deeper than it has ever been.
//! 4. **Overflow rung** — events past the outermost window wait in an
//!    unsorted vector. When the whole rung stack has drained, the
//!    outermost rung is re-anchored over the overflow's exact span and
//!    the rung is redistributed — each event is touched O(1) amortized
//!    times on its way to the head.
//!
//! Event payloads travel **inline** in the wheel entries: a schedule is
//! one sequential append into a band vector, a distillation *swaps* the
//! band's vector with the (empty) head run — zero copies — and a pop
//! hands the payload straight off the back of the run. Every touch is a
//! sequential append, an in-L1 sort, or a pop from a hot vector tail, and
//! no random-access read. (Earlier variants — a payload slab indexed by
//! 24-byte entries, and a binary-heap head — each paid for it: the slab
//! with a cache miss per pop on deep queues, the heap with an O(log band)
//! sift per pop. This layout measured fastest.)
//!
//! **Retained memory follows pending events.** The swaps rotate
//! allocations between the head run, the scratch buffer and the band
//! vectors. An empty vector that would rotate back into a band — the
//! scratch buffer after a distill or a rung spawn — is therefore swapped
//! for a fresh [`RETAIN_CAP`](crate::wheel::RETAIN_CAP)-entry vector if it
//! holds more; so are the overflow after a rebase, the late run once it
//! drains and every vector on `clear`. Bands up to that size recycle
//! their allocations, so while bands stay that small the queue allocates
//! nothing; a larger band gives its block back once it drains and grows a
//! new one when it fills again.
//! Without the cap a burst's allocation is parked in whichever band
//! drains next, and a long run keeps its largest bursts in every band of
//! every rung. [`EventQueue::retained_capacity`] reports the total.
//!
//! Determinism is the hard constraint, not a nicety: [`HeapQueue`] — the
//! original `BinaryHeap` implementation — is retained as the reference
//! oracle, and `tests/queue_oracle.rs` property-tests that both queues
//! produce identical pop streams and accounting over random interleaved
//! schedule/pop/peek/clear sequences.

use crate::time::SimTime;
use crate::wheel::{release_excess, TimerWheel, WheelEntry};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// An event together with its scheduled activation time.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The total order of a wheel entry packed into one integer: time-major,
/// `seq` minor. A single u128 compare keeps the per-band sort branch-cheap.
#[inline]
fn pack_key<T>(e: &WheelEntry<T>) -> u128 {
    (u128::from(e.time.ticks()) << 64) | u128::from(e.seq)
}

/// A late-run entry, ordered by the packed key reversed: the binary heap
/// pops its greatest element, so the earliest `(time, seq)` must compare
/// greatest. (`Scheduled`'s two-field compare orders the same way, but the
/// late run sifted ~20 % slower with it on `churn_recovery`'s replayed
/// schedule/pop stream.)
#[derive(Debug, Clone)]
struct Late<E>(WheelEntry<E>);

impl<E> Late<E> {
    #[inline]
    fn key(&self) -> Reverse<u128> {
        Reverse(pack_key(&self.0))
    }
}

impl<E> PartialEq for Late<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Late<E> {}

impl<E> PartialOrd for Late<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Late<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic future-event list (ladder queue; see the module docs).
///
/// ```
/// use realtor_simcore::event::EventQueue;
/// use realtor_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The band currently being drained, sorted **descending** by
    /// `(time, seq)` so a pop is `Vec::pop` off the back — O(1), no heap
    /// sift. Sorted once per distilled band and only popped after that.
    head: Vec<WheelEntry<E>>,
    /// Events scheduled below the sweep frontier (or below a freshly
    /// spawned rung's base): a min-heap on the same `(time, seq)` key.
    /// Each one precedes everything in the rungs and the overflow. Once
    /// drained it keeps at most `RETAIN_CAP` entries of capacity.
    late: BinaryHeap<Late<E>>,
    /// Sweep frontier: every pending event with `time < bar` is in `head`
    /// or `late`. Monotone over a queue's lifetime (reset only by `clear`).
    bar: SimTime,
    /// The rung stack, outermost first: each inner rung subdivides one
    /// band of its parent with 256× finer bands (spawned lazily when an
    /// oversized band is distilled). `rungs[i].limit` bounds the times the
    /// rung may hold; limits are non-increasing along the stack.
    rungs: Vec<Rung<E>>,
    /// Retired rungs kept for reuse. Their wheels are empty, so each of
    /// their 256 band vectors holds at most `RETAIN_CAP` entries of
    /// capacity.
    spare: Vec<Rung<E>>,
    /// Scratch buffer for band distillation. Its allocation rotates with
    /// the head run and the wheel bands via swaps, so distilling copies
    /// nothing. Whenever it is left empty it is capped at `RETAIN_CAP`
    /// entries, so no burst's allocation rotates back into a band.
    band_buf: Vec<WheelEntry<E>>,
    /// Far-future overflow (unsorted) past the outermost rung's window.
    overflow: Vec<WheelEntry<E>>,
    /// Tick bounds of the overflow rung (`u64::MAX`/`0` when empty).
    overflow_min: u64,
    overflow_max: u64,
    len: usize,
    next_seq: u64,
    high_water: usize,
}

/// One ladder rung: a hashed timer wheel plus the first tick it must NOT
/// hold (`limit` = the end of the parent band it subdivides; `u64::MAX`
/// for the outermost rung).
#[derive(Debug, Clone)]
struct Rung<E> {
    wheel: TimerWheel<E>,
    limit: u64,
}

/// Distilled bands larger than this spawn an inner rung instead of being
/// sorted into the head run. Below it, one `O(b log b)` in-cache sort is
/// cheaper than re-bucketing plus the fixed cost of walking the finer
/// wheel's sparse bands.
const SPAWN_THRESHOLD: usize = 512;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            head: Vec::new(),
            late: BinaryHeap::new(),
            bar: SimTime::ZERO,
            rungs: Vec::new(),
            spare: Vec::new(),
            band_buf: Vec::new(),
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            overflow_max: 0,
            len: 0,
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Create an empty queue sized for roughly `cap` pending events: the
    /// head run reserves up to 4096 entries for the first band, the
    /// distillation scratch up to `RETAIN_CAP`. Band vectors grow on first
    /// use and keep at most `RETAIN_CAP` entries once drained.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.head.reserve(cap.min(1 << 12));
        q.band_buf.reserve(cap.min(crate::wheel::RETAIN_CAP));
        q
    }

    /// Schedule `event` to fire at absolute time `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled (FIFO tie-breaking).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.route(WheelEntry {
            time,
            seq,
            item: event,
        });
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    /// Place `entry` on the rung that owns its time range.
    ///
    /// Ordering argument: times `< bar` join the late run, which pops
    /// them against the band being drained. Otherwise the innermost rung
    /// whose `limit` exceeds the time takes it — by the stack invariant
    /// that rung's unswept bands cover exactly `[bar-ish, limit)`, so the
    /// band hash is exact. A time under the rung's base (possible right
    /// after a spawn, before the bar caught up) joins the late run too: it
    /// precedes everything the rung holds. Past the outermost window ⇒
    /// overflow.
    #[inline]
    fn route(&mut self, entry: WheelEntry<E>) {
        if entry.time < self.bar {
            self.late.push(Late(entry));
            return;
        }
        let t = entry.time.ticks();
        let mut entry = entry;
        for rung in self.rungs.iter_mut().rev() {
            if t < rung.limit {
                match rung.wheel.insert(entry) {
                    Ok(()) => return,
                    Err(rejected) => {
                        entry = rejected;
                        if t >= rung.wheel.window_end() {
                            // Past the outermost window: escalate to the
                            // overflow rung (inner rungs never hit this —
                            // their limit is inside their window).
                            break;
                        }
                        // Below the rung's base (the gap between the
                        // parent band's start and the spawned child's
                        // first entry): earlier than everything any rung
                        // holds, so the late run orders it correctly
                        // against the band being drained.
                        self.late.push(Late(entry));
                        return;
                    }
                }
            }
        }
        self.overflow_min = self.overflow_min.min(t);
        self.overflow_max = self.overflow_max.max(t);
        self.overflow.push(entry);
    }

    /// Make the head run non-empty if any rung or the overflow holds an
    /// event (the late run is not consulted): distill the innermost rung's
    /// next band (spawning a finer rung when the band is oversized),
    /// retiring drained rungs, and re-anchoring the outermost rung over the
    /// overflow's span when the whole ladder has drained.
    fn ensure_head(&mut self) {
        while self.head.is_empty() {
            let Some(rung) = self.rungs.last_mut() else {
                if !self.rebase_from_overflow() {
                    return; // queue is empty
                }
                continue;
            };
            if rung.wheel.is_empty() {
                // Retire the drained rung (outermost included: it is
                // recreated over the overflow span if anything is left).
                let mut retired = self.rungs.pop().expect("just peeked");
                retired.wheel.clear();
                self.spare.push(retired);
                continue;
            }
            debug_assert!(self.band_buf.is_empty());
            let band_end = rung
                .wheel
                .pop_band_swap(&mut self.band_buf)
                .expect("non-empty wheel");
            // Entries never exceed the rung's limit (enforced at routing),
            // so the sweep frontier is the tighter of the two bounds.
            let end = band_end.ticks().min(rung.limit);
            let band = &mut self.band_buf;
            let first_time = band.first().expect("bands are non-empty").time;
            let single_instant = band.iter().all(|e| e.time == first_time);
            if band.len() > SPAWN_THRESHOLD && !single_instant {
                // Oversized multi-instant band: subdivide with a fresh
                // rung over exactly this band's span (256× finer bands),
                // each entry re-bucketed in O(1).
                let min_t = band
                    .iter()
                    .map(|e| e.time.ticks())
                    .min()
                    .expect("non-empty band");
                let span = end.saturating_sub(1).saturating_sub(min_t);
                let mut inner = self.spare.pop().unwrap_or_else(|| Rung {
                    wheel: TimerWheel::new(),
                    limit: 0,
                });
                inner.limit = end;
                inner.wheel.rebase(
                    SimTime::from_ticks(min_t),
                    TimerWheel::<E>::width_log2_for(span),
                );
                for e in band.drain(..) {
                    inner
                        .wheel
                        .insert(e)
                        .ok()
                        .expect("spawned window covers its band");
                }
                release_excess(band);
                self.rungs.push(inner);
            } else {
                self.bar = SimTime::from_ticks(end);
                // Zero-copy distill: the band's vector *becomes* the head
                // run (the head's drained allocation rotates back to the
                // wheel on the next distill). One sort per band buys O(1)
                // pops off the back.
                std::mem::swap(&mut self.head, band);
                self.head.sort_unstable_by_key(|e| Reverse(pack_key(e)));
                release_excess(&mut self.band_buf);
            }
        }
    }

    /// Build a fresh outermost rung covering the overflow's exact span and
    /// redistribute the overflow into it. Returns false when there was
    /// nothing to move (the queue is fully drained).
    fn rebase_from_overflow(&mut self) -> bool {
        if self.overflow.is_empty() {
            return false;
        }
        debug_assert!(self.rungs.is_empty());
        let base = SimTime::from_ticks(self.overflow_min);
        let span = self.overflow_max - self.overflow_min;
        let mut outer = self.spare.pop().unwrap_or_else(|| Rung {
            wheel: TimerWheel::new(),
            limit: 0,
        });
        outer.limit = u64::MAX;
        outer
            .wheel
            .rebase(base, TimerWheel::<E>::width_log2_for(span));
        for e in self.overflow.drain(..) {
            outer
                .wheel
                .insert(e)
                .ok()
                .expect("rebased window covers the overflow span");
        }
        release_excess(&mut self.overflow);
        self.rungs.push(outer);
        self.overflow_min = u64::MAX;
        self.overflow_max = 0;
        true
    }

    /// True when the late run's front precedes the head run's (or the head
    /// run is empty and the late run is not).
    #[inline]
    fn late_first(&self) -> bool {
        match (self.late.peek(), self.head.last()) {
            (Some(l), Some(h)) => pack_key(&l.0) < pack_key(h),
            (l, _) => l.is_some(),
        }
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.late.is_empty() {
            self.ensure_head();
        }
        let popped = if self.late_first() {
            let Late(e) = self.late.pop().expect("late run is non-empty");
            if self.late.is_empty() {
                self.release_late();
            }
            (e.time, e.item)
        } else {
            let e = self.head.pop()?;
            (e.time, e.item)
        };
        self.len -= 1;
        Some(popped)
    }

    /// Empty the late run, capping its capacity at `RETAIN_CAP` entries.
    fn release_late(&mut self) {
        let mut late = std::mem::take(&mut self.late).into_vec();
        late.clear();
        release_excess(&mut late);
        self.late = late.into();
    }

    /// Activation time of the earliest pending event, if any, distilling
    /// the next band first when the late run is empty. The engine's hot
    /// loop uses this (amortized O(1)); [`EventQueue::peek_time`] is the
    /// read-only equivalent.
    #[inline]
    pub fn next_time(&mut self) -> Option<SimTime> {
        if self.late.is_empty() {
            self.ensure_head();
        }
        self.front_time()
    }

    /// The earlier of the head and late runs' fronts.
    #[inline]
    fn front_time(&self) -> Option<SimTime> {
        if self.late_first() {
            self.late.peek().map(|l| l.0.time)
        } else {
            self.head.last().map(|e| e.time)
        }
    }

    /// Activation time of the earliest pending event, if any (read-only;
    /// scans the rungs without distilling).
    ///
    /// The earlier of the head and late runs' fronts (when either is
    /// non-empty) is the global minimum; with both empty the innermost
    /// non-empty rung holds it (rung ranges nest: inner ranges precede
    /// every outer rung's unswept range), and the overflow rung is past
    /// every window.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(t) = self.front_time() {
            return Some(t);
        }
        for rung in self.rungs.iter().rev() {
            if let Some(t) = rung.wheel.peek_min_time() {
                return Some(t);
            }
        }
        if self.overflow.is_empty() {
            None
        } else {
            Some(SimTime::from_ticks(self.overflow_min))
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of events ever pending at once (lifetime high-water
    /// mark; `clear` does not reset it). Deterministic, so it is safe to
    /// surface in golden-pinned results.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Entries of capacity the queue holds allocated: the head and late
    /// runs, the distillation scratch, the overflow and every band of the
    /// live and spare rungs. The scratch buffer, a drained late run and
    /// every empty band keep at most `RETAIN_CAP` entries, so the total
    /// follows the pending events and the high-water mark, not the largest
    /// band ever distilled.
    pub fn retained_capacity(&self) -> usize {
        self.head.capacity()
            + self.late.capacity()
            + self.band_buf.capacity()
            + self.overflow.capacity()
            + self
                .rungs
                .iter()
                .chain(&self.spare)
                .map(|r| r.wheel.retained_capacity())
                .sum::<usize>()
    }

    /// Rungs allocated, live and spare; each owns
    /// [`BUCKETS`](crate::wheel::BUCKETS) band vectors.
    pub fn rungs_allocated(&self) -> usize {
        self.rungs.len() + self.spare.len()
    }

    /// Drop all pending events, capping every emptied vector at
    /// `RETAIN_CAP` entries (the rungs retire to the spare pool).
    pub fn clear(&mut self) {
        self.head.clear();
        release_excess(&mut self.head);
        self.release_late();
        while let Some(mut rung) = self.rungs.pop() {
            rung.wheel.clear();
            self.spare.push(rung);
        }
        self.band_buf.clear();
        self.overflow.clear();
        release_excess(&mut self.overflow);
        self.overflow_min = u64::MAX;
        self.overflow_max = 0;
        self.bar = SimTime::ZERO;
        self.len = 0;
    }
}

/// The original binary-heap future-event list, retained as the
/// **reference oracle** for the ladder [`EventQueue`]: identical public
/// behaviour (same `(time, seq)` FIFO order, same accounting), O(log n)
/// schedule/pop. The differential property test (`tests/queue_oracle.rs`)
/// and the deep-queue stress bench both drive the two side by side.
#[derive(Debug, Clone)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    high_water: usize,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Create an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `time` (FIFO at ties).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        if self.heap.len() > self.high_water {
            self.high_water = self.heap.len();
        }
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }

    /// Activation time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of events ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &s in &[5u64, 1, 4, 2, 3] {
            q.schedule(SimTime::from_secs(s), s);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), ());
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.next_time(), Some(SimTime::from_secs(1)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO + SimDuration::from_secs(1), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // scheduled_total counts lifetime scheduling, not current contents.
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        q.schedule(SimTime::from_secs(3), 3);
        assert_eq!(q.high_water(), 3);
        q.pop();
        q.pop();
        q.schedule(SimTime::from_secs(4), 4);
        // Depth is back to 2; the peak of 3 stands.
        assert_eq!(q.len(), 2);
        assert_eq!(q.high_water(), 3);
        q.clear();
        assert_eq!(q.high_water(), 3, "lifetime mark survives clear");
    }

    #[test]
    fn zero_delay_rescheduling_stays_fifo() {
        // The DES hot pattern: while draining an instant, more events are
        // scheduled at that same instant and must fire after everything
        // already queued there (bar never strands them).
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, 0);
        q.schedule(t + SimDuration::from_secs(1), 100);
        assert_eq!(q.pop(), Some((t, 0)));
        q.schedule(t, 1); // scheduled "now", mid-drain
        q.schedule(t, 2);
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
        assert_eq!(q.pop(), Some((t + SimDuration::from_secs(1), 100)));
    }

    #[test]
    fn far_future_outliers_ride_the_overflow_rung() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1_000_000), "horizon");
        for i in 0..100u64 {
            q.schedule(SimTime::from_ticks(i), "near");
        }
        q.schedule(SimTime::MAX, "sentinel");
        for i in 0..100u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some("near"), "near event {i}");
        }
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::from_secs(1_000_000)));
        assert_eq!(q.pop().map(|(t, _)| t), Some(SimTime::MAX));
        assert!(q.is_empty());
    }

    #[test]
    fn below_bar_burst_rides_the_late_run_in_fifo_order() {
        // A lossy flood: while a 268 ms band drains, 400 copies land at one
        // instant inside it, interleaved with pops, and every popped copy
        // replies 1–40 ms later, still inside the band. All of it must go
        // to the late run and pop in the heap oracle's order.
        fn both(l: &mut EventQueue<u64>, o: &mut HeapQueue<u64>, t: SimTime, e: u64) {
            l.schedule(t, e);
            o.schedule(t, e);
        }
        let mut ladder = EventQueue::new();
        let mut oracle = HeapQueue::new();
        for i in 0..20 {
            both(
                &mut ladder,
                &mut oracle,
                SimTime::ZERO + SimDuration::from_millis(i),
                i,
            );
        }
        both(&mut ladder, &mut oracle, SimTime::from_secs(60), u64::MAX);
        // The first pop distills the band [0, 2^28 ns) into the head run.
        let mut now = ladder.pop().expect("queue holds events").0;
        assert_eq!(oracle.pop().map(|(t, _)| t), Some(now));
        assert!(ladder.late.is_empty());

        let burst_at = now + SimDuration::from_millis(13);
        let mut burst_order = Vec::new();
        let mut pop_both = |ladder: &mut EventQueue<u64>, oracle: &mut HeapQueue<u64>| {
            let popped = ladder.pop();
            assert_eq!(popped, oracle.pop());
            let (t, e) = popped?;
            if (1_000..2_000).contains(&e) {
                burst_order.push(e);
                let reply = t + SimDuration::from_millis(1 + e * 37 % 40);
                both(ladder, oracle, reply, e + 1_000);
            }
            Some(t)
        };
        for c in 0..400 {
            both(&mut ladder, &mut oracle, burst_at, 1_000 + c);
            if c % 2 == 1 {
                now = pop_both(&mut ladder, &mut oracle).expect("events pending");
            }
        }
        assert!(now < ladder.bar, "the burst landed inside the drained band");
        assert!(
            !ladder.late.is_empty(),
            "below-bar events ride the late run"
        );
        while pop_both(&mut ladder, &mut oracle).is_some() {}
        assert_eq!(burst_order, (1_000..1_400).collect::<Vec<_>>());
        assert!(ladder.late.is_empty() && ladder.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_matches_oracle() {
        let mut rng = crate::rng::SimRng::from_seed(0xA17);
        let mut ladder = EventQueue::new();
        let mut oracle = HeapQueue::new();
        let mut now = 0u64;
        for step in 0..50_000u64 {
            if !rng.u64().is_multiple_of(3) || ladder.is_empty() {
                // Mixed bands: mostly near-future, some same-instant bursts,
                // occasional far outliers.
                let t = now
                    + match rng.u64() % 10 {
                        0 => 0,
                        1..=7 => rng.u64() % 1_000,
                        _ => 1_000_000 + rng.u64() % 1_000_000,
                    };
                ladder.schedule(SimTime::from_ticks(t), step);
                oracle.schedule(SimTime::from_ticks(t), step);
            } else {
                let a = ladder.pop();
                let b = oracle.pop();
                assert_eq!(a, b, "divergence at step {step}");
                if let Some((t, _)) = a {
                    now = t.ticks();
                }
            }
            assert_eq!(ladder.len(), oracle.len());
        }
        loop {
            let a = ladder.pop();
            let b = oracle.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(ladder.high_water(), oracle.high_water());
        assert_eq!(ladder.scheduled_total(), oracle.scheduled_total());
    }
}
