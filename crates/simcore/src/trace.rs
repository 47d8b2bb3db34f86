//! Deterministic structured tracing and the named-counter registry (A14).
//!
//! Every layer of the stack (protocol state machines, the simulated world,
//! the host model) can emit typed [`TraceEvent`]s through a shared
//! [`Tracer`] handle. The tracer is a pure *observer*:
//!
//! * **Disabled by default.** [`Tracer::disabled`] carries no state at all;
//!   every emit is an early return. Enabling tracing never touches an RNG
//!   stream, the event queue, or any simulation state, so traced runs are
//!   bit-for-bit identical to untraced runs (pinned by
//!   `tests/trace_parity.rs`).
//! * **Bounded.** Events land in a ring buffer of fixed capacity; when it
//!   overflows the oldest event is dropped and [`TraceSnapshot::dropped`]
//!   accounts for it, so a long run can never exhaust memory.
//! * **Filtered.** A minimum [`Severity`] and an optional [`TraceKind`]
//!   allow-list are applied at emit time; filtered events cost one enum
//!   compare and are never materialized.
//! * **Exportable.** [`TraceEvent::to_json_line`] renders one hand-rolled
//!   JSON object per event (the workspace has no serde);
//!   [`validate_json_line`] checks it with the in-tree JSON reader
//!   ([`crate::json`]) in tests and the CI trace smoke.
//!
//! The same handle carries the [`registry::CounterRegistry`] of named
//! monotonic counters and gauges. The simulator bumps a counter at exactly
//! the sites that mutate the corresponding `SimResult` field, so registry
//! totals reconcile 1:1 against the run ledger
//! (`tests/trace_reconciliation.rs`).
//!
//! The handle is cheaply cloneable (`Arc`) and `Send + Sync`: one tracer can
//! observe all 25 protocol instances plus the world. The interior mutex is
//! uncontended in the single-threaded simulator.
//!
//! **Causal spans (A19).** Events may carry an optional `(span, parent)`
//! link: a [`TaskLineage`] identifies one task's whole journey (its span id
//! is even), while each migration-negotiation attempt gets its own odd span
//! ([`attempt_span`]) parented to the task. The chain
//! admission → negotiation → remote admission → interruption → recovery is
//! then reconstructable from the JSONL export alone, in both the DES and
//! the threaded cluster (`experiments analyze`).

use crate::time::SimTime;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Event severity, ordered `Debug < Info < Warn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-message noise (pledge traffic, refreshes, watermarks).
    Debug,
    /// Protocol and lifecycle milestones.
    Info,
    /// Losses: kills, interruptions, destroyed work, confirmed deaths.
    Warn,
}

impl Severity {
    /// Lower-case label used in the JSON export.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
        }
    }
}

/// The typed event vocabulary of the whole stack.
///
/// Protocol kinds are emitted by `realtor-core`, task/attack kinds by
/// `realtor-sim::world`, queue/checkpoint kinds from `realtor-node` data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum TraceKind {
    /// Algorithm H flooded a HELP (community invitation/refresh).
    HelpFlood,
    /// Algorithm H changed `HELP_interval` (penalty or reward).
    IntervalAdapt,
    /// A PLEDGE was sent (help answer or unsolicited threshold crossing).
    PledgeSend,
    /// A fresh PLEDGE was folded into the availability store.
    PledgeAccept,
    /// A stale/duplicate PLEDGE was rejected by the watermark.
    PledgeStaleDrop,
    /// First HELP from an organizer: joined its community.
    CommunityJoin,
    /// A repeat HELP extended an existing membership.
    CommunityRefresh,
    /// Soft-state memberships aged out.
    CommunityExpire,
    /// Failure detector: a silent peer became *suspect*.
    PeerSuspect,
    /// Failure detector: a suspect was *confirmed* dead.
    PeerConfirmed,
    /// A confirmed-dead peer was heard from again (false suspicion heals).
    PeerRevived,
    /// A task was admitted into a queue (locally or at a migration target).
    TaskAdmit,
    /// A task was rejected (dead node, oversize, no candidate, or refusal).
    TaskReject,
    /// A migration negotiation was launched.
    MigrateStart,
    /// A migration negotiation resolved (any kind: arrival/recovery/evac).
    MigrateResolve,
    /// A kill interrupted admitted-but-unfinished tasks.
    TaskInterrupt,
    /// An interrupted task's checkpoint was re-admitted somewhere.
    TaskRecover,
    /// An interrupted task was destroyed for good.
    TaskDestroy,
    /// A warned node started evacuating one pending task.
    EvacuationStart,
    /// A scripted attack event fired.
    AttackAction,
    /// A node was killed.
    NodeKill,
    /// A dead node was restored.
    NodeRestore,
    /// A work queue reached a new lifetime backlog high-water mark.
    QueueWatermark,
    /// A kill split the task log into checkpoints and destroyed work.
    CheckpointSplit,
}

impl TraceKind {
    /// Every kind, in declaration order.
    pub const ALL: [TraceKind; 24] = [
        TraceKind::HelpFlood,
        TraceKind::IntervalAdapt,
        TraceKind::PledgeSend,
        TraceKind::PledgeAccept,
        TraceKind::PledgeStaleDrop,
        TraceKind::CommunityJoin,
        TraceKind::CommunityRefresh,
        TraceKind::CommunityExpire,
        TraceKind::PeerSuspect,
        TraceKind::PeerConfirmed,
        TraceKind::PeerRevived,
        TraceKind::TaskAdmit,
        TraceKind::TaskReject,
        TraceKind::MigrateStart,
        TraceKind::MigrateResolve,
        TraceKind::TaskInterrupt,
        TraceKind::TaskRecover,
        TraceKind::TaskDestroy,
        TraceKind::EvacuationStart,
        TraceKind::AttackAction,
        TraceKind::NodeKill,
        TraceKind::NodeRestore,
        TraceKind::QueueWatermark,
        TraceKind::CheckpointSplit,
    ];

    /// Snake-case label used in the JSON export and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::HelpFlood => "help_flood",
            TraceKind::IntervalAdapt => "interval_adapt",
            TraceKind::PledgeSend => "pledge_send",
            TraceKind::PledgeAccept => "pledge_accept",
            TraceKind::PledgeStaleDrop => "pledge_stale_drop",
            TraceKind::CommunityJoin => "community_join",
            TraceKind::CommunityRefresh => "community_refresh",
            TraceKind::CommunityExpire => "community_expire",
            TraceKind::PeerSuspect => "peer_suspect",
            TraceKind::PeerConfirmed => "peer_confirmed",
            TraceKind::PeerRevived => "peer_revived",
            TraceKind::TaskAdmit => "task_admit",
            TraceKind::TaskReject => "task_reject",
            TraceKind::MigrateStart => "migrate_start",
            TraceKind::MigrateResolve => "migrate_resolve",
            TraceKind::TaskInterrupt => "task_interrupt",
            TraceKind::TaskRecover => "task_recover",
            TraceKind::TaskDestroy => "task_destroy",
            TraceKind::EvacuationStart => "evacuation_start",
            TraceKind::AttackAction => "attack_action",
            TraceKind::NodeKill => "node_kill",
            TraceKind::NodeRestore => "node_restore",
            TraceKind::QueueWatermark => "queue_watermark",
            TraceKind::CheckpointSplit => "checkpoint_split",
        }
    }

    /// The default severity this kind is emitted at.
    pub fn severity(self) -> Severity {
        match self {
            TraceKind::PledgeSend
            | TraceKind::PledgeAccept
            | TraceKind::PledgeStaleDrop
            | TraceKind::CommunityRefresh
            | TraceKind::QueueWatermark => Severity::Debug,
            TraceKind::TaskInterrupt
            | TraceKind::TaskDestroy
            | TraceKind::NodeKill
            | TraceKind::AttackAction
            | TraceKind::PeerConfirmed => Severity::Warn,
            _ => Severity::Info,
        }
    }

    /// One-hot bit for kind-mask filtering.
    fn bit(self) -> u32 {
        1u32 << (self as u32)
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceValue {
    /// Unsigned integer (counts, ids).
    U64(u64),
    /// Float (seconds of work, intervals, probabilities).
    F64(f64),
    /// Static label (causes, reasons, attack kinds).
    Str(&'static str),
    /// Boolean flag.
    Bool(bool),
}

impl TraceValue {
    fn write_json(&self, out: &mut String) {
        match *self {
            TraceValue::U64(v) => out.push_str(&v.to_string()),
            TraceValue::F64(v) => out.push_str(&fmt_f64(v)),
            TraceValue::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            TraceValue::Bool(b) => out.push_str(if b { "true" } else { "false" }),
        }
    }
}

/// A non-finite float has no JSON number form; exported as `null`.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Causal identity of one task journey (A19).
///
/// Assigned at the task's first appearance (its arrival, derived from the
/// deterministic arrival-trace index) and carried unchanged through
/// migration, interruption, and recovery — the whole
/// discovery→admission→recovery chain of a task shares one lineage. The
/// lineage doubles as the task's *span* id via [`TaskLineage::span`]:
/// task-level spans are even, so negotiation-attempt spans
/// ([`attempt_span`]) can share the same id space on the odd side without
/// collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskLineage(pub u64);

impl TaskLineage {
    /// The task-level span id for this lineage (even half of the id space).
    #[inline]
    pub fn span(self) -> u64 {
        self.0 << 1
    }
}

/// Span id of one migration-negotiation attempt (odd half of the id
/// space, keyed by the world's monotonically assigned attempt number so
/// it never collides with a [`TaskLineage::span`]).
#[inline]
pub fn attempt_span(attempt: u64) -> u64 {
    (attempt << 1) | 1
}

/// Most fields any one event carries; checked at every emit site by a
/// debug assertion (the widest emitter in the tree uses exactly this
/// many). Kept tight because every ring slot stores this many inline —
/// widening the array widens the per-emit copy.
pub const MAX_FIELDS: usize = 4;

/// Inline storage for an event's typed fields.
///
/// Events are recorded on the simulator's hot path — one or more per
/// delivered message — so their field lists live inline in the ring slot
/// rather than behind a per-event heap allocation. Dereferences to a slice,
/// so call sites read it exactly like a `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldVec {
    len: u8,
    items: [(&'static str, TraceValue); MAX_FIELDS],
}

impl FieldVec {
    const EMPTY_SLOT: (&'static str, TraceValue) = ("", TraceValue::Bool(false));

    /// Copy `fields` into inline storage (at most [`MAX_FIELDS`]; excess
    /// is debug-asserted and truncated).
    pub fn from_slice(fields: &[(&'static str, TraceValue)]) -> Self {
        debug_assert!(
            fields.len() <= MAX_FIELDS,
            "an event carries at most {MAX_FIELDS} fields"
        );
        let mut items = [Self::EMPTY_SLOT; MAX_FIELDS];
        let n = fields.len().min(MAX_FIELDS);
        items[..n].copy_from_slice(&fields[..n]);
        FieldVec {
            len: n as u8,
            items,
        }
    }
}

impl std::ops::Deref for FieldVec {
    type Target = [(&'static str, TraceValue)];

    fn deref(&self) -> &Self::Target {
        &self.items[..self.len as usize]
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub t: SimTime,
    /// Node the event concerns (`None` for world-level events).
    pub node: Option<usize>,
    /// What happened.
    pub kind: TraceKind,
    /// Causal span this event belongs to (`None` for unspanned events).
    pub span: Option<u64>,
    /// Parent span, linking this span into its causal chain.
    pub parent: Option<u64>,
    /// Typed key/value details; keys are static and unique per kind.
    pub fields: FieldVec,
}

impl TraceEvent {
    /// Severity the event was emitted at (derived from its kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }

    /// Render the event as one flat JSON object (no trailing newline):
    /// `{"t":<ticks>,"t_secs":<f64>,"node":<id|null>,"kind":"...",
    /// "sev":"..."[,"span":<id>][,"parent":<id>],<fields...>}`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"t\":");
        out.push_str(&self.t.ticks().to_string());
        out.push_str(",\"t_secs\":");
        out.push_str(&fmt_f64(self.t.as_secs_f64()));
        out.push_str(",\"node\":");
        match self.node {
            Some(n) => out.push_str(&n.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"sev\":\"");
        out.push_str(self.severity().as_str());
        out.push('"');
        if let Some(span) = self.span {
            out.push_str(",\"span\":");
            out.push_str(&span.to_string());
        }
        if let Some(parent) = self.parent {
            out.push_str(",\"parent\":");
            out.push_str(&parent.to_string());
        }
        for (k, v) in self.fields.iter() {
            out.push_str(",\"");
            escape_into(k, &mut out);
            out.push_str("\":");
            v.write_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Point-in-time copy of everything a tracer has collected.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Buffered events, oldest first (at most the ring capacity).
    pub events: Vec<TraceEvent>,
    /// Events evicted from the ring after it filled.
    pub dropped: u64,
    /// Events that passed the filters over the tracer's lifetime
    /// (buffered + dropped).
    pub recorded: u64,
    /// Events rejected by the severity/kind filters.
    pub filtered: u64,
    /// The counter/gauge registry.
    pub registry: registry::CounterRegistry,
}

/// Mutex-protected leftovers: gauges and the counter-table overflow.
/// Nothing on the per-event hot path touches this lock.
struct TraceState {
    registry: registry::CounterRegistry,
}

/// Lock-free bounded overwrite ring for trace events.
///
/// An emit claims a logical index with one relaxed `fetch_add`, claims the
/// target slot's seqlock with one CAS, writes the payload, and publishes
/// with a release store — no mutex anywhere on the recording path, which
/// is what keeps the traced-over-untraced throughput ratio inside the CI
/// gate. Readers validate each slot's generation before *and* after
/// copying, so a snapshot racing an overwrite skips exactly the oldest
/// events being evicted and never observes a torn payload.
///
/// Slot count is the requested capacity rounded up to a power of two (the
/// index map stays a mask), but eviction accounting uses the *logical*
/// capacity so `bounded(n)` retains the last `n` events exactly as the
/// documented contract says. Payload cells start uninitialized; the slot
/// seqlock proves initialization before any read.
struct EventRing {
    /// Logical capacity: how many most-recent events a snapshot returns.
    capacity: usize,
    /// `log2` of the physical slot count (`capacity` rounded up to a
    /// power of two), so index and generation are a mask and a shift.
    shift: u32,
    /// Per-slot seqlock words, in their own dense array: an emit's only
    /// atomic RMW lands on a line shared by 8 slots, so sequential emits
    /// keep it warm — an RMW straight into the (cold, 4-cache-line) slot
    /// payload would stall the pipeline for a DRAM round trip, which is
    /// exactly the cost profile the overhead gate rejects. Values: `2g` =
    /// ready for the round-`g` writer (0 = never written), `2g + 1` =
    /// round-`g` write in flight, `2g + 2` = round-`g` payload valid.
    seqs: Box<[AtomicU64]>,
    /// Slot payloads; plain store-buffered writes, never an atomic RMW.
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    /// Total events ever claimed; the logical index of the next event.
    cursor: AtomicU64,
    /// Claims abandoned because a prior-round writer stalled inside the
    /// slot for a whole ring revolution (pathological; counted dropped).
    abandoned: AtomicU64,
}

// SAFETY: concurrent access to a slot is mediated by its `seqs` word
// (writers hold an exclusive CAS claim; readers copy bytes and discard
// the copy unless the word proves the slot stayed untouched), and
// `TraceEvent` is plain data — no `Drop`, no interior references.
unsafe impl Sync for EventRing {}
unsafe impl Send for EventRing {}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let physical = capacity.next_power_of_two();
        let mut slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]> = (0..physical)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        // Pre-fault the payload pages: uninit cells write no bytes above,
        // so without this the first emit into each fresh 4 KiB page would
        // take a zero-fill page fault inside the simulator's hot loop —
        // hundreds of faults per run, charged to exactly the window the
        // tracing-overhead gate times. SAFETY: zero bytes are never read
        // as a `TraceEvent` (reads require a published seqlock word).
        unsafe {
            std::ptr::write_bytes(
                slots.as_mut_ptr().cast::<u8>(),
                0,
                physical * std::mem::size_of::<UnsafeCell<MaybeUninit<TraceEvent>>>(),
            );
        }
        EventRing {
            capacity,
            shift: physical.trailing_zeros(),
            seqs: (0..physical).map(|_| AtomicU64::new(0)).collect(),
            slots,
            cursor: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
        }
    }

    /// Record one event, overwriting the oldest once full.
    #[inline]
    fn push(&self, ev: TraceEvent) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let idx = (i & (self.slots.len() as u64 - 1)) as usize;
        let gen = i >> self.shift;
        let seq = &self.seqs[idx];
        let (ready, writing) = (2 * gen, 2 * gen + 1);
        let mut claimed = seq
            .compare_exchange(ready, writing, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if !claimed {
            // The round-(g-1) writer is still inside the slot: it has been
            // preempted for a full ring revolution. Give it a moment, then
            // drop this event rather than block a real-time path.
            for _ in 0..64 {
                std::hint::spin_loop();
                if seq
                    .compare_exchange(ready, writing, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    claimed = true;
                    break;
                }
            }
        }
        if !claimed {
            self.abandoned.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: the CAS above grants this thread exclusive write access
        // to the cell until the release store below publishes it.
        unsafe { (*self.slots[idx].get()).write(ev) };
        seq.store(2 * gen + 2, Ordering::Release);
    }

    /// Copy out the retained events oldest-first, plus the cursor (total
    /// recorded) and the abandoned-claim count.
    fn collect(&self) -> (Vec<TraceEvent>, u64, u64) {
        let cursor = self.cursor.load(Ordering::Acquire);
        let lo = cursor.saturating_sub(self.capacity as u64);
        let mut out = Vec::with_capacity((cursor - lo) as usize);
        for i in lo..cursor {
            let idx = (i & (self.slots.len() as u64 - 1)) as usize;
            let want = 2 * (i >> self.shift) + 2;
            if self.seqs[idx].load(Ordering::Acquire) != want {
                continue;
            }
            // SAFETY: the generation check above proves a round-`g` writer
            // fully initialized the cell. A racing next-round writer may
            // scribble while we copy; the bitwise volatile copy never
            // dereferences anything inside the payload, and the re-check
            // below discards the copy unless the slot stayed untouched
            // (seq values only grow, so a stable value rules out reuse).
            let ev = unsafe { std::ptr::read_volatile(self.slots[idx].get()) };
            if self.seqs[idx].load(Ordering::Acquire) != want {
                continue;
            }
            // SAFETY: seq was stable across the copy, so these bytes are
            // the fully initialized round-`g` payload.
            out.push(unsafe { ev.assume_init() });
        }
        (out, cursor, self.abandoned.load(Ordering::Relaxed))
    }
}

/// Sentinel `node` code marking a slot in [`AtomicCounters`] as a global
/// (not per-node) counter. No simulation addresses `usize::MAX` nodes.
const GLOBAL_COUNTER: usize = usize::MAX;

/// Lock-free open-addressed counter table, keyed by the *pointer* of the
/// `&'static str` counter name plus a node code.
///
/// Counter bumps happen several times per simulator event, so they must
/// not take the ring mutex. Pointer keying makes the probe a couple of
/// relaxed loads plus one relaxed `fetch_add`; the same name reaching the
/// table through two different literal addresses simply occupies two
/// slots, and [`AtomicCounters::fold_into`] re-aggregates by string
/// content, so duplicates are a space cost, never a correctness cost.
/// A full table falls back to the mutex-protected registry.
struct AtomicCounters {
    /// `&'static str` data pointer of the name; 0 = empty slot.
    keys: Box<[AtomicUsize]>,
    /// Name length; 0 until the claimant publishes it (real names are
    /// never empty), so readers skip half-claimed slots.
    lens: Box<[AtomicUsize]>,
    /// Node id, or [`GLOBAL_COUNTER`].
    nodes: Box<[AtomicUsize]>,
    /// The counter value.
    vals: Box<[AtomicU64]>,
}

impl AtomicCounters {
    /// Slot count; power of two so the probe mask is an AND. 4096 slots
    /// comfortably hold every (name, node) pair even for chaos-scale
    /// meshes (hundreds of nodes x a handful of per-node counters).
    const SLOTS: usize = 4096;

    fn new() -> Self {
        AtomicCounters {
            keys: (0..Self::SLOTS).map(|_| AtomicUsize::new(0)).collect(),
            lens: (0..Self::SLOTS).map(|_| AtomicUsize::new(0)).collect(),
            nodes: (0..Self::SLOTS).map(|_| AtomicUsize::new(0)).collect(),
            vals: (0..Self::SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn slot_of(ptr: usize, node: usize) -> usize {
        // Fibonacci hashing over the pointer and node; pointers are at
        // least byte-aligned into the binary's rodata so the low bits
        // carry entropy after mixing.
        (ptr ^ node.rotate_left(17)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52
    }

    /// Add `n` to `(name, node)`. Returns `false` when the table is full
    /// and the caller must fall back to the locked registry.
    fn bump(&self, name: &'static str, node: usize, n: u64) -> bool {
        let ptr = name.as_ptr() as usize;
        let mask = Self::SLOTS - 1;
        let mut idx = Self::slot_of(ptr, node) & mask;
        for _ in 0..Self::SLOTS {
            let key = self.keys[idx].load(Ordering::Acquire);
            if key == ptr && self.nodes[idx].load(Ordering::Relaxed) == node {
                self.vals[idx].fetch_add(n, Ordering::Relaxed);
                return true;
            }
            if key == 0 {
                // Claim the slot; a lost race probes on (possibly creating
                // a duplicate (name, node) slot — merged at read time).
                if self.keys[idx]
                    .compare_exchange(0, ptr, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    self.nodes[idx].store(node, Ordering::Relaxed);
                    self.lens[idx].store(name.len(), Ordering::Release);
                    self.vals[idx].fetch_add(n, Ordering::Relaxed);
                    return true;
                }
                if self.keys[idx].load(Ordering::Acquire) == ptr
                    && self.nodes[idx].load(Ordering::Relaxed) == node
                {
                    self.vals[idx].fetch_add(n, Ordering::Relaxed);
                    return true;
                }
            }
            idx = (idx + 1) & mask;
        }
        false
    }

    /// Reconstruct the name of a published slot.
    ///
    /// SAFETY of the `unsafe` below: `keys[idx]`/`lens[idx]` only ever
    /// hold the pointer and length of a `&'static str` passed to
    /// [`AtomicCounters::bump`], published in that order (len last, with
    /// release/acquire pairing), so a non-zero length proves both fields
    /// describe one live `'static` string.
    fn slot_name(&self, idx: usize) -> Option<&'static str> {
        let key = self.keys[idx].load(Ordering::Acquire);
        let len = self.lens[idx].load(Ordering::Acquire);
        if key == 0 || len == 0 {
            return None;
        }
        Some(unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(key as *const u8, len))
        })
    }

    /// Sum every published slot into `registry`, re-aggregating by string
    /// content (duplicate pointer-keyed slots for one name merge here).
    fn fold_into(&self, registry: &mut registry::CounterRegistry) {
        for idx in 0..Self::SLOTS {
            let Some(name) = self.slot_name(idx) else {
                continue;
            };
            let val = self.vals[idx].load(Ordering::Relaxed);
            if val == 0 {
                continue;
            }
            match self.nodes[idx].load(Ordering::Relaxed) {
                GLOBAL_COUNTER => registry.add(name, val),
                node => registry.add_node(name, node, val),
            }
        }
    }

    /// Current value of `(name, node)` by string comparison (read path —
    /// scans the table so it tolerates duplicate slots).
    fn read(&self, name: &str, node: usize) -> u64 {
        let mut total = 0;
        for idx in 0..Self::SLOTS {
            if self.slot_name(idx) == Some(name) && self.nodes[idx].load(Ordering::Relaxed) == node
            {
                total += self.vals[idx].load(Ordering::Relaxed);
            }
        }
        total
    }
}

/// Shared tracer core. The severity/kind filters and the filtered-event
/// counter live in atomics *outside* the mutex: a filtered emit — the
/// common case once a filter is set — costs two relaxed loads and one
/// relaxed increment, never a lock.
struct TraceShared {
    /// Minimum severity as `u32` (the `Severity` discriminant order).
    min_severity: AtomicU32,
    /// One-hot allow mask over [`TraceKind`].
    kind_mask: AtomicU32,
    /// Events rejected by the filters.
    filtered: AtomicU64,
    /// Lock-free monotonic counters (global and per-node).
    counters: AtomicCounters,
    /// Lock-free bounded event ring.
    ring: EventRing,
    /// Gauges and counter-table overflow, off the hot path.
    state: Mutex<TraceState>,
}

/// A cloneable tracing handle; see the module docs.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TraceShared>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(_) => write!(f, "Tracer(enabled)"),
        }
    }
}

impl Tracer {
    /// The no-op tracer: every call is an early return, nothing allocates.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with a ring of `capacity` events, recording every
    /// kind at every severity.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        Tracer {
            inner: Some(Arc::new(TraceShared {
                min_severity: AtomicU32::new(Severity::Debug as u32),
                kind_mask: AtomicU32::new(u32::MAX),
                filtered: AtomicU64::new(0),
                counters: AtomicCounters::new(),
                ring: EventRing::new(capacity),
                state: Mutex::new(TraceState {
                    registry: registry::CounterRegistry::new(),
                }),
            })),
        }
    }

    /// Builder-style: drop events below `min` severity.
    pub fn with_min_severity(self, min: Severity) -> Self {
        if let Some(inner) = &self.inner {
            inner.min_severity.store(min as u32, Ordering::Relaxed);
        }
        self
    }

    /// Builder-style: record only the listed kinds.
    pub fn with_kinds(self, kinds: &[TraceKind]) -> Self {
        if let Some(inner) = &self.inner {
            let mask = kinds.iter().fold(0u32, |m, k| m | k.bit());
            inner.kind_mask.store(mask, Ordering::Relaxed);
        }
        self
    }

    /// Is this handle connected to a live buffer?
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event. Filtered or disabled emits never allocate.
    ///
    /// The disabled check is inlined so protocol hot paths (one or more
    /// emits per delivered message) pay a single predicted branch when
    /// tracing is off; the recording path stays out of line.
    #[inline]
    pub fn emit(
        &self,
        t: SimTime,
        node: Option<usize>,
        kind: TraceKind,
        fields: &[(&'static str, TraceValue)],
    ) {
        self.emit_spanned(t, node, kind, None, None, fields);
    }

    /// Would an emit of `kind` be recorded right now? Lets hot call sites
    /// skip building field values for events the filters would drop.
    #[inline]
    pub fn records(&self, kind: TraceKind) -> bool {
        match &self.inner {
            None => false,
            Some(inner) => {
                (kind.severity() as u32) >= inner.min_severity.load(Ordering::Relaxed)
                    && inner.kind_mask.load(Ordering::Relaxed) & kind.bit() != 0
            }
        }
    }

    /// Emit one event carrying a causal `(span, parent)` link; otherwise
    /// identical to [`Tracer::emit`].
    #[inline]
    pub fn emit_spanned(
        &self,
        t: SimTime,
        node: Option<usize>,
        kind: TraceKind,
        span: Option<u64>,
        parent: Option<u64>,
        fields: &[(&'static str, TraceValue)],
    ) {
        let Some(inner) = &self.inner else { return };
        // Filters are read lock-free, inline at the call site; a rejected
        // emit costs two relaxed loads and a non-atomic counter bump. The
        // `filtered` tally uses a load/store pair rather than `fetch_add`:
        // it is a diagnostic (never reconciled), and an atomic RMW per
        // filtered event would dominate the cost of filtering itself. Under
        // concurrent emitters it can undercount; recorded events never can.
        if (kind.severity() as u32) < inner.min_severity.load(Ordering::Relaxed)
            || inner.kind_mask.load(Ordering::Relaxed) & kind.bit() == 0
        {
            inner.filtered.store(
                inner.filtered.load(Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
            return;
        }
        // Out of line: the record path is cold relative to the filter
        // check, and inlining a ring write at ~70 call sites measurably
        // bloats the simulator's event loop even when tracing is off.
        Self::record(inner, t, node, kind, span, parent, fields);
    }

    #[inline(never)]
    fn record(
        inner: &TraceShared,
        t: SimTime,
        node: Option<usize>,
        kind: TraceKind,
        span: Option<u64>,
        parent: Option<u64>,
        fields: &[(&'static str, TraceValue)],
    ) {
        inner.ring.push(TraceEvent {
            t,
            node,
            kind,
            span,
            parent,
            fields: FieldVec::from_slice(fields),
        });
    }

    /// Add `n` to the global monotonic counter `name`.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if self.inner.is_some() {
            self.count_slow(name, n);
        }
    }

    #[inline(never)]
    fn count_slow(&self, name: &'static str, n: u64) {
        let Some(inner) = &self.inner else { return };
        if !inner.counters.bump(name, GLOBAL_COUNTER, n) {
            inner
                .state
                .lock()
                .expect("trace lock")
                .registry
                .add(name, n);
        }
    }

    /// Add `n` to the per-node monotonic counter `name`.
    #[inline]
    pub fn count_node(&self, name: &'static str, node: usize, n: u64) {
        if self.inner.is_some() {
            self.count_node_slow(name, node, n);
        }
    }

    #[inline(never)]
    fn count_node_slow(&self, name: &'static str, node: usize, n: u64) {
        let Some(inner) = &self.inner else { return };
        if !inner.counters.bump(name, node, n) {
            inner
                .state
                .lock()
                .expect("trace lock")
                .registry
                .add_node(name, node, n);
        }
    }

    /// Set the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .state
            .lock()
            .expect("trace lock")
            .registry
            .gauge_set(name, value);
    }

    /// Raise the gauge `name` to `value` if `value` exceeds it (high-water
    /// semantics).
    pub fn gauge_max(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner
            .state
            .lock()
            .expect("trace lock")
            .registry
            .gauge_max(name, value);
    }

    /// Current value of the global counter `name` (0 when disabled/absent).
    pub fn counter(&self, name: &str) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                inner.counters.read(name, GLOBAL_COUNTER)
                    + inner
                        .state
                        .lock()
                        .expect("trace lock")
                        .registry
                        .counter(name)
            }
        }
    }

    /// Current value of the per-node counter `name` (0 when
    /// disabled/absent).
    pub fn node_counter(&self, name: &str, node: usize) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => {
                inner.counters.read(name, node)
                    + inner
                        .state
                        .lock()
                        .expect("trace lock")
                        .registry
                        .node_counter(name, node)
            }
        }
    }

    /// Copy out everything collected so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        match &self.inner {
            None => TraceSnapshot::default(),
            Some(inner) => {
                // The locked registry holds gauges plus any counters that
                // overflowed the lock-free table; fold the table on top.
                let mut registry = inner.state.lock().expect("trace lock").registry.clone();
                inner.counters.fold_into(&mut registry);
                let (events, recorded, abandoned) = inner.ring.collect();
                TraceSnapshot {
                    events,
                    dropped: recorded.saturating_sub(inner.ring.capacity as u64) + abandoned,
                    recorded,
                    filtered: inner.filtered.load(Ordering::Relaxed),
                    registry,
                }
            }
        }
    }

    /// Render every buffered event as JSON lines (one object per line,
    /// trailing newline included when non-empty).
    pub fn export_jsonl(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        for e in &snap.events {
            out.push_str(&e.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Named monotonic counters and gauges.
pub mod registry {
    use std::collections::BTreeMap;

    /// Registry of named monotonic counters (global and per-node) and
    /// gauges. Deterministic iteration (BTreeMap) so exports are stable.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CounterRegistry {
        counters: BTreeMap<&'static str, u64>,
        node_counters: BTreeMap<(&'static str, usize), u64>,
        gauges: BTreeMap<&'static str, f64>,
    }

    impl CounterRegistry {
        /// An empty registry.
        pub fn new() -> Self {
            Self::default()
        }

        /// Add `n` to the global counter `name`.
        pub fn add(&mut self, name: &'static str, n: u64) {
            *self.counters.entry(name).or_insert(0) += n;
        }

        /// Add `n` to the per-node counter `name`.
        pub fn add_node(&mut self, name: &'static str, node: usize, n: u64) {
            *self.node_counters.entry((name, node)).or_insert(0) += n;
        }

        /// Set the gauge `name`.
        pub fn gauge_set(&mut self, name: &'static str, value: f64) {
            self.gauges.insert(name, value);
        }

        /// Raise the gauge `name` to `value` if larger.
        pub fn gauge_max(&mut self, name: &'static str, value: f64) {
            let g = self.gauges.entry(name).or_insert(value);
            if value > *g {
                *g = value;
            }
        }

        /// Global counter value (0 when absent).
        pub fn counter(&self, name: &str) -> u64 {
            self.counters.get(name).copied().unwrap_or(0)
        }

        /// Per-node counter value (0 when absent).
        pub fn node_counter(&self, name: &str, node: usize) -> u64 {
            self.node_counters.get(&(name, node)).copied().unwrap_or(0)
        }

        /// Sum of the per-node counter `name` over all nodes.
        pub fn node_total(&self, name: &str) -> u64 {
            self.node_counters
                .iter()
                .filter(|((n, _), _)| *n == name)
                .map(|(_, &v)| v)
                .sum()
        }

        /// Gauge value (`None` when never set).
        pub fn gauge(&self, name: &str) -> Option<f64> {
            self.gauges.get(name).copied()
        }

        /// All global counters, name-sorted.
        pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
            self.counters.iter().map(|(&k, &v)| (k, v))
        }

        /// All per-node counters, `(name, node)`-sorted.
        pub fn node_counters(&self) -> impl Iterator<Item = (&'static str, usize, u64)> + '_ {
            self.node_counters.iter().map(|(&(k, n), &v)| (k, n, v))
        }

        /// All gauges, name-sorted.
        pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
            self.gauges.iter().map(|(&k, &v)| (k, v))
        }

        /// True when nothing was ever recorded.
        pub fn is_empty(&self) -> bool {
            self.counters.is_empty() && self.node_counters.is_empty() && self.gauges.is_empty()
        }

        /// One JSON object with `counters`, `node_counters` (as
        /// `"name/node"` keys) and `gauges` sub-objects.
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\"counters\":{");
            for (i, (k, v)) in self.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push_str("},\"node_counters\":{");
            for (i, ((k, node), v)) in self.node_counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}/{node}\":{v}"));
            }
            out.push_str("},\"gauges\":{");
            for (i, (k, v)) in self.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{}", super::fmt_f64(*v)));
            }
            out.push_str("}}");
            out
        }
    }
}

/// Validate that `line` is exactly one well-formed JSON value: parse it
/// with the workspace's JSON reader ([`crate::json`]) and discard it.
pub fn validate_json_line(line: &str) -> Result<(), String> {
    crate::json::parse(line).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(at(1), Some(3), TraceKind::TaskAdmit, &[]);
        t.count("x", 5);
        let snap = t.snapshot();
        assert!(snap.events.is_empty());
        assert_eq!(snap.recorded, 0);
        assert_eq!(t.counter("x"), 0);
        assert!(t.export_jsonl().is_empty());
    }

    #[test]
    fn ring_overflow_drops_oldest_and_accounts() {
        let t = Tracer::bounded(3);
        for i in 0..5u64 {
            t.emit(
                at(i),
                None,
                TraceKind::TaskAdmit,
                &[("i", TraceValue::U64(i))],
            );
        }
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.recorded, 5);
        assert_eq!(snap.events[0].t, at(2), "oldest two were evicted");
    }

    #[test]
    fn severity_filter_rejects_below_minimum() {
        let t = Tracer::bounded(16).with_min_severity(Severity::Warn);
        t.emit(at(0), None, TraceKind::PledgeSend, &[]); // debug
        t.emit(at(0), None, TraceKind::TaskAdmit, &[]); // info
        t.emit(at(0), None, TraceKind::NodeKill, &[]); // warn
        let snap = t.snapshot();
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, TraceKind::NodeKill);
        assert_eq!(snap.filtered, 2);
    }

    #[test]
    fn kind_filter_is_an_allow_list() {
        let t = Tracer::bounded(16).with_kinds(&[TraceKind::HelpFlood, TraceKind::NodeKill]);
        t.emit(at(0), None, TraceKind::HelpFlood, &[]);
        t.emit(at(0), None, TraceKind::TaskAdmit, &[]);
        t.emit(at(0), None, TraceKind::NodeKill, &[]);
        let kinds: Vec<_> = t.snapshot().events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![TraceKind::HelpFlood, TraceKind::NodeKill]);
    }

    #[test]
    fn every_kind_exports_a_valid_json_line() {
        let t = Tracer::bounded(64);
        for kind in TraceKind::ALL {
            t.emit(
                SimTime::from_secs_f64(1.25),
                Some(7),
                kind,
                &[
                    ("count", TraceValue::U64(3)),
                    ("secs", TraceValue::F64(2.5)),
                    ("why", TraceValue::Str("time\"out\\")),
                    ("ok", TraceValue::Bool(true)),
                ],
            );
        }
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), TraceKind::ALL.len());
        for line in lines {
            validate_json_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            assert!(line.contains("\"kind\":\""));
        }
    }

    #[test]
    fn kind_labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in TraceKind::ALL {
            assert!(
                seen.insert(kind.as_str()),
                "duplicate label {}",
                kind.as_str()
            );
        }
    }

    #[test]
    fn registry_counts_and_gauges() {
        let t = Tracer::bounded(4);
        t.count("tasks", 2);
        t.count("tasks", 3);
        t.count_node("admitted", 4, 1);
        t.count_node("admitted", 4, 1);
        t.count_node("admitted", 9, 5);
        t.gauge_max("hw", 3.0);
        t.gauge_max("hw", 1.0); // lower: ignored
        t.gauge_set("level", 0.5);
        let reg = t.snapshot().registry;
        assert_eq!(reg.counter("tasks"), 5);
        assert_eq!(reg.counter("absent"), 0);
        assert_eq!(reg.node_counter("admitted", 4), 2);
        assert_eq!(reg.node_total("admitted"), 7);
        assert_eq!(reg.gauge("hw"), Some(3.0));
        assert_eq!(reg.gauge("level"), Some(0.5));
        validate_json_line(&reg.to_json()).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-12.5e-3",
            r#"{"a":[1,2,{"b":"c\né"}],"d":null,"e":false}"#,
            "  {\"x\": 1}  ",
        ] {
            validate_json_line(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "01x",
            "\"unterminated",
            "{\"a\":1} extra",
            "{'a':1}",
            "{\"a\":1,}",
            "1.},",
            "nul",
        ] {
            assert!(validate_json_line(bad).is_err(), "accepted invalid: {bad}");
        }
    }

    #[test]
    fn spanned_events_render_causal_links() {
        let t = Tracer::bounded(8);
        let lineage = TaskLineage(21);
        t.emit_spanned(
            at(1),
            Some(2),
            TraceKind::TaskAdmit,
            Some(lineage.span()),
            None,
            &[],
        );
        t.emit_spanned(
            at(2),
            Some(2),
            TraceKind::MigrateStart,
            Some(attempt_span(5)),
            Some(lineage.span()),
            &[],
        );
        t.emit(at(3), None, TraceKind::NodeKill, &[]);
        let snap = t.snapshot();
        assert_eq!(snap.events[0].span, Some(42), "task spans are even");
        assert_eq!(snap.events[0].parent, None);
        assert_eq!(snap.events[1].span, Some(11), "attempt spans are odd");
        assert_eq!(snap.events[1].parent, Some(42));
        assert_eq!(snap.events[2].span, None, "plain emit stays unspanned");
        let lines: Vec<String> = snap.events.iter().map(|e| e.to_json_line()).collect();
        assert!(lines[1].contains("\"span\":11,\"parent\":42"));
        assert!(!lines[2].contains("span"));
        for line in &lines {
            validate_json_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
    }

    #[test]
    fn task_and_attempt_spans_never_collide() {
        for i in 0..1000u64 {
            assert_eq!(TaskLineage(i).span() % 2, 0);
            assert_eq!(attempt_span(i) % 2, 1);
        }
    }

    #[test]
    fn handles_share_one_buffer() {
        let t = Tracer::bounded(8);
        let clone = t.clone();
        clone.emit(at(1), Some(0), TraceKind::TaskAdmit, &[]);
        t.count("n", 1);
        assert_eq!(t.snapshot().events.len(), 1);
        assert_eq!(clone.counter("n"), 1);
    }
}
