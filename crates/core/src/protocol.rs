//! The protocol abstraction every discovery scheme implements.
//!
//! A protocol instance is a per-node event-driven state machine. The host
//! environment (the discrete-event simulator in `realtor-sim`, or the
//! thread-per-host runtime in `realtor-agile`) delivers *inputs* — task
//! arrivals, usage changes, messages, timers — and the protocol replies with
//! *actions* — floods, unicasts and timer arms. The protocol never touches
//! the network or the clock directly, which is what lets the identical
//! protocol code run under both substrates.

use crate::message::Message;
use realtor_net::NodeId;
use realtor_simcore::{SimDuration, SimTime, Tracer};

/// A snapshot of local node state, provided with every input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalView {
    /// Queue occupancy as a fraction of capacity, in `[0, 1]`.
    pub queue_frac: f64,
    /// Spare queue capacity in seconds of work.
    pub headroom_secs: f64,
    /// Total queue capacity in seconds of work.
    pub capacity_secs: f64,
}

impl LocalView {
    /// Convenience constructor that derives `queue_frac` from the other two.
    pub fn new(headroom_secs: f64, capacity_secs: f64) -> Self {
        assert!(capacity_secs > 0.0);
        let used = (capacity_secs - headroom_secs).max(0.0);
        LocalView {
            queue_frac: (used / capacity_secs).clamp(0.0, 1.0),
            headroom_secs: headroom_secs.max(0.0),
            capacity_secs,
        }
    }
}

/// An opaque timer correlation token. Protocols mint these; the environment
/// hands them back verbatim when the timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// One outbound action requested by a protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Disseminate `Message` to every (alive) node in this node's scope.
    /// Charged as a flood by the cost model.
    Flood(Message),
    /// Send `Message` to one node. Charged as a unicast.
    Unicast(NodeId, Message),
    /// Arm a timer that fires after `delay`, delivering `token` back through
    /// [`DiscoveryProtocol::on_timer`]. Protocols ignore stale tokens
    /// internally rather than cancelling timers.
    SetTimer(TimerToken, SimDuration),
    /// The protocol's failure detector has confirmed `NodeId` dead. This is
    /// local knowledge handed to the environment (to trigger recovery of
    /// work orphaned on the peer), not a network message — the cost model
    /// charges nothing for it.
    DeclareDead(NodeId),
}

/// Accumulates the actions produced while handling one input.
#[derive(Debug, Default)]
pub struct Actions {
    items: Vec<Action>,
}

impl Actions {
    /// An empty action buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a flood.
    pub fn flood(&mut self, msg: Message) {
        self.items.push(Action::Flood(msg));
    }

    /// Queue a unicast.
    pub fn unicast(&mut self, to: NodeId, msg: Message) {
        self.items.push(Action::Unicast(to, msg));
    }

    /// Queue a timer arm.
    pub fn set_timer(&mut self, token: TimerToken, delay: SimDuration) {
        self.items.push(Action::SetTimer(token, delay));
    }

    /// Queue a dead-peer declaration.
    pub fn declare_dead(&mut self, peer: NodeId) {
        self.items.push(Action::DeclareDead(peer));
    }

    /// Drain the queued actions.
    pub fn drain(&mut self) -> impl Iterator<Item = Action> + '_ {
        self.items.drain(..)
    }

    /// Borrow the queued actions (mainly for tests).
    pub fn as_slice(&self) -> &[Action] {
        &self.items
    }

    /// Number of queued actions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// A live snapshot of protocol-internal state, for diagnostics and the
/// Algorithm-H dynamics experiments. All fields are best-effort: protocols
/// report what they have.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Introspection {
    /// Current `HELP_interval` in seconds (pull-family protocols only).
    pub help_interval_secs: Option<f64>,
    /// Number of availability reports currently held.
    pub known_candidates: usize,
    /// Number of live community memberships (REALTOR only).
    pub memberships: usize,
    /// Lifetime count of community joins recorded by this node's membership
    /// table, surviving TTL expiry (but not [`DiscoveryProtocol::on_reset`]).
    /// A restored node re-joining communities shows up here.
    pub lifetime_joins: u64,
}

/// A resource-discovery protocol instance bound to one node.
pub trait DiscoveryProtocol: Send {
    /// Short name used in result tables (matches the paper's curve labels,
    /// e.g. `"REALTOR-100"`, `"Push-1"`).
    fn name(&self) -> &'static str;

    /// The node this instance runs on.
    fn node(&self) -> NodeId;

    /// Called once at simulation start (arm periodic timers, announce).
    fn on_start(&mut self, now: SimTime, local: LocalView, out: &mut Actions);

    /// A task arrived at this node. `local` reflects the queue *including*
    /// the new task if it was admitted, or the hypothetical occupancy if it
    /// must migrate — per Algorithm H's "if resource usage would exceed a
    /// threshold level".
    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions);

    /// Local resource usage changed (task completion, admission, or
    /// migration in/out).
    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions);

    /// A protocol message was delivered.
    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    );

    /// A previously armed timer fired.
    fn on_timer(&mut self, now: SimTime, token: TimerToken, local: LocalView, out: &mut Actions);

    /// The environment asks for the best migration destination for a task
    /// needing `need_secs` of queue space. Returning `None` rejects the task
    /// (the paper's one-shot migration semantics).
    fn pick_candidate(&mut self, now: SimTime, need_secs: f64) -> Option<NodeId>;

    /// Feedback on the attempted migration to `dest` (admitted or refused).
    fn on_migration_result(&mut self, now: SimTime, dest: NodeId, admitted: bool);

    /// The node was killed (attack) and later restored; drop soft state.
    fn on_reset(&mut self, now: SimTime);

    /// Best-effort internal-state snapshot (diagnostics). The default
    /// reports nothing.
    fn introspect(&self, now: SimTime) -> Introspection {
        let _ = now;
        Introspection::default()
    }

    /// Install a structured-trace handle. Protocols that emit trace events
    /// keep the (cheaply cloneable) handle; the default discards it, so
    /// un-instrumented protocols need no changes. A tracer is a pure
    /// observer: installing one must never alter protocol behaviour.
    fn set_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Advert, Message};

    #[test]
    fn local_view_derives_fraction() {
        let v = LocalView::new(25.0, 100.0);
        assert_eq!(v.queue_frac, 0.75);
        let full = LocalView::new(0.0, 100.0);
        assert_eq!(full.queue_frac, 1.0);
        let over = LocalView::new(-5.0, 100.0);
        assert_eq!(over.queue_frac, 1.0);
        assert_eq!(over.headroom_secs, 0.0);
    }

    #[test]
    fn actions_accumulate_and_drain() {
        let mut a = Actions::new();
        let msg = Message::Advert(Advert {
            advertiser: 1,
            headroom_secs: 3.0,
            sent_at: realtor_simcore::SimTime::ZERO,
        });
        a.flood(msg);
        a.unicast(2, msg);
        a.set_timer(TimerToken(9), SimDuration::from_secs(1));
        assert_eq!(a.len(), 3);
        let drained: Vec<Action> = a.drain().collect();
        assert_eq!(drained.len(), 3);
        assert!(a.is_empty());
        assert!(matches!(drained[0], Action::Flood(_)));
        assert!(matches!(drained[1], Action::Unicast(2, _)));
        assert!(matches!(drained[2], Action::SetTimer(TimerToken(9), _)));
    }
}
