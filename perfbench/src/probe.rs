//! Tracing from the outside: spans around the calls the benchmark makes
//! into the simulator, with no change to the simulator itself.
//!
//! * [`TimedWorld`] wraps a `Handler` (the `World`) and times every engine
//!   event by kind (the `sim` layer).
//! * [`Probed`] decorates each node's `DiscoveryProtocol` and times every
//!   callback (the `core` layer), installed through
//!   `World::with_protocols`.
//!
//! A callback runs nested inside an event, so the event's self time is its
//! span minus the callback spans it contains. The two probes meet in a
//! thread-local ([`PROBE`]): the simulator is single-threaded, and a
//! protocol must be `Send`, which rules out sharing an `Rc`.
//!
//! Spans are read from the CPU's time-stamp counter where there is one (a
//! quarter of the cost of `Instant::now`), and [`calibrate`] measures what
//! a probe itself costs so the report can take it out again.

use crate::report::{CALLBACKS, EVENT_KINDS};
use realtor_core::protocol::{
    Action, Actions, DiscoveryProtocol, Introspection, LocalView, TimerToken,
};
use realtor_core::Message;
use realtor_net::NodeId;
use realtor_sim::world::Ev;
use realtor_simcore::stats::LogHistogram;
use realtor_simcore::{Context, Engine, Handler, SimTime, Tracer};
use std::cell::RefCell;
use std::time::Instant;

/// A monotonic tick count: the time-stamp counter on x86-64, nanoseconds
/// since first use elsewhere. [`TickRate`] converts ticks to nanoseconds.
#[inline]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: RDTSC has no preconditions; every x86-64 CPU implements it.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Ticks-to-nanoseconds rate, measured against `Instant` over a traced run.
pub struct TickRate {
    wall: Instant,
    tick: u64,
}

impl TickRate {
    pub fn start() -> Self {
        TickRate {
            wall: Instant::now(),
            tick: ticks(),
        }
    }

    /// Nanoseconds per tick since [`TickRate::start`].
    pub fn ns_per_tick(&self) -> f64 {
        self.wall.elapsed().as_nanos() as f64 / (ticks() - self.tick).max(1) as f64
    }
}

/// Time and count of one event kind, in ticks.
#[derive(Default)]
pub struct KindStats {
    pub count: u64,
    /// Whole handler spans, callbacks included.
    pub ticks: u64,
    /// Callback spans nested in this kind's events, and how many there were.
    pub nested_ticks: u64,
    pub nested_calls: u64,
    /// Whole handler span per event.
    pub hist: LogHistogram,
}

/// Time and count of one callback, in ticks.
#[derive(Default, Clone, Copy)]
pub struct CallStats {
    pub count: u64,
    pub ticks: u64,
}

/// Everything the probes record during traced passes.
#[derive(Default)]
pub struct Probe {
    pub kinds: [KindStats; EVENT_KINDS.len()],
    pub calls: [CallStats; CALLBACKS.len()],
    /// Callbacks outside the named set (`on_start`, `on_migration_result`,
    /// `on_reset`): timed so the nesting arithmetic stays exact.
    pub other_calls: CallStats,
    pub picks: u64,
    pub picks_hit: u64,
    pub migration_results: u64,
    pub migrations_accepted: u64,
    pub floods_emitted: u64,
    pub unicasts_emitted: u64,
    pub timers_armed: u64,
    /// `on_message` calls made while a flood event was being handled.
    pub flood_deliveries: u64,
    /// Callback spans inside the current event, and their number.
    nested_ticks: u64,
    nested_calls: u64,
    /// Event kind being handled, if any.
    current: Option<usize>,
}

thread_local! {
    /// The probes' shared state for the traced run on this thread.
    pub static PROBE: RefCell<Probe> = RefCell::new(Probe::default());
}

/// Take the recorded probe state, leaving a fresh one behind.
pub fn take() -> Probe {
    PROBE.with(|p| std::mem::take(&mut *p.borrow_mut()))
}

fn kind_of(ev: &Ev) -> usize {
    match ev {
        Ev::Arrival(_) => 0,
        Ev::FloodDeliver { .. } => 1,
        Ev::Deliver { .. } => 2,
        Ev::Timer { .. } => 3,
        Ev::Drain { .. } => 4,
        Ev::MigrateRequest { .. } | Ev::MigrateReply { .. } | Ev::MigrateTimeout { .. } => 5,
        Ev::Attack(_)
        | Ev::DelayedKill { .. }
        | Ev::ChurnTick
        | Ev::AdversaryStrike
        | Ev::AdversaryRestore { .. } => 6,
        Ev::WindowTick => 7,
    }
}

/// A handler (the `World`) with each event timed by kind.
pub struct TimedWorld<'a, H>(pub &'a mut H);

impl<H: Handler<Event = Ev>> Handler for TimedWorld<'_, H> {
    type Event = Ev;

    fn handle(&mut self, ev: Ev, ctx: &mut Context<'_, Ev>) {
        let kind = kind_of(&ev);
        PROBE.with(|p| p.borrow_mut().current = Some(kind));
        let t = ticks();
        self.0.handle(ev, ctx);
        let span = ticks() - t;
        PROBE.with(|p| {
            let mut p = p.borrow_mut();
            let nested_ticks = std::mem::take(&mut p.nested_ticks);
            let nested_calls = std::mem::take(&mut p.nested_calls);
            p.current = None;
            let k = &mut p.kinds[kind];
            k.count += 1;
            k.ticks += span;
            k.nested_ticks += nested_ticks;
            k.nested_calls += nested_calls;
            k.hist.record(span);
        });
    }
}

/// A protocol decorator that times every callback into [`PROBE`].
pub struct Probed(pub Box<dyn DiscoveryProtocol>);

/// Index of a callback in [`CALLBACKS`], or `None` for the unnamed ones.
type Slot = Option<usize>;

fn record(slot: Slot, span: u64, emitted: &[Action]) {
    PROBE.with(|p| {
        let mut p = p.borrow_mut();
        if p.current.is_some() {
            p.nested_ticks += span;
            p.nested_calls += 1;
        }
        let c = match slot {
            Some(i) => &mut p.calls[i],
            None => &mut p.other_calls,
        };
        c.count += 1;
        c.ticks += span;
        if matches!(slot, Some(2..=4)) && p.current == Some(1) {
            p.flood_deliveries += 1;
        }
        for a in emitted {
            match a {
                Action::Flood(_) => p.floods_emitted += 1,
                Action::Unicast(..) => p.unicasts_emitted += 1,
                Action::SetTimer(..) => p.timers_armed += 1,
                Action::DeclareDead(_) => {}
            }
        }
    });
}

impl Probed {
    /// Run one callback that may emit actions, timed into `slot`.
    fn timed(
        &mut self,
        slot: Slot,
        out: &mut Actions,
        f: impl FnOnce(&mut dyn DiscoveryProtocol, &mut Actions),
    ) {
        let before = out.len();
        let t = ticks();
        f(&mut *self.0, out);
        let span = ticks() - t;
        record(slot, span, &out.as_slice()[before..]);
    }
}

impl DiscoveryProtocol for Probed {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn node(&self) -> NodeId {
        self.0.node()
    }

    fn on_start(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.timed(None, out, |p, out| p.on_start(now, local, out));
    }

    fn on_task_arrival(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.timed(Some(0), out, |p, out| p.on_task_arrival(now, local, out));
    }

    fn on_usage_change(&mut self, now: SimTime, local: LocalView, out: &mut Actions) {
        self.timed(Some(1), out, |p, out| p.on_usage_change(now, local, out));
    }

    fn on_message(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &Message,
        local: LocalView,
        out: &mut Actions,
    ) {
        let slot = match msg {
            Message::Help(_) => 2,
            Message::Pledge(_) => 3,
            Message::Advert(_) => 4,
        };
        self.timed(Some(slot), out, |p, out| {
            p.on_message(now, from, msg, local, out)
        });
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, local: LocalView, out: &mut Actions) {
        self.timed(Some(5), out, |p, out| p.on_timer(now, token, local, out));
    }

    fn pick_candidate(&mut self, now: SimTime, need_secs: f64) -> Option<NodeId> {
        let t = ticks();
        let pick = self.0.pick_candidate(now, need_secs);
        record(Some(6), ticks() - t, &[]);
        PROBE.with(|p| {
            let mut p = p.borrow_mut();
            p.picks += 1;
            p.picks_hit += u64::from(pick.is_some());
        });
        pick
    }

    fn on_migration_result(&mut self, now: SimTime, dest: NodeId, admitted: bool) {
        let t = ticks();
        self.0.on_migration_result(now, dest, admitted);
        record(None, ticks() - t, &[]);
        PROBE.with(|p| {
            let mut p = p.borrow_mut();
            p.migration_results += 1;
            p.migrations_accepted += u64::from(admitted);
        });
    }

    fn on_reset(&mut self, now: SimTime) {
        let t = ticks();
        self.0.on_reset(now);
        record(None, ticks() - t, &[]);
    }

    fn introspect(&self, now: SimTime) -> Introspection {
        self.0.introspect(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }
}

/// What one probe costs, in ticks: the part of an empty span a probe
/// reads (`floor`), and the part it adds around the span, which lands in
/// the enclosing layer (`around`).
#[derive(Clone, Copy, Default)]
pub struct ProbeCost {
    pub floor: f64,
    pub around: f64,
}

/// Probe costs of a callback and of an event.
pub struct Calibration {
    pub call: ProbeCost,
    pub event: ProbeCost,
}

/// A protocol and a handler that do nothing, for [`calibrate`].
struct Idle;

impl DiscoveryProtocol for Idle {
    fn name(&self) -> &'static str {
        "idle"
    }
    fn node(&self) -> NodeId {
        0
    }
    fn on_start(&mut self, _: SimTime, _: LocalView, _: &mut Actions) {}
    fn on_task_arrival(&mut self, _: SimTime, _: LocalView, _: &mut Actions) {}
    fn on_usage_change(&mut self, _: SimTime, _: LocalView, _: &mut Actions) {}
    fn on_message(&mut self, _: SimTime, _: NodeId, _: &Message, _: LocalView, _: &mut Actions) {}
    fn on_timer(&mut self, _: SimTime, _: TimerToken, _: LocalView, _: &mut Actions) {}
    fn pick_candidate(&mut self, _: SimTime, _: f64) -> Option<NodeId> {
        None
    }
    fn on_migration_result(&mut self, _: SimTime, _: NodeId, _: bool) {}
    fn on_reset(&mut self, _: SimTime) {}
}

impl Handler for Idle {
    type Event = Ev;
    fn handle(&mut self, ev: Ev, _: &mut Context<'_, Ev>) {
        std::hint::black_box(ev);
    }
}

/// Measure both probes on calls that do nothing: the median over a few
/// rounds of the time a probed call adds over a bare one. Leaves [`PROBE`]
/// empty.
pub fn calibrate() -> Calibration {
    const N: u64 = 200_000;
    let view = LocalView::new(1.0, 1.0);
    let mut out = Actions::new();
    let med = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (mut call_floor, mut call_around, mut ev_floor, mut ev_around) =
        (vec![], vec![], vec![], vec![]);
    for _ in 0..5 {
        let mut bare: Box<dyn DiscoveryProtocol> = Box::new(Idle);
        let t = ticks();
        for _ in 0..N {
            bare.on_timer(SimTime::ZERO, TimerToken(1), view, &mut out);
        }
        let bare_ticks = (ticks() - t) as f64;
        let mut probed = Probed(Box::new(Idle));
        take();
        let t = ticks();
        for _ in 0..N {
            probed.on_timer(SimTime::ZERO, TimerToken(1), view, &mut out);
        }
        let probed_ticks = (ticks() - t) as f64;
        let spans = take().calls[5].ticks as f64;
        call_floor.push(spans / N as f64);
        call_around.push((probed_ticks - spans - bare_ticks).max(0.0) / N as f64);

        let run = |h: &mut dyn FnMut(&mut Engine<Ev>)| {
            let mut engine = Engine::new();
            for i in 0..N {
                engine.schedule_at(SimTime::from_secs(i), Ev::WindowTick);
            }
            let t = ticks();
            h(&mut engine);
            (ticks() - t) as f64
        };
        let bare_ticks = run(&mut |e| {
            e.run_until(&mut Idle, SimTime::from_secs(N));
        });
        let probed_ticks = run(&mut |e| {
            e.run_until(&mut TimedWorld(&mut Idle), SimTime::from_secs(N));
        });
        let spans = take().kinds[7].ticks as f64;
        ev_floor.push(spans / N as f64);
        ev_around.push((probed_ticks - spans - bare_ticks).max(0.0) / N as f64);
    }
    Calibration {
        call: ProbeCost {
            floor: med(call_floor),
            around: med(call_around),
        },
        event: ProbeCost {
            floor: med(ev_floor),
            around: med(ev_around),
        },
    }
}
