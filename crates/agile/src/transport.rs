//! In-process transports with the delivery semantics of the paper's stack:
//!
//! * **datagram** (≈ UDP, used for PLEDGE): unordered with respect to other
//!   senders, best-effort, optional loss,
//! * **broadcast** (≈ IP multicast to the all-hosts group, used for HELP):
//!   one send fans out to every other host, best-effort, optional
//!   per-receiver loss,
//! * **request channel** (≈ TCP, used for admission negotiation and
//!   migration): reliable, connection-oriented, carries a typed request and
//!   a oneshot reply.
//!
//! Impairments are injected per receiver from a seeded RNG using the same
//! [`LinkQuality`] model (and the same `"channel"` stream label) as the
//! discrete-event simulator, so "lossy network" experiments are
//! reproducible and share their semantics across both substrates. Loss and
//! duplication apply; the latency/jitter components are ignored here — the
//! thread-per-host fabric delivers through in-memory queues whose real
//! scheduling delay already plays that role.
//!
//! Each host has **one inbox** that it blocks on: datagrams and the
//! cluster's control messages ([`HostControl`]) arrive on the same queue, so
//! a submitted task wakes its host as promptly as a PLEDGE does.
//!
//! Every queue is **bounded** by a depth counter checked against its
//! capacity: host inboxes shed datagrams on overflow (a real UDP socket
//! buffer drops, it does not block the sender) and request channels refuse
//! with [`RequestError::Busy`] — explicit backpressure instead of unbounded
//! memory growth under overload or against a wedged host. The bound counts
//! datagrams and requests only: a control message or a server stop is never
//! shed and never blocks its sender. Shed events are counted
//! ([`Network::shed_count`], per-client [`RequestClient::shed_count`]) so
//! experiments can report them, and every queue exposes its in-flight depth
//! so the cluster can detect quiescence.

use crate::host::HostControl;
use realtor_net::{LinkQuality, Sampled};
use realtor_simcore::SimRng;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, RwLock};

/// Host index within a cluster.
pub type HostId = usize;

/// Default bound on the datagrams queued in a host's inbox.
pub const DEFAULT_MAILBOX_CAPACITY: usize = 1024;

/// Default bound on a request channel's pending-request queue.
pub const DEFAULT_REQUEST_CAPACITY: usize = 64;

/// A received datagram.
#[derive(Debug, Clone)]
pub struct Datagram {
    /// Sending host.
    pub from: HostId,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// One entry of a host's inbox.
#[derive(Debug)]
pub enum Inbound {
    /// A discovery datagram (bounded: shed when the inbox is full).
    Datagram(Datagram),
    /// A control-plane message (never shed).
    Control(HostControl),
}

/// One host's inbox slot; replaced wholesale on reattach.
struct InboxSlot {
    tx: Sender<Inbound>,
    /// Datagrams enqueued but not yet received (this channel generation
    /// only — a reattach installs a fresh counter). Control messages are
    /// not counted: the mailbox bound and its gauges are about datagrams.
    depth: Arc<AtomicU64>,
}

impl InboxSlot {
    /// A fresh slot and the receiving half of its inbox.
    fn open() -> (InboxSlot, Receiver<Inbound>, Arc<AtomicU64>) {
        let (tx, rx) = channel();
        let depth = Arc::new(AtomicU64::new(0));
        let slot = InboxSlot {
            tx,
            depth: Arc::clone(&depth),
        };
        (slot, rx, depth)
    }
}

struct Shared {
    inboxes: RwLock<Vec<InboxSlot>>,
    /// Per-host maximum observed inbox depth. Lives outside the inbox slot
    /// so it survives [`Network::reattach`] — the high-water mark spans
    /// every incarnation of the host, which is what makes shed-on-full
    /// events attributable to an observed depth after the fact.
    high_water: Vec<AtomicU64>,
    quality: LinkQuality,
    channel_rng: Mutex<SimRng>,
    mailbox_capacity: usize,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    shed: AtomicU64,
}

/// The cluster-wide fabric; cheap to clone.
#[derive(Clone)]
pub struct Network {
    shared: Arc<Shared>,
}

/// One host's handle onto the network.
pub struct Endpoint {
    host: HostId,
    network: Network,
    inbox: Receiver<Inbound>,
    depth: Arc<AtomicU64>,
}

impl Network {
    /// Create a network for `hosts` hosts. Datagrams (unicast and
    /// broadcast alike) are dropped independently
    /// with `loss_probability`.
    ///
    /// Returns the network and one endpoint per host.
    pub fn new(hosts: usize, loss_probability: f64, seed: u64) -> (Network, Vec<Endpoint>) {
        Self::with_quality(hosts, LinkQuality::lossy(loss_probability), seed)
    }

    /// Create a network whose datagrams cross `quality` (loss and
    /// duplication; the delay components are not modeled by this fabric),
    /// with the default inbox bound.
    pub fn with_quality(hosts: usize, quality: LinkQuality, seed: u64) -> (Network, Vec<Endpoint>) {
        Self::with_options(hosts, quality, seed, DEFAULT_MAILBOX_CAPACITY)
    }

    /// Full-control constructor: `mailbox_capacity` bounds the datagrams
    /// queued in every host inbox; datagrams arriving at a full inbox are
    /// shed (and counted).
    pub fn with_options(
        hosts: usize,
        quality: LinkQuality,
        seed: u64,
        mailbox_capacity: usize,
    ) -> (Network, Vec<Endpoint>) {
        quality.validate();
        assert!(mailbox_capacity > 0, "mailbox capacity must be positive");
        let mut inboxes = Vec::with_capacity(hosts);
        let mut receivers = Vec::with_capacity(hosts);
        for _ in 0..hosts {
            let (slot, rx, depth) = InboxSlot::open();
            inboxes.push(slot);
            receivers.push((rx, depth));
        }
        let network = Network {
            shared: Arc::new(Shared {
                inboxes: RwLock::new(inboxes),
                high_water: (0..hosts).map(|_| AtomicU64::new(0)).collect(),
                quality,
                channel_rng: Mutex::new(SimRng::stream(seed, "channel")),
                mailbox_capacity,
                dropped: Default::default(),
                duplicated: Default::default(),
                shed: Default::default(),
            }),
        };
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(host, (inbox, depth))| Endpoint {
                host,
                network: network.clone(),
                inbox,
                depth,
            })
            .collect();
        (network, endpoints)
    }

    /// Total datagrams dropped by the loss model so far.
    pub fn dropped_count(&self) -> u64 {
        self.shared.dropped.load(Relaxed)
    }

    /// Total extra copies created by the duplication model so far.
    pub fn duplicated_count(&self) -> u64 {
        self.shared.duplicated.load(Relaxed)
    }

    /// Total datagrams shed because the destination inbox was full.
    pub fn shed_count(&self) -> u64 {
        self.shared.shed.load(Relaxed)
    }

    /// Datagrams currently enqueued in `host`'s inbox.
    pub fn mailbox_depth(&self, host: HostId) -> u64 {
        self.shared.inboxes.read().expect("inboxes lock")[host]
            .depth
            .load(Relaxed)
    }

    /// Maximum inbox depth ever observed for `host`, across every channel
    /// incarnation (a [`Network::reattach`] resets the live depth, not this
    /// mark) — the gauge that makes shed-on-full events attributable.
    pub fn mailbox_high_water(&self, host: HostId) -> u64 {
        self.shared.high_water[host].load(Relaxed)
    }

    /// Datagrams currently enqueued across all inboxes (in-flight work the
    /// cluster's quiescence check waits out).
    pub fn in_flight(&self) -> u64 {
        self.shared
            .inboxes
            .read()
            .expect("inboxes lock")
            .iter()
            .map(|s| s.depth.load(Relaxed))
            .sum()
    }

    /// Replace `host`'s inbox with a fresh one and return the new endpoint
    /// — the transport half of an amnesiac host restart. Datagrams and
    /// control messages still queued for the old endpoint are lost with it,
    /// exactly like the socket buffer of a crashed process.
    pub fn reattach(&self, host: HostId) -> Endpoint {
        let (slot, rx, depth) = InboxSlot::open();
        self.shared.inboxes.write().expect("inboxes lock")[host] = slot;
        Endpoint {
            host,
            network: self.clone(),
            inbox: rx,
            depth,
        }
    }

    /// Queue a control message in `host`'s current inbox, behind whatever
    /// is already there. Never shed and never blocks; returns false if the
    /// inbox is closed (its host thread has ended).
    pub fn send_control(&self, host: HostId, msg: HostControl) -> bool {
        let inboxes = self.shared.inboxes.read().expect("inboxes lock");
        inboxes[host].tx.send(Inbound::Control(msg)).is_ok()
    }

    fn deliver(&self, from: HostId, to: HostId, payload: Vec<u8>) {
        let copies = if self.shared.quality.is_ideal() {
            1
        } else {
            let sampled = self
                .shared
                .quality
                .sample(&mut self.shared.channel_rng.lock().expect("channel rng lock"));
            match sampled {
                Sampled::Lost => {
                    self.shared.dropped.fetch_add(1, Relaxed);
                    return;
                }
                Sampled::Delivered {
                    duplicate: None, ..
                } => 1,
                Sampled::Delivered {
                    duplicate: Some(_), ..
                } => {
                    self.shared.duplicated.fetch_add(1, Relaxed);
                    2
                }
            }
        };
        let inboxes = self.shared.inboxes.read().expect("inboxes lock");
        let slot = &inboxes[to];
        for _ in 0..copies {
            let depth = slot.depth.fetch_add(1, Relaxed) + 1;
            if depth > self.shared.mailbox_capacity as u64 {
                // Bounded mailbox: a full inbox sheds, like a UDP socket
                // buffer — the sender is never blocked by a slow peer.
                slot.depth.fetch_sub(1, Relaxed);
                self.shared.shed.fetch_add(1, Relaxed);
                continue;
            }
            let dgram = Datagram {
                from,
                payload: payload.clone(),
            };
            if slot.tx.send(Inbound::Datagram(dgram)).is_ok() {
                self.shared.high_water[to].fetch_max(depth, Relaxed);
            } else {
                // A closed inbox means the host has shut down.
                slot.depth.fetch_sub(1, Relaxed);
            }
        }
    }
}

impl Endpoint {
    /// This endpoint's host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Best-effort unicast (UDP-like).
    pub fn send(&self, to: HostId, payload: Vec<u8>) {
        self.network.deliver(self.host, to, payload);
    }

    /// Best-effort send to every other host, in host-id order
    /// (IP-multicast-like). The sender does not receive its own
    /// transmission.
    pub fn broadcast(&self, payload: Vec<u8>) {
        // `high_water` has one slot per host for the network's lifetime.
        for to in 0..self.network.shared.high_water.len() {
            if to != self.host {
                self.network.deliver(self.host, to, payload.clone());
            }
        }
    }

    /// Non-blocking receive of the next datagram or control message.
    pub fn try_recv(&self) -> Option<Inbound> {
        self.inbox.try_recv().ok().map(|item| self.received(item))
    }

    /// Receive the next datagram or control message, blocking up to
    /// `timeout` of wall-clock time.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<Inbound> {
        self.inbox
            .recv_timeout(timeout)
            .ok()
            .map(|item| self.received(item))
    }

    fn received(&self, item: Inbound) -> Inbound {
        if let Inbound::Datagram(_) = item {
            self.depth.fetch_sub(1, Relaxed);
        }
        item
    }
}

/// Why a [`RequestClient::request`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The server's bounded request queue is full — explicit backpressure.
    Busy,
    /// No reply arrived within the timeout (the request may or may not have
    /// been processed — retries must be idempotent).
    Timeout,
    /// The server has shut down.
    Closed,
}

/// A reliable request/reply channel (TCP-like), generic over the request and
/// reply types. Accepted requests are never lost; the reply arrives on a
/// per-request oneshot channel. The pending-request queue is bounded: a
/// full server refuses new requests with [`RequestError::Busy`] instead of
/// queueing without limit.
pub struct RequestServer<Req, Rep> {
    rx: Receiver<Envelope<Req, Rep>>,
    /// Feeds [`RequestServer::stopper`] handles.
    tx: Sender<Envelope<Req, Rep>>,
    in_flight: Arc<AtomicU64>,
}

/// One entry of a request queue.
enum Envelope<Req, Rep> {
    /// A request and where to send its reply.
    Request(Req, Sender<Rep>),
    /// End [`RequestServer::serve_until_stopped`].
    Stop,
}

/// Client half of a [`RequestServer`]; cheap to clone.
pub struct RequestClient<Req, Rep> {
    tx: Sender<Envelope<Req, Rep>>,
    capacity: u64,
    in_flight: Arc<AtomicU64>,
    shed: Arc<AtomicU64>,
}

// Manual impl: `derive(Clone)` would needlessly require Req/Rep: Clone.
impl<Req, Rep> Clone for RequestClient<Req, Rep> {
    fn clone(&self) -> Self {
        RequestClient {
            tx: self.tx.clone(),
            capacity: self.capacity,
            in_flight: Arc::clone(&self.in_flight),
            shed: Arc::clone(&self.shed),
        }
    }
}

/// Stops the [`RequestServer`] it came from; see
/// [`RequestServer::stopper`].
pub struct RequestStopper<Req, Rep> {
    tx: Sender<Envelope<Req, Rep>>,
}

impl<Req, Rep> RequestStopper<Req, Rep> {
    /// Queue a stop behind every request already queued. Never refused by
    /// the queue bound and never blocks; a no-op if the server is gone.
    pub fn stop(&self) {
        let _ = self.tx.send(Envelope::Stop);
    }
}

/// Create a connected request/reply pair with the default queue bound.
pub fn request_channel<Req, Rep>() -> (RequestClient<Req, Rep>, RequestServer<Req, Rep>) {
    request_channel_with(DEFAULT_REQUEST_CAPACITY)
}

/// Create a connected request/reply pair whose pending queue holds at most
/// `capacity` requests.
pub fn request_channel_with<Req, Rep>(
    capacity: usize,
) -> (RequestClient<Req, Rep>, RequestServer<Req, Rep>) {
    assert!(capacity > 0, "request capacity must be positive");
    let (tx, rx) = channel();
    let in_flight = Arc::new(AtomicU64::new(0));
    (
        RequestClient {
            tx: tx.clone(),
            capacity: capacity as u64,
            in_flight: Arc::clone(&in_flight),
            shed: Arc::new(AtomicU64::new(0)),
        },
        RequestServer { rx, tx, in_flight },
    )
}

impl<Req, Rep> RequestClient<Req, Rep> {
    /// Send `req` and wait up to `timeout` for the reply.
    pub fn request(&self, req: Req, timeout: std::time::Duration) -> Result<Rep, RequestError> {
        if self.in_flight.fetch_add(1, Relaxed) >= self.capacity {
            self.in_flight.fetch_sub(1, Relaxed);
            self.shed.fetch_add(1, Relaxed);
            return Err(RequestError::Busy);
        }
        let (reply_tx, reply_rx) = channel();
        if self.tx.send(Envelope::Request(req, reply_tx)).is_err() {
            self.in_flight.fetch_sub(1, Relaxed);
            return Err(RequestError::Closed);
        }
        // The server decrements in-flight when it takes the request; a
        // request stuck in the queue of a dead server stays visibly
        // in-flight until the channel drops.
        match reply_rx.recv_timeout(timeout) {
            Ok(rep) => Ok(rep),
            Err(RecvTimeoutError::Timeout) => Err(RequestError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RequestError::Closed),
        }
    }

    /// Requests accepted by the queue but not yet taken by the server.
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Relaxed)
    }

    /// Requests refused because the server queue was full.
    pub fn shed_count(&self) -> u64 {
        self.shed.load(Relaxed)
    }
}

impl<Req, Rep> RequestServer<Req, Rep> {
    /// A handle whose [`RequestStopper::stop`] ends
    /// [`RequestServer::serve_until_stopped`] once the requests queued ahead
    /// of it are served.
    pub fn stopper(&self) -> RequestStopper<Req, Rep> {
        RequestStopper {
            tx: self.tx.clone(),
        }
    }

    /// Answer `req` through `reply` with the handler's return value.
    fn answer(&self, req: Req, reply: Sender<Rep>, handler: impl FnOnce(Req) -> Rep) {
        self.in_flight.fetch_sub(1, Relaxed);
        let _ = reply.send(handler(req));
    }

    /// Wait up to `timeout` for the next request; the handler's return value
    /// is delivered to the caller. Returns whether a request was served.
    pub fn serve_one(
        &self,
        timeout: std::time::Duration,
        handler: impl FnOnce(Req) -> Rep,
    ) -> bool {
        match self.rx.recv_timeout(timeout) {
            Ok(Envelope::Request(req, reply)) => {
                self.answer(req, reply, handler);
                true
            }
            Ok(Envelope::Stop) | Err(_) => false,
        }
    }

    /// Serve every request currently queued without blocking, up to a stop.
    pub fn serve_pending(&self, mut handler: impl FnMut(Req) -> Rep) -> usize {
        let mut served = 0;
        while let Ok(Envelope::Request(req, reply)) = self.rx.try_recv() {
            self.answer(req, reply, &mut handler);
            served += 1;
        }
        served
    }

    /// Serve requests as they arrive, blocking between them, until a
    /// [`RequestStopper::stop`] reaches the front of the queue.
    pub fn serve_until_stopped(&self, mut handler: impl FnMut(Req) -> Rep) {
        while let Ok(Envelope::Request(req, reply)) = self.rx.recv() {
            self.answer(req, reply, &mut handler);
        }
    }
}

/// A swappable directory of request clients, one per host. Hosts negotiate
/// through the directory rather than through captured client lists, so an
/// amnesiac restart can [`ClientDirectory::install`] the replacement host's
/// fresh channel and every peer immediately reaches the new incarnation.
pub struct ClientDirectory<Req, Rep> {
    slots: Arc<RwLock<Vec<RequestClient<Req, Rep>>>>,
}

impl<Req, Rep> Clone for ClientDirectory<Req, Rep> {
    fn clone(&self) -> Self {
        ClientDirectory {
            slots: Arc::clone(&self.slots),
        }
    }
}

impl<Req, Rep> ClientDirectory<Req, Rep> {
    /// Build from the initial per-host clients.
    pub fn new(clients: Vec<RequestClient<Req, Rep>>) -> Self {
        ClientDirectory {
            slots: Arc::new(RwLock::new(clients)),
        }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.slots.read().expect("directory lock").len()
    }

    /// True when the directory holds no clients.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current client for `host` (a cheap clone).
    pub fn client(&self, host: HostId) -> RequestClient<Req, Rep> {
        self.slots.read().expect("directory lock")[host].clone()
    }

    /// Swap in a fresh client for `host` (amnesiac restart).
    pub fn install(&self, host: HostId, client: RequestClient<Req, Rep>) {
        self.slots.write().expect("directory lock")[host] = client;
    }

    /// Requests in flight across every current client channel.
    pub fn in_flight_total(&self) -> u64 {
        self.slots
            .read()
            .expect("directory lock")
            .iter()
            .map(|c| c.in_flight())
            .sum()
    }

    /// Requests refused (Busy) across every current client channel.
    pub fn shed_total(&self) -> u64 {
        self.slots
            .read()
            .expect("directory lock")
            .iter()
            .map(|c| c.shed_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn datagram(item: Option<Inbound>) -> Datagram {
        match item {
            Some(Inbound::Datagram(d)) => d,
            other => panic!("expected a datagram, got {other:?}"),
        }
    }

    #[test]
    fn unicast_delivers() {
        let (_net, eps) = Network::new(3, 0.0, 1);
        eps[0].send(2, b"hello".to_vec());
        let d = datagram(eps[2].recv_timeout(Duration::from_millis(100)));
        assert_eq!(d.from, 0);
        assert_eq!(&d.payload[..], b"hello");
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn broadcast_reaches_every_host_except_sender() {
        let (_net, eps) = Network::new(4, 0.0, 1);
        eps[1].broadcast(b"m".to_vec());
        for (i, ep) in eps.iter().enumerate() {
            let got = ep.recv_timeout(Duration::from_millis(50));
            if i == 1 {
                assert!(got.is_none(), "sender must not hear itself");
            } else {
                assert_eq!(datagram(got).from, 1);
            }
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let (net, eps) = Network::new(2, 1.0, 1);
        for _ in 0..50 {
            eps[0].send(1, b"x".to_vec());
        }
        assert!(eps[1].try_recv().is_none());
        assert_eq!(net.dropped_count(), 50);
    }

    #[test]
    fn partial_loss_is_seeded_and_partial() {
        let (net, eps) = Network::new(2, 0.5, 42);
        for _ in 0..1000 {
            eps[0].send(1, b"x".to_vec());
        }
        let dropped = net.dropped_count();
        assert!(
            (300..700).contains(&(dropped as usize)),
            "dropped {dropped}"
        );
        let mut received = 0;
        while eps[1].try_recv().is_some() {
            received += 1;
        }
        assert_eq!(received + dropped, 1000);
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let quality = LinkQuality {
            duplication: 1.0,
            ..LinkQuality::IDEAL
        };
        let (net, eps) = Network::with_quality(2, quality, 1);
        for _ in 0..10 {
            eps[0].send(1, b"x".to_vec());
        }
        let mut received = 0;
        while eps[1].try_recv().is_some() {
            received += 1;
        }
        assert_eq!(received, 20, "every datagram must arrive twice");
        assert_eq!(net.duplicated_count(), 10);
        assert_eq!(net.dropped_count(), 0);
    }

    #[test]
    fn full_mailbox_sheds_instead_of_blocking() {
        let (net, eps) = Network::with_options(2, LinkQuality::IDEAL, 1, 4);
        for _ in 0..10 {
            eps[0].send(1, b"x".to_vec());
        }
        assert_eq!(net.shed_count(), 6, "overflow beyond capacity 4 is shed");
        let mut received = 0;
        while eps[1].try_recv().is_some() {
            received += 1;
        }
        assert_eq!(received, 4);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn shared_inbox_bounds_datagrams_but_never_sheds_control() {
        let k = 3;
        let (net, eps) = Network::with_options(2, LinkQuality::IDEAL, 1, k);
        for i in 0..=k as u8 {
            eps[0].send(1, vec![i]);
        }
        assert_eq!(net.shed_count(), 1, "the (k+1)-th datagram is shed");
        assert_eq!(net.mailbox_depth(1), k as u64);
        assert_eq!(net.mailbox_high_water(1), k as u64);
        // A control message into the full inbox is still queued, uncounted.
        assert!(net.send_control(1, HostControl::Kill), "inbox open");
        assert_eq!(net.shed_count(), 1);
        assert_eq!(net.mailbox_depth(1), k as u64);
        assert_eq!(net.mailbox_high_water(1), k as u64);
        for i in 0..k as u8 {
            assert_eq!(datagram(eps[1].try_recv()).payload, vec![i]);
        }
        assert!(
            matches!(eps[1].try_recv(), Some(Inbound::Control(HostControl::Kill))),
            "the control message arrives behind the datagrams"
        );
        assert!(eps[1].try_recv().is_none());
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn control_to_a_closed_inbox_is_refused() {
        let (net, mut eps) = Network::new(2, 0.0, 1);
        eps.pop(); // host 1's thread ended
        assert!(!net.send_control(1, HostControl::Stop));
    }

    #[test]
    fn in_flight_tracks_queue_depth() {
        let (net, eps) = Network::new(2, 0.0, 1);
        assert_eq!(net.in_flight(), 0);
        eps[0].send(1, b"a".to_vec());
        eps[0].send(1, b"b".to_vec());
        assert_eq!(net.in_flight(), 2);
        eps[1].try_recv().unwrap();
        assert_eq!(net.in_flight(), 1);
        eps[1].try_recv().unwrap();
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn reattach_gives_a_fresh_inbox() {
        let (net, mut eps) = Network::new(2, 0.0, 1);
        eps[0].send(1, b"stale".to_vec());
        // The old endpoint (and its queued datagram) dies with the host.
        let fresh = net.reattach(1);
        eps[1] = fresh;
        assert_eq!(net.in_flight(), 0, "reattach resets the depth accounting");
        eps[0].send(1, b"fresh".to_vec());
        let d = datagram(eps[1].recv_timeout(Duration::from_millis(100)));
        assert_eq!(&d.payload[..], b"fresh");
        assert!(eps[1].try_recv().is_none());
    }

    #[test]
    fn mailbox_high_water_survives_reattach() {
        let (net, mut eps) = Network::new(2, 0.0, 1);
        eps[0].send(1, b"a".to_vec());
        eps[0].send(1, b"b".to_vec());
        eps[0].send(1, b"c".to_vec());
        assert_eq!(net.mailbox_depth(1), 3);
        assert_eq!(net.mailbox_high_water(1), 3);
        eps[1] = net.reattach(1);
        assert_eq!(net.mailbox_depth(1), 0, "reattach resets the live depth");
        assert_eq!(
            net.mailbox_high_water(1),
            3,
            "the high-water mark spans incarnations"
        );
        eps[0].send(1, b"d".to_vec());
        assert_eq!(
            net.mailbox_high_water(1),
            3,
            "a lower depth never lowers it"
        );
    }

    #[test]
    fn request_reply_round_trip() {
        let (client, server) = request_channel::<u32, u32>();
        let h = std::thread::spawn(move || {
            assert!(server.serve_one(Duration::from_secs(1), |x| x * 2));
        });
        let rep = client.request(21, Duration::from_secs(1));
        assert_eq!(rep, Ok(42));
        h.join().unwrap();
    }

    #[test]
    fn request_times_out_without_service() {
        let (client, _server) = request_channel::<u32, u32>();
        let rep = client.request(1, Duration::from_millis(20));
        assert_eq!(rep, Err(RequestError::Timeout));
    }

    #[test]
    fn request_reports_closed_server() {
        let (client, server) = request_channel::<u32, u32>();
        drop(server);
        assert_eq!(
            client.request(1, Duration::from_millis(20)),
            Err(RequestError::Closed)
        );
    }

    #[test]
    fn full_request_queue_refuses_busy() {
        let (client, server) = request_channel_with::<u32, u32>(2);
        assert_eq!(
            client.request(1, Duration::from_millis(1)),
            Err(RequestError::Timeout)
        );
        assert_eq!(
            client.request(2, Duration::from_millis(1)),
            Err(RequestError::Timeout)
        );
        assert_eq!(client.in_flight(), 2);
        // Queue full: explicit backpressure, not unbounded growth.
        assert_eq!(
            client.request(3, Duration::from_millis(1)),
            Err(RequestError::Busy)
        );
        assert_eq!(client.shed_count(), 1);
        let served = server.serve_pending(|x| x);
        assert_eq!(served, 2);
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn stop_ends_serving_behind_queued_requests_even_when_full() {
        let (client, server) = request_channel_with::<u32, u32>(2);
        let mut replies = Vec::new();
        for i in 0..2 {
            // Queue requests without waiting for their replies.
            let (tx, rx) = channel();
            client.in_flight.fetch_add(1, Relaxed);
            client.tx.send(Envelope::Request(i, tx)).unwrap();
            replies.push(rx);
        }
        assert_eq!(
            client.request(9, Duration::from_millis(1)),
            Err(RequestError::Busy)
        );
        // The queue is full, yet the stop is queued, behind both requests.
        server.stopper().stop();
        let mut served = 0;
        server.serve_until_stopped(|x| {
            served += 1;
            x + 10
        });
        assert_eq!(served, 2);
        assert_eq!(client.in_flight(), 0);
        for (i, rx) in replies.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), i as u32 + 10);
        }
    }

    #[test]
    fn serve_pending_drains_queue() {
        let (client, server) = request_channel::<u32, u32>();
        let mut replies = Vec::new();
        for i in 0..5 {
            // fire requests from a thread that doesn't wait for replies
            let c = client.clone();
            let (tx, rx) = channel();
            c.tx.send(Envelope::Request(i, tx)).unwrap();
            c.in_flight.fetch_add(1, Relaxed);
            replies.push(rx);
        }
        let served = server.serve_pending(|x| x + 100);
        assert_eq!(served, 5);
        for (i, rx) in replies.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap(), i as u32 + 100);
        }
    }

    #[test]
    fn directory_swaps_clients_on_install() {
        let (c1, s1) = request_channel::<u32, u32>();
        let dir = ClientDirectory::new(vec![c1]);
        drop(s1); // the first incarnation dies
        assert_eq!(
            dir.client(0).request(1, Duration::from_millis(10)),
            Err(RequestError::Closed)
        );
        let (c2, s2) = request_channel::<u32, u32>();
        dir.install(0, c2);
        let h = std::thread::spawn(move || {
            assert!(s2.serve_one(Duration::from_secs(1), |x| x + 1));
        });
        assert_eq!(dir.client(0).request(41, Duration::from_secs(1)), Ok(42));
        h.join().unwrap();
    }
}
