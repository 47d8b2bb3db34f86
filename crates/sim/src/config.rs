//! Simulation scenario configuration.

use realtor_core::{ProtocolConfig, ProtocolKind};
use realtor_net::{
    ChannelModel, FloodCharge, LinkQuality, TargetingStrategy, Topology, UnicastCharge,
};
use realtor_simcore::{SimDuration, SimTime};
use realtor_workload::{AttackScenario, AttackScenarioError, ChurnConfig, WorkloadSpec};

/// Which message-accounting model to apply (see `realtor_net::cost`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CostChoice {
    /// The paper's accounting: flood = #links, unicast = constant 4.
    #[default]
    Paper,
    /// Exact accounting: flood = #links, unicast = true hop count.
    Exact,
    /// Spanning-tree flood, exact unicast (optimistic multicast ablation).
    SpanningTree,
}

impl CostChoice {
    /// The unicast/flood charge pair this choice denotes.
    pub fn charges(self) -> (UnicastCharge, FloodCharge) {
        match self {
            CostChoice::Paper => (UnicastCharge::Constant(4.0), FloodCharge::PerLink),
            CostChoice::Exact => (UnicastCharge::ExactHops, FloodCharge::PerLink),
            CostChoice::SpanningTree => (UnicastCharge::ExactHops, FloodCharge::SpanningTree),
        }
    }
}

/// Crash-recovery and evacuation behaviour of the simulated hosts.
///
/// Everything here is **off by default**: the paper's Figure-5 runs destroy
/// queued work on a kill and never look back, and the golden pins depend on
/// that. With `enabled`, killed nodes orphan a checkpointed fraction of
/// their pending tasks, which are re-submitted through normal REALTOR
/// discovery once a surviving peer's failure detector confirms the death
/// (reactive recovery); the killed node itself re-admits its own orphans
/// when restored (crash-restart). With `proactive` as well, a node that
/// receives an attack warning evacuates pending tasks before the kill
/// lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Master switch for task logging, orphan tracking and recovery.
    pub enabled: bool,
    /// Fraction of a killed node's pending tasks that survive as
    /// checkpoints (newest-admitted first), in `[0, 1]`.
    pub checkpoint_fraction: f64,
    /// How many times a recovered task is re-submitted through discovery
    /// before being declared destroyed.
    pub recovery_tries: u32,
    /// Evacuate pending tasks when an attack warning arrives.
    pub proactive: bool,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: false,
            checkpoint_fraction: 1.0,
            recovery_tries: 2,
            proactive: false,
        }
    }
}

impl RecoveryConfig {
    /// Reactive recovery with full checkpoints.
    pub fn reactive() -> Self {
        RecoveryConfig {
            enabled: true,
            ..Default::default()
        }
    }

    /// Reactive recovery plus warning-driven evacuation.
    pub fn proactive() -> Self {
        RecoveryConfig {
            enabled: true,
            proactive: true,
            ..Default::default()
        }
    }

    /// Builder-style: checkpoint fraction.
    pub fn with_checkpoint_fraction(mut self, v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "checkpoint fraction in [0, 1]");
        self.checkpoint_fraction = v;
        self
    }

    /// Builder-style: recovery retry budget.
    pub fn with_recovery_tries(mut self, v: u32) -> Self {
        self.recovery_tries = v;
        self
    }

    /// Validate field ranges.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.checkpoint_fraction),
            "checkpoint fraction in [0, 1]"
        );
    }
}

/// The adaptive adversary: a recurring strike that ranks nodes by traffic
/// it has *observed* (the world's per-node count of PLEDGE and HELP
/// messages sent) and kills the busiest — no oracle access to queue
/// contents or organizer state. Killed nodes come back amnesiac after `downtime`.
///
/// Observed traffic is exactly what a network eavesdropper sees, so the
/// adversary's information model is realistic: against REALTOR it
/// discovers pledge-rich nodes and de-facto organizers purely from their
/// chattiness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdversaryConfig {
    /// Time between strikes.
    pub interval: SimDuration,
    /// Nodes killed per strike (the observed-traffic top-k).
    pub kills: usize,
    /// How long each victim stays down before its amnesiac restore.
    pub downtime: SimDuration,
    /// First strike fires at this instant.
    pub start: SimTime,
    /// No strike fires at or after this instant.
    pub end: SimTime,
}

impl AdversaryConfig {
    /// Validate against a simulation horizon.
    pub fn validate(&self, horizon: SimTime) {
        assert!(self.kills > 0, "adversary must kill at least one node");
        assert!(
            !self.interval.is_zero(),
            "adversary interval must be positive"
        );
        assert!(
            !self.downtime.is_zero(),
            "adversary downtime must be positive"
        );
        assert!(self.start < self.end, "adversary window must be non-empty");
        assert!(
            self.end < horizon,
            "adversary window must end before the horizon"
        );
    }
}

/// Chaos/fault-injection processes layered on top of the scripted attack
/// schedule. Everything here is **off by default** and bit-exact with the
/// paper baseline when disabled: no churn ticks, no adversary strikes, no
/// extra RNG draws.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosConfig {
    /// Continuous churn: a fraction of the population replaced per
    /// interval, victims drawn from a dedicated seed-split RNG stream.
    pub churn: Option<ChurnConfig>,
    /// The adaptive, observed-traffic-driven adversary.
    pub adversary: Option<AdversaryConfig>,
}

impl ChaosConfig {
    /// No chaos — the paper baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Churn only.
    pub fn churn(config: ChurnConfig) -> Self {
        ChaosConfig {
            churn: Some(config),
            adversary: None,
        }
    }

    /// Adaptive adversary only.
    pub fn adversary(config: AdversaryConfig) -> Self {
        ChaosConfig {
            churn: None,
            adversary: Some(config),
        }
    }

    /// Is any chaos process configured?
    pub fn is_enabled(&self) -> bool {
        self.churn.is_some() || self.adversary.is_some()
    }

    /// Validate every configured process against the horizon.
    pub fn validate(&self, horizon: SimTime) {
        if let Some(churn) = &self.churn {
            churn.validate(horizon).expect("invalid churn config");
        }
        if let Some(adv) = &self.adversary {
            adv.validate(horizon);
        }
    }
}

/// A complete simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The overlay topology (the paper: 5×5 mesh).
    pub topology: Topology,
    /// Which discovery protocol every node runs.
    pub protocol: ProtocolKind,
    /// Protocol parameters.
    pub protocol_config: ProtocolConfig,
    /// Per-node queue capacity in seconds (the paper: 100).
    pub capacity_secs: f64,
    /// The workload.
    pub workload: WorkloadSpec,
    /// Scripted attacks (empty for the paper's Figures 5–8).
    pub attack: AttackScenario,
    /// Victim-selection strategy for attack events.
    pub targeting: TargetingStrategy,
    /// Message accounting model.
    pub cost: CostChoice,
    /// One-way delivery latency per hop (the paper is silent; 1 ms default —
    /// small against 1-second task scales but enough that information is
    /// never supernaturally instantaneous).
    pub per_hop_latency: SimDuration,
    /// Metrics are only collected after this much simulated time (warm-up).
    pub warmup: SimDuration,
    /// Optional time-series window; when set, per-window admission
    /// statistics are recorded (used by the attack experiment).
    pub window: Option<SimDuration>,
    /// The unreliable-delivery model every message crosses. [`ChannelModel::ideal`]
    /// (the default) reproduces the paper's perfectly reliable network.
    pub channel: ChannelModel,
    /// How long a migration negotiation waits for the destination's reply
    /// before retrying or giving up.
    pub negotiation_timeout: SimDuration,
    /// How many times a timed-out negotiation request is re-sent before the
    /// task is rejected (the paper's one-shot semantics cap this at a single
    /// bounded retry; explicit refusals are never retried).
    pub negotiation_retries: u32,
    /// Crash-recovery behaviour (disabled by default — golden-safe).
    pub recovery: RecoveryConfig,
    /// Chaos processes: churn and the adaptive adversary (disabled by
    /// default — golden-safe).
    pub chaos: ChaosConfig,
}

impl Scenario {
    /// The paper's Section-5 setup at arrival rate `lambda`:
    /// 5×5 mesh, queue 100 s, exponential sizes (mean 5 s), horizon
    /// `horizon_secs`, paper cost accounting, chosen `protocol`.
    pub fn paper(protocol: ProtocolKind, lambda: f64, horizon_secs: u64, seed: u64) -> Self {
        let topology = Topology::mesh(5, 5);
        let workload = WorkloadSpec::paper(
            lambda,
            topology.node_count(),
            SimTime::from_secs(horizon_secs),
            seed,
        );
        Scenario {
            topology,
            protocol,
            protocol_config: ProtocolConfig::paper(),
            capacity_secs: 100.0,
            workload,
            attack: AttackScenario::none(),
            targeting: TargetingStrategy::Random,
            cost: CostChoice::Paper,
            per_hop_latency: SimDuration::from_millis(1),
            warmup: SimDuration::ZERO,
            window: None,
            channel: ChannelModel::ideal(),
            negotiation_timeout: SimDuration::from_secs(1),
            negotiation_retries: 1,
            recovery: RecoveryConfig::default(),
            chaos: ChaosConfig::none(),
        }
    }

    /// Simulation horizon (inherited from the workload).
    pub fn horizon(&self) -> SimTime {
        self.workload.horizon
    }

    /// Builder-style: replace the topology (rescatters the workload over the
    /// new node count).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.workload.node_count = topology.node_count();
        self.topology = topology;
        self
    }

    /// Builder-style: replace the protocol parameters.
    pub fn with_protocol_config(mut self, cfg: ProtocolConfig) -> Self {
        self.protocol_config = cfg;
        self
    }

    /// Builder-style: add an attack scenario.
    ///
    /// Panics if the script fails [`AttackScenario::validate`] against this
    /// scenario's horizon and node count; use [`Scenario::try_with_attack`]
    /// for a recoverable error.
    pub fn with_attack(self, attack: AttackScenario, targeting: TargetingStrategy) -> Self {
        self.try_with_attack(attack, targeting)
            .expect("invalid attack scenario")
    }

    /// Builder-style: add an attack scenario, validating it against the
    /// simulation horizon and topology first.
    pub fn try_with_attack(
        mut self,
        attack: AttackScenario,
        targeting: TargetingStrategy,
    ) -> Result<Self, AttackScenarioError> {
        attack.validate(self.horizon(), self.topology.node_count())?;
        self.attack = attack;
        self.targeting = targeting;
        Ok(self)
    }

    /// Builder-style: record windowed time series.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = Some(window);
        self
    }

    /// Builder-style: change the cost accounting.
    pub fn with_cost(mut self, cost: CostChoice) -> Self {
        self.cost = cost;
        self
    }

    /// Builder-style: per-node queue capacity.
    pub fn with_capacity(mut self, capacity_secs: f64) -> Self {
        assert!(capacity_secs > 0.0);
        self.capacity_secs = capacity_secs;
        self
    }

    /// Builder-style: apply one link quality uniformly to every delivery.
    pub fn with_channel(self, quality: LinkQuality) -> Self {
        self.with_channel_model(ChannelModel::uniform(quality))
    }

    /// Builder-style: replace the full channel model.
    pub fn with_channel_model(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Builder-style: negotiation timeout and retry budget.
    pub fn with_negotiation(mut self, timeout: SimDuration, retries: u32) -> Self {
        assert!(!timeout.is_zero(), "negotiation timeout must be positive");
        self.negotiation_timeout = timeout;
        self.negotiation_retries = retries;
        self
    }

    /// Builder-style: crash-recovery behaviour.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        recovery.validate();
        self.recovery = recovery;
        self
    }

    /// Builder-style: chaos processes (validated against the horizon).
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        chaos.validate(self.horizon());
        self.chaos = chaos;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_defaults() {
        let s = Scenario::paper(ProtocolKind::Realtor, 5.0, 1000, 1);
        assert_eq!(s.topology.node_count(), 25);
        assert_eq!(s.topology.link_count(), 40);
        assert_eq!(s.capacity_secs, 100.0);
        assert_eq!(s.horizon(), SimTime::from_secs(1000));
        assert!(s.attack.is_empty());
    }

    #[test]
    fn with_topology_rescatters_workload() {
        let s =
            Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1).with_topology(Topology::mesh(3, 3));
        assert_eq!(s.workload.node_count, 9);
    }

    #[test]
    fn default_channel_is_ideal() {
        let s = Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1);
        assert!(s.channel.is_ideal());
        assert_eq!(s.negotiation_retries, 1);
        assert!(!s.negotiation_timeout.is_zero());
        let s = s.with_channel(LinkQuality::lossy(0.1));
        assert!(!s.channel.is_ideal());
    }

    #[test]
    fn try_with_attack_validates() {
        use realtor_workload::{AttackAction, AttackEvent};
        let s = Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1);
        let bad = AttackScenario::new(vec![AttackEvent {
            at: SimTime::from_secs(500),
            action: AttackAction::Kill { count: 3 },
        }]);
        assert!(s
            .clone()
            .try_with_attack(bad, TargetingStrategy::Random)
            .is_err());
        let good =
            AttackScenario::strike_and_recover(SimTime::from_secs(40), SimTime::from_secs(70), 5);
        assert!(s.try_with_attack(good, TargetingStrategy::Random).is_ok());
    }

    #[test]
    fn recovery_is_off_by_default() {
        let s = Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1);
        assert!(!s.recovery.enabled, "golden safety: recovery defaults off");
        assert!(!s.recovery.proactive);
        let s = s.with_recovery(RecoveryConfig::proactive().with_checkpoint_fraction(0.5));
        assert!(s.recovery.enabled);
        assert!(s.recovery.proactive);
        assert_eq!(s.recovery.checkpoint_fraction, 0.5);
    }

    #[test]
    #[should_panic(expected = "checkpoint fraction")]
    fn checkpoint_fraction_out_of_range_rejected() {
        RecoveryConfig::reactive().with_checkpoint_fraction(1.5);
    }

    #[test]
    fn chaos_is_off_by_default() {
        let s = Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1);
        assert!(!s.chaos.is_enabled(), "golden safety: chaos defaults off");
        let churn = ChurnConfig::new(
            0.1,
            SimDuration::from_secs(5),
            SimTime::from_secs(20),
            SimTime::from_secs(80),
        );
        let s = s.with_chaos(ChaosConfig::churn(churn));
        assert!(s.chaos.is_enabled());
        assert_eq!(s.chaos.churn, Some(churn));
        assert_eq!(s.chaos.adversary, None);
    }

    #[test]
    #[should_panic(expected = "invalid churn config")]
    fn chaos_validation_catches_bad_churn_window() {
        let churn = ChurnConfig::new(
            0.1,
            SimDuration::from_secs(5),
            SimTime::from_secs(20),
            SimTime::from_secs(200), // past the 100 s horizon
        );
        let _ = Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1)
            .with_chaos(ChaosConfig::churn(churn));
    }

    #[test]
    #[should_panic(expected = "adversary window")]
    fn chaos_validation_catches_bad_adversary_window() {
        let adv = AdversaryConfig {
            interval: SimDuration::from_secs(10),
            kills: 2,
            downtime: SimDuration::from_secs(5),
            start: SimTime::from_secs(50),
            end: SimTime::from_secs(40),
        };
        let _ = Scenario::paper(ProtocolKind::Realtor, 5.0, 100, 1)
            .with_chaos(ChaosConfig::adversary(adv));
    }

    #[test]
    fn cost_choice_charges() {
        assert_eq!(
            CostChoice::Paper.charges(),
            (UnicastCharge::Constant(4.0), FloodCharge::PerLink)
        );
        assert_eq!(
            CostChoice::Exact.charges(),
            (UnicastCharge::ExactHops, FloodCharge::PerLink)
        );
    }
}
