//! Attack scenarios — scripted node failures and recoveries over the run.
//!
//! The paper motivates REALTOR with survivability under "emergencies like
//! external attack, malfunction, or lack of resources" but evaluates only
//! steady load; the attack ablation (DESIGN.md A4) replays scripted
//! [`AttackEvent`]s against the simulator's fault state to quantify the
//! "works well in highly adverse environments" claim.

use realtor_simcore::{SimDuration, SimTime};

/// One scripted fault-injection step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackAction {
    /// Kill `count` nodes chosen by the simulator's targeting strategy.
    Kill {
        /// Number of victims.
        count: usize,
    },
    /// An attack *warning* followed by the strike: the victims are chosen
    /// at this event (the warning — proactive nodes can start evacuating)
    /// and killed `lead` later. Victim selection draws from the same
    /// targeting stream as [`AttackAction::Kill`], so a warned scenario and
    /// an unwarned one pick identical victims from identical seeds.
    KillAfterWarning {
        /// Number of victims.
        count: usize,
        /// Delay between the warning and the kill landing.
        lead: SimDuration,
    },
    /// Restore every currently dead node.
    RestoreAll,
    /// Restore `count` dead nodes (lowest ids first, deterministic).
    Restore {
        /// Number of nodes to bring back.
        count: usize,
    },
    /// Sever `count` randomly chosen intact links (a network-level attack:
    /// nodes stay up but paths lengthen or partition).
    CutLinks {
        /// Number of links to sever.
        count: usize,
    },
    /// Restore every severed link.
    RestoreLinks,
    /// Degrade `count` randomly chosen links: traffic crossing them suffers
    /// the scenario's degraded-link quality (loss/latency/duplication) but
    /// still flows — a jamming attack rather than a cut.
    DegradeLinks {
        /// Number of links to degrade.
        count: usize,
    },
    /// Restore every degraded link to the base channel quality.
    RestoreLinkQuality,
    /// Split the alive subgraph into `parts` contiguous components: nodes
    /// stay up but floods and unicasts cannot cross the cut until a
    /// [`AttackAction::Heal`]. Replaces any partition already in force.
    Partition {
        /// Number of components to split into (≥ 2).
        parts: usize,
    },
    /// Reconnect every link severed by the active partition.
    Heal,
}

/// Why an [`AttackScenario`] was rejected by [`AttackScenario::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackScenarioError {
    /// An event is scheduled at or past the simulation horizon and would
    /// silently never fire.
    EventPastHorizon {
        /// Index of the offending event in time order.
        index: usize,
        /// Its scheduled time.
        at: SimTime,
        /// The simulation horizon.
        horizon: SimTime,
    },
    /// A Kill/Restore count exceeds the node population.
    CountExceedsNodes {
        /// Index of the offending event in time order.
        index: usize,
        /// The requested count.
        count: usize,
        /// Nodes in the topology.
        node_count: usize,
    },
    /// A Kill is followed by a Restore/RestoreAll at the *same instant* —
    /// the order of same-time events is the scenario's insertion order, so
    /// this almost certainly means the restore was intended first (as in
    /// [`AttackScenario::rolling`]) and the script got them swapped.
    KillThenRestoreSameInstant {
        /// The shared timestamp.
        at: SimTime,
    },
    /// A Restore/RestoreAll with no Kill scheduled at or before it — a
    /// silent no-op that almost certainly means the script's times are
    /// wrong.
    RestoreBeforeKill {
        /// Index of the offending event in time order.
        index: usize,
        /// Its scheduled time.
        at: SimTime,
    },
    /// A Heal with no Partition scheduled at or before it — a silent no-op.
    HealBeforePartition {
        /// Index of the offending event in time order.
        index: usize,
        /// Its scheduled time.
        at: SimTime,
    },
    /// A Partition with an impossible component count: fewer than 2 parts
    /// splits nothing, and more parts than nodes names regions that do not
    /// exist.
    InvalidPartition {
        /// Index of the offending event in time order.
        index: usize,
        /// The requested component count.
        parts: usize,
        /// Nodes in the topology.
        node_count: usize,
    },
}

impl std::fmt::Display for AttackScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttackScenarioError::EventPastHorizon { index, at, horizon } => write!(
                f,
                "attack event #{index} at t={at} is past the simulation horizon {horizon} and would never fire"
            ),
            AttackScenarioError::CountExceedsNodes {
                index,
                count,
                node_count,
            } => write!(
                f,
                "attack event #{index} targets {count} nodes but the topology has only {node_count}"
            ),
            AttackScenarioError::KillThenRestoreSameInstant { at } => write!(
                f,
                "Kill followed by Restore/RestoreAll at the same instant t={at}: same-time order is insertion order, so the restore would undo the kill — reorder the script"
            ),
            AttackScenarioError::RestoreBeforeKill { index, at } => write!(
                f,
                "attack event #{index} restores nodes at t={at} but no kill is scheduled at or before it — the restore would be a silent no-op"
            ),
            AttackScenarioError::HealBeforePartition { index, at } => write!(
                f,
                "attack event #{index} heals a partition at t={at} but no Partition is scheduled at or before it — the heal would be a silent no-op"
            ),
            AttackScenarioError::InvalidPartition {
                index,
                parts,
                node_count,
            } => write!(
                f,
                "attack event #{index} partitions the network into {parts} parts but a split needs 2..={node_count} parts on {node_count} nodes"
            ),
        }
    }
}

impl std::error::Error for AttackScenarioError {}

/// A timed attack step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: AttackAction,
}

/// A full scripted scenario (sorted by time on construction).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AttackScenario {
    events: Vec<AttackEvent>,
}

impl AttackScenario {
    /// No attacks — the paper's baseline condition.
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from events (sorted internally by time, stable).
    pub fn new(mut events: Vec<AttackEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        AttackScenario { events }
    }

    /// The classic survivability probe: kill `count` nodes at `strike`,
    /// restore them all at `recover`.
    pub fn strike_and_recover(strike: SimTime, recover: SimTime, count: usize) -> Self {
        assert!(recover > strike);
        AttackScenario::new(vec![
            AttackEvent {
                at: strike,
                action: AttackAction::Kill { count },
            },
            AttackEvent {
                at: recover,
                action: AttackAction::RestoreAll,
            },
        ])
    }

    /// The warned variant of [`AttackScenario::strike_and_recover`]: an
    /// attack warning fires at `warn`, the kill lands `lead` later, and
    /// everything is restored at `recover`. With the same workload seed the
    /// victims match the unwarned strike exactly (same targeting draw), so
    /// warned and unwarned runs differ only in the defence they permit.
    pub fn warned_strike_and_recover(
        warn: SimTime,
        lead: SimDuration,
        recover: SimTime,
        count: usize,
    ) -> Self {
        assert!(recover > warn + lead, "recovery must follow the strike");
        AttackScenario::new(vec![
            AttackEvent {
                at: warn,
                action: AttackAction::KillAfterWarning { count, lead },
            },
            AttackEvent {
                at: recover,
                action: AttackAction::RestoreAll,
            },
        ])
    }

    /// The partition analogue of [`AttackScenario::strike_and_recover`]:
    /// split the network into `parts` components at `cut`, reconnect at
    /// `heal`.
    pub fn partition_and_heal(cut: SimTime, heal: SimTime, parts: usize) -> Self {
        assert!(heal > cut);
        AttackScenario::new(vec![
            AttackEvent {
                at: cut,
                action: AttackAction::Partition { parts },
            },
            AttackEvent {
                at: heal,
                action: AttackAction::Heal,
            },
        ])
    }

    /// A rolling attack: every `period`, kill `per_wave` nodes and restore
    /// the previous wave, starting at `start`, for `waves` waves.
    pub fn rolling(start: SimTime, period: SimDuration, per_wave: usize, waves: usize) -> Self {
        let mut events = Vec::new();
        for w in 0..waves {
            let t = start + period * w as u64;
            if w > 0 {
                events.push(AttackEvent {
                    at: t,
                    action: AttackAction::RestoreAll,
                });
            }
            events.push(AttackEvent {
                at: t,
                action: AttackAction::Kill { count: per_wave },
            });
        }
        AttackScenario::new(events)
    }

    /// The scripted events in time order.
    pub fn events(&self) -> &[AttackEvent] {
        &self.events
    }

    /// True when the scenario injects no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check the script against a simulation horizon and node population.
    ///
    /// Rejects events that would silently never fire (`at >= horizon`),
    /// Kill/Restore counts larger than the node population, a Kill
    /// followed at the *same instant* by a Restore/RestoreAll (same-time
    /// order is insertion order, so that ordering undoes the kill — the
    /// restore-then-kill ordering used by [`AttackScenario::rolling`] is
    /// fine and stays valid), contradictory orderings that would be silent
    /// no-ops (Restore with no prior kill, Heal with no prior Partition),
    /// and partitions into an impossible number of components.
    pub fn validate(&self, horizon: SimTime, node_count: usize) -> Result<(), AttackScenarioError> {
        let mut kill_seen = false;
        let mut partition_seen = false;
        for (index, e) in self.events.iter().enumerate() {
            match e.action {
                AttackAction::Kill { .. } | AttackAction::KillAfterWarning { .. } => {
                    kill_seen = true;
                }
                AttackAction::Restore { .. } | AttackAction::RestoreAll if !kill_seen => {
                    return Err(AttackScenarioError::RestoreBeforeKill { index, at: e.at });
                }
                AttackAction::Partition { parts } => {
                    if parts < 2 || parts > node_count {
                        return Err(AttackScenarioError::InvalidPartition {
                            index,
                            parts,
                            node_count,
                        });
                    }
                    partition_seen = true;
                }
                AttackAction::Heal if !partition_seen => {
                    return Err(AttackScenarioError::HealBeforePartition { index, at: e.at });
                }
                _ => {}
            }
            if e.at >= horizon {
                return Err(AttackScenarioError::EventPastHorizon {
                    index,
                    at: e.at,
                    horizon,
                });
            }
            let count = match e.action {
                AttackAction::Kill { count }
                | AttackAction::KillAfterWarning { count, .. }
                | AttackAction::Restore { count } => Some(count),
                _ => None,
            };
            if let Some(count) = count {
                if count > node_count {
                    return Err(AttackScenarioError::CountExceedsNodes {
                        index,
                        count,
                        node_count,
                    });
                }
            }
            if let AttackAction::KillAfterWarning { lead, .. } = e.action {
                // The kill lands `lead` after the warning; a strike landing
                // past the horizon would silently never happen.
                if e.at + lead >= horizon {
                    return Err(AttackScenarioError::EventPastHorizon {
                        index,
                        at: e.at + lead,
                        horizon,
                    });
                }
            }
        }
        for pair in self.events.windows(2) {
            let kill_first = matches!(pair[0].action, AttackAction::Kill { .. });
            let restore_second = matches!(
                pair[1].action,
                AttackAction::Restore { .. } | AttackAction::RestoreAll
            );
            if pair[0].at == pair[1].at && kill_first && restore_second {
                return Err(AttackScenarioError::KillThenRestoreSameInstant { at: pair[0].at });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sorted_by_time() {
        let s = AttackScenario::new(vec![
            AttackEvent {
                at: SimTime::from_secs(50),
                action: AttackAction::RestoreAll,
            },
            AttackEvent {
                at: SimTime::from_secs(10),
                action: AttackAction::Kill { count: 3 },
            },
        ]);
        assert_eq!(s.events()[0].at, SimTime::from_secs(10));
        assert_eq!(s.events()[1].at, SimTime::from_secs(50));
    }

    #[test]
    fn strike_and_recover_shape() {
        let s =
            AttackScenario::strike_and_recover(SimTime::from_secs(100), SimTime::from_secs(200), 5);
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.events()[0].action, AttackAction::Kill { count: 5 });
        assert_eq!(s.events()[1].action, AttackAction::RestoreAll);
    }

    #[test]
    fn rolling_waves_alternate_restore_kill() {
        let s = AttackScenario::rolling(SimTime::from_secs(10), SimDuration::from_secs(100), 2, 3);
        // wave 0: kill; waves 1, 2: restore + kill
        assert_eq!(s.events().len(), 5);
        assert_eq!(s.events()[0].action, AttackAction::Kill { count: 2 });
        assert_eq!(s.events()[1].action, AttackAction::RestoreAll);
        assert_eq!(s.events()[1].at, SimTime::from_secs(110));
    }

    #[test]
    fn none_is_empty() {
        assert!(AttackScenario::none().is_empty());
    }

    #[test]
    fn validate_accepts_sane_scripts() {
        let s =
            AttackScenario::strike_and_recover(SimTime::from_secs(100), SimTime::from_secs(200), 5);
        assert_eq!(s.validate(SimTime::from_secs(300), 25), Ok(()));
        // rolling() emits RestoreAll-then-Kill at the same instant — valid.
        let r = AttackScenario::rolling(SimTime::from_secs(10), SimDuration::from_secs(50), 2, 3);
        assert_eq!(r.validate(SimTime::from_secs(300), 25), Ok(()));
    }

    #[test]
    fn validate_rejects_event_past_horizon() {
        let s = AttackScenario::new(vec![AttackEvent {
            at: SimTime::from_secs(500),
            action: AttackAction::Kill { count: 1 },
        }]);
        assert!(matches!(
            s.validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::EventPastHorizon { index: 0, .. })
        ));
    }

    #[test]
    fn validate_rejects_oversized_kill() {
        let s = AttackScenario::new(vec![AttackEvent {
            at: SimTime::from_secs(10),
            action: AttackAction::Kill { count: 26 },
        }]);
        assert!(matches!(
            s.validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::CountExceedsNodes {
                count: 26,
                node_count: 25,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_kill_then_restore_same_instant() {
        let t = SimTime::from_secs(42);
        let s = AttackScenario::new(vec![
            AttackEvent {
                at: t,
                action: AttackAction::Kill { count: 2 },
            },
            AttackEvent {
                at: t,
                action: AttackAction::RestoreAll,
            },
        ]);
        assert_eq!(
            s.validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::KillThenRestoreSameInstant { at: t })
        );
        let msg = s
            .validate(SimTime::from_secs(300), 25)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("same instant"), "{msg}");
    }

    #[test]
    fn warned_kill_validates_strike_time_not_warning_time() {
        let warned = |at: u64, lead: u64| {
            AttackScenario::new(vec![AttackEvent {
                at: SimTime::from_secs(at),
                action: AttackAction::KillAfterWarning {
                    count: 5,
                    lead: SimDuration::from_secs(lead),
                },
            }])
        };
        assert_eq!(
            warned(100, 50).validate(SimTime::from_secs(300), 25),
            Ok(())
        );
        // Warning inside the horizon but the strike lands past it.
        assert!(matches!(
            warned(250, 60).validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::EventPastHorizon { index: 0, .. })
        ));
        let oversized = AttackScenario::new(vec![AttackEvent {
            at: SimTime::from_secs(10),
            action: AttackAction::KillAfterWarning {
                count: 26,
                lead: SimDuration::from_secs(5),
            },
        }]);
        assert!(matches!(
            oversized.validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::CountExceedsNodes { count: 26, .. })
        ));
    }

    #[test]
    fn validate_rejects_restore_before_any_kill() {
        let s = AttackScenario::new(vec![AttackEvent {
            at: SimTime::from_secs(50),
            action: AttackAction::RestoreAll,
        }]);
        assert!(matches!(
            s.validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::RestoreBeforeKill { index: 0, .. })
        ));
        // Restore *after* a kill (even a warned one) stays valid.
        let ok = AttackScenario::new(vec![
            AttackEvent {
                at: SimTime::from_secs(10),
                action: AttackAction::KillAfterWarning {
                    count: 2,
                    lead: SimDuration::from_secs(5),
                },
            },
            AttackEvent {
                at: SimTime::from_secs(50),
                action: AttackAction::Restore { count: 2 },
            },
        ]);
        assert_eq!(ok.validate(SimTime::from_secs(300), 25), Ok(()));
    }

    #[test]
    fn validate_rejects_heal_before_partition() {
        let s = AttackScenario::new(vec![AttackEvent {
            at: SimTime::from_secs(50),
            action: AttackAction::Heal,
        }]);
        assert!(matches!(
            s.validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::HealBeforePartition { index: 0, .. })
        ));
        let ok =
            AttackScenario::partition_and_heal(SimTime::from_secs(40), SimTime::from_secs(70), 2);
        assert_eq!(ok.validate(SimTime::from_secs(300), 25), Ok(()));
    }

    #[test]
    fn validate_rejects_impossible_partitions() {
        let part = |parts: usize| {
            AttackScenario::new(vec![AttackEvent {
                at: SimTime::from_secs(10),
                action: AttackAction::Partition { parts },
            }])
        };
        assert!(matches!(
            part(1).validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::InvalidPartition { parts: 1, .. })
        ));
        assert!(matches!(
            part(26).validate(SimTime::from_secs(300), 25),
            Err(AttackScenarioError::InvalidPartition {
                parts: 26,
                node_count: 25,
                ..
            })
        ));
        assert_eq!(part(2).validate(SimTime::from_secs(300), 25), Ok(()));
        let msg = part(26)
            .validate(SimTime::from_secs(300), 25)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("26 parts"), "{msg}");
    }

    #[test]
    fn degrade_actions_roundtrip() {
        let s = AttackScenario::new(vec![
            AttackEvent {
                at: SimTime::from_secs(10),
                action: AttackAction::DegradeLinks { count: 4 },
            },
            AttackEvent {
                at: SimTime::from_secs(20),
                action: AttackAction::RestoreLinkQuality,
            },
        ]);
        assert_eq!(s.validate(SimTime::from_secs(30), 25), Ok(()));
        assert_eq!(
            s.events()[0].action,
            AttackAction::DegradeLinks { count: 4 }
        );
    }
}
