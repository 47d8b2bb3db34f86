//! Live fault injection: replay a simulator [`AttackScenario`] against a
//! running thread-per-host cluster.
//!
//! The same scripted scenarios that drive the discrete-event attack
//! experiments (strike-and-recover, rolling waves, …) compile here into a
//! concrete [`FaultPlan`] — victim hosts resolved from a seeded stream over
//! the currently-alive set, timed on the cluster's scaled clock — and a
//! replay thread executes it mid-load. Actions the runtime fabric does not
//! model (link cuts, partitions) are skipped and counted rather than
//! silently dropped, so a driver can report exactly what fraction of a
//! scenario applied.

use crate::cluster::Cluster;
use crate::transport::HostId;
use realtor_simcore::{SimRng, SimTime};
use realtor_workload::attack::{AttackAction, AttackScenario};

/// One concrete fault against one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Take the host down.
    Kill(HostId),
    /// Bring the host back.
    Restore(HostId),
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCommand {
    /// Simulated instant at which to apply the op.
    pub at: SimTime,
    /// The op.
    pub op: FaultOp,
}

/// How kills land on the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStyle {
    /// The host observes the kill and interrupts its own work (the paper's
    /// attack warning arriving just in time for accounting, not evacuation).
    Cooperative,
    /// The host thread dies on the spot without cleanup; the supervisor
    /// must detect it, recover the work from the shared core, and restart
    /// it amnesiac. `Restore` commands are ignored — a crashed host comes
    /// back only through supervision.
    Crash,
}

/// A fully resolved, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Commands in time order.
    pub commands: Vec<FaultCommand>,
    /// Scenario events that do not apply to the runtime fabric (link cuts,
    /// degradations, partitions) and were skipped.
    pub skipped: usize,
}

impl FaultPlan {
    /// An empty plan.
    pub fn none() -> Self {
        FaultPlan {
            commands: Vec::new(),
            skipped: 0,
        }
    }

    /// True when no command is scheduled.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// Resolve `scenario` against a cluster of `hosts` hosts. Victims of
    /// each kill wave are sampled without replacement from the hosts alive
    /// at that point of the script, using the seeded `"fault"` stream —
    /// the same plan for the same `(scenario, hosts, seed)` every run.
    pub fn from_attack(scenario: &AttackScenario, hosts: usize, seed: u64) -> Self {
        let mut rng = SimRng::stream(seed, "fault");
        let mut alive: Vec<HostId> = (0..hosts).collect();
        let mut dead: Vec<HostId> = Vec::new();
        let mut commands = Vec::new();
        let mut skipped = 0;
        let kill = |at: SimTime,
                    count: usize,
                    rng: &mut SimRng,
                    alive: &mut Vec<HostId>,
                    dead: &mut Vec<HostId>,
                    commands: &mut Vec<FaultCommand>| {
            let count = count.min(alive.len());
            let mut victims: Vec<HostId> = rng
                .sample_indices(alive.len(), count)
                .into_iter()
                .map(|i| alive[i])
                .collect();
            victims.sort_unstable();
            for v in victims {
                alive.retain(|&h| h != v);
                dead.push(v);
                commands.push(FaultCommand {
                    at,
                    op: FaultOp::Kill(v),
                });
            }
        };
        for ev in scenario.events() {
            match ev.action {
                AttackAction::Kill { count } => {
                    kill(ev.at, count, &mut rng, &mut alive, &mut dead, &mut commands);
                }
                AttackAction::KillAfterWarning { count, lead } => {
                    // The runtime has no evacuation machinery; the strike
                    // simply lands at warning-time + lead.
                    kill(
                        ev.at + lead,
                        count,
                        &mut rng,
                        &mut alive,
                        &mut dead,
                        &mut commands,
                    );
                }
                AttackAction::RestoreAll => {
                    dead.sort_unstable();
                    for v in dead.drain(..) {
                        alive.push(v);
                        commands.push(FaultCommand {
                            at: ev.at,
                            op: FaultOp::Restore(v),
                        });
                    }
                }
                AttackAction::Restore { count } => {
                    dead.sort_unstable();
                    for v in dead.drain(..count.min(dead.len())).collect::<Vec<_>>() {
                        alive.push(v);
                        commands.push(FaultCommand {
                            at: ev.at,
                            op: FaultOp::Restore(v),
                        });
                    }
                }
                AttackAction::CutLinks { .. }
                | AttackAction::RestoreLinks
                | AttackAction::DegradeLinks { .. }
                | AttackAction::RestoreLinkQuality
                | AttackAction::Partition { .. }
                | AttackAction::Heal => skipped += 1,
            }
        }
        commands.sort_by_key(|c| c.at);
        FaultPlan { commands, skipped }
    }
}

/// Replay `plan` against `cluster` on its scaled clock, blocking until the
/// last command has been applied. `Cooperative` kills go through the
/// control plane ([`Cluster::kill_host`]); `Crash` kills terminate the host
/// thread outright ([`Cluster::crash_host`]) and ignore restores, leaving
/// revival to the supervisor.
pub fn run_faults(cluster: &Cluster, plan: &FaultPlan, style: FaultStyle) {
    let clock = cluster.clock();
    for cmd in &plan.commands {
        clock.sleep_until(cmd.at);
        match (cmd.op, style) {
            (FaultOp::Kill(h), FaultStyle::Cooperative) => cluster.kill_host(h),
            (FaultOp::Kill(h), FaultStyle::Crash) => cluster.crash_host(h),
            (FaultOp::Restore(h), FaultStyle::Cooperative) => cluster.revive_host(h),
            (FaultOp::Restore(_), FaultStyle::Crash) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realtor_simcore::SimDuration;
    use realtor_workload::attack::AttackEvent;

    fn at(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn strike_and_recover_resolves_victims_and_restores_them() {
        let s = AttackScenario::strike_and_recover(at(100), at(200), 3);
        let plan = FaultPlan::from_attack(&s, 10, 7);
        assert_eq!(plan.skipped, 0);
        assert_eq!(plan.commands.len(), 6);
        let kills: Vec<HostId> = plan
            .commands
            .iter()
            .filter_map(|c| match c.op {
                FaultOp::Kill(h) => Some(h),
                _ => None,
            })
            .collect();
        let restores: Vec<HostId> = plan
            .commands
            .iter()
            .filter_map(|c| match c.op {
                FaultOp::Restore(h) => Some(h),
                _ => None,
            })
            .collect();
        assert_eq!(kills.len(), 3);
        assert_eq!(
            restores, kills,
            "restore-all brings back exactly the victims"
        );
        assert!(plan.commands.iter().all(|c| match c.op {
            FaultOp::Kill(_) => c.at == at(100),
            FaultOp::Restore(_) => c.at == at(200),
        }));
    }

    #[test]
    fn same_seed_same_plan_different_seed_differs() {
        let s = AttackScenario::rolling(at(50), SimDuration::from_secs(30), 2, 4);
        let a = FaultPlan::from_attack(&s, 16, 11);
        let b = FaultPlan::from_attack(&s, 16, 11);
        assert_eq!(a, b);
        let c = FaultPlan::from_attack(&s, 16, 12);
        assert_ne!(a, c, "victim choice must be seed-driven");
    }

    #[test]
    fn second_wave_targets_only_survivors() {
        let events = vec![
            AttackEvent {
                at: at(10),
                action: AttackAction::Kill { count: 3 },
            },
            AttackEvent {
                at: at(20),
                action: AttackAction::Kill { count: 3 },
            },
        ];
        let plan = FaultPlan::from_attack(&AttackScenario::new(events), 6, 3);
        let kills: Vec<HostId> = plan
            .commands
            .iter()
            .filter_map(|c| match c.op {
                FaultOp::Kill(h) => Some(h),
                _ => None,
            })
            .collect();
        assert_eq!(kills.len(), 6, "waves never re-kill a dead host");
        let mut sorted = kills.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6);
    }

    #[test]
    fn network_actions_are_skipped_and_counted() {
        let s = AttackScenario::partition_and_heal(at(10), at(20), 2);
        let plan = FaultPlan::from_attack(&s, 8, 1);
        assert!(plan.is_empty());
        assert_eq!(plan.skipped, 2);
    }

    #[test]
    fn warned_kill_lands_after_the_lead() {
        let s = AttackScenario::warned_strike_and_recover(
            at(100),
            SimDuration::from_secs(40),
            at(200),
            2,
        );
        let plan = FaultPlan::from_attack(&s, 8, 5);
        let kill_times: Vec<SimTime> = plan
            .commands
            .iter()
            .filter_map(|c| match c.op {
                FaultOp::Kill(_) => Some(c.at),
                _ => None,
            })
            .collect();
        assert!(kill_times.iter().all(|&t| t == at(140)));
    }
}
