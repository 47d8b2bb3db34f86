//! Run-level metrics — the quantities plotted in the paper's Figures 5–8.

use realtor_net::MessageLedger;
use realtor_simcore::SimTime;

/// Admission statistics over one time window (attack experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStat {
    /// Window start.
    pub start: SimTime,
    /// Tasks offered in the window.
    pub offered: u64,
    /// Tasks admitted (locally or by migration) in the window.
    pub admitted: u64,
    /// Alive nodes at the end of the window.
    pub alive_nodes: usize,
}

impl WindowStat {
    /// Admission probability within the window (0 when nothing offered).
    pub fn admission_probability(&self) -> f64 {
        realtor_simcore::stats::ratio(self.admitted, self.offered)
    }
}

/// Per-node statistics (fairness/load-balance analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeStat {
    /// Tasks that arrived at this node.
    pub offered: u64,
    /// Tasks admitted into this node's queue (locally arrived or migrated
    /// in).
    pub admitted_here: u64,
    /// Time-weighted mean queue occupancy fraction over the run.
    pub mean_occupancy: f64,
}

/// The full outcome of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Tasks generated (after warm-up).
    pub offered: u64,
    /// Tasks admitted at their arrival node.
    pub admitted_local: u64,
    /// Tasks admitted at a migration destination.
    pub admitted_migrated: u64,
    /// Tasks rejected (no candidate, candidate refused, or node dead).
    pub rejected: u64,
    /// Tasks offered to dead nodes (subset of `rejected`).
    pub lost_to_attacks: u64,
    /// Migration attempts (one-shot tries).
    pub migration_attempts: u64,
    /// Migration attempts that were admitted at the destination.
    pub migration_successes: u64,
    /// Message accounting.
    pub ledger: MessageLedger,
    /// Windowed statistics when the scenario requested them.
    pub windows: Vec<WindowStat>,
    /// Per-node statistics, indexed by node id.
    pub node_stats: Vec<NodeStat>,
    /// Sampled Algorithm-H interval dynamics (one sample per window when
    /// windows are enabled): `(time, mean interval s, max interval s)`
    /// across alive pull-family nodes.
    pub interval_series: Vec<(SimTime, f64, f64)>,
    /// Total events the engine processed (sanity/performance diagnostics).
    pub events_processed: u64,
    /// Deepest the engine's event queue ever got during the run (a
    /// deterministic function of the schedule, so safe next to golden pins).
    pub queue_high_water: u64,
    /// Seconds of queued-but-unexecuted work wiped by node kills — the
    /// hidden cost `lost_to_attacks` (which only counts arrivals *at* dead
    /// nodes) never metered. Nonzero whenever a kill lands on a non-empty
    /// queue, recovery enabled or not.
    pub work_destroyed: f64,
    /// Admitted tasks still pending when their node was killed.
    pub tasks_interrupted: u64,
    /// Interrupted tasks whose checkpoint was re-admitted somewhere
    /// (reactive recovery, crash-restart, or an in-flight evacuation that
    /// completed after the kill).
    pub tasks_recovered: u64,
    /// Interrupted tasks destroyed for good (no checkpoint, recovery
    /// retries exhausted, or recovery disabled).
    pub tasks_destroyed: u64,
    /// Seconds of checkpointed work successfully re-admitted.
    pub work_recovered: f64,
    /// Discovery re-submissions attempted for orphaned checkpoints.
    pub recovery_attempts: u64,
    /// Evacuation negotiations launched on an attack warning.
    pub evacuation_attempts: u64,
    /// Evacuations that moved the task off the warned node before the kill.
    pub evacuation_successes: u64,
    /// Seconds of work moved off warned nodes before their kill.
    pub work_evacuated: f64,
    /// Node deaths confirmed by some surviving peer's failure detector
    /// (first confirmation per kill only).
    pub detections: u64,
    /// Sum over detections of (confirmation time − kill time), seconds.
    pub detection_latency_sum: f64,
    /// Worst single detection latency, seconds.
    pub detection_latency_max: f64,
    /// Dead-peer declarations that named a node which was actually alive.
    pub false_suspicions: u64,
}

impl SimResult {
    /// Total tasks admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted_local + self.admitted_migrated
    }

    /// The paper's Figure-5 metric: admitted / offered.
    pub fn admission_probability(&self) -> f64 {
        realtor_simcore::stats::ratio(self.admitted(), self.offered)
    }

    /// The paper's Figure-6 metric: total message cost.
    pub fn total_messages(&self) -> f64 {
        self.ledger.total()
    }

    /// The paper's Figure-7 metric: message cost per admitted task
    /// (0 when nothing was admitted).
    pub fn cost_per_admitted_task(&self) -> f64 {
        let admitted = self.admitted();
        if admitted == 0 {
            0.0
        } else {
            self.ledger.total() / admitted as f64
        }
    }

    /// The paper's Figure-8 metric: migrations per admitted task.
    pub fn migration_rate(&self) -> f64 {
        realtor_simcore::stats::ratio(self.migration_successes, self.admitted())
    }

    /// Jain's fairness index of per-node admitted work — how evenly the
    /// discovery protocol spread load across the system (1 = perfectly
    /// even). Returns 1 when per-node stats were not collected.
    pub fn placement_fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .node_stats
            .iter()
            .map(|s| s.admitted_here as f64)
            .collect();
        realtor_simcore::stats::jain_fairness(&xs)
    }

    /// Mean and max of per-node mean occupancy (0s when not collected).
    pub fn occupancy_spread(&self) -> (f64, f64) {
        if self.node_stats.is_empty() {
            return (0.0, 0.0);
        }
        let mean = self
            .node_stats
            .iter()
            .map(|s| s.mean_occupancy)
            .sum::<f64>()
            / self.node_stats.len() as f64;
        let max = self
            .node_stats
            .iter()
            .map(|s| s.mean_occupancy)
            .fold(0.0f64, f64::max);
        (mean, max)
    }

    /// Mean windowed admission probability over windows that end at or
    /// before `before` (the pre-attack baseline). Windows with no offered
    /// tasks are skipped; `None` when no complete window precedes `before`.
    pub fn baseline_admission(&self, before: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u32;
        for (i, w) in self.windows.iter().enumerate() {
            // A window's end is the next window's start; the last window's
            // end is the horizon, which we never treat as "before".
            let Some(next) = self.windows.get(i + 1) else {
                break;
            };
            if next.start <= before && w.offered > 0 {
                sum += w.admission_probability();
                n += 1;
            }
        }
        (n > 0).then(|| sum / f64::from(n))
    }

    /// Survivability: how far windowed admission probability fell below the
    /// pre-`strike` baseline at its worst (0 when it never dipped, or when
    /// no baseline exists).
    pub fn dip_depth(&self, strike: SimTime) -> f64 {
        let Some(base) = self.baseline_admission(strike) else {
            return 0.0;
        };
        let mut min = f64::INFINITY;
        for (i, w) in self.windows.iter().enumerate() {
            let ends_after_strike = self
                .windows
                .get(i + 1)
                .map(|next| next.start > strike)
                .unwrap_or(true);
            if ends_after_strike && w.offered > 0 {
                min = min.min(w.admission_probability());
            }
        }
        if min.is_finite() {
            (base - min).max(0.0)
        } else {
            0.0
        }
    }

    /// Survivability: number of full windows after `restore` before windowed
    /// admission probability returns within `epsilon` of the pre-`strike`
    /// baseline (0 = the first post-restore window is already recovered).
    /// `None` when it never recovers inside the run, or no baseline exists.
    pub fn time_to_recovery(&self, strike: SimTime, restore: SimTime, epsilon: f64) -> Option<u64> {
        let base = self.baseline_admission(strike)?;
        self.windows
            .iter()
            .filter(|w| w.start >= restore)
            .position(|w| w.offered > 0 && w.admission_probability() >= base - epsilon)
            .map(|n| n as u64)
    }

    /// Fraction of interrupted tasks that were recovered (0 when no kills
    /// interrupted anything).
    pub fn recovered_fraction(&self) -> f64 {
        realtor_simcore::stats::ratio(self.tasks_recovered, self.tasks_interrupted)
    }

    /// Mean detection latency in seconds (0 when nothing was detected).
    pub fn mean_detection_latency(&self) -> f64 {
        if self.detections == 0 {
            0.0
        } else {
            self.detection_latency_sum / self.detections as f64
        }
    }

    /// Internal consistency checks; called at the end of every run.
    pub fn validate(&self) {
        assert_eq!(
            self.offered,
            self.admitted() + self.rejected,
            "offered must equal admitted + rejected"
        );
        assert!(self.migration_successes <= self.migration_attempts);
        assert_eq!(
            self.admitted_migrated, self.migration_successes,
            "every migrated admission is a migration success"
        );
        assert!(self.lost_to_attacks <= self.rejected);
        // The recovery ledger: every interrupted task resolves exactly one
        // way. (`work_destroyed` has no such identity — destroyed work is
        // metered even when recovery is disabled and no tasks are tracked.)
        assert_eq!(
            self.tasks_interrupted,
            self.tasks_recovered + self.tasks_destroyed,
            "every interrupted task is recovered or destroyed"
        );
        assert!(self.evacuation_successes <= self.evacuation_attempts);
        assert!(self.work_destroyed >= 0.0);
        assert!(self.work_recovered >= 0.0);
        assert!(self.work_evacuated >= 0.0);
        assert!(self.detection_latency_sum >= 0.0);
        assert!(self.detection_latency_max <= self.detection_latency_sum + 1e-9);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut r = SimResult {
            offered: 100,
            admitted_local: 70,
            admitted_migrated: 10,
            rejected: 20,
            migration_attempts: 15,
            migration_successes: 10,
            ..Default::default()
        };
        r.ledger.charge_help(40.0);
        r.ledger.charge_pledge(4.0);
        r.validate();
        assert!((r.admission_probability() - 0.8).abs() < 1e-12);
        assert!((r.total_messages() - 44.0).abs() < 1e-12);
        assert!((r.cost_per_admitted_task() - 0.55).abs() < 1e-12);
        assert!((r.migration_rate() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_consistent() {
        let r = SimResult::default();
        r.validate();
        assert_eq!(r.admission_probability(), 0.0);
        assert_eq!(r.cost_per_admitted_task(), 0.0);
    }

    #[test]
    #[should_panic(expected = "offered must equal")]
    fn validate_catches_imbalance() {
        let r = SimResult {
            offered: 5,
            admitted_local: 1,
            ..Default::default()
        };
        r.validate();
    }

    #[test]
    fn recovery_ledger_balances() {
        let r = SimResult {
            tasks_interrupted: 7,
            tasks_recovered: 4,
            tasks_destroyed: 3,
            work_destroyed: 12.5,
            work_recovered: 20.0,
            recovery_attempts: 5,
            evacuation_attempts: 3,
            evacuation_successes: 2,
            work_evacuated: 9.0,
            detections: 2,
            detection_latency_sum: 30.0,
            detection_latency_max: 18.0,
            ..Default::default()
        };
        r.validate();
        assert!((r.recovered_fraction() - 4.0 / 7.0).abs() < 1e-12);
        assert!((r.mean_detection_latency() - 15.0).abs() < 1e-12);
        assert_eq!(SimResult::default().recovered_fraction(), 0.0);
        assert_eq!(SimResult::default().mean_detection_latency(), 0.0);
    }

    #[test]
    #[should_panic(expected = "recovered or destroyed")]
    fn validate_catches_leaked_interrupted_task() {
        let r = SimResult {
            tasks_interrupted: 3,
            tasks_recovered: 1,
            tasks_destroyed: 1,
            ..Default::default()
        };
        r.validate();
    }

    fn windowed(probs: &[(u64, u64)]) -> SimResult {
        // Windows of 10 s each starting at 0.
        let windows = probs
            .iter()
            .enumerate()
            .map(|(i, &(offered, admitted))| WindowStat {
                start: SimTime::from_secs(10 * i as u64),
                offered,
                admitted,
                alive_nodes: 25,
            })
            .collect();
        SimResult {
            windows,
            ..Default::default()
        }
    }

    #[test]
    fn survivability_metrics() {
        // Baseline 1.0 for 3 windows, dip to 0.5, recover at window start 50.
        let r = windowed(&[
            (10, 10),
            (10, 10),
            (10, 10),
            (10, 5),
            (10, 6),
            (10, 10),
            (10, 10),
        ]);
        let strike = SimTime::from_secs(30);
        let restore = SimTime::from_secs(50);
        assert_eq!(r.baseline_admission(strike), Some(1.0));
        assert!((r.dip_depth(strike) - 0.5).abs() < 1e-12);
        assert_eq!(r.time_to_recovery(strike, restore, 0.05), Some(0));
        // With a tighter restore point the 0.6 window counts as unrecovered.
        assert_eq!(
            r.time_to_recovery(strike, SimTime::from_secs(40), 0.05),
            Some(1)
        );
    }

    #[test]
    fn never_recovering_run_reports_none() {
        let r = windowed(&[(10, 10), (10, 10), (10, 2), (10, 3)]);
        let strike = SimTime::from_secs(20);
        assert_eq!(r.time_to_recovery(strike, strike, 0.05), None);
        assert_eq!(r.baseline_admission(SimTime::ZERO), None);
        assert_eq!(r.dip_depth(SimTime::ZERO), 0.0);
    }

    #[test]
    fn window_stat_probability() {
        let w = WindowStat {
            start: SimTime::ZERO,
            offered: 10,
            admitted: 7,
            alive_nodes: 20,
        };
        assert!((w.admission_probability() - 0.7).abs() < 1e-12);
    }
}
