//! Real-time schedulability simulation — validates the paper's §3 claim
//! that guaranteed-rate scheduling (EDF over per-component rate
//! reservations) is what makes migration-time admission a "simple
//! utilization test".
//!
//! [`simulate_periodic`] runs a single-CPU preemptive-EDF or FIFO
//! simulation of a periodic task set (implicit deadlines) and reports
//! deadline misses. Under preemptive EDF a task set is schedulable iff its
//! total utilization is ≤ 1 (Liu & Layland), so admitting while the total
//! utilization stays ≤ 1 is exact for EDF hosts — the property the
//! experiments' `deadlines` ablation demonstrates against a FIFO strawman.

use realtor_simcore::{SimDuration, SimTime};

/// A periodic task with implicit deadline (= period).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodicTask {
    /// Worst-case execution time per job, seconds.
    pub wcet_secs: f64,
    /// Release period (and relative deadline), seconds.
    pub period_secs: f64,
}

impl PeriodicTask {
    /// CPU utilization share of this task.
    pub fn utilization(&self) -> f64 {
        self.wcet_secs / self.period_secs
    }
}

/// Dispatch policy of the simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Preemptive earliest-deadline-first (the Agile Objects job scheduler).
    EdfPreemptive,
    /// Non-preemptive first-come-first-served (the strawman).
    FifoNonPreemptive,
}

/// Outcome of one schedulability simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtReport {
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs that completed (by the horizon).
    pub completed: u64,
    /// Completed jobs that missed their deadline.
    pub missed: u64,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    release: SimTime,
    deadline: SimTime,
    remaining: f64,
    seq: u64,
}

/// Simulate a periodic task set on one CPU until `horizon`.
///
/// All tasks release their first job at time zero (the critical instant).
pub fn simulate_periodic(
    tasks: &[PeriodicTask],
    policy: DispatchPolicy,
    horizon: SimTime,
) -> RtReport {
    assert!(!tasks.is_empty());
    for t in tasks {
        assert!(t.wcet_secs > 0.0 && t.period_secs >= t.wcet_secs);
    }
    let mut report = RtReport::default();
    let mut next_release: Vec<SimTime> = vec![SimTime::ZERO; tasks.len()];
    let mut ready: Vec<Job> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    // Non-preemptive FIFO commits to the running job.
    let mut running: Option<Job> = None;

    loop {
        // Release every job due by `now`.
        for (i, t) in tasks.iter().enumerate() {
            while next_release[i] <= now && next_release[i] < horizon {
                ready.push(Job {
                    release: next_release[i],
                    deadline: next_release[i] + SimDuration::from_secs_f64(t.period_secs),
                    remaining: t.wcet_secs,
                    seq,
                });
                seq += 1;
                report.released += 1;
                next_release[i] += SimDuration::from_secs_f64(t.period_secs);
            }
        }

        let upcoming = next_release.iter().copied().filter(|&r| r < horizon).min();

        // Select the job to run.
        let job_idx = match policy {
            DispatchPolicy::EdfPreemptive => {
                // put any committed job back (preemption allowed)
                if let Some(j) = running.take() {
                    ready.push(j);
                }
                ready
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.deadline.cmp(&b.1.deadline).then(a.1.seq.cmp(&b.1.seq)))
                    .map(|(i, _)| i)
            }
            DispatchPolicy::FifoNonPreemptive => {
                if running.is_none() {
                    ready
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.release.cmp(&b.1.release).then(a.1.seq.cmp(&b.1.seq)))
                        .map(|(i, _)| i)
                } else {
                    None // keep the committed job
                }
            }
        };
        if let Some(i) = job_idx {
            running = Some(ready.swap_remove(i));
        }

        match running {
            None => {
                // Idle: jump to the next release, or finish.
                match upcoming {
                    Some(r) if r < horizon => now = now.max(r),
                    _ => break,
                }
            }
            Some(mut job) => {
                let finish = now + SimDuration::from_secs_f64(job.remaining);
                // Under preemptive EDF a release may preempt; FIFO never.
                let stop = match (policy, upcoming) {
                    (DispatchPolicy::EdfPreemptive, Some(r)) => finish.min(r),
                    _ => finish,
                };
                if stop >= horizon {
                    // Horizon reached mid-execution: job unfinished.
                    break;
                }
                // Clamp at the clock's tick resolution: a remainder smaller
                // than one nanosecond would otherwise round to a zero-length
                // step and spin forever.
                job.remaining = (job.remaining - stop.since(now).as_secs_f64()).max(0.0);
                now = stop;
                if job.remaining <= 1e-9 {
                    report.completed += 1;
                    if now > job.deadline {
                        report.missed += 1;
                    }
                    running = None;
                } else {
                    running = Some(job);
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn edf_schedulable_set_never_misses() {
        // U = 0.5 + 0.25 + 0.2 = 0.95 <= 1: EDF must meet every deadline.
        let tasks = [
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 2.0,
            },
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 4.0,
            },
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 5.0,
            },
        ];
        let r = simulate_periodic(&tasks, DispatchPolicy::EdfPreemptive, horizon(1000));
        assert!(r.released > 800);
        assert_eq!(r.missed, 0, "EDF missed {} of {}", r.missed, r.completed);
    }

    #[test]
    fn edf_full_utilization_still_schedulable() {
        // U = 1.0 exactly: still schedulable under EDF.
        let tasks = [
            PeriodicTask {
                wcet_secs: 2.0,
                period_secs: 4.0,
            },
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 2.0,
            },
        ];
        let r = simulate_periodic(&tasks, DispatchPolicy::EdfPreemptive, horizon(400));
        assert_eq!(r.missed, 0);
    }

    #[test]
    fn edf_overload_misses() {
        // U = 1.25: someone has to miss.
        let tasks = [
            PeriodicTask {
                wcet_secs: 3.0,
                period_secs: 4.0,
            },
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 2.0,
            },
        ];
        let r = simulate_periodic(&tasks, DispatchPolicy::EdfPreemptive, horizon(400));
        assert!(r.missed > 0);
    }

    #[test]
    fn fifo_misses_where_edf_does_not() {
        // A long job ahead of a tight one: FIFO blows the short deadline.
        let tasks = [
            PeriodicTask {
                wcet_secs: 5.0,
                period_secs: 10.0,
            },
            PeriodicTask {
                wcet_secs: 0.5,
                period_secs: 2.0,
            },
        ];
        let edf = simulate_periodic(&tasks, DispatchPolicy::EdfPreemptive, horizon(1000));
        let fifo = simulate_periodic(&tasks, DispatchPolicy::FifoNonPreemptive, horizon(1000));
        assert_eq!(edf.missed, 0, "EDF must schedule U=0.75");
        assert!(
            fifo.missed > 0,
            "non-preemptive FIFO must miss short deadlines behind long jobs"
        );
    }

    #[test]
    fn utilization_accessor() {
        let t = PeriodicTask {
            wcet_secs: 1.0,
            period_secs: 4.0,
        };
        assert_eq!(t.utilization(), 0.25);
    }

    #[test]
    fn work_conservation() {
        // Completed work cannot exceed the horizon on one CPU.
        let tasks = [
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 1.5,
            },
            PeriodicTask {
                wcet_secs: 1.0,
                period_secs: 2.0,
            },
        ];
        for policy in [
            DispatchPolicy::EdfPreemptive,
            DispatchPolicy::FifoNonPreemptive,
        ] {
            let r = simulate_periodic(&tasks, policy, horizon(300));
            // every completed job of task 0/1 took 1 s
            assert!(
                (r.completed as f64) <= 300.0 + 1.0,
                "{policy:?} completed more work than time allows"
            );
        }
    }
}
