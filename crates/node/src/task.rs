//! Tasks — the unit of work that arrives, queues, executes and migrates.
//!
//! The paper's simulation generates "tasks with exponentially distributed
//! lengths of a mean value [5 s]"; a task of size 2 "holds the CPU on the
//! node for 2 seconds". In the Agile Objects implementation (§6) each task
//! is "a timer waiting to expire", whose only migratable state is the
//! remaining un-expired time — exactly what [`Task::remaining_secs`] models.

use realtor_simcore::SimTime;

/// Globally unique task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Static priority class (lower value = more urgent), as used by the Agile
/// Objects job scheduler ("static priority and EDF in the same priority").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u8);

/// A schedulable unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Unique id.
    pub id: TaskId,
    /// Total execution demand in seconds of CPU/queue time.
    pub size_secs: f64,
    /// When the task entered the system.
    pub arrival: SimTime,
    /// Absolute deadline, if the task is a hard real-time job.
    pub deadline: Option<SimTime>,
    /// Static priority class.
    pub priority: Priority,
    /// Execution already received (used when a partially executed component
    /// migrates: only the remainder moves).
    pub executed_secs: f64,
}

impl Task {
    /// A plain best-effort task, as in the paper's Section 5 workload.
    pub fn new(id: TaskId, size_secs: f64, arrival: SimTime) -> Self {
        assert!(size_secs > 0.0, "task size must be positive");
        Task {
            id,
            size_secs,
            arrival,
            deadline: None,
            priority: Priority::default(),
            executed_secs: 0.0,
        }
    }

    /// A real-time task with a deadline and priority class.
    pub fn real_time(
        id: TaskId,
        size_secs: f64,
        arrival: SimTime,
        deadline: SimTime,
        priority: Priority,
    ) -> Self {
        let mut t = Task::new(id, size_secs, arrival);
        assert!(deadline >= arrival, "deadline before arrival");
        t.deadline = Some(deadline);
        t.priority = priority;
        t
    }

    /// Execution still owed, in seconds.
    pub fn remaining_secs(&self) -> f64 {
        (self.size_secs - self.executed_secs).max(0.0)
    }

    /// Record `secs` of execution progress, saturating at completion.
    pub fn execute(&mut self, secs: f64) {
        assert!(secs >= 0.0);
        self.executed_secs = (self.executed_secs + secs).min(self.size_secs);
    }

    /// True when the task has received its full demand.
    pub fn is_complete(&self) -> bool {
        self.remaining_secs() == 0.0
    }

    /// Would the task meet its deadline if it completed at `finish`?
    /// Deadline-less tasks always do.
    pub fn meets_deadline(&self, finish: SimTime) -> bool {
        self.deadline.is_none_or(|d| finish <= d)
    }
}

/// Monotonic task-id allocator.
#[derive(Debug, Default, Clone)]
pub struct TaskIdGen(u64);

impl TaskIdGen {
    /// A fresh allocator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the next id.
    pub fn next_id(&mut self) -> TaskId {
        let id = TaskId(self.0);
        self.0 += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_progress() {
        let mut t = Task::new(TaskId(1), 5.0, SimTime::ZERO);
        assert_eq!(t.remaining_secs(), 5.0);
        t.execute(2.0);
        assert_eq!(t.remaining_secs(), 3.0);
        assert!(!t.is_complete());
        t.execute(10.0); // saturates
        assert_eq!(t.remaining_secs(), 0.0);
        assert!(t.is_complete());
    }

    #[test]
    fn deadline_check() {
        let t = Task::real_time(
            TaskId(1),
            2.0,
            SimTime::ZERO,
            SimTime::from_secs(10),
            Priority(1),
        );
        assert!(t.meets_deadline(SimTime::from_secs(10)));
        assert!(!t.meets_deadline(SimTime::from_secs(11)));
        let be = Task::new(TaskId(2), 2.0, SimTime::ZERO);
        assert!(be.meets_deadline(SimTime::from_secs(1_000_000)));
    }

    #[test]
    fn id_gen_is_monotonic_and_unique() {
        let mut g = TaskIdGen::new();
        let ids: Vec<TaskId> = (0..100).map(|_| g.next_id()).collect();
        for w in ids.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic(expected = "task size")]
    fn zero_size_rejected() {
        Task::new(TaskId(0), 0.0, SimTime::ZERO);
    }
}
