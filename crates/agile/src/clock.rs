//! Scaled wall-clock time.
//!
//! The paper's cluster measurement (§6) runs tasks that are "timers waiting
//! to expire" over thousands of simulated seconds. To keep `cargo test` and
//! the Figure-9 experiment fast, the cluster runs on a scaled clock: one
//! simulated second maps to `1/scale` wall seconds. All protocol logic reads
//! [`Clock::now`] (a [`SimTime`]), so host code is identical at any scale —
//! scale 1.0 is true real time.

use realtor_simcore::{SimDuration, SimTime};
use std::time::{Duration, Instant};

/// A monotonically increasing scaled clock shared by a cluster.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    start: Instant,
    /// Simulated seconds per wall second.
    scale: f64,
}

impl Clock {
    /// Start a clock at simulated time zero, running `scale`× real time.
    pub fn start(scale: f64) -> Self {
        assert!(scale > 0.0 && scale.is_finite());
        Clock {
            start: Instant::now(),
            scale,
        }
    }

    /// The scale factor (simulated seconds per wall second).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.start.elapsed().as_secs_f64() * self.scale)
    }

    /// Convert a simulated duration to the wall-clock duration to sleep.
    pub fn to_wall(&self, d: SimDuration) -> Duration {
        Duration::from_secs_f64(d.as_secs_f64() / self.scale)
    }

    /// Sleep (wall time) until the simulated instant `t`; returns
    /// immediately if `t` has passed.
    pub fn sleep_until(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            std::thread::sleep(self.to_wall(t - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_scaled() {
        let c = Clock::start(1000.0);
        std::thread::sleep(Duration::from_millis(10));
        let t = c.now().as_secs_f64();
        // 10 ms wall at 1000x ≈ 10 simulated seconds (generous bounds for CI).
        assert!(t >= 9.0, "clock too slow: {t}");
        assert!(t < 60.0, "clock ran away: {t}");
    }

    #[test]
    fn to_wall_divides_by_the_scale() {
        let c = Clock::start(100.0);
        assert_eq!(
            c.to_wall(SimDuration::from_secs(5)),
            Duration::from_millis(50)
        );
    }

    #[test]
    fn sleep_until_past_instant_is_instant() {
        let c = Clock::start(1000.0);
        std::thread::sleep(Duration::from_millis(2));
        let before = Instant::now();
        c.sleep_until(SimTime::ZERO);
        assert!(before.elapsed() < Duration::from_millis(5));
    }
}
