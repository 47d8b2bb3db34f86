//! Continuous churn — sustained node replacement, not one-shot strikes.
//!
//! The paper's survivability evaluation is a scripted strike-and-recover;
//! peer-to-peer reality is *churn*: a constant fraction of the population
//! is replaced every round (Augustine et al., "Distributed Agreement in
//! Dynamic Peer-to-Peer Networks"). [`ChurnProcess`] reproduces that
//! regime deterministically: every `interval` it restores the previous
//! wave's victims (amnesiac — they rejoin with empty soft state) and
//! kills a fresh `fraction` of the population, drawn from a dedicated
//! RNG stream split off the scenario seed via [`child_seed`], so enabling
//! churn never perturbs any other stream.

use realtor_simcore::rng::child_seed;
use realtor_simcore::{SimDuration, SimRng, SimTime};

/// Why a [`ChurnConfig`] was rejected by [`ChurnConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnConfigError {
    /// `fraction` outside `(0, 1]`.
    FractionOutOfRange {
        /// The offending fraction.
        fraction: f64,
    },
    /// `interval` is zero.
    ZeroInterval,
    /// `start >= end` — the churn window is empty.
    EmptyWindow {
        /// Configured window start.
        start: SimTime,
        /// Configured window end.
        end: SimTime,
    },
    /// The window ends at or past the horizon, so waves near the end would
    /// never be restored.
    WindowPastHorizon {
        /// Configured window end.
        end: SimTime,
        /// The simulation horizon.
        horizon: SimTime,
    },
}

impl std::fmt::Display for ChurnConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnConfigError::FractionOutOfRange { fraction } => {
                write!(f, "churn fraction {fraction} must be in (0, 1]")
            }
            ChurnConfigError::ZeroInterval => write!(f, "churn interval must be positive"),
            ChurnConfigError::EmptyWindow { start, end } => {
                write!(f, "churn window [{start}, {end}) is empty")
            }
            ChurnConfigError::WindowPastHorizon { end, horizon } => write!(
                f,
                "churn window ends at t={end}, at or past the horizon {horizon}"
            ),
        }
    }
}

impl std::error::Error for ChurnConfigError {}

/// A continuous-churn regime: every `interval` inside `[start, end)`,
/// `fraction` of the node population is killed and the previous wave is
/// restored (amnesiac).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of the population replaced per wave, in `(0, 1]`.
    pub fraction: f64,
    /// Time between waves.
    pub interval: SimDuration,
    /// First wave fires at this instant.
    pub start: SimTime,
    /// No wave fires at or after this instant (the final restore does).
    pub end: SimTime,
}

impl ChurnConfig {
    /// Churn `fraction` of the population every `interval` over
    /// `[start, end)`.
    pub fn new(fraction: f64, interval: SimDuration, start: SimTime, end: SimTime) -> Self {
        ChurnConfig {
            fraction,
            interval,
            start,
            end,
        }
    }

    /// Check the regime against a simulation horizon.
    pub fn validate(&self, horizon: SimTime) -> Result<(), ChurnConfigError> {
        if !(self.fraction > 0.0 && self.fraction <= 1.0) {
            return Err(ChurnConfigError::FractionOutOfRange {
                fraction: self.fraction,
            });
        }
        if self.interval == SimDuration::ZERO {
            return Err(ChurnConfigError::ZeroInterval);
        }
        if self.start >= self.end {
            return Err(ChurnConfigError::EmptyWindow {
                start: self.start,
                end: self.end,
            });
        }
        if self.end >= horizon {
            return Err(ChurnConfigError::WindowPastHorizon {
                end: self.end,
                horizon,
            });
        }
        Ok(())
    }

    /// Victims per wave on a population of `node_count` (at least 1).
    pub fn wave_size(&self, node_count: usize) -> usize {
        (((node_count as f64) * self.fraction).round() as usize).max(1)
    }
}

/// Stateful churn driver: owns the victim RNG stream and remembers the
/// in-flight wave so the next tick can restore it.
///
/// The stream is `stream(child_seed(seed, "churn"), "churn-victims")` —
/// coordinate-based, so it is identical regardless of which other streams
/// the scenario consumes, and consuming it perturbs nothing else.
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    config: ChurnConfig,
    rng: SimRng,
    pending_restore: Vec<usize>,
}

impl ChurnProcess {
    /// A churn driver for `config`, seeded from the scenario seed.
    pub fn new(config: ChurnConfig, seed: u64) -> Self {
        ChurnProcess {
            config,
            rng: SimRng::stream(child_seed(seed, "churn"), "churn-victims"),
            pending_restore: Vec::new(),
        }
    }

    /// The configured regime.
    pub fn config(&self) -> &ChurnConfig {
        &self.config
    }

    /// The instant of the first wave.
    pub fn first_wave(&self) -> SimTime {
        self.config.start
    }

    /// The wave after one at `now`, or `None` when the window is over (the
    /// caller should then restore the last wave via
    /// [`ChurnProcess::take_restores`]).
    pub fn next_wave(&self, now: SimTime) -> Option<SimTime> {
        let next = now + self.config.interval;
        (next < self.config.end).then_some(next)
    }

    /// Run one wave: restore the previous victims, then draw a fresh wave
    /// from the candidate pool (`alive_after_restore` must reflect the
    /// restores already applied). The fresh victims are remembered for the
    /// next tick.
    pub fn tick(&mut self, alive_after_restore: &[usize], node_count: usize) -> Vec<usize> {
        let want = self
            .config
            .wave_size(node_count)
            .min(alive_after_restore.len());
        let kill: Vec<usize> = self
            .rng
            .sample_indices(alive_after_restore.len(), want)
            .into_iter()
            .map(|i| alive_after_restore[i])
            .collect();
        self.pending_restore = kill.clone();
        kill
    }

    /// Take the victims of the previous wave (empties the pending set).
    pub fn take_restores(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.pending_restore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig::new(
            0.2,
            SimDuration::from_secs(10),
            SimTime::from_secs(100),
            SimTime::from_secs(200),
        )
    }

    #[test]
    fn validate_accepts_sane_config() {
        assert_eq!(cfg().validate(SimTime::from_secs(300)), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_fraction_interval_window() {
        let mut c = cfg();
        c.fraction = 0.0;
        assert!(matches!(
            c.validate(SimTime::from_secs(300)),
            Err(ChurnConfigError::FractionOutOfRange { .. })
        ));
        let mut c = cfg();
        c.fraction = 1.5;
        assert!(c.validate(SimTime::from_secs(300)).is_err());
        let mut c = cfg();
        c.interval = SimDuration::ZERO;
        assert_eq!(
            c.validate(SimTime::from_secs(300)),
            Err(ChurnConfigError::ZeroInterval)
        );
        let mut c = cfg();
        c.end = c.start;
        assert!(matches!(
            c.validate(SimTime::from_secs(300)),
            Err(ChurnConfigError::EmptyWindow { .. })
        ));
        assert!(matches!(
            cfg().validate(SimTime::from_secs(150)),
            Err(ChurnConfigError::WindowPastHorizon { .. })
        ));
    }

    #[test]
    fn wave_size_rounds_and_floors_at_one() {
        assert_eq!(cfg().wave_size(25), 5);
        let mut c = cfg();
        c.fraction = 0.01;
        assert_eq!(c.wave_size(25), 1, "tiny fractions still churn someone");
        c.fraction = 1.0;
        assert_eq!(c.wave_size(25), 25);
    }

    #[test]
    fn waves_step_by_interval_until_window_end() {
        let p = ChurnProcess::new(cfg(), 42);
        assert_eq!(p.first_wave(), SimTime::from_secs(100));
        assert_eq!(
            p.next_wave(SimTime::from_secs(100)),
            Some(SimTime::from_secs(110))
        );
        assert_eq!(p.next_wave(SimTime::from_secs(190)), None);
    }

    #[test]
    fn tick_remembers_victims_for_restore() {
        let mut p = ChurnProcess::new(cfg(), 42);
        let alive: Vec<usize> = (0..25).collect();
        let wave1 = p.tick(&alive, 25);
        assert_eq!(wave1.len(), 5);
        assert_eq!(p.take_restores(), wave1);
        assert!(p.take_restores().is_empty(), "restores drain once");
    }

    #[test]
    fn victim_stream_is_deterministic_and_seed_sensitive() {
        let alive: Vec<usize> = (0..25).collect();
        let mut a = ChurnProcess::new(cfg(), 42);
        let mut b = ChurnProcess::new(cfg(), 42);
        let mut c = ChurnProcess::new(cfg(), 43);
        assert_eq!(a.tick(&alive, 25), b.tick(&alive, 25));
        assert_ne!(a.tick(&alive, 25), c.tick(&alive, 25));
    }

    #[test]
    fn tick_caps_at_candidate_pool() {
        let mut p = ChurnProcess::new(cfg(), 42);
        let alive: Vec<usize> = vec![3, 7];
        assert!(p.tick(&alive, 25).len() <= 2);
    }
}
