//! Arrival processes.
//!
//! The paper's workload: *"The task arrival forms a Poisson process with a
//! rate of λ. The generated task is given to a node randomly selected from
//! Node 0 through Node 24."* [`ArrivalProcess::Poisson`] reproduces that;
//! MMPP and deterministic processes serve the burstiness and calibration
//! ablations.

use realtor_simcore::{SimDuration, SimRng, SimTime};

/// A stationary (or modulated) arrival process.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate` per second (exponential inter-arrivals).
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// Deterministic arrivals every `1/rate` seconds.
    Deterministic {
        /// Arrivals per second.
        rate: f64,
    },
    /// Two-state Markov-modulated Poisson process: alternates between a
    /// `calm` and a `burst` rate with exponentially distributed sojourns.
    Mmpp {
        /// Rate while calm (per second).
        calm_rate: f64,
        /// Rate while bursting (per second).
        burst_rate: f64,
        /// Mean sojourn in the calm state (seconds).
        mean_calm_secs: f64,
        /// Mean sojourn in the burst state (seconds).
        mean_burst_secs: f64,
    },
    /// A base process whose instantaneous rate is scaled by a deterministic
    /// time-varying factor (flash crowds, diurnal cycles), realised by
    /// Lewis–Shedler thinning: candidates are drawn from the base process
    /// sped up to the factor's peak, then accepted with probability
    /// `factor(t) / max_factor`. Nesting `Modulated` is rejected.
    Modulated {
        /// The stationary process being modulated.
        base: Box<ArrivalProcess>,
        /// The deterministic rate envelope.
        modulation: Modulation,
    },
}

/// A deterministic time-varying rate envelope for
/// [`ArrivalProcess::Modulated`].
#[derive(Debug, Clone, PartialEq)]
pub enum Modulation {
    /// A transient surge: the rate is multiplied by `multiplier` over
    /// `[at, at + duration)` and is unchanged elsewhere.
    FlashCrowd {
        /// Rate multiplier during the surge (> 0; > 1 for a crowd, < 1
        /// models a brown-out).
        multiplier: f64,
        /// Surge onset.
        at: SimTime,
        /// Surge length.
        duration: SimDuration,
    },
    /// A sinusoidal day/night cycle: the rate is scaled by
    /// `1 + amplitude * sin(2πt / period_secs)`, `amplitude` in `[0, 1]`.
    Diurnal {
        /// Peak deviation from the mean rate, in `[0, 1]`.
        amplitude: f64,
        /// Cycle length in seconds (> 0).
        period_secs: f64,
    },
}

impl Modulation {
    /// The rate factor at instant `t`.
    pub fn factor(&self, t: SimTime) -> f64 {
        match *self {
            Modulation::FlashCrowd {
                multiplier,
                at,
                duration,
            } => {
                if t >= at && t < at + duration {
                    multiplier
                } else {
                    1.0
                }
            }
            Modulation::Diurnal {
                amplitude,
                period_secs,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / period_secs;
                1.0 + amplitude * phase.sin()
            }
        }
    }

    /// The factor's supremum — the thinning envelope.
    pub fn max_factor(&self) -> f64 {
        match *self {
            Modulation::FlashCrowd { multiplier, .. } => multiplier.max(1.0),
            Modulation::Diurnal { amplitude, .. } => 1.0 + amplitude,
        }
    }

    fn assert_valid(&self) {
        match *self {
            Modulation::FlashCrowd { multiplier, .. } => {
                assert!(multiplier > 0.0, "flash-crowd multiplier must be positive");
            }
            Modulation::Diurnal {
                amplitude,
                period_secs,
            } => {
                assert!(
                    (0.0..=1.0).contains(&amplitude),
                    "diurnal amplitude must be in [0, 1]"
                );
                assert!(period_secs > 0.0, "diurnal period must be positive");
            }
        }
    }
}

impl ArrivalProcess {
    /// Long-run average arrival rate.
    ///
    /// Modulated processes report their base rate: the flash crowd is
    /// transient and the diurnal sinusoid averages out, so the long-run
    /// factor is 1 in both cases.
    pub fn mean_rate(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate } | ArrivalProcess::Deterministic { rate } => *rate,
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                let total = mean_calm_secs + mean_burst_secs;
                (calm_rate * mean_calm_secs + burst_rate * mean_burst_secs) / total
            }
            ArrivalProcess::Modulated { base, .. } => base.mean_rate(),
        }
    }

    /// Create a stateful generator for this process.
    ///
    /// Panics on a nested `Modulated` or an out-of-range modulation —
    /// misconfiguration, caught at construction rather than mid-run.
    pub fn generator(&self, rng: SimRng) -> ArrivalGen {
        let (base, modulation) = match self {
            ArrivalProcess::Modulated { base, modulation } => {
                assert!(
                    !matches!(**base, ArrivalProcess::Modulated { .. }),
                    "nested Modulated arrival processes are not supported"
                );
                modulation.assert_valid();
                ((**base).clone(), Some(modulation.clone()))
            }
            other => (other.clone(), None),
        };
        ArrivalGen {
            process: base,
            modulation,
            rng,
            in_burst: false,
            state_until: SimTime::ZERO,
        }
    }
}

/// Stateful arrival-time generator.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    /// The base (never `Modulated`) process.
    process: ArrivalProcess,
    /// The rate envelope, when thinning is active.
    modulation: Option<Modulation>,
    rng: SimRng,
    in_burst: bool,
    state_until: SimTime,
}

impl ArrivalGen {
    /// The next arrival instant strictly after `now`.
    pub fn next_after(&mut self, now: SimTime) -> SimTime {
        let Some(modulation) = self.modulation.clone() else {
            return self.base_next_after(now, 1.0);
        };
        // Lewis–Shedler thinning: candidates from the base process sped up
        // to the envelope's peak, each kept with probability
        // factor(candidate) / max_factor. Rejected candidates advance the
        // clock, so the accepted stream has instantaneous rate
        // base_rate(t) * factor(t).
        let max_factor = modulation.max_factor();
        let mut t = now;
        loop {
            let candidate = self.base_next_after(t, max_factor);
            if self.rng.f64() < modulation.factor(candidate) / max_factor {
                return candidate;
            }
            t = candidate;
        }
    }

    /// One draw from the base process with every rate scaled by `scale`.
    fn base_next_after(&mut self, now: SimTime, scale: f64) -> SimTime {
        match self.process {
            ArrivalProcess::Poisson { rate } => {
                let rate = rate * scale;
                assert!(rate > 0.0);
                now + SimDuration::from_secs_f64(self.rng.exp(1.0 / rate))
            }
            ArrivalProcess::Deterministic { rate } => {
                let rate = rate * scale;
                assert!(rate > 0.0);
                now + SimDuration::from_secs_f64(1.0 / rate)
            }
            ArrivalProcess::Mmpp {
                calm_rate,
                burst_rate,
                mean_calm_secs,
                mean_burst_secs,
            } => {
                // Advance the modulating chain past `now`, then draw from the
                // current state's rate. Inter-arrivals that straddle a state
                // switch are re-drawn from the switch point, which preserves
                // the per-state exponential law piecewise.
                let mut t = now;
                loop {
                    if t >= self.state_until {
                        // enter the next state
                        self.in_burst = !self.in_burst;
                        let mean = if self.in_burst {
                            mean_burst_secs
                        } else {
                            mean_calm_secs
                        };
                        self.state_until = self.state_until.max(t)
                            + SimDuration::from_secs_f64(self.rng.exp(mean));
                    }
                    let rate = scale * if self.in_burst { burst_rate } else { calm_rate };
                    let candidate = t + SimDuration::from_secs_f64(self.rng.exp(1.0 / rate));
                    if candidate <= self.state_until {
                        return candidate;
                    }
                    t = self.state_until;
                }
            }
            ArrivalProcess::Modulated { .. } => {
                unreachable!("generator() unwraps Modulated into base + envelope")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_rate_matches() {
        let p = ArrivalProcess::Poisson { rate: 4.0 };
        let mut g = p.generator(SimRng::stream(1, "arr"));
        let mut t = SimTime::ZERO;
        let n = 40_000;
        for _ in 0..n {
            t = g.next_after(t);
        }
        let rate = n as f64 / t.as_secs_f64();
        assert!((rate - 4.0).abs() < 0.1, "empirical rate {rate}");
    }

    #[test]
    fn arrivals_strictly_increase() {
        for p in [
            ArrivalProcess::Poisson { rate: 10.0 },
            ArrivalProcess::Deterministic { rate: 3.0 },
            ArrivalProcess::Mmpp {
                calm_rate: 1.0,
                burst_rate: 20.0,
                mean_calm_secs: 5.0,
                mean_burst_secs: 1.0,
            },
        ] {
            let mut g = p.generator(SimRng::stream(2, "arr"));
            let mut t = SimTime::ZERO;
            for _ in 0..5_000 {
                let next = g.next_after(t);
                assert!(next > t, "{p:?} produced non-increasing arrival");
                t = next;
            }
        }
    }

    #[test]
    fn deterministic_is_evenly_spaced() {
        let p = ArrivalProcess::Deterministic { rate: 2.0 };
        let mut g = p.generator(SimRng::stream(3, "arr"));
        let t1 = g.next_after(SimTime::ZERO);
        let t2 = g.next_after(t1);
        assert_eq!(t1, SimTime::from_secs_f64(0.5));
        assert_eq!(t2, SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn mmpp_mean_rate_formula() {
        let p = ArrivalProcess::Mmpp {
            calm_rate: 2.0,
            burst_rate: 10.0,
            mean_calm_secs: 8.0,
            mean_burst_secs: 2.0,
        };
        // (2*8 + 10*2) / 10 = 3.6
        assert!((p.mean_rate() - 3.6).abs() < 1e-12);
    }

    fn count_in(times: &[SimTime], lo: f64, hi: f64) -> usize {
        times
            .iter()
            .filter(|t| t.as_secs_f64() >= lo && t.as_secs_f64() < hi)
            .count()
    }

    #[test]
    fn flash_crowd_surges_inside_window_only() {
        let p = ArrivalProcess::Modulated {
            base: Box::new(ArrivalProcess::Poisson { rate: 5.0 }),
            modulation: Modulation::FlashCrowd {
                multiplier: 4.0,
                at: SimTime::from_secs(100),
                duration: SimDuration::from_secs(100),
            },
        };
        assert_eq!(p.mean_rate(), 5.0);
        let mut g = p.generator(SimRng::stream(5, "arr"));
        let mut t = SimTime::ZERO;
        let mut times = Vec::new();
        while t < SimTime::from_secs(300) {
            t = g.next_after(t);
            times.push(t);
        }
        let before = count_in(&times, 0.0, 100.0) as f64 / 100.0;
        let during = count_in(&times, 100.0, 200.0) as f64 / 100.0;
        let after = count_in(&times, 200.0, 300.0) as f64 / 100.0;
        assert!((before - 5.0).abs() < 1.0, "pre-surge rate {before}");
        assert!((during - 20.0).abs() < 2.5, "surge rate {during}");
        assert!((after - 5.0).abs() < 1.0, "post-surge rate {after}");
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let p = ArrivalProcess::Modulated {
            base: Box::new(ArrivalProcess::Poisson { rate: 8.0 }),
            modulation: Modulation::Diurnal {
                amplitude: 0.9,
                period_secs: 200.0,
            },
        };
        let mut g = p.generator(SimRng::stream(6, "arr"));
        let mut t = SimTime::ZERO;
        let mut times = Vec::new();
        while t < SimTime::from_secs(2_000) {
            t = g.next_after(t);
            times.push(t);
        }
        // First quarter-cycle (sin > 0) vs third (sin < 0), averaged over
        // all ten periods.
        let mut peak = 0;
        let mut trough = 0;
        for cycle in 0..10 {
            let base = cycle as f64 * 200.0;
            peak += count_in(&times, base, base + 100.0);
            trough += count_in(&times, base + 100.0, base + 200.0);
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "day half {peak} should far exceed night half {trough}"
        );
        // Long-run average still tracks the base rate.
        let rate = times.len() as f64 / 2_000.0;
        assert!((rate - 8.0).abs() < 0.5, "long-run rate {rate}");
    }

    #[test]
    fn modulated_arrivals_strictly_increase_and_are_deterministic() {
        let p = ArrivalProcess::Modulated {
            base: Box::new(ArrivalProcess::Mmpp {
                calm_rate: 2.0,
                burst_rate: 12.0,
                mean_calm_secs: 5.0,
                mean_burst_secs: 2.0,
            }),
            modulation: Modulation::Diurnal {
                amplitude: 0.5,
                period_secs: 60.0,
            },
        };
        let mut a = p.generator(SimRng::stream(7, "arr"));
        let mut b = p.generator(SimRng::stream(7, "arr"));
        let mut t = SimTime::ZERO;
        for _ in 0..5_000 {
            let next = a.next_after(t);
            assert!(next > t);
            assert_eq!(next, b.next_after(t), "same seed must replay exactly");
            t = next;
        }
    }

    #[test]
    #[should_panic(expected = "nested Modulated")]
    fn nested_modulation_is_rejected() {
        let inner = ArrivalProcess::Modulated {
            base: Box::new(ArrivalProcess::Poisson { rate: 1.0 }),
            modulation: Modulation::Diurnal {
                amplitude: 0.1,
                period_secs: 10.0,
            },
        };
        let outer = ArrivalProcess::Modulated {
            base: Box::new(inner),
            modulation: Modulation::Diurnal {
                amplitude: 0.1,
                period_secs: 10.0,
            },
        };
        let _ = outer.generator(SimRng::stream(8, "arr"));
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn out_of_range_amplitude_is_rejected() {
        let p = ArrivalProcess::Modulated {
            base: Box::new(ArrivalProcess::Poisson { rate: 1.0 }),
            modulation: Modulation::Diurnal {
                amplitude: 1.5,
                period_secs: 10.0,
            },
        };
        let _ = p.generator(SimRng::stream(9, "arr"));
    }

    #[test]
    fn mmpp_empirical_rate_close_to_mean() {
        let p = ArrivalProcess::Mmpp {
            calm_rate: 1.0,
            burst_rate: 9.0,
            mean_calm_secs: 4.0,
            mean_burst_secs: 4.0,
        };
        let mut g = p.generator(SimRng::stream(4, "arr"));
        let mut t = SimTime::ZERO;
        let n = 60_000;
        for _ in 0..n {
            t = g.next_after(t);
        }
        let rate = n as f64 / t.as_secs_f64();
        assert!((rate - p.mean_rate()).abs() < 0.3, "empirical {rate}");
    }
}
