//! Resource monitoring — turns raw occupancy into the usage-change
//! notifications that drive Algorithm P and resource-triggered migration.
//!
//! Section 3: *"migration can be triggered by schedulers and resource
//! monitors as response to overload."* The monitor debounces raw occupancy
//! samples: downstream consumers only hear about changes larger than the
//! configured resolution, plus every crossing of any registered watermark.

/// A usage observation worth reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageEvent {
    /// New occupancy fraction.
    pub frac: f64,
    /// Watermark index crossed, if this event was emitted because of a
    /// watermark crossing.
    pub watermark: Option<usize>,
    /// Direction: `true` when occupancy rose.
    pub rising: bool,
}

/// Debouncing usage monitor with watermarks.
#[derive(Debug, Clone)]
pub struct ResourceMonitor {
    resolution: f64,
    watermarks: Vec<f64>,
    last_reported: f64,
    last_seen: f64,
}

impl ResourceMonitor {
    /// Create a monitor reporting changes of at least `resolution`, plus
    /// every crossing of any value in `watermarks`.
    pub fn new(resolution: f64, mut watermarks: Vec<f64>) -> Self {
        assert!(resolution >= 0.0);
        watermarks.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ResourceMonitor {
            resolution,
            watermarks,
            last_reported: 0.0,
            last_seen: 0.0,
        }
    }

    /// The registered watermarks, ascending.
    pub fn watermarks(&self) -> &[f64] {
        &self.watermarks
    }

    /// Feed a new occupancy sample; returns an event if it should be
    /// reported downstream.
    pub fn sample(&mut self, frac: f64) -> Option<UsageEvent> {
        let prev = self.last_seen;
        self.last_seen = frac;
        let rising = frac > prev;

        // Watermark crossings always report.
        for (i, &w) in self.watermarks.iter().enumerate() {
            let crossed = (prev < w && frac >= w) || (prev >= w && frac < w);
            if crossed {
                self.last_reported = frac;
                return Some(UsageEvent {
                    frac,
                    watermark: Some(i),
                    rising,
                });
            }
        }

        // Otherwise debounce on resolution.
        if (frac - self.last_reported).abs() >= self.resolution && self.resolution > 0.0 {
            self.last_reported = frac;
            return Some(UsageEvent {
                frac,
                watermark: None,
                rising,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_crossings_always_report() {
        let mut m = ResourceMonitor::new(1.0, vec![0.9]); // resolution too coarse to trigger
        assert!(m.sample(0.5).is_none());
        let ev = m.sample(0.95).unwrap();
        assert_eq!(ev.watermark, Some(0));
        assert!(ev.rising);
        assert!(m.sample(0.99).is_none(), "no re-report on same side");
        let ev = m.sample(0.5).unwrap();
        assert!(!ev.rising);
    }

    #[test]
    fn resolution_debounce() {
        let mut m = ResourceMonitor::new(0.1, vec![]);
        assert!(m.sample(0.05).is_none());
        let ev = m.sample(0.12).unwrap();
        assert_eq!(ev.watermark, None);
        assert!(m.sample(0.15).is_none(), "only 0.03 since last report");
        assert!(m.sample(0.30).is_some());
    }

    #[test]
    fn multiple_watermarks_sorted_and_indexed() {
        let mut m = ResourceMonitor::new(1.0, vec![0.9, 0.5]);
        assert_eq!(m.watermarks(), &[0.5, 0.9]);
        assert_eq!(m.sample(0.6).unwrap().watermark, Some(0));
        assert_eq!(m.sample(0.95).unwrap().watermark, Some(1));
    }

    #[test]
    fn exact_watermark_counts_as_above() {
        let mut m = ResourceMonitor::new(1.0, vec![0.9]);
        assert!(m.sample(0.9).is_some(), "0 -> 0.9 crosses");
        assert!(m.sample(0.9).is_none());
    }
}
