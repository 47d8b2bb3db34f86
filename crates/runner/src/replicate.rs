//! Confidence-interval-width-driven replication.
//!
//! Fixed-N replication wastes runs on quiet cells and under-samples noisy
//! ones. [`replicate_until_ci`] instead re-runs a cell with fresh
//! replication seeds until every watched metric's 95% CI half-width falls
//! below a target *relative* width (half-width / |mean|), or a hard cap is
//! hit. Replication seeds come from the same stable stream split as cell
//! seeds — `indexed_child_seed(grid_seed, "rep/<cell label>", rep)` — so
//! replication `k` of a cell draws the same world no matter how many
//! replications end up being needed, which grids run beside it, or how
//! many workers execute the sweep. The whole procedure is a deterministic
//! function of `(policy, grid seed, cell label)`.

use realtor_simcore::rng::indexed_child_seed;
use realtor_simcore::stats::Welford;

/// When to stop replicating a cell.
#[derive(Debug, Clone, Copy)]
pub struct CiPolicy {
    /// Target relative 95% CI half-width: stop once
    /// `half_width <= rel_half_width * max(|mean|, floor)` for every metric.
    pub rel_half_width: f64,
    /// Always run at least this many replications (CI needs >= 2).
    pub min_reps: u64,
    /// Never run more than this many replications.
    pub max_reps: u64,
    /// Means below this magnitude are treated as zero (their absolute
    /// half-width must fall below `rel_half_width * floor`).
    pub floor: f64,
}

impl Default for CiPolicy {
    fn default() -> Self {
        CiPolicy {
            rel_half_width: 0.05,
            min_reps: 3,
            max_reps: 16,
            floor: 1e-9,
        }
    }
}

impl CiPolicy {
    /// Builder: target relative half-width.
    pub fn with_rel_half_width(mut self, v: f64) -> Self {
        assert!(v > 0.0, "relative half-width must be positive");
        self.rel_half_width = v;
        self
    }

    /// Builder: replication bounds.
    pub fn with_reps(mut self, min_reps: u64, max_reps: u64) -> Self {
        assert!(
            (2..=max_reps).contains(&min_reps),
            "need 2 <= min_reps <= max_reps"
        );
        self.min_reps = min_reps;
        self.max_reps = max_reps;
        self
    }
}

/// The outcome of an adaptive replication loop.
#[derive(Debug, Clone)]
pub struct Replication<R> {
    /// Per-replication results, in replication order.
    pub results: Vec<R>,
    /// Number of replications run.
    pub reps: u64,
    /// Whether the CI target was met (false = the cap stopped the loop).
    pub converged: bool,
    /// Worst relative half-width across metrics at stop time.
    pub worst_rel_half_width: f64,
}

impl<R> Replication<R> {
    /// Mean and 95% CI half-width of one watched metric over the
    /// replications actually run.
    pub fn mean_ci(&self, metric: impl Fn(&R) -> f64) -> (f64, f64) {
        let mut w = Welford::new();
        for r in &self.results {
            w.record(metric(r));
        }
        (w.mean(), w.ci95_half_width())
    }
}

/// Relative half-width of one accumulator under a policy.
fn rel_half_width(w: &Welford, policy: &CiPolicy) -> f64 {
    let hw = w.ci95_half_width();
    if hw == 0.0 {
        0.0
    } else {
        hw / w.mean().abs().max(policy.floor)
    }
}

/// Re-run a cell until its CI target is met or the cap is hit.
///
/// `run(seed)` executes one replication at a derived seed; `metrics`
/// extracts the watched quantities from a result (every one must meet the
/// target). Replication seeds are split from `grid_seed` by `cell_label`
/// and the replication index only.
pub fn replicate_until_ci<R>(
    policy: &CiPolicy,
    grid_seed: u64,
    cell_label: &str,
    run: impl Fn(u64) -> R,
    metrics: impl Fn(&R) -> Vec<f64>,
) -> Replication<R> {
    assert!(policy.min_reps >= 2, "CI needs at least two replications");
    assert!(
        policy.min_reps <= policy.max_reps,
        "min_reps must not exceed max_reps"
    );
    let stream = format!("rep/{cell_label}");
    let mut results: Vec<R> = Vec::new();
    let mut accs: Vec<Welford> = Vec::new();
    let mut worst = f64::INFINITY;
    while (results.len() as u64) < policy.max_reps {
        let rep = results.len() as u64;
        let r = run(indexed_child_seed(grid_seed, &stream, rep));
        let ms = metrics(&r);
        if accs.is_empty() {
            accs = vec![Welford::new(); ms.len()];
        }
        assert_eq!(
            ms.len(),
            accs.len(),
            "metric count must be stable across reps"
        );
        for (acc, m) in accs.iter_mut().zip(&ms) {
            acc.record(*m);
        }
        results.push(r);
        if (results.len() as u64) >= policy.min_reps {
            worst = accs
                .iter()
                .map(|w| rel_half_width(w, policy))
                .fold(0.0, f64::max);
            if worst <= policy.rel_half_width {
                return Replication {
                    reps: results.len() as u64,
                    results,
                    converged: true,
                    worst_rel_half_width: worst,
                };
            }
        }
    }
    Replication {
        reps: results.len() as u64,
        results,
        converged: false,
        worst_rel_half_width: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realtor_simcore::rng::SimRng;

    #[test]
    fn zero_variance_converges_at_min_reps() {
        let out = replicate_until_ci(
            &CiPolicy::default(),
            42,
            "cell/x",
            |_seed| 7.0,
            |&v| vec![v],
        );
        assert_eq!(out.reps, 3);
        assert!(out.converged);
        assert_eq!(out.worst_rel_half_width, 0.0);
        let (mean, hw) = out.mean_ci(|&v| v);
        assert_eq!((mean, hw), (7.0, 0.0));
    }

    #[test]
    fn high_variance_hits_the_cap() {
        // A metric that is pure seed noise never tightens to 0.1%.
        let policy = CiPolicy::default()
            .with_rel_half_width(0.001)
            .with_reps(2, 6);
        let out = replicate_until_ci(
            &policy,
            42,
            "cell/noisy",
            |seed| SimRng::from_seed(seed).f64(),
            |&v| vec![v],
        );
        assert_eq!(out.reps, 6);
        assert!(!out.converged);
        assert!(out.worst_rel_half_width > policy.rel_half_width);
    }

    #[test]
    fn replication_seeds_are_stable_prefixes() {
        // Running with a larger cap replays the same seeds for the shared
        // prefix: replication k depends only on (grid seed, label, k).
        let seeds = |cap| {
            let policy = CiPolicy::default()
                .with_rel_half_width(1e-12)
                .with_reps(2, cap);
            replicate_until_ci(&policy, 42, "cell/x", |s| s, |&s| vec![s as f64]).results
        };
        let short = seeds(4);
        let long = seeds(9);
        assert_eq!(short[..], long[..4]);
        // And they differ from another cell's seeds.
        let policy = CiPolicy::default()
            .with_rel_half_width(1e-12)
            .with_reps(2, 4);
        let other = replicate_until_ci(&policy, 42, "cell/y", |s| s, |&s| vec![s as f64]);
        assert_ne!(short[0], other.results[0]);
    }

    #[test]
    fn deterministic_across_calls() {
        let go = || {
            let policy = CiPolicy::default()
                .with_rel_half_width(0.2)
                .with_reps(2, 12);
            let out = replicate_until_ci(
                &policy,
                7,
                "cell/z",
                |seed| 10.0 + SimRng::from_seed(seed).f64(),
                |&v| vec![v],
            );
            (out.reps, out.converged, out.mean_ci(|&v| v))
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn every_watched_metric_must_converge() {
        // First metric is constant, second is noise: the pair converges
        // later than the first metric alone would.
        let policy = CiPolicy::default()
            .with_rel_half_width(0.5)
            .with_reps(2, 32);
        let out = replicate_until_ci(
            &policy,
            11,
            "cell/pair",
            |seed| SimRng::from_seed(seed).f64(),
            |&v| vec![1.0, v],
        );
        assert!(out.reps >= 2);
        if out.converged {
            assert!(out.worst_rel_half_width <= 0.5);
        }
        let constant_only = replicate_until_ci(
            &policy,
            11,
            "cell/pair",
            |seed| SimRng::from_seed(seed).f64(),
            |_| vec![1.0],
        );
        assert_eq!(constant_only.reps, 2);
        assert!(constant_only.reps <= out.reps);
    }
}
