//! Typed sweep grids and their deterministic parallel execution.
//!
//! A [`SweepGrid`] names the axes the paper's evaluation sweeps — defence
//! arm, protocol, mesh side, arrival rate λ, datagram loss, kill count —
//! and expands them row-major into [`GridCell`]s. Axes a given experiment
//! does not sweep stay at their singleton defaults, so one grid type covers
//! the figures, lossy, failover and scalability drivers alike.
//!
//! **Seeding.** Every cell is a hermetic world with its own seed:
//!
//! * [`SeedPolicy::Shared`] gives each cell the grid seed verbatim — the
//!   paper's paired-comparison methodology (all protocols at a λ see the
//!   same arrivals) and the policy under which the golden Figure 5–9 cells
//!   regenerate bit-exact,
//! * [`SeedPolicy::PerCell`] derives `child_seed(grid_seed, cell_label)`
//!   from the cell's **coordinates**. Position never enters the split, so
//!   reordering the grid or adding cells cannot perturb existing cells'
//!   RNG streams (pinned by golden tests in `simcore::rng`).
//!
//! **Execution.** [`run_grid`] fans cells over `simcore::pool` with an
//! explicit job count; [`run_grid_csv`] additionally streams each cell's
//! CSV chunk through a grid-order [`OrderedMerge`] the moment the cell
//! completes, so artifacts are byte-identical for any `--jobs N`.

use realtor_core::ProtocolKind;
use realtor_simcore::merge::OrderedMerge;
use realtor_simcore::pool;
use realtor_simcore::rng::child_seed;
use realtor_simcore::stats::LogHistogram;
use std::io::Write as _;
use std::sync::Mutex;

/// How cells of a grid derive their world seeds from the grid seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedPolicy {
    /// Every cell runs at the grid seed itself (paired comparison across
    /// cells; the golden-figure policy).
    #[default]
    Shared,
    /// Every cell runs at a stable stream split of the grid seed by the
    /// cell's coordinate label (hermetic per-cell streams).
    PerCell,
}

/// A typed sweep grid: the cross product of its axes.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Master seed; cell seeds derive from it per [`SeedPolicy`].
    pub seed: u64,
    /// Experiment-arm axis (e.g. defence postures); `["-"]` when unused.
    pub arms: Vec<String>,
    /// Protocol axis.
    pub protocols: Vec<ProtocolKind>,
    /// Mesh-side axis (N = side²); `[5]` is the paper's 5×5 mesh.
    pub sides: Vec<usize>,
    /// Arrival-rate axis.
    pub lambdas: Vec<f64>,
    /// Datagram-loss axis; `[0.0]` is the ideal channel.
    pub losses: Vec<f64>,
    /// Kill-count axis; `[0]` means no attack.
    pub kills: Vec<usize>,
    /// Seeding policy.
    pub seed_policy: SeedPolicy,
}

impl SweepGrid {
    /// A grid with singleton defaults on every axis (one REALTOR cell on
    /// the paper mesh); set the axes to sweep with the builder methods.
    pub fn new(seed: u64) -> SweepGrid {
        SweepGrid {
            seed,
            arms: vec!["-".to_string()],
            protocols: vec![ProtocolKind::Realtor],
            sides: vec![5],
            lambdas: vec![1.0],
            losses: vec![0.0],
            kills: vec![0],
            seed_policy: SeedPolicy::Shared,
        }
    }

    /// Builder: experiment arms.
    pub fn with_arms<S: Into<String>>(mut self, arms: impl IntoIterator<Item = S>) -> Self {
        self.arms = arms.into_iter().map(Into::into).collect();
        assert!(!self.arms.is_empty(), "arms axis must be non-empty");
        self
    }

    /// Builder: protocols.
    pub fn with_protocols(mut self, protocols: &[ProtocolKind]) -> Self {
        assert!(!protocols.is_empty(), "protocol axis must be non-empty");
        self.protocols = protocols.to_vec();
        self
    }

    /// Builder: mesh sides.
    pub fn with_sides(mut self, sides: &[usize]) -> Self {
        assert!(!sides.is_empty(), "sides axis must be non-empty");
        self.sides = sides.to_vec();
        self
    }

    /// Builder: arrival rates.
    pub fn with_lambdas(mut self, lambdas: &[f64]) -> Self {
        assert!(!lambdas.is_empty(), "lambda axis must be non-empty");
        self.lambdas = lambdas.to_vec();
        self
    }

    /// Builder: datagram loss rates.
    pub fn with_losses(mut self, losses: &[f64]) -> Self {
        assert!(!losses.is_empty(), "loss axis must be non-empty");
        self.losses = losses.to_vec();
        self
    }

    /// Builder: kill counts.
    pub fn with_kills(mut self, kills: &[usize]) -> Self {
        assert!(!kills.is_empty(), "kills axis must be non-empty");
        self.kills = kills.to_vec();
        self
    }

    /// Builder: seeding policy.
    pub fn with_seed_policy(mut self, policy: SeedPolicy) -> Self {
        self.seed_policy = policy;
        self
    }

    /// Number of cells the grid expands to.
    pub fn len(&self) -> usize {
        self.arms.len()
            * self.protocols.len()
            * self.sides.len()
            * self.lambdas.len()
            * self.losses.len()
            * self.kills.len()
    }

    /// True when the grid has no cells (impossible through the builders).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the grid row-major (arms, protocols, sides, lambdas, losses,
    /// kills — slowest to fastest) into seeded cells.
    pub fn cells(&self) -> Vec<GridCell> {
        let mut out = Vec::with_capacity(self.len());
        for arm in &self.arms {
            for &protocol in &self.protocols {
                for &side in &self.sides {
                    for &lambda in &self.lambdas {
                        for &loss in &self.losses {
                            for &kills in &self.kills {
                                let mut cell = GridCell {
                                    index: out.len(),
                                    arm: arm.clone(),
                                    protocol,
                                    side,
                                    lambda,
                                    loss,
                                    kills,
                                    seed: 0,
                                };
                                cell.seed = match self.seed_policy {
                                    SeedPolicy::Shared => self.seed,
                                    SeedPolicy::PerCell => child_seed(self.seed, &cell.label()),
                                };
                                out.push(cell);
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// One hermetic cell of an expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Position in grid order (output order, never part of the seed).
    pub index: usize,
    /// Experiment arm.
    pub arm: String,
    /// Discovery protocol.
    pub protocol: ProtocolKind,
    /// Mesh side.
    pub side: usize,
    /// Arrival rate.
    pub lambda: f64,
    /// Datagram loss rate.
    pub loss: f64,
    /// Kill count.
    pub kills: usize,
    /// This cell's world seed (per the grid's [`SeedPolicy`]).
    pub seed: u64,
}

impl GridCell {
    /// The cell's stable coordinate label — the stream-split key for
    /// [`SeedPolicy::PerCell`] and for replication seeds. A pure function
    /// of the coordinates: two cells with equal coordinates label (and
    /// therefore seed) identically in any grid.
    pub fn label(&self) -> String {
        format!(
            "cell/arm={}/proto={}/side={}/lambda={}/loss={}/kills={}",
            self.arm,
            self.protocol.label(),
            self.side,
            self.lambda,
            self.loss,
            self.kills
        )
    }
}

/// Execution options for a grid run.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Worker threads (1 = serial on the calling thread).
    pub jobs: usize,
    /// Report completed/total cell counts on stderr.
    pub progress: bool,
}

impl RunOpts {
    /// Serial, quiet — the default the experiment drivers start from.
    pub fn serial() -> RunOpts {
        RunOpts {
            jobs: 1,
            progress: false,
        }
    }

    /// `jobs` workers with progress reporting on stderr.
    pub fn jobs(jobs: usize) -> RunOpts {
        assert!(jobs >= 1, "--jobs must be >= 1");
        RunOpts {
            jobs,
            progress: jobs > 1,
        }
    }
}

fn report_progress(completed: usize, total: usize) {
    // Throttle to ~10 updates per sweep (always report the final cell).
    let stride = (total / 10).max(1);
    if completed == total || completed.is_multiple_of(stride) {
        // stderr is a diagnostics channel here, never an artifact: write
        // through the handle so a closed pipe cannot panic the sweep.
        let _ = writeln!(
            std::io::stderr(),
            "  [runner] {completed}/{total} cells done"
        );
    }
}

fn report_timing(timing: &LogHistogram) {
    if timing.is_empty() {
        return;
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    let _ = writeln!(
        std::io::stderr(),
        "  [runner] cell wall time: p50 {:.1} ms, p99 {:.1} ms, max {:.1} ms ({} cells)",
        ms(timing.quantile(0.5)),
        ms(timing.quantile(0.99)),
        ms(timing.max()),
        timing.count()
    );
}

/// Run every cell of `grid` through `f` on `opts.jobs` workers, returning
/// results in grid order plus a mergeable [`LogHistogram`] of per-cell
/// wall time (nanoseconds). With a pure `f`, the results are identical for
/// any job count; the timing histogram is a genuine wall-clock observation
/// and varies run to run.
pub fn run_grid_timed<R, F>(grid: &SweepGrid, opts: &RunOpts, f: F) -> (Vec<R>, LogHistogram)
where
    R: Send,
    F: Fn(&GridCell) -> R + Sync,
{
    let cells = grid.cells();
    let progress = opts.progress;
    let timing = Mutex::new(LogHistogram::new());
    let results = pool::run_ordered_observed(
        opts.jobs,
        &cells,
        |cell| {
            let started = std::time::Instant::now();
            let r = f(cell);
            let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            timing.lock().unwrap().record(ns);
            r
        },
        move |completed, total| {
            if progress {
                report_progress(completed, total);
            }
        },
    );
    (results, timing.into_inner().unwrap())
}

/// Run every cell of `grid` through `f` on `opts.jobs` workers, returning
/// results in grid order. With a pure `f`, the output is identical for any
/// job count. Progress mode additionally reports per-cell wall-time
/// quantiles on stderr when the sweep completes.
pub fn run_grid<R, F>(grid: &SweepGrid, opts: &RunOpts, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&GridCell) -> R + Sync,
{
    let (results, timing) = run_grid_timed(grid, opts, f);
    if opts.progress {
        report_timing(&timing);
    }
    results
}

/// Like [`run_grid`], but each cell additionally emits a CSV/JSONL chunk
/// (its own rows, newline-terminated) that is streamed into a grid-order
/// merge as cells complete. Returns the grid-ordered results and the
/// merged bytes (`header` first, then every cell's chunk in grid order) —
/// byte-identical to a serial write for any job count.
pub fn run_grid_csv<R, F>(grid: &SweepGrid, opts: &RunOpts, header: &str, f: F) -> (Vec<R>, String)
where
    R: Send,
    F: Fn(&GridCell) -> (R, String) + Sync,
{
    let merge = Mutex::new(OrderedMerge::with_header(grid.len(), header));
    let (results, timing) = run_grid_timed(grid, opts, |cell| {
        let (r, chunk) = f(cell);
        // Streamed: pushed at completion time, ordered by the merge.
        merge.lock().unwrap().push(cell.index, chunk);
        r
    });
    if opts.progress {
        report_timing(&timing);
    }
    (results, merge.into_inner().unwrap().finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid::new(42)
            .with_protocols(&[ProtocolKind::Realtor, ProtocolKind::PurePush])
            .with_lambdas(&[2.0, 6.0])
            .with_losses(&[0.0, 0.1])
    }

    #[test]
    fn expansion_is_row_major_and_indexed() {
        let cells = grid().cells();
        assert_eq!(cells.len(), 8);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // protocols slowest of the varied axes, losses fastest.
        assert_eq!(cells[0].protocol, ProtocolKind::Realtor);
        assert_eq!((cells[0].lambda, cells[0].loss), (2.0, 0.0));
        assert_eq!((cells[1].lambda, cells[1].loss), (2.0, 0.1));
        assert_eq!((cells[2].lambda, cells[2].loss), (6.0, 0.0));
        assert_eq!(cells[4].protocol, ProtocolKind::PurePush);
    }

    #[test]
    fn shared_policy_gives_every_cell_the_grid_seed() {
        assert!(grid().cells().iter().all(|c| c.seed == 42));
    }

    #[test]
    fn per_cell_policy_splits_by_coordinates_not_position() {
        let a = grid().with_seed_policy(SeedPolicy::PerCell);
        // The same coordinates in a *bigger, reordered* grid: extra λs in
        // front, extra loss levels appended.
        let b = SweepGrid::new(42)
            .with_protocols(&[ProtocolKind::PurePush, ProtocolKind::Realtor])
            .with_lambdas(&[9.0, 6.0, 2.0])
            .with_losses(&[0.0, 0.1, 0.25])
            .with_seed_policy(SeedPolicy::PerCell);
        let cells_a = a.cells();
        let cells_b = b.cells();
        for ca in &cells_a {
            let cb = cells_b
                .iter()
                .find(|c| c.protocol == ca.protocol && c.lambda == ca.lambda && c.loss == ca.loss)
                .expect("shared coordinates exist in both grids");
            assert_eq!(
                ca.seed,
                cb.seed,
                "seed must follow coordinates: {}",
                ca.label()
            );
            assert_eq!(ca.label(), cb.label());
        }
        // And distinct coordinates get distinct seeds.
        let mut seeds: Vec<u64> = cells_a.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells_a.len());
    }

    #[test]
    fn run_grid_orders_results_at_any_job_count() {
        let g = grid();
        let serial = run_grid(&g, &RunOpts::serial(), |c| c.label());
        for jobs in [2, 8] {
            let par = run_grid(
                &g,
                &RunOpts {
                    jobs,
                    progress: false,
                },
                |c| c.label(),
            );
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_grid_csv_streams_into_grid_order() {
        let g = grid();
        let header = "label,seed\n";
        let make = |c: &GridCell| (c.index, format!("{},{}\n", c.label(), c.seed));
        let (_, serial) = run_grid_csv(&g, &RunOpts::serial(), header, make);
        for jobs in [2, 8] {
            let (_, par) = run_grid_csv(
                &g,
                &RunOpts {
                    jobs,
                    progress: false,
                },
                header,
                make,
            );
            assert_eq!(par, serial, "jobs={jobs}");
        }
        assert!(serial.starts_with(header));
        assert_eq!(serial.lines().count(), 1 + g.len());
    }

    #[test]
    fn run_grid_timed_records_one_sample_per_cell() {
        let g = grid();
        let (results, timing) = run_grid_timed(&g, &RunOpts::jobs(4), |c| c.index);
        assert_eq!(results.len(), g.len());
        assert_eq!(timing.count(), g.len() as u64);
    }

    #[test]
    fn labels_are_stable_strings() {
        let c = &grid().cells()[0];
        assert_eq!(
            c.label(),
            "cell/arm=-/proto=REALTOR-100/side=5/lambda=2/loss=0/kills=0"
        );
    }
}
