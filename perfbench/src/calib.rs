//! A speed gauge for the host: a fixed piece of work that belongs to the
//! benchmark, not to the program under test, timed between the simulator's
//! steps.
//!
//! On a small shared machine the host's speed drifts by half and more
//! within a minute, in spells that last seconds to minutes. Two things
//! drift: how much of the core's execution width a neighbour on the same
//! core takes, and how long a load that misses the core's private cache
//! waits. The gauge times one piece of each: eight independent
//! multiply-rotate chains, which need the whole core's width, and a random
//! pointer chase over a 512 KiB table, which waits on the shared cache. On
//! a quiet host the chains take 60 % of a piece and the chase 40 %, the mix
//! whose slow spells best matched the simulator workloads' (pass times
//! logged beside both parts on a 2-vCPU Xeon VM).
//!
//! The simulator workloads report their timings in *gauged seconds*: host
//! seconds divided by how much slower than [`NOMINAL`] the gauge ran around
//! them. A change to the program moves the simulator's time but not the
//! gauge's, so it shows in full; a slow spell slows both and cancels out.

use std::time::{Duration, Instant};

/// Chase table size in `u32`s: 512 KiB.
const TABLE: usize = 1 << 17;
/// Dependent loads per piece.
const LOADS: usize = 5_000;
/// Rounds of the eight multiply-rotate chains per piece.
const ROUNDS: u64 = 90_000;
/// How often the event loop stops for a piece: often enough to follow the
/// host's slow spells.
pub const EVERY: Duration = Duration::from_millis(20);
/// Time of one piece on a quiet host: about the fastest a piece averaged
/// over a pass on a 2-vCPU 2 GHz Xeon VM. Gauged seconds are host seconds
/// at that speed.
pub const NOMINAL: Duration = Duration::from_micros(700);

pub struct Gauge {
    /// A single cycle through every slot, in random order.
    next: Vec<u32>,
    at: u32,
    last: Instant,
    /// Sum of every piece timed so far.
    pub spent: Duration,
    pub pieces: u32,
}

impl Gauge {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle, so the chase visits every slot.
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        let mut g = Gauge {
            next,
            at: 0,
            last: Instant::now(),
            spent: Duration::ZERO,
            pieces: 0,
        };
        for _ in 0..4 {
            g.piece();
        }
        g.spent = Duration::ZERO;
        g.pieces = 0;
        g
    }

    /// Run and time one piece of fixed work; the result adds to `spent`.
    pub fn piece(&mut self) -> Duration {
        let t = Instant::now();
        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        for i in 0..ROUNDS {
            for (k, c) in chains.iter_mut().enumerate() {
                *c = c
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i ^ k as u64)
                    .rotate_left(7);
            }
        }
        std::hint::black_box(chains);
        let mut at = self.at;
        for _ in 0..LOADS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
        self.last = Instant::now();
        let dt = self.last - t;
        self.spent += dt;
        self.pieces += 1;
        dt
    }

    /// Run a piece if [`EVERY`] has passed since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.piece();
        }
    }

    /// A mark to pass to [`Gauge::slowdown`] later.
    pub fn mark(&self) -> (Duration, u32) {
        (self.spent, self.pieces)
    }

    /// How much slower than [`NOMINAL`] the pieces since `since` ran.
    pub fn slowdown(&self, since: (Duration, u32)) -> f64 {
        let pieces = self.pieces - since.1;
        if pieces == 0 {
            return 1.0;
        }
        (self.spent - since.0).as_secs_f64() / (NOMINAL.as_secs_f64() * f64::from(pieces))
    }
}
