//! Types shared by the three workloads.

use std::time::{Duration, Instant};

use pga_core::driver::{Clock, Engine, StepReport};
use pga_core::ops::{Crossover, Mutation, Selection};
use pga_core::{Evaluator, Genome, Individual, Objective, Population, Problem};
use pga_core::{Progress, Rng64, Snapshot, SnapshotError};

use crate::stats::{median, quantile_sorted, tail_per10k};
use crate::{host, trace};

/// Operations a block of [`Phase::blocked`] holds at least, so that the
/// tail rule reaches p90 in every block.
const MIN_BLOCK_OPS: usize = 100;
/// Blocks a phase is cut into at most; odd.
const MAX_BLOCKS: usize = 5;

/// Enough of one engine run to tell two runs apart: the counters, the
/// best fitness bit for bit, and a digest of the final engine snapshot
/// (population, RNG streams, counters).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trajectory {
    /// Generations run.
    pub generations: u64,
    /// Fitness evaluations spent.
    pub evaluations: u64,
    /// `best_fitness.to_bits()`.
    pub best_bits: u64,
    /// FNV-1a digest of the final snapshot bytes.
    pub state_digest: u64,
}

impl Trajectory {
    /// The trajectory of a finished run of `engine`.
    pub fn of<E: Engine + ?Sized>(engine: &E) -> Self {
        let p = engine.progress(Duration::ZERO);
        Self {
            generations: p.generations,
            evaluations: p.evaluations,
            best_bits: p.best_fitness.to_bits(),
            state_digest: fnv1a(&engine.snapshot().to_bytes()),
        }
    }
}

/// FNV-1a, 64 bit.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from `hash`, to digest several pieces as one.
#[must_use]
pub fn fnv1a_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The input seed of operation `i` of a run seeded with `seed`
/// (splitmix64), so every run draws the same inputs from the same seed.
#[must_use]
pub fn op_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One timed operation.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Latency, ms.
    pub latency_ms: f64,
    /// Fitness evaluations it spent.
    pub evals: u64,
    /// When it completed.
    pub done: Instant,
}

/// One timed phase of a workload: operations run back to back until the
/// phase's time is up.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations started (timed or not).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Start of the timed window, once closed.
    pub start: Option<Instant>,
    /// Length of the timed window.
    pub wall: Duration,
    /// Process CPU time used inside the window.
    pub cpu: Duration,
    /// Every timed operation.
    pub completions: Vec<Completion>,
    /// Engine runs of each operation, in order, for replay checks.
    pub trajectories: Vec<Vec<Trajectory>>,
}

impl Phase {
    /// Records an operation that took `latency` and spent `evals`.
    pub fn complete(&mut self, latency: Duration, evals: u64) {
        self.completions.push(Completion {
            latency_ms: latency.as_secs_f64() * 1e3,
            evals,
            done: Instant::now(),
        });
    }

    /// Timed operations.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.completions.len() as u64
    }

    /// Operations per second of window.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }
}

/// Wall-clock figures of a phase, each the median over blocks of
/// consecutive operations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blocked {
    /// Blocks the phase was cut into.
    pub blocks: usize,
    /// Operations in the smallest block.
    pub block_ops: usize,
    /// Operations per second of block.
    pub ops_per_s: f64,
    /// Fitness evaluations per second of block.
    pub evals_per_s: f64,
    /// Exact median latency of a block, ms.
    pub op_ms_p50: f64,
    /// Tail percentile, in parts per ten thousand: the tail rule applied
    /// to the smallest block, so every block reports the same one.
    pub tail_per10k: u64,
    /// Latency at that percentile, ms.
    pub op_ms_tail: f64,
}

impl Phase {
    /// Cuts the timed operations, in completion order, into an odd
    /// number, at most [`MAX_BLOCKS`], of blocks of at least
    /// [`MIN_BLOCK_OPS`] (one block when there are fewer), computes
    /// each figure per block, and reports its median over the blocks. The host's speed drifts over
    /// seconds; a slow stretch moves one block's figures, not the
    /// median. A block's time runs from the previous block's last
    /// completion (the window's start for the first) to its own last.
    /// `None` before the window is closed or when nothing completed.
    #[must_use]
    pub fn blocked(&self) -> Option<Blocked> {
        let start = self.start?;
        let mut ops = self.completions.clone();
        ops.sort_by_key(|c| c.done);
        let n = ops.len();
        if n == 0 {
            return None;
        }
        // An odd count, so the median is one block's figure.
        let blocks = (n / MIN_BLOCK_OPS).clamp(1, MAX_BLOCKS);
        let blocks = blocks - (blocks + 1) % 2;
        let block_ops = n / blocks;
        let tail = tail_per10k(block_ops as u64);
        let (mut ops_per_s, mut evals_per_s, mut p50, mut tails) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut from = start;
        for k in 0..blocks {
            let block = &ops[k * n / blocks..(k + 1) * n / blocks];
            let to = block.last().map_or(from, |c| c.done);
            let secs = to.duration_since(from).as_secs_f64().max(1e-9);
            from = to;
            ops_per_s.push(block.len() as f64 / secs);
            evals_per_s.push(block.iter().map(|c| c.evals).sum::<u64>() as f64 / secs);
            let mut latencies: Vec<f64> = block.iter().map(|c| c.latency_ms).collect();
            latencies.sort_by(f64::total_cmp);
            p50.push(quantile_sorted(&latencies, 5_000));
            tails.push(quantile_sorted(&latencies, tail));
        }
        Some(Blocked {
            blocks,
            block_ops,
            ops_per_s: median(&mut ops_per_s),
            evals_per_s: median(&mut evals_per_s),
            op_ms_p50: median(&mut p50),
            tail_per10k: tail,
            op_ms_tail: median(&mut tails),
        })
    }
}

/// Wall clock and process CPU at the start of a timed window.
pub struct Window {
    start: Instant,
    cpu: Duration,
}

impl Window {
    /// Opens a window now.
    #[must_use]
    pub fn open() -> Self {
        Self {
            start: Instant::now(),
            cpu: host::process_cpu().unwrap_or_default(),
        }
    }

    /// Time since the window opened.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the window into `phase`'s `wall` and `cpu`.
    pub fn close(self, phase: &mut Phase) {
        phase.start = Some(self.start);
        phase.wall = self.start.elapsed();
        phase.cpu = host::process_cpu()
            .unwrap_or_default()
            .saturating_sub(self.cpu);
    }
}

/// Compares the trajectories of `traced` against `reference` op by op
/// over the operations both ran; returns the number of ops that differ.
#[must_use]
pub fn diverging_ops(reference: &Phase, traced: &Phase) -> u64 {
    reference
        .trajectories
        .iter()
        .zip(&traced.trajectories)
        .filter(|(a, b)| a != b)
        .count() as u64
}

/// Times every call of the wrapped operator or evaluator as a span named
/// `.1`. Forwards everything else, so the search is unchanged.
pub struct Timed<T>(pub T, pub &'static str);

impl<G: Genome, S: Selection<G>> Selection<G> for Timed<S> {
    fn select(&self, pop: &Population<G>, objective: Objective, rng: &mut Rng64) -> usize {
        let _span = trace::span(self.1);
        self.0.select(pop, objective, rng)
    }

    fn select_many_into(
        &self,
        pop: &Population<G>,
        objective: Objective,
        count: usize,
        rng: &mut Rng64,
        out: &mut Vec<usize>,
    ) {
        let _span = trace::span(self.1);
        self.0.select_many_into(pop, objective, count, rng, out);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<G, C: Crossover<G>> Crossover<G> for Timed<C> {
    fn crossover(&self, a: &G, b: &G, rng: &mut Rng64) -> (G, G) {
        let _span = trace::span(self.1);
        self.0.crossover(a, b, rng)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<G, M: Mutation<G>> Mutation<G> for Timed<M> {
    fn mutate(&self, genome: &mut G, rng: &mut Rng64) {
        let _span = trace::span(self.1);
        self.0.mutate(genome, rng);
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

impl<P: Problem, E: Evaluator<P>> Evaluator<P> for Timed<E> {
    fn evaluate_batch(&self, problem: &P, members: &mut [Individual<P::Genome>]) -> u64 {
        let _span = trace::span(self.1);
        self.0.evaluate_batch(problem, members)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn min_chunk(&self) -> usize {
        self.0.min_chunk()
    }
}

impl<E: Engine> Engine for Timed<E> {
    type Best = E::Best;

    fn engine_id(&self) -> &'static str {
        self.0.engine_id()
    }

    fn step(&mut self) -> StepReport {
        let _span = trace::span(self.1);
        self.0.step()
    }

    fn progress(&self, elapsed: Duration) -> Progress {
        self.0.progress(elapsed)
    }

    fn best(&self) -> E::Best {
        self.0.best()
    }

    fn clock(&self) -> Clock {
        self.0.clock()
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }

    fn record_run_started(&mut self) {
        self.0.record_run_started();
    }

    fn record_run_finished(&mut self) {
        self.0.record_run_finished();
    }

    fn snapshot(&self) -> Snapshot {
        self.0.snapshot()
    }

    fn restore(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        self.0.restore(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A closed phase whose op `i` took `latency(i)` ms and completed
    /// `at(i)` ms into the window.
    fn phase(n: u64, latency: impl Fn(u64) -> f64, at: impl Fn(u64) -> u64) -> Phase {
        let start = Instant::now();
        let mut phase = Phase {
            start: Some(start),
            ..Phase::default()
        };
        for i in 0..n {
            phase.completions.push(Completion {
                latency_ms: latency(i),
                evals: 10,
                done: start + Duration::from_millis(at(i)),
            });
        }
        phase
    }

    #[test]
    fn blocks_report_medians_so_one_slow_stretch_does_not_move_them() {
        // 500 ops, one every 10 ms, latency 10 ms; the second block's
        // hundred ops ran three times slower.
        let slow = |i: u64| (100..200).contains(&i);
        let p = phase(
            500,
            |i| if slow(i) { 30.0 } else { 10.0 + (i % 10) as f64 },
            |i| 10 * (i + 1) + if i >= 100 { 2_000 } else { 0 },
        );
        let b = p.blocked().expect("closed phase");
        assert_eq!((b.blocks, b.block_ops, b.tail_per10k), (5, 100, 9_000));
        assert!((b.ops_per_s - 100.0).abs() < 1e-6, "{}", b.ops_per_s);
        assert!((b.evals_per_s - 1_000.0).abs() < 1e-6);
        assert_eq!(b.op_ms_p50, 14.0);
        assert_eq!(b.op_ms_tail, 18.0);
    }

    #[test]
    fn few_ops_make_one_block_and_block_counts_are_odd() {
        let b = phase(99, |i| i as f64, |i| i).blocked().expect("closed phase");
        assert_eq!((b.blocks, b.block_ops, b.tail_per10k), (1, 99, 5_000));
        assert_eq!(b.op_ms_p50, 49.0);
        // Two blocks' worth makes one block, so the median stays a
        // measured value.
        let b = phase(250, |i| i as f64, |i| i).blocked().expect("closed phase");
        assert_eq!((b.blocks, b.block_ops, b.tail_per10k), (1, 250, 9_000));
        assert_eq!(Phase::default().blocked(), None);
    }
}
