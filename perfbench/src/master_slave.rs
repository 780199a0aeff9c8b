//! `master-slave-costly`: a generational GA whose costly fitness is
//! spread over a two-worker `RayonEvaluator`.
//!
//! One operation is one run to the optimum of an `ExpensiveFitness`
//! OneMax. Evaluation is almost all of the time, so pool dispatch,
//! chunking, stealing and parking do the work and the operator kernels
//! are negligible.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pga_core::driver::Driver;
use pga_core::engine::Scheme;
use pga_core::ops::{BitFlip, OnePoint, Tournament};
use pga_core::{Evaluator, Ga, GaBuilder, Individual, SerialEvaluator, Termination};
use pga_master_slave::{ExpensiveFitness, RayonEvaluator};
use pga_problems::OneMax;
use rayon::PoolStats;

use crate::report::Metrics;
use crate::stats::Summary;
use crate::trace;
use crate::workload::{op_seed, Phase, Timed, Trajectory, Window};

/// Busy-work iterations per evaluation: about 20 µs on a 2020s core, so
/// one evaluation outweighs a generation's operator work by far.
pub const WORK_ITERS: u64 = 70_000;
/// Pool workers (the host's core count, 2).
pub const WORKERS: usize = 2;
/// A run costs about 95 ms on an idle core.
const GENOME_BITS: usize = 128;
const POP: usize = 96;
const GENERATION_CAP: u64 = 2_000;
const SETUP_REPS: u64 = 11;
/// GAs each set-up builds (and evaluates the initial population of).
const SETUP_BUILDS: u64 = 4;
/// Runs replayed on `SerialEvaluator` to check bit-identity after an
/// untraced phase, and to measure the speed-up after a traced one.
const SERIAL_CHECKS: usize = 10;
const SERIAL_SPEEDUP_RUNS: usize = 40;
/// Span slots one traced run can need; a traced phase stops before the
/// buffer runs out.
const SPANS_PER_RUN: usize = 10_000;

type Costly = ExpensiveFitness<OneMax>;

/// The shared pool as an evaluator each run can own.
struct Pooled(Arc<RayonEvaluator>);

impl Evaluator<Costly> for Pooled {
    fn evaluate_batch(
        &self,
        problem: &Costly,
        members: &mut [Individual<pga_core::BitString>],
    ) -> u64 {
        self.0.evaluate_batch(problem, members)
    }

    fn name(&self) -> &'static str {
        "pooled"
    }

    fn min_chunk(&self) -> usize {
        Evaluator::<Costly>::min_chunk(&*self.0)
    }
}

fn build<E: Evaluator<Costly>>(seed: u64, evaluator: E) -> Result<Ga<Costly, E>, String> {
    GaBuilder::new(ExpensiveFitness::new(OneMax::new(GENOME_BITS), WORK_ITERS))
        .seed(seed)
        .pop_size(POP)
        .selection(Tournament::binary())
        .crossover(OnePoint)
        .mutation(BitFlip::one_over_len(GENOME_BITS))
        .scheme(Scheme::Generational { elitism: 1 })
        .evaluator(evaluator)
        .build()
        .map_err(|e| e.to_string())
}

/// One run to the optimum; `Err` when it cannot be built or misses the
/// optimum within the cap.
fn run<E: Evaluator<Costly>>(
    seed: u64,
    evaluator: E,
    step: Option<&'static str>,
) -> Result<Trajectory, String> {
    let termination = Termination::new()
        .max_generations(GENERATION_CAP)
        .until_optimum();
    let ga = build(seed, evaluator)?;
    let (hit, trajectory) = match step {
        Some(name) => {
            let mut ga = Timed(ga, name);
            let out = Driver::new(termination)
                .run(&mut ga)
                .map_err(|e| e.to_string())?;
            (out.hit_optimum, Trajectory::of(&ga))
        }
        None => {
            let mut ga = ga;
            let out = Driver::new(termination)
                .run(&mut ga)
                .map_err(|e| e.to_string())?;
            (out.hit_optimum, Trajectory::of(&ga))
        }
    };
    if hit {
        Ok(trajectory)
    } else {
        Err(format!(
            "seed {seed}: optimum missed within {GENERATION_CAP} generations"
        ))
    }
}

/// The workload's pool, kept across phases.
pub struct State {
    evaluator: Arc<RayonEvaluator>,
}

/// Builds the pool and a few GAs (their initial populations are
/// evaluated on the pool), several times; keeps the last pool. Returns
/// the set-up times, s.
#[must_use]
pub fn setup(seed: u64) -> (State, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let evaluator = Arc::new(RayonEvaluator::new(WORKERS).expect("a 2-worker pool builds"));
        for i in 0..SETUP_BUILDS {
            let ga = build(
                op_seed(seed, rep * SETUP_BUILDS + i),
                Pooled(Arc::clone(&evaluator)),
            );
            std::hint::black_box(ga.is_ok());
        }
        times.push(start.elapsed().as_secs_f64());
        kept = Some(evaluator);
    }
    let evaluator = kept.expect("at least one set-up");
    (State { evaluator }, times)
}

/// Pool and run counts summed over a traced phase.
#[derive(Debug, Default)]
pub struct Tally {
    generations: u64,
    evaluations: u64,
    pool: PoolStats,
    /// Pooled run time of the first runs, s, and the same runs on
    /// `SerialEvaluator`.
    pooled_s: f64,
    serial_s: f64,
    serial_evals: u64,
}

/// Runs one GA after another for `budget` (and, when traced, while span
/// room lasts).
pub fn measure(
    state: &State,
    seed: u64,
    budget: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase::default();
    let pool_before = state.evaluator.pool_stats();
    let window = Window::open();
    while window.elapsed() < budget && (!traced || trace::room() > SPANS_PER_RUN) {
        let op = op_seed(seed, phase.attempted);
        phase.attempted += 1;
        let start = Instant::now();
        let pooled = Pooled(Arc::clone(&state.evaluator));
        let result = if traced {
            run(op, Timed(pooled, "pool.batch"), Some("master_slave.step"))
        } else {
            run(op, pooled, None)
        };
        phase.complete(
            start.elapsed(),
            result.as_ref().map_or(0, |t| t.evaluations),
        );
        match result {
            Ok(t) => {
                tally.generations += t.generations;
                tally.evaluations += t.evaluations;
                phase.trajectories.push(vec![t]);
            }
            Err(_) => {
                phase.failed += 1;
                phase.trajectories.push(Vec::new());
            }
        }
    }
    window.close(&mut phase);
    tally.pool = state.evaluator.pool_stats().delta(&pool_before);
    // After the window: replay the first runs on the serial evaluator.
    // Untraced, this checks the pooled results bit for bit; traced, it
    // also times the serial runs for the speed-up.
    let replays = if traced {
        SERIAL_SPEEDUP_RUNS
    } else {
        SERIAL_CHECKS
    };
    let mut mismatches = 0;
    let pooled_runs = phase.trajectories.iter().zip(&phase.completions);
    for (i, (pooled, done)) in pooled_runs.take(replays).enumerate() {
        let start = Instant::now();
        let serial = run(
            op_seed(seed, i as u64),
            Timed(SerialEvaluator, "serial.batch"),
            None,
        );
        match serial {
            Ok(t) if pooled.first() == Some(&t) => {
                tally.serial_s += start.elapsed().as_secs_f64();
                tally.pooled_s += done.latency_ms / 1e3;
                tally.serial_evals += t.evaluations;
            }
            _ => mismatches += 1,
        }
    }
    phase.failed += mismatches;
    phase
}

/// Per-layer metrics of a traced phase.
pub fn layer_metrics(spans: &[trace::Span], tally: &Tally, out: &mut Metrics) {
    let pool = &tally.pool;
    let calls = pool.calls.max(1) as f64;
    out.push(
        "pool.calls_per_gen",
        pool.calls as f64 / tally.generations.max(1) as f64,
        "count",
    );
    out.push(
        "pool.tasks_per_call",
        pool.tasks_executed as f64 / calls,
        "count",
    );
    out.push("pool.steals_per_call", pool.steals as f64 / calls, "count");
    out.push("pool.parks_per_call", pool.parks as f64 / calls, "count");
    out.push(
        "pool.queue_wait_us_per_call",
        pool.queue_wait_micros as f64 / calls,
        "us",
    );
    let totals = trace::totals(spans);
    let serial_batch_us = totals.get("serial.batch").map_or(0, |t| t.total_ns) as f64 / 1e3;
    let eval_us = serial_batch_us / tally.serial_evals.max(1) as f64;
    out.push("pool.eval_us", eval_us, "us");
    let mut batches = trace::durations_us(spans, "pool.batch");
    let batch_wall_us: f64 = batches.iter().sum();
    out.push(
        "pool.batch_us_p50",
        Summary::of(&mut batches).map_or(0.0, |s| s.p50),
        "us",
    );
    out.push(
        "pool.efficiency",
        tally.evaluations as f64 * eval_us / (batch_wall_us * WORKERS as f64).max(1.0),
        "ratio",
    );
    out.push(
        "pool.speedup_vs_serial",
        tally.serial_s / tally.pooled_s.max(1e-9),
        "ratio",
    );
}

/// Share of traced step time spent in pool batches (the evaluations).
#[must_use]
pub fn eval_share(spans: &[trace::Span]) -> f64 {
    let steps = trace::totals(spans)
        .get("master_slave.step")
        .map_or(0, |t| t.total_ns);
    let batches = trace::totals_under(spans, "master_slave.step")
        .get("pool.batch")
        .map_or(0, |t| t.total_ns);
    batches as f64 / steps.max(1) as f64
}
