//! `engines-cheap`: every wire family run to the OneMax optimum,
//! single-threaded.
//!
//! One operation is a round of seven `Driver` runs from one seed, one per
//! wire family, each until the optimum under a generation cap. A popcount
//! costs nanoseconds, so operator kernels, selection, replacement and
//! per-family bookkeeping do the work; the pool and the server are not
//! used.

use std::time::{Duration, Instant};

use pga_core::driver::{Driver, Engine};
use pga_core::engine::Scheme;
use pga_core::erased::ErasedRun;
use pga_core::ops::{BitFlip, OnePoint, Tournament};
use pga_core::{GaBuilder, SerialEvaluator};
use pga_problems::OneMax;
use pga_serve::{build_engine, Budget, EngineSpec, JobSpec, ProblemSpec};

use crate::workload::{op_seed, Phase, Timed, Trajectory, Window};
use crate::{alloc, report::Metrics, trace};

/// Genome length of the OneMax instance every family solves.
pub const GENOME_BITS: usize = 256;
/// Population of the generational GA, in the family table and in its
/// traced rebuild.
const GA_POP: usize = 256;
/// Generation cap per run. The slowest family (the compact GAs, about
/// 4 700 two-sample generations on average) stays below it.
const GENERATION_CAP: u64 = 10_000;
/// Span slots one round can need (the generational GA records one span
/// per operator call); a traced phase stops before the buffer runs out.
const SPANS_PER_ROUND: usize = 80_000;
/// Engine set-ups timed for `setup_s`, and rounds of engines each builds.
const SETUP_REPS: u64 = 11;
const SETUP_ROUNDS: u64 = 64;

/// One wire family: its layer-qualified metric prefix, the span name of
/// its step, and its engine spec.
pub struct Family {
    /// Metric prefix, `<layer>.<family>` or `<layer>`.
    pub name: &'static str,
    step: &'static str,
    engine: fn() -> EngineSpec,
}

/// The seven wire families. A round costs about 130 ms on an idle core:
/// long enough that every round sees its share of the host's stolen CPU
/// time (rounds of 60 ms spread their p90 by 28 % of its median over
/// ten 40 s runs, rounds of 130 ms by 6 %), and short enough that a 40 s
/// run completes about 300 rounds, so the tail rule picks p90 (see
/// `Phase::blocked`). The compact GAs' virtual population of 256 is
/// enough for OneMax-256: no run missed the optimum in ten 40 s runs.
/// `core.ga` must stay the first: the traced run rebuilds it with timed
/// operators.
pub const FAMILIES: [Family; 7] = [
    Family {
        name: "core.ga",
        step: "core.ga.step",
        engine: || EngineSpec::ga(GA_POP, 1),
    },
    Family {
        name: "core.steady",
        step: "core.steady.step",
        engine: || EngineSpec::steady(256),
    },
    Family {
        name: "cellular",
        step: "cellular.step",
        engine: || EngineSpec::cellular(16, 16),
    },
    Family {
        name: "island",
        step: "island.step",
        engine: || EngineSpec::island(4, 64),
    },
    Family {
        name: "master_slave.async_steady",
        step: "master_slave.async_steady.step",
        engine: || EngineSpec::async_steady(256, 4),
    },
    Family {
        name: "compact.cga",
        step: "compact.cga.step",
        engine: || EngineSpec::cga(256),
    },
    Family {
        name: "compact.pcga",
        step: "compact.pcga.step",
        engine: || EngineSpec::pcga(256, 8),
    },
];

fn spec(family: &Family, seed: u64) -> JobSpec {
    JobSpec {
        tenant: "perfbench".into(),
        problem: ProblemSpec::onemax(GENOME_BITS),
        engine: (family.engine)(),
        seed,
        budget: Budget {
            generations: Some(GENERATION_CAP),
            until_optimum: true,
            ..Budget::default()
        },
    }
}

/// Per-family counts summed over a traced phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    runs: u64,
    generations: u64,
    allocations: u64,
}

/// What one family run produced.
struct Run {
    trajectory: Trajectory,
    hit_optimum: bool,
    allocations: u64,
}

fn drive<E: Engine>(spec: &JobSpec, engine: &mut E) -> Result<Run, String> {
    let termination = spec.budget.to_termination().map_err(|e| e.to_string())?;
    let before = alloc::allocations();
    let outcome = Driver::new(termination)
        .run(engine)
        .map_err(|e| e.to_string())?;
    let allocations = alloc::allocations() - before;
    Ok(Run {
        trajectory: Trajectory::of(engine),
        hit_optimum: outcome.hit_optimum,
        allocations,
    })
}

/// The generational GA exactly as the `ga` wire family builds it, with
/// every operator and the evaluator timed.
fn traced_ga(spec: &JobSpec) -> Result<Run, String> {
    let ga = {
        let _span = trace::span("core.ga.build");
        GaBuilder::new(OneMax::new(GENOME_BITS))
            .seed(spec.seed)
            .pop_size(GA_POP)
            .selection(Timed(Tournament::binary(), "core.ga.select"))
            .crossover(Timed(OnePoint, "core.ga.crossover"))
            .mutation(Timed(BitFlip::one_over_len(GENOME_BITS), "core.ga.mutate"))
            .scheme(Scheme::Generational { elitism: 1 })
            .evaluator(Timed(SerialEvaluator, "core.ga.evaluate"))
            .build()
            .map_err(|e| e.to_string())?
    };
    drive(spec, &mut Timed(ga, "core.ga.step"))
}

fn run_family(family: &Family, seed: u64, traced: bool) -> Result<Run, String> {
    let spec = spec(family, seed);
    if traced && family.name == "core.ga" {
        return traced_ga(&spec);
    }
    let mut engine = build_engine(&spec, None).map_err(|e| e.to_string())?;
    let mut run = ErasedRun(&mut *engine);
    if traced {
        drive(&spec, &mut Timed(run, family.step))
    } else {
        drive(&spec, &mut run)
    }
}

/// Times building the seven engines (registry lookup, problem, initial
/// population and its evaluation) of the first rounds, several times.
/// Returns the set-up times, s.
#[must_use]
pub fn setup(seed: u64) -> Vec<f64> {
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            for round in 0..SETUP_ROUNDS {
                for family in &FAMILIES {
                    let engine = build_engine(&spec(family, op_seed(seed, round)), None);
                    std::hint::black_box(engine.is_ok());
                }
            }
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Runs rounds for `budget` (and, when traced, while span room lasts).
pub fn measure(seed: u64, budget: Duration, traced: bool, tally: &mut [Tally; 7]) -> Phase {
    let mut phase = Phase::default();
    let window = Window::open();
    while window.elapsed() < budget && (!traced || trace::room() > SPANS_PER_ROUND) {
        let op = op_seed(seed, phase.attempted);
        phase.attempted += 1;
        let start = Instant::now();
        let mut runs = Vec::with_capacity(FAMILIES.len());
        let mut evals = 0;
        let mut ok = true;
        for (family, tally) in FAMILIES.iter().zip(tally.iter_mut()) {
            match run_family(family, op, traced) {
                Ok(run) => {
                    ok &= run.hit_optimum;
                    evals += run.trajectory.evaluations;
                    tally.runs += 1;
                    tally.generations += run.trajectory.generations;
                    tally.allocations += run.allocations;
                    runs.push(run.trajectory);
                }
                Err(_) => ok = false,
            }
        }
        phase.complete(start.elapsed(), evals);
        phase.failed += u64::from(!ok);
        phase.trajectories.push(runs);
    }
    window.close(&mut phase);
    phase
}

/// Per-layer metrics of a traced phase.
pub fn layer_metrics(spans: &[trace::Span], tally: &[Tally; 7], out: &mut Metrics) {
    let under_step = trace::totals_under(spans, "core.ga.step");
    let ga_gens = tally[0].generations.max(1) as f64;
    let per_gen = |ns: u64| ns as f64 / 1e3 / ga_gens;
    for (part, span) in [
        ("select", "core.ga.select"),
        ("crossover", "core.ga.crossover"),
        ("mutate", "core.ga.mutate"),
        ("evaluate", "core.ga.evaluate"),
    ] {
        let ns = under_step.get(span).map_or(0, |t| t.total_ns);
        out.push(format!("core.ga.{part}_us_per_gen"), per_gen(ns), "us");
    }
    let all = trace::totals(spans);
    let step_self = all.get("core.ga.step").map_or(0, |t| t.self_ns);
    out.push("core.ga.other_us_per_gen", per_gen(step_self), "us");
    for (family, t) in FAMILIES.iter().zip(tally) {
        let steps = all.get(family.step).copied().unwrap_or_default();
        let gens = t.generations.max(1) as f64;
        out.push(
            format!("{}.gen_us", family.name),
            steps.total_ns as f64 / 1e3 / steps.count.max(1) as f64,
            "us",
        );
        out.push(
            format!("{}.allocs_per_gen", family.name),
            t.allocations as f64 / gens,
            "count",
        );
        out.push(
            format!("{}.gens_to_target", family.name),
            t.generations as f64 / t.runs.max(1) as f64,
            "count",
        );
    }
}
