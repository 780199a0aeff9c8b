//! Command line, run orchestration and output.
//!
//! `--trace 0` runs the named workload untraced and prints the
//! end-to-end metrics. `--trace 1` (the binary with the counting
//! allocator) runs every workload twice per seed, untraced then traced,
//! and prints the per-layer metrics; the named workload gets half of the
//! time and supplies `trace.overhead_share`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use crate::report::{json_num, json_str, object, result_line, Metrics};
use crate::stats::{median, percentile_label};
use crate::workload::{diverging_ops, Phase};
use crate::{engines, host, master_slave, serve, trace};

/// Span buffer of one traced phase: 40 bytes a span, so at most 40 MiB.
const SPAN_CAPACITY: usize = 1_000_000;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every wire family on a cheap fitness, single-threaded.
    EnginesCheap,
    /// A generational GA on a costly fitness over a two-worker pool.
    MasterSlaveCostly,
    /// The HTTP job server under a closed loop of mixed tenants.
    ServeMixed,
}

const WORKLOADS: [Workload; 3] = [
    Workload::EnginesCheap,
    Workload::MasterSlaveCostly,
    Workload::ServeMixed,
];

impl Workload {
    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::EnginesCheap => "engines-cheap",
            Self::MasterSlaveCostly => "master-slave-costly",
            Self::ServeMixed => "serve-mixed",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
/// Every flag is required; anything else is an error.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if !(1..=600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A workload set up and ready to measure.
enum Ready {
    Engines,
    MasterSlave(master_slave::State),
    Serve(serve::State),
}

fn setup(workload: Workload, seed: u64, work: &Path) -> (Ready, Vec<f64>) {
    match workload {
        Workload::EnginesCheap => (Ready::Engines, engines::setup(seed)),
        Workload::MasterSlaveCostly => {
            let (state, times) = master_slave::setup(seed);
            (Ready::MasterSlave(state), times)
        }
        Workload::ServeMixed => {
            let (state, times) = serve::setup(seed, work);
            (Ready::Serve(state), times)
        }
    }
}

impl Ready {
    fn teardown(self) {
        if let Self::Serve(state) = self {
            state.teardown();
        }
    }
}

/// Host state at the start of a run.
struct HostStart {
    timewait_sockets: u64,
    ticks: Option<(u64, u64)>,
    spin_evals_per_s: f64,
}

impl HostStart {
    fn read() -> Self {
        Self {
            timewait_sockets: host::timewait_sockets(),
            ticks: host::cpu_ticks(),
            spin_evals_per_s: host::spin_evals_per_s(master_slave::WORK_ITERS),
        }
    }

    /// Provenance and host diagnostics, as JSON fields.
    fn fields(&self, args: &Args, root: &Path) -> Vec<(&'static str, String)> {
        let steal = match (self.ticks, host::cpu_ticks()) {
            (Some(a), Some(b)) => host::steal_share(a, b),
            _ => 0.0,
        };
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        vec![
            ("workload", json_str(args.workload.name())),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            (
                "mode",
                json_str(if args.trace { "traced" } else { "untraced" }),
            ),
            (
                "commit",
                host::commit(root).map_or_else(|| "null".into(), |c| json_str(&c)),
            ),
            ("source_digest", json_str(&host::source_digest(root))),
            ("nproc", nproc.to_string()),
            ("host.spin_evals_per_s", json_num(self.spin_evals_per_s)),
            ("host.steal_share", json_num(steal)),
            ("host.timewait_sockets", self.timewait_sockets.to_string()),
        ]
    }
}

/// Entry point of both binaries. `counting_allocator` says which binary
/// this is: only the one with the counting allocator runs `--trace 1`.
#[must_use]
pub fn main(counting_allocator: bool) -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <1..600> --trace <0|1>",
                WORKLOADS.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.trace != counting_allocator {
        eprintln!("perfbench: --trace 1 runs `perfbench-traced`, --trace 0 runs `perfbench`");
        return ExitCode::from(2);
    }
    let root = match std::env::current_dir() {
        Ok(dir) if dir.join("perfbench/Cargo.toml").is_file() => dir,
        _ => {
            eprintln!("perfbench: run from the repository root");
            return ExitCode::from(2);
        }
    };
    let work = root.join("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let host_start = HostStart::read();
    let (attempted, failed, metrics, extra) = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let mut fields = host_start.fields(&args, &root);
    fields.extend(extra);
    println!("{}", object(&[("provenance", object(&fields))]));
    let correct = failed == 0 && metrics.all_finite();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

type Outcome = (u64, u64, Metrics, Vec<(&'static str, String)>);

fn untraced(args: &Args, work: &Path) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let (ready, mut setup_times) = setup(args.workload, args.seed, work);
    let phase = match &ready {
        Ready::Engines => engines::measure(args.seed, budget, false, &mut Default::default()),
        Ready::MasterSlave(state) => {
            master_slave::measure(state, args.seed, budget, false, &mut Default::default())
        }
        Ready::Serve(state) => {
            serve::measure(state, args.seed, budget, false, &mut Default::default())
        }
    };
    ready.teardown();
    // Set up as often again after the window: the host's speed drifts
    // over tens of milliseconds, and set-ups taken at both ends of the
    // run give a steadier median than one burst of them.
    let (again, more_times) = setup(args.workload, args.seed, work);
    again.teardown();
    setup_times.extend(more_times);
    let mut m = Metrics::default();
    m.push("setup_s", median(&mut setup_times), "s");
    let blocked = phase.blocked();
    m.push("ops_per_s", blocked.map_or(0.0, |b| b.ops_per_s), "1/s");
    m.push("evals_per_s", blocked.map_or(0.0, |b| b.evals_per_s), "1/s");
    m.push("op_ms_p50", blocked.map_or(0.0, |b| b.op_ms_p50), "ms");
    m.push("op_ms_tail", blocked.map_or(0.0, |b| b.op_ms_tail), "ms");
    m.push(
        "cpu_ms_per_op",
        phase.cpu.as_secs_f64() * 1e3 / phase.ops().max(1) as f64,
        "ms",
    );
    m.push(
        "success_rate",
        1.0 - phase.failed as f64 / phase.attempted.max(1) as f64,
        "ratio",
    );
    m.push("rss_peak_mb", host::rss_peak_mib().unwrap_or(0.0), "MiB");
    let extra = vec![
        (
            "op_ms_tail_percentile",
            json_str(&blocked.map_or_else(|| "none".into(), |b| percentile_label(b.tail_per10k))),
        ),
        ("op_samples", phase.ops().to_string()),
        ("blocks", blocked.map_or(0, |b| b.blocks).to_string()),
        ("block_samples", blocked.map_or(0, |b| b.block_ops).to_string()),
        (
            "error_rate",
            json_num(phase.failed as f64 / phase.attempted.max(1) as f64),
        ),
    ];
    (phase.attempted, phase.failed, m, extra)
}

/// Per-workload tallies of a traced run.
#[derive(Default)]
struct Tallies {
    engines: [engines::Tally; 7],
    master_slave: master_slave::Tally,
    serve: serve::Tally,
}

/// One workload's untraced reference phase and traced phase.
fn traced_pair(
    workload: Workload,
    seed: u64,
    budget: Duration,
    work: &Path,
    tallies: &mut Tallies,
) -> (Phase, Phase, trace::Trace) {
    let half = budget / 2;
    let (ready, _) = setup(workload, seed, work);
    let phases = match &ready {
        Ready::Engines => {
            let reference = engines::measure(seed, half, false, &mut Default::default());
            trace::start(SPAN_CAPACITY);
            let traced = engines::measure(seed, half, true, &mut tallies.engines);
            (reference, traced)
        }
        Ready::MasterSlave(state) => {
            let reference =
                master_slave::measure(state, seed, half, false, &mut Default::default());
            trace::start(SPAN_CAPACITY);
            let traced = master_slave::measure(state, seed, half, true, &mut tallies.master_slave);
            (reference, traced)
        }
        Ready::Serve(state) => {
            let reference = serve::measure(state, seed, half, false, &mut Default::default());
            trace::start(SPAN_CAPACITY);
            let traced = serve::measure(state, seed, half, true, &mut tallies.serve);
            (reference, traced)
        }
    };
    let spans = trace::finish().expect("trace started above");
    ready.teardown();
    (phases.0, phases.1, spans)
}

fn traced(args: &Args, work: &Path) -> Outcome {
    let total = Duration::from_secs(args.seconds);
    let mut order = vec![args.workload];
    order.extend(WORKLOADS.iter().filter(|&&w| w != args.workload));
    let mut tallies = Tallies::default();
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0, 0);
    let mut extra = Vec::new();
    let mut trace_files = Vec::new();
    let mut dropped = 0;
    for (k, workload) in order.into_iter().enumerate() {
        let budget = if k == 0 { total / 2 } else { total / 4 };
        let (reference, traced, spans) =
            traced_pair(workload, args.seed, budget, work, &mut tallies);
        let diverged = diverging_ops(&reference, &traced);
        attempted += reference.attempted + traced.attempted;
        failed += reference.failed + traced.failed + diverged;
        match workload {
            Workload::EnginesCheap => {
                engines::layer_metrics(spans.spans(), &tallies.engines, &mut m);
            }
            Workload::MasterSlaveCostly => {
                master_slave::layer_metrics(spans.spans(), &tallies.master_slave, &mut m);
                extra.push((
                    "master_slave.eval_share",
                    json_num(master_slave::eval_share(spans.spans())),
                ));
            }
            Workload::ServeMixed => serve::layer_metrics(spans.spans(), &tallies.serve, &mut m),
        }
        if k == 0 {
            m.push(
                "trace.overhead_share",
                1.0 - traced.ops_per_s() / reference.ops_per_s(),
                "ratio",
            );
        }
        // One file per workload, overwritten by the next traced run.
        let file: PathBuf = work.join(format!("trace-{}.tsv", workload.name()));
        match spans.write_tsv(&file) {
            Ok(()) => trace_files.push(json_str(&file.display().to_string())),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", file.display()),
        }
        dropped += spans.dropped();
    }
    extra.push(("trace.dropped_spans", dropped.to_string()));
    extra.push(("trace_files", format!("[{}]", trace_files.join(", "))));
    (attempted, failed, m, extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("--workload serve-mixed --seed 7 --seconds 10 --trace 1"),
            Ok(Args {
                workload: Workload::ServeMixed,
                seed: 7,
                seconds: 10,
                trace: true,
            })
        );
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload serve-mixed --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve-mixed --seed 7 --seconds 10").is_err());
        assert!(args("--workload serve-mixed --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload serve-mixed --seed 7 --seconds 10 --trace 0 --x 1").is_err());
    }
}
