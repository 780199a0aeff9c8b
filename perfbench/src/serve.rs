//! `serve-mixed`: the HTTP job server under a closed loop of mixed
//! tenants.
//!
//! An in-process `Serve` listens on 127.0.0.1. One client thread keeps
//! [`OUTSTANDING`] jobs in flight (fewer than the server's `max_batch`
//! and `max_jobs`, so nothing is shed). One operation is `POST /jobs`,
//! then `ServeRuntime::wait`, then one `GET /jobs/:id`, timed from the
//! POST to the end of the GET. Seven small-job tenants cycle through all
//! seven families; one heavy tenant runs island jobs whose slices are
//! about eight times longer, which exposes head-of-line blocking behind the
//! scheduler's batch barrier. HTTP, the scheduler, the per-slice spool
//! persist and the batch barrier sit on every job's path; engine work is
//! most of the CPU time (see [`STEPS_PER_SLICE`]).
//!
//! Each operation opens two connections, which the client resets once
//! it has read the response (see [`abort_on_close`]), so back-to-back
//! runs see the same kernel socket table.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pga_core::driver::Driver;
use pga_core::erased::ErasedRun;
use pga_serve::protocol::Json;
use pga_serve::{
    build_engine, Budget, EngineSpec, JobId, JobSpec, ProblemSpec, Serve, ServeBuilder,
};
use rayon::PoolStats;

use crate::report::Metrics;
use crate::stats::Summary;
use crate::trace;
use crate::workload::{op_seed, Phase, Window};

/// Jobs the client keeps in flight.
pub const OUTSTANDING: usize = 8;
/// Tenants 0..7 send small jobs; tenant 7 is the heavy one.
const SMALL_TENANTS: u64 = 7;
const TENANTS: u64 = SMALL_TENANTS + 1;
/// How long the client blocks on its oldest job before it looks for any
/// other finished one.
const WAIT_POLL: Duration = Duration::from_millis(1);
/// A job still unfinished after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const IO_TIMEOUT: Duration = Duration::from_secs(10);
const SETUP_REPS: u64 = 5;
/// OneMax length of every job.
const GENOME_BITS: usize = 1024;
/// Engine steps per scheduler slice and per DRR quantum. Each slice ends
/// in a spool persist (write, then rename over the previous record),
/// which on an ext4 disk costs 0.25–1 ms of kernel time and swings
/// fourfold within a minute. With the server's default of 8 steps that
/// persist was most of the work and back-to-back runs disagreed by up to
/// 2x, so slices here are long enough for engine work to lead. At 64
/// steps the spool still took about 4 MB/s of 20 KB records; 128 steps
/// halve that.
const STEPS_PER_SLICE: u64 = 128;
/// Event lines the server keeps per job. Nothing reads the streams here,
/// and the default of 65 536 lines kept about 100 KB per finished job.
const EVENT_LINES: usize = 64;
/// Every job's generation budget, in slices. Jobs run their whole
/// budget (no stop at the optimum), so every job of a tenant costs the
/// same, and a 40 s run finishes about 750 of them: five blocks of
/// more than 100 even when the host runs a quarter slower, so the tail
/// rule picks p90 in each (see `Phase::blocked`).
const SLICES_PER_JOB: u64 = 8;

fn small_engine(family: u64) -> EngineSpec {
    match family % 7 {
        0 => EngineSpec::ga(32, 1),
        1 => EngineSpec::steady(32),
        2 => EngineSpec::cellular(6, 6),
        3 => EngineSpec::island(2, 16),
        4 => EngineSpec::async_steady(32, 4),
        5 => EngineSpec::cga(128),
        _ => EngineSpec::pcga(128, 8),
    }
}

/// Job `i` of a run seeded with `seed`: tenant `i mod 8`; small tenants
/// step through the seven families so each sees all of them. A heavy
/// step (4 islands of 192) costs about 300 µs on an idle core, eight
/// times the mean small step (11–70 µs by family, 36 µs on average).
#[must_use]
pub fn job(seed: u64, i: u64) -> JobSpec {
    let tenant = i % TENANTS;
    let (tenant_name, problem, engine) = if tenant == SMALL_TENANTS {
        (
            "heavy".to_string(),
            ProblemSpec::onemax(GENOME_BITS),
            EngineSpec::island(4, 192),
        )
    } else {
        (
            format!("small-{tenant}"),
            ProblemSpec::onemax(GENOME_BITS),
            small_engine(tenant + i / TENANTS),
        )
    };
    JobSpec {
        tenant: tenant_name,
        problem,
        engine,
        // JSON carries integers exactly only up to 2^53.
        seed: op_seed(seed, i) >> 11,
        budget: Budget {
            generations: Some(SLICES_PER_JOB * STEPS_PER_SLICE),
            ..Budget::default()
        },
    }
}

fn is_small(i: u64) -> bool {
    i % TENANTS != SMALL_TENANTS
}

/// One HTTP/1.1 exchange on a fresh connection; returns status and body.
fn exchange(
    addr: SocketAddr,
    span: &'static str,
    head: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let _span = trace::span(span);
    let mut conn = {
        let _connect = trace::span("http.connect");
        TcpStream::connect(addr)?
    };
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    conn.write_all(
        format!(
            "{head} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    conn.read_to_string(&mut response)?;
    abort_on_close(&conn)?;
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response");
    let code = response
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    let (_, body) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((code, body.to_string()))
}

/// Makes dropping `conn` reset it instead of closing it gracefully.
///
/// The server closes every connection first, so each graceful close
/// parks a socket in TIME_WAIT for a minute. All of this client's
/// connections share one source address and one server port, so a run's
/// few thousand of them crowd the ephemeral port range of the next run
/// (six back-to-back 5 s runs left 9 500). Remote clients spread over
/// many addresses and do not pile up like this. Resetting after the
/// whole response has been read tears down the server's half-closed
/// socket without a TIME_WAIT, so every run starts from the same socket
/// table.
fn abort_on_close(conn: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    // Linux values of SOL_SOCKET and SO_LINGER.
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: `conn` owns an open socket for the duration of the call,
    // and `linger` is a live `struct linger` whose size is passed as
    // the option length.
    let rc = unsafe {
        setsockopt(
            conn.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

fn post(addr: SocketAddr, spec: &JobSpec) -> Option<JobId> {
    let (code, body) = exchange(addr, "http.post", "POST /jobs", &spec.to_json_string()).ok()?;
    if code != 201 {
        return None;
    }
    Json::parse(&body).ok()?.get("id")?.as_str()?.parse().ok()
}

/// What `GET /jobs/:id` said about a finished job.
#[derive(Clone, Debug, PartialEq)]
struct Status {
    state: String,
    best_bits: u64,
    evaluations: u64,
}

fn get(addr: SocketAddr, id: JobId) -> Option<Status> {
    let (code, body) = exchange(addr, "http.get", &format!("GET /jobs/{id}"), "").ok()?;
    if code != 200 {
        return None;
    }
    let doc = Json::parse(&body).ok()?;
    Some(Status {
        state: doc.get("state")?.as_str()?.to_string(),
        best_bits: doc.get("best_fitness")?.as_f64()?.to_bits(),
        evaluations: doc.get("evaluations")?.as_u64()?,
    })
}

/// The server under test and where it spools.
pub struct State {
    serve: Option<Serve>,
    addr: SocketAddr,
    dir: PathBuf,
}

impl State {
    fn serve(&self) -> &Serve {
        self.serve.as_ref().expect("server runs until teardown")
    }

    /// Shuts the server down and removes its spool.
    pub fn teardown(mut self) {
        if let Some(serve) = self.serve.take() {
            serve.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn start(dir: &Path) -> (Serve, SocketAddr) {
    let _ = std::fs::remove_dir_all(dir);
    let serve = ServeBuilder::new()
        .spool_dir(dir)
        .steps_per_slice(STEPS_PER_SLICE)
        .quantum_steps(STEPS_PER_SLICE)
        .stream_capacity(EVENT_LINES)
        .bind("127.0.0.1:0")
        .build()
        .expect("server starts on loopback");
    let addr = serve.http_addr().expect("bound listener");
    (serve, addr)
}

/// Starts a server, spools into a fresh directory under `work`, and
/// runs one job through it over HTTP; several times, keeping the last
/// server. Returns the set-up times, s.
#[must_use]
pub fn setup(seed: u64, work: &Path) -> (State, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let start_at = Instant::now();
        let dir = work.join(format!("spool-{}-{rep}", std::process::id()));
        let (serve, addr) = start(&dir);
        let id = post(addr, &job(seed, u64::MAX - rep)).expect("warm-up job admitted");
        assert!(serve.wait(id, JOB_TIMEOUT), "warm-up job finishes");
        let status = get(addr, id).expect("warm-up job readable");
        assert_eq!(status.state, "done", "warm-up job done");
        times.push(start_at.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(State {
            serve: Some(serve),
            addr,
            dir,
        }) {
            old.teardown();
        }
    }
    (kept.expect("at least one set-up"), times)
}

/// A job in flight.
struct Pending {
    index: u64,
    id: JobId,
    posted: Instant,
}

/// A finished job, for the replay check.
struct Finished {
    index: u64,
    status: Option<Status>,
}

/// Server-side counters across a traced phase.
#[derive(Debug, Default)]
pub struct Tally {
    small_latencies_ms: Vec<f64>,
    slices: u64,
    steps: u64,
    completed: u64,
    slice_micros: f64,
    tenant_slices: BTreeMap<String, u64>,
    pool: PoolStats,
    wall: Duration,
    record_bytes: f64,
}

/// Keeps [`OUTSTANDING`] jobs in flight for `budget`; then checks every
/// finished job against a local replay.
pub fn measure(
    state: &State,
    seed: u64,
    budget: Duration,
    traced: bool,
    tally: &mut Tally,
) -> Phase {
    let serve = state.serve();
    let metrics_before = serve.metrics_snapshot();
    let slices_before = serve.tenant_slices();
    let pool_before = rayon::global_pool_stats();
    let mut phase = Phase::default();
    let mut pending: Vec<Pending> = Vec::with_capacity(OUTSTANDING);
    let mut finished = Vec::new();
    let mut next = 0;
    let window = Window::open();
    loop {
        while pending.len() < OUTSTANDING && window.elapsed() < budget {
            let index = next;
            next += 1;
            phase.attempted += 1;
            let posted = Instant::now();
            match post(state.addr, &job(seed, index)) {
                Some(id) => pending.push(Pending { index, id, posted }),
                None => phase.failed += 1,
            }
        }
        if pending.is_empty() {
            break;
        }
        {
            let _span = trace::span("serve.wait");
            serve.wait(pending[0].id, WAIT_POLL);
        }
        let mut k = 0;
        while k < pending.len() {
            let p = &pending[k];
            let done = serve.state(p.id).is_some_and(|s| s.is_terminal());
            if !done && p.posted.elapsed() < JOB_TIMEOUT {
                k += 1;
                continue;
            }
            let p = pending.remove(k);
            let status = if done { get(state.addr, p.id) } else { None };
            let latency = p.posted.elapsed();
            if is_small(p.index) {
                tally.small_latencies_ms.push(latency.as_secs_f64() * 1e3);
            }
            phase.complete(latency, status.as_ref().map_or(0, |s| s.evaluations));
            finished.push(Finished {
                index: p.index,
                status,
            });
        }
    }
    window.close(&mut phase);
    if traced {
        let d = serve.metrics_snapshot().delta(&metrics_before);
        let counter = |name: &str| d.counters.get(name).copied().unwrap_or(0);
        tally.slices += counter("serve.slices");
        tally.steps += counter("serve.steps");
        tally.completed += counter("serve.completed");
        tally.slice_micros += d
            .histograms
            .get("serve.slice_micros")
            .map_or(0.0, |h| h.sum());
        for (tenant, n) in serve.tenant_slices() {
            let before = slices_before.get(&tenant).copied().unwrap_or(0);
            *tally.tenant_slices.entry(tenant).or_default() += n - before;
        }
        let pool = rayon::global_pool_stats().delta(&pool_before);
        tally.pool.workers = pool.workers;
        tally.pool.calls += pool.calls;
        tally.pool.queue_wait_micros += pool.queue_wait_micros;
        tally.wall += phase.wall;
        tally.record_bytes = mean_record_bytes(&state.dir);
    }
    // Outside the timed window: every job must be done, with the best
    // fitness a local run of the same spec finds. The replays are split
    // over the host's two cores.
    let bad = |part: &[Finished]| -> u64 {
        part.iter()
            .filter(|f| {
                !f.status.as_ref().is_some_and(|s| {
                    s.state == "done" && local_best_bits(&job(seed, f.index)) == Some(s.best_bits)
                })
            })
            .count() as u64
    };
    let (left, right) = finished.split_at(finished.len() / 2);
    phase.failed += std::thread::scope(|scope| {
        let other = scope.spawn(|| bad(right));
        bad(left) + other.join().expect("replay thread panicked")
    });
    phase
}

/// Best fitness bits of `spec` run locally through the same factory and
/// the core `Driver`.
fn local_best_bits(spec: &JobSpec) -> Option<u64> {
    let termination = spec.budget.to_termination().ok()?;
    let mut engine = build_engine(spec, None).ok()?;
    let out = Driver::new(termination)
        .run(&mut ErasedRun(&mut *engine))
        .ok()?;
    Some(out.best_fitness.to_bits())
}

/// Mean size of the job records in the spool directory, bytes.
fn mean_record_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.path().extension().is_some_and(|x| x == "pgaj"))
                .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                .collect()
        })
        .unwrap_or_default();
    sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64
}

/// Per-layer metrics of a traced phase.
pub fn layer_metrics(spans: &[trace::Span], tally: &Tally, out: &mut Metrics) {
    for (metric, span) in [
        ("http.connect_us_p50", "http.connect"),
        ("http.post_us_p50", "http.post"),
        ("http.get_us_p50", "http.get"),
    ] {
        let mut d = trace::durations_us(spans, span);
        out.push(metric, Summary::of(&mut d).map_or(0.0, |s| s.p50), "us");
    }
    let slices_per_job = tally.slices as f64 / tally.completed.max(1) as f64;
    out.push("scheduler.slices_per_job", slices_per_job, "count");
    out.push(
        "scheduler.steps_per_slice",
        tally.steps as f64 / tally.slices.max(1) as f64,
        "count",
    );
    let workers = tally.pool.workers.max(1) as f64;
    out.push(
        "scheduler.slice_busy_share",
        tally.slice_micros / (tally.wall.as_secs_f64() * 1e6 * workers),
        "ratio",
    );
    let max = tally.tenant_slices.values().copied().max().unwrap_or(0);
    let min = tally.tenant_slices.values().copied().min().unwrap_or(0);
    out.push(
        "scheduler.fairness",
        max as f64 / min.max(1) as f64,
        "ratio",
    );
    out.push(
        "pool.queue_wait_us",
        tally.pool.queue_wait_micros as f64 / tally.pool.calls.max(1) as f64,
        "us",
    );
    let mut small = tally.small_latencies_ms.clone();
    out.push(
        "scheduler.small_job_ms_tail",
        Summary::of(&mut small).map_or(0.0, |s| s.tail),
        "ms",
    );
    out.push("spool.record_bytes", tally.record_bytes, "bytes");
    out.push(
        "spool.bytes_per_job",
        slices_per_job * tally.record_bytes,
        "bytes",
    );
}
