//! E19 — GA-as-a-service under multi-tenant load: the `pga-serve` job
//! server multiplexing many optimization jobs on the shared
//! work-stealing pool via slice scheduling with deficit round-robin
//! (DRR) tenant fairness.
//!
//! Claims checked:
//! 1. **No tenant starves** — with equal per-tenant demand, the ratio of
//!    the most- to least-served tenant's completed slices stays near 1.0
//!    from 1 to 64 tenants (asserted ≤ 1.5 on every row with ≥ 8
//!    concurrent jobs).
//! 2. **Admission control sheds, never queues unboundedly** — offered
//!    load past `max_jobs` is rejected with a `Retry-After` hint while
//!    every admitted job still completes.
//! 3. **The server is observable while loaded** — a live HTTP
//!    `GET /metrics` probe mid-run reports pool and job counters.
//!
//! Writes `results/BENCH_serve.json` (full mode only) for trend
//! tracking; redirect stdout to `results/e19_serve_load.txt`.

use pga_analysis::Table;
use pga_bench::emit;
use pga_serve::{Budget, EngineSpec, JobSpec, ProblemSpec, ServeBuilder, SubmitError};
use std::io::{BufRead, BufReader, Read, Write as IoWrite};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const JOBS_PER_TENANT: usize = 2;
const GENS: u64 = 30;
const WAIT: Duration = Duration::from_secs(120);

fn spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pga-e19-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(tenant: usize, index: usize, generations: u64) -> JobSpec {
    JobSpec {
        tenant: format!("tenant-{tenant:02}"),
        problem: ProblemSpec::onemax(64),
        engine: EngineSpec::ga(32, 1),
        seed: (1 + tenant as u64) * 1000 + index as u64,
        budget: Budget {
            generations: Some(generations),
            ..Budget::default()
        },
    }
}

struct SweepRow {
    tenants: usize,
    jobs: usize,
    wall_ms: f64,
    slices: u64,
    steps: u64,
    fairness: f64,
    p50_us: f64,
    p99_us: f64,
}

fn run_sweep(tenants: usize) -> SweepRow {
    let dir = spool(&format!("sweep{tenants}"));
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(tenants * JOBS_PER_TENANT)
        .steps_per_slice(8)
        .quantum_steps(8)
        .build()
        .expect("server starts");
    let started = Instant::now();
    for t in 0..tenants {
        for j in 0..JOBS_PER_TENANT {
            serve.submit(job(t, j, GENS)).expect("admitted within cap");
        }
    }
    assert!(serve.wait_all(WAIT), "jobs did not finish in time");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let snap = serve.metrics_snapshot();
    let slices = snap.counters.get("serve.slices").copied().unwrap_or(0);
    let steps = snap.counters.get("serve.steps").copied().unwrap_or(0);
    let hist = snap.histograms.get("serve.slice_micros");
    let p50_us = hist.and_then(|h| h.quantile_bound(0.50)).unwrap_or(0.0);
    let p99_us = hist.and_then(|h| h.quantile_bound(0.99)).unwrap_or(0.0);

    let per_tenant = serve.tenant_slices();
    assert_eq!(
        per_tenant.len(),
        tenants,
        "every tenant appears in the ledger"
    );
    let max = per_tenant.values().copied().max().unwrap_or(0);
    let min = per_tenant.values().copied().min().unwrap_or(0);
    assert!(min > 0, "a tenant was never scheduled");
    let fairness = max as f64 / min as f64;

    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    SweepRow {
        tenants,
        jobs: tenants * JOBS_PER_TENANT,
        wall_ms,
        slices,
        steps,
        fairness,
        p50_us,
        p99_us,
    }
}

struct ShedRow {
    cap: usize,
    offered: usize,
    admitted: usize,
    shed: usize,
    retry_after_ms: u64,
}

fn run_shed(cap: usize, offered: usize) -> ShedRow {
    let dir = spool(&format!("shed{cap}"));
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(cap)
        .retry_after_ms(250)
        .build()
        .expect("server starts");
    let mut admitted = 0;
    let mut shed = 0;
    let mut retry_after_ms = 0;
    for i in 0..offered {
        match serve.submit(job(i % 4, i, GENS)) {
            Ok(_) => admitted += 1,
            Err(SubmitError::Shed {
                retry_after_ms: hint,
            }) => {
                shed += 1;
                retry_after_ms = hint;
            }
            Err(e) => panic!("unexpected submit failure: {e}"),
        }
    }
    assert!(serve.wait_all(WAIT), "admitted jobs did not finish");
    assert_eq!(
        serve.metrics_snapshot().counters.get("serve.shed").copied(),
        Some(shed as u64),
        "shed counter disagrees with observed rejections"
    );
    serve.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    ShedRow {
        cap,
        offered,
        admitted,
        shed,
        retry_after_ms,
    }
}

/// One blocking HTTP GET against the serve endpoint; returns the body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(WAIT)).expect("timeout");
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .expect("request written");
    let mut reader = BufReader::new(conn);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert!(status.contains("200"), "probe failed: {status}");
    let mut raw = String::new();
    reader.read_to_string(&mut raw).expect("body");
    raw.split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or(raw)
}

/// Live-observability probe: hit `GET /metrics` over real HTTP while
/// ≥ 8 jobs are in flight; returns (live jobs seen, pool workers seen).
fn run_http_probe() -> (f64, f64) {
    let dir = spool("http");
    let serve = ServeBuilder::new()
        .spool_dir(&dir)
        .max_jobs(16)
        .bind("127.0.0.1:0")
        .build()
        .expect("http server starts");
    let addr = serve.http_addr().expect("bound");
    for t in 0..4 {
        for j in 0..4 {
            serve.submit(job(t, j, 20_000)).expect("admitted");
        }
    }
    let body = http_get(addr, "/metrics");
    let gauge = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(-1.0)
    };
    let live = gauge("serve.jobs_live");
    let workers = gauge("pool.workers");
    assert!(live >= 8.0, "expected ≥ 8 live jobs mid-probe, saw {live}");
    assert!(workers >= 1.0, "pool stats missing from /metrics");
    // Abandon rather than drain: 16 × 20k generations is deliberate
    // standing load, not work this probe needs finished.
    serve.abandon();
    let _ = std::fs::remove_dir_all(&dir);
    (live, workers)
}

fn main() {
    let quick = pga_bench::quick_mode();
    let sweep_sizes: &[usize] = if quick {
        &[1, 2, 4, 8]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };

    let mut t = Table::new(vec![
        "tenants",
        "jobs",
        "wall [ms]",
        "slices",
        "steps",
        "fair max/min",
        "p50 slice [us]",
        "p99 slice [us]",
    ])
    .with_title(format!(
        "E19 — serve tenant sweep, {JOBS_PER_TENANT} jobs/tenant, OneMax-64 pop 32, {GENS} gens/job"
    ));
    let mut rows = Vec::new();
    for &tenants in sweep_sizes {
        let row = run_sweep(tenants);
        // Claim 1: equal demand ⇒ near-equal service at every scale.
        if row.jobs >= 8 {
            assert!(
                row.fairness <= 1.5,
                "{tenants} tenants: slice ratio {:.2} — a tenant was starved",
                row.fairness
            );
        }
        t.row(vec![
            row.tenants.to_string(),
            row.jobs.to_string(),
            format!("{:.1}", row.wall_ms),
            row.slices.to_string(),
            row.steps.to_string(),
            format!("{:.2}", row.fairness),
            format!("{:.0}", row.p50_us),
            format!("{:.0}", row.p99_us),
        ]);
        rows.push(row);
    }
    emit(&t);

    let mut t2 = Table::new(vec![
        "cap",
        "offered",
        "admitted",
        "shed",
        "shed rate",
        "Retry-After [ms]",
    ])
    .with_title("E19b — admission control: offered load past the live-job cap is shed");
    let shed_rows: Vec<ShedRow> = [(8usize, 32usize), (16, 32)]
        .iter()
        .map(|&(cap, offered)| run_shed(cap, offered))
        .collect();
    for row in &shed_rows {
        assert_eq!(
            row.admitted, row.cap,
            "admission should fill exactly to the cap"
        );
        assert_eq!(row.shed, row.offered - row.cap);
        t2.row(vec![
            row.cap.to_string(),
            row.offered.to_string(),
            row.admitted.to_string(),
            row.shed.to_string(),
            format!("{:.0}%", 100.0 * row.shed as f64 / row.offered as f64),
            row.retry_after_ms.to_string(),
        ]);
    }
    emit(&t2);

    let (live, workers) = run_http_probe();
    println!(
        "E19c — live HTTP GET /metrics during a 16-job flood: serve.jobs_live = {live:.0}, \
         pool.workers = {workers:.0} (server remains observable under load)\n"
    );

    if quick {
        println!("quick mode: skipping results/BENCH_serve.json");
    } else {
        let json = render_json(&rows, &shed_rows, live, workers);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/BENCH_serve.json"
        );
        std::fs::write(path, &json).expect("write BENCH_serve.json");
        println!("wrote results/BENCH_serve.json");
    }
    println!(
        "reading: with equal per-tenant demand the DRR scheduler keeps the completed-slice\n\
         max/min ratio ≈ 1 from 1 to 64 tenants (no starvation) while p50/p99 slice latency\n\
         stays bounded; offered load past max_jobs is shed with a Retry-After hint instead of\n\
         queueing unboundedly; and the job server stays observable over HTTP while saturated."
    );
}

fn render_json(rows: &[SweepRow], shed: &[ShedRow], live: f64, workers: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"jobs_per_tenant\": {JOBS_PER_TENANT},\n"));
    out.push_str(&format!("  \"generations_per_job\": {GENS},\n"));
    out.push_str("  \"sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"tenants\": {}, \"jobs\": {}, \"wall_ms\": {:.1}, \"slices\": {}, \
             \"steps\": {}, \"fairness_max_min\": {:.3}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}{}\n",
            r.tenants,
            r.jobs,
            r.wall_ms,
            r.slices,
            r.steps,
            r.fairness,
            r.p50_us,
            r.p99_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"shed\": [\n");
    for (i, r) in shed.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cap\": {}, \"offered\": {}, \"admitted\": {}, \"shed\": {}, \
             \"retry_after_ms\": {}}}{}\n",
            r.cap,
            r.offered,
            r.admitted,
            r.shed,
            r.retry_after_ms,
            if i + 1 == shed.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"http_probe\": {{\"jobs_live\": {live:.0}, \"pool_workers\": {workers:.0}}}\n}}\n"
    ));
    out
}
