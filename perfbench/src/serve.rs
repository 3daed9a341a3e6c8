//! `serve-fresh` and `serve-repeat`: an in-process daemon with a store
//! directory (so the journal is on), driven by closed-loop clients — each
//! client waits for `batch-done` before its next submit. Every submit
//! carries four small jobs.
//!
//! * `serve-fresh`: every job has a new seed, so every job traces, builds
//!   and atomically writes its image, and journals twice.
//! * `serve-repeat`: set-up packs the pool's 33 images (`valign pack`),
//!   binds the daemon on that store and submits the pool (kernel ×
//!   variant × machine at one seed) once, so every image is decoded off
//!   disk once and then memory-resident; jobs are then drawn with a Zipf
//!   skew from the pool: the read side of the same layers.

use crate::report::{self, card_body, Counters, Report};
use crate::spans::Tracer;
use crate::PassArgs;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use valign_core::serve::protocol::{
    compose_scorecard, read_frame, scorecard_body, write_frame, Json,
};
use valign_core::serve::{
    job_hash, run_local, Client, DoneRecord, JobSpec, Journal, PendingRecord, Priority, Request,
    ServeConfig, Server, SubmitOutcome, SubmitRequest, JOURNAL_FILE,
};
use valign_core::store_ops::{matrix_keys, pack};
use valign_core::{
    trace_kernel, JobOutcome, KernelId, SupervisorConfig, TraceKey, TraceSource, TraceStore,
};
use valign_kernels::util::Variant;
use valign_pipeline::{PipelineConfig, ReplayImage, RunGuards, Simulator};
use valign_store::{decode_file, StoreDir};

/// Kernel executions per job: small jobs, so the service layers show.
const EXECS: usize = 20;
const JOBS_PER_SUBMIT: usize = 4;
/// Zipf exponent of the `serve-repeat` draw over its pool.
const ZIPF_S: f64 = 1.0;
/// Rounds of the memcpy roofline; the median round is reported.
const MEMCPY_ROUNDS: usize = 5;

/// Which serve workload, and how much work one pass does.
#[derive(Clone, Copy)]
pub struct Shape {
    pub fresh: bool,
    pub submits_per_client: usize,
}

impl Shape {
    fn name(self) -> &'static str {
        if self.fresh {
            "serve-fresh"
        } else {
            "serve-repeat"
        }
    }
}

fn clients() -> usize {
    report::nproc().min(2)
}

/// SplitMix64: the generator's only source of randomness.
struct Rng(u64);

impl Rng {
    fn new(parts: &[u64]) -> Rng {
        let mut rng = Rng(0x7661_6c69_676e_0b0b);
        for &p in parts {
            rng.0 ^= p;
            rng.next();
        }
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn spec(kernel: KernelId, variant: Variant, config: &str, seed: u64) -> JobSpec {
    JobSpec {
        kernel: kernel.label(),
        variant: variant.label().to_string(),
        config: config.to_string(),
        execs: EXECS,
        seed,
        realign: "equal-latency".to_string(),
    }
}

fn config_names() -> Vec<&'static str> {
    PipelineConfig::table_ii().iter().map(|c| c.name).collect()
}

/// Every kernel × variant × machine at `seed`, kernels varying fastest.
/// The order is the `serve-repeat` popularity rank, fixed so that the
/// seed moves the draws but not the mix of job sizes: every run's most
/// popular specs cover every kernel.
fn pool(seed: u64) -> Vec<JobSpec> {
    let mut pool = Vec::new();
    for config in config_names() {
        for &variant in Variant::ALL {
            for &kernel in KernelId::ALL {
                pool.push(spec(kernel, variant, config, seed));
            }
        }
    }
    pool
}

/// Each client's submits for one pass, generated from the seed alone.
/// `serve-fresh` walks the pool's kernel × variant × machine cycle from a
/// random point, with a new seed per job, so every pass has the same mix
/// of job sizes; `serve-repeat` draws pool specs as they are.
fn submits(shape: Shape, seed: u64, pass: u64) -> Vec<Vec<SubmitRequest>> {
    let pool = pool(seed);
    let weights: Vec<f64> = (1..=pool.len())
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(weights.len());
    let mut acc = 0.0;
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..clients())
        .map(|c| {
            let mut rng = Rng::new(&[seed, pass, c as u64]);
            let mut cursor = rng.below(pool.len());
            (0..shape.submits_per_client)
                .map(|_| {
                    let jobs = (0..JOBS_PER_SUBMIT)
                        .map(|_| {
                            if shape.fresh {
                                cursor += 1;
                                JobSpec {
                                    seed: rng.next(),
                                    ..pool[cursor % pool.len()].clone()
                                }
                            } else {
                                let u = rng.unit();
                                let at = cdf.partition_point(|&p| p < u).min(pool.len() - 1);
                                pool[at].clone()
                            }
                        })
                        .collect();
                    SubmitRequest {
                        client: format!("client-{c}"),
                        priority: Priority::Normal,
                        inject: Vec::new(),
                        jobs,
                    }
                })
                .collect()
        })
        .collect()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        threads: report::nproc(),
        ..ServeConfig::default()
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    /// Submit to `batch-done`, per submit; `None` when refused.
    latencies: Vec<Option<f64>>,
    /// (spec, scorecard frame) for every delivered job.
    cards: Vec<(JobSpec, String)>,
    refused_jobs: u64,
}

fn drive(addr: SocketAddr, submits: &[SubmitRequest]) -> Result<ClientLog, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut log = ClientLog::default();
    for req in submits {
        let started = Instant::now();
        match client.submit(req).map_err(|e| e.to_string())? {
            SubmitOutcome::Accepted { scorecards, .. } => {
                log.latencies.push(Some(report::ms_since(started)));
                log.cards.extend(req.jobs.iter().cloned().zip(scorecards));
            }
            SubmitOutcome::Rejected { .. } => {
                log.latencies.push(None);
                log.refused_jobs += req.jobs.len() as u64;
            }
        }
    }
    Ok(log)
}

/// `serve-repeat`'s set-up: the whole pool once, so every image is
/// memory-resident (none for `serve-fresh`).
fn warm_up(shape: Shape, seed: u64) -> Vec<SubmitRequest> {
    if shape.fresh {
        return Vec::new();
    }
    pool(seed)
        .chunks(JOBS_PER_SUBMIT)
        .map(|chunk| SubmitRequest {
            client: "warm-up".to_string(),
            priority: Priority::Normal,
            inject: Vec::new(),
            jobs: chunk.to_vec(),
        })
        .collect()
}

fn warm(addr: SocketAddr, requests: &[SubmitRequest]) -> Result<(), String> {
    if requests.is_empty() {
        return Ok(());
    }
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    for req in requests {
        match client.submit(req).map_err(|e| e.to_string())? {
            SubmitOutcome::Accepted { .. } => {}
            SubmitOutcome::Rejected { reason, .. } => {
                return Err(format!("warm-up refused: {reason}"))
            }
        }
    }
    Ok(())
}

/// `run_local` scorecard bodies of every distinct spec, on `nproc`
/// threads, each spec against its own memory-only store.
fn oracle(specs: Vec<JobSpec>) -> Result<HashMap<u64, String>, String> {
    let threads = report::nproc();
    let chunk = specs.len().div_ceil(threads).max(1);
    let parts: Vec<Result<Vec<(JobSpec, String)>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|spec| {
                            let frames = run_local(
                                &TraceStore::new(),
                                std::slice::from_ref(spec),
                                &[],
                                SupervisorConfig::default(),
                            )
                            .map_err(|e| e.message)?;
                            let frame = frames.first().ok_or("run_local returned no scorecard")?;
                            Ok((spec.clone(), card_body(frame).to_string()))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".to_string()))
            })
            .collect()
    });
    let mut out = HashMap::new();
    for part in parts {
        for (spec, body) in part? {
            out.insert(job_hash(&spec, &[]), body);
        }
    }
    Ok(out)
}

fn field(json: &Json, path: &[&str]) -> f64 {
    let mut at = Some(json);
    for key in path {
        at = at.and_then(|j| j.get(key));
    }
    at.and_then(Json::as_u64).map_or(0.0, |v| v as f64)
}

/// `/stats` counters under the benchmark's layer names.
fn stats_counters(stats: &Json, c: &mut Counters) {
    let f = |path: &[&str]| field(stats, path);
    let submitted = f(&["jobs", "submitted"]);
    let deduped = f(&["jobs", "deduped"]);
    let served = f(&["jobs", "journal_served"]) + f(&["jobs", "cache_served"]);
    c.insert("sim.mem_hits", f(&["store", "hits"]));
    c.insert("sim.mem_misses", f(&["store", "misses"]));
    c.insert("sim.disk_hits", f(&["store", "disk_hits"]));
    c.insert("sim.disk_misses", f(&["store", "disk_misses"]));
    c.insert("sim.resident_keys", f(&["store", "entries"]));
    c.insert("server.submitted", submitted);
    c.insert("server.deduped", deduped);
    c.insert("server.served", served);
    c.insert("server.fresh", submitted - deduped - served);
    c.insert(
        "server.rejected",
        f(&["jobs", "rejected_queue_full"])
            + f(&["jobs", "rejected_quota"])
            + f(&["jobs", "rejected_budget"]),
    );
    c.insert("supervise.retried", f(&["jobs", "retried"]));
    c.insert("supervise.degraded", f(&["jobs", "degraded"]));
    c.insert("supervise.quarantined", f(&["jobs", "quarantined"]));
}

fn start(dir: &Path) -> Result<Server, String> {
    let store = TraceStore::with_disk(dir).map_err(|e| e.to_string())?;
    Server::bind("127.0.0.1:0", Arc::new(store), serve_config()).map_err(|e| e.to_string())
}

struct Measured {
    setup_s: f64,
    wall_s: f64,
    report: Report,
    /// `run_local` bodies of every delivered spec (and, for
    /// `serve-repeat`, of the whole pool), by job hash.
    oracle: HashMap<u64, String>,
}

fn measure(args: &PassArgs, shape: Shape, seed: u64, dir: &Path) -> Result<Measured, String> {
    let plan = submits(shape, seed, args.index as u64);
    let setup = Instant::now();
    if !shape.fresh {
        pack(dir, EXECS, seed, report::nproc()).map_err(|e| format!("pack failed: {e}"))?;
    }
    let server = start(dir)?;
    let addr = server.addr();
    warm(addr, &warm_up(shape, seed))?;
    let setup_s = setup.elapsed().as_secs_f64();
    report::ready();

    let started = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .iter()
            .map(|list| s.spawn(move || drive(addr, list)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    server.shutdown();
    server.wait();
    let logs = logs.into_iter().collect::<Result<Vec<_>, _>>()?;

    let mut distinct = HashMap::new();
    for spec in warm_up(shape, seed).into_iter().flat_map(|req| req.jobs) {
        distinct.insert(job_hash(&spec, &[]), spec);
    }
    for log in &logs {
        for (spec, _) in &log.cards {
            distinct
                .entry(job_hash(spec, &[]))
                .or_insert_with(|| spec.clone());
        }
    }
    let oracle = oracle(distinct.into_values().collect())?;
    // Refused, quarantined or degraded jobs and scorecards that differ
    // from `run_local`'s all count as failed.
    let (mut delivered, mut failed, mut sim_instrs) = (0u64, 0u64, 0u64);
    let mut latencies = Vec::new();
    for log in &logs {
        latencies.extend(log.latencies.iter().copied());
        failed += log.refused_jobs;
        for (spec, frame) in &log.cards {
            delivered += 1;
            let json = Json::parse(frame).map_err(|e| e.to_string())?;
            let completed = json.get("outcome").and_then(Json::as_str) == Some("completed");
            let matches =
                oracle.get(&job_hash(spec, &[])).map(String::as_str) == Some(card_body(frame));
            failed += u64::from(!completed || !matches);
            sim_instrs += 2 * json.get("instructions").and_then(Json::as_u64).unwrap_or(0);
        }
    }
    let attempted = delivered + logs.iter().map(|log| log.refused_jobs).sum::<u64>();
    let mut r = Report::default();
    r.nums("walls_s", &[wall_s])
        .num("jobs", delivered as f64)
        .num("attempted", attempted as f64)
        .num("failed", failed as f64)
        .num("sim_instrs", sim_instrs as f64)
        .latencies("latencies_ms", &latencies);
    Ok(Measured {
        setup_s,
        wall_s,
        report: r,
        oracle,
    })
}

/// One untraced pass.
pub fn pass(args: &PassArgs, shape: Shape) -> Result<Report, String> {
    let seed = report::program_seed(args.seed);
    let dir = args.work.join(format!("store-{}", args.index));
    Ok(measure(args, shape, seed, &dir)?.report)
}

/// One raw connection of the traced client: frames go through the
/// protocol's own `write_frame`/`read_frame`, so each is a span, and the
/// wait for the daemon's next frame stays outside every span.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let read = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(read),
            writer: BufWriter::new(stream),
        })
    }

    fn send(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        rid: u64,
        text: &str,
    ) -> Result<(), String> {
        t.span("protocol.frame", rid, |_| {
            write_frame(&mut self.writer, text).and_then(|()| self.writer.flush())
        })
        .map_err(|e| e.to_string())?;
        *c.entry("protocol.bytes").or_default() += 4.0 + text.len() as f64;
        Ok(())
    }

    fn recv(&mut self, t: &mut Tracer, c: &mut Counters, rid: u64) -> Result<Json, String> {
        // Blocks until the daemon has sent something: server time.
        self.reader.fill_buf().map_err(|e| e.to_string())?;
        let text = t.span("protocol.frame", rid, |_| read_frame(&mut self.reader));
        let text = text
            .map_err(|e| e.to_string())?
            .ok_or("daemon closed the connection")?;
        *c.entry("protocol.bytes").or_default() += 4.0 + text.len() as f64;
        t.span("protocol.parse", rid, |_| Json::parse(&text))
            .map_err(|e| e.to_string())
    }

    fn kind(json: &Json) -> String {
        json.get("type")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    }

    /// Sends a submit and reads its `accepted` frame; returns ms taken.
    fn submit(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        req: &SubmitRequest,
    ) -> Result<f64, String> {
        let text = t.span("protocol.render", 0, |_| req.render());
        let started = Instant::now();
        self.send(t, c, 0, &text)?;
        let first = self.recv(t, c, 0)?;
        if Conn::kind(&first) != "accepted" {
            return Err(format!(
                "traced submit not accepted: {}",
                Conn::kind(&first)
            ));
        }
        Ok(report::ms_since(started))
    }

    /// Reads scorecards until `batch-done`.
    fn drain(&mut self, t: &mut Tracer, c: &mut Counters) -> Result<(), String> {
        loop {
            match Conn::kind(&self.recv(t, c, 0)?).as_str() {
                "batch-done" => return Ok(()),
                "scorecard" => {}
                other => return Err(format!("unexpected frame in batch stream: {other}")),
            }
        }
    }
}

/// The daemon's job path for one executed job, through its public parts.
struct Replica {
    dir: StoreDir,
    journal: Journal,
    memory: HashMap<TraceKey, (Arc<ReplayImage>, u64)>,
    sink: Vec<u8>,
    /// Every `.vimg` file the replica decoded, for the memcpy roofline.
    files: Vec<Vec<u8>>,
}

impl Replica {
    fn submit(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        text: &str,
    ) -> Result<Vec<String>, String> {
        let parsed = t
            .span("protocol.parse", 0, |_| Request::parse(text))
            .map_err(|e| e.message)?;
        let Request::Submit(req) = parsed else {
            return Err("replica expected a submit".to_string());
        };
        let mut jobs = Vec::with_capacity(req.jobs.len());
        for spec in &req.jobs {
            let job = t
                .span("protocol.parse", 0, |_| spec.resolve())
                .map_err(|e| e.message)?;
            let hash = job_hash(spec, &req.inject);
            let record = PendingRecord {
                hash,
                priority: req.priority,
                inject: req.inject.clone(),
                spec: spec.clone(),
            };
            t.span("journal.append", hash, |_| {
                self.journal.append_accepted(&record)
            })
            .map_err(|e| e.to_string())?;
            *c.entry("journal.appends").or_default() += 1.0;
            jobs.push((job, hash));
        }
        let mut bodies = Vec::with_capacity(jobs.len());
        for (job_id, (job, hash)) in jobs.into_iter().enumerate() {
            let TraceSource::Key(key) = job.source else {
                return Err("serve job resolved to a shared trace".to_string());
            };
            let (image, checksum) = self.prepared(t, c, key)?;
            if !t.span("image.verify", hash, |_| image.checksum() == checksum) {
                *c.entry("image.verify_failures").or_default() += 1.0;
            }
            let guards = RunGuards {
                cycle_budget: Some(SupervisorConfig::default().budget_for(image.len())),
                stall: None,
            };
            let result = t.span("engine", hash, |_| {
                Simulator::try_simulate_image(job.cfg.clone(), Some(&image), &image, &guards)
            });
            let outcome = JobOutcome::Completed {
                result: result.map_err(|e| e.to_string())?,
            };
            *c.entry("engine.replays").or_default() += 2.0;
            *c.entry("engine.instrs").or_default() += 2.0 * image.len() as f64;
            let body = t.span("protocol.render", hash, |_| scorecard_body(&job, &outcome));
            let record = DoneRecord {
                hash,
                kind: outcome.kind().to_string(),
                card: body.clone(),
            };
            t.span("journal.append", hash, |_| {
                self.journal.append_done(&record)
            })
            .map_err(|e| e.to_string())?;
            *c.entry("journal.appends").or_default() += 1.0;
            let frame = t.span("protocol.render", hash, |_| {
                compose_scorecard(job_id as u64, &body)
            });
            self.sink.clear();
            t.span("protocol.frame", hash, |_| {
                write_frame(&mut self.sink, &frame)
            })
            .map_err(|e| e.to_string())?;
            bodies.push(body);
        }
        // The replica runs one submit at a time, so the queue drains here.
        let size = std::fs::metadata(self.journal.path()).map_or(0, |m| m.len());
        *c.entry("journal.mb").or_default() += size as f64 / 1e6;
        t.span("journal.compact", 0, |_| self.journal.compact())
            .map_err(|e| e.to_string())?;
        *c.entry("journal.compactions").or_default() += 1.0;
        Ok(bodies)
    }

    /// `TraceStore::prepared`: the memory tier, then the disk tier, then
    /// a build from source with write-back.
    fn prepared(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        key: TraceKey,
    ) -> Result<(Arc<ReplayImage>, u64), String> {
        let rid = key.content_hash();
        t.span("sim", rid, |t| {
            if let Some((image, checksum)) = self.memory.get(&key) {
                return Ok((Arc::clone(image), *checksum));
            }
            let read = t.span("store.load", rid, |_| std::fs::read(self.dir.path_for(rid)));
            let (image, checksum) = match read {
                Ok(bytes) => {
                    let stored = t.span("store.decode", rid, |_| decode_file(&bytes));
                    let stored = stored.map_err(|e| e.to_string())?;
                    *c.entry("store.mb_read").or_default() += bytes.len() as f64 / 1e6;
                    self.files.push(bytes);
                    (stored.image, stored.checksum)
                }
                Err(e) if e.kind() == ErrorKind::NotFound => self.build(t, c, key)?,
                Err(e) => return Err(e.to_string()),
            };
            let image = image.into_shared();
            self.memory.insert(key, (Arc::clone(&image), checksum));
            Ok((image, checksum))
        })
    }

    /// A build from source with write-back: what `pack` does per key and
    /// what a memory and disk miss costs.
    fn build(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        key: TraceKey,
    ) -> Result<(ReplayImage, u64), String> {
        let rid = key.content_hash();
        let trace = t.span("workload", rid, |_| {
            trace_kernel(key.kernel, key.variant, key.execs, key.seed)
        });
        let image = t.span("image", rid, |_| ReplayImage::build(&trace));
        let checksum = t.span("image.verify", rid, |_| image.checksum());
        let bytes = t.span("store.save", rid, |_| self.dir.save(rid, &image, checksum));
        *c.entry("workload.traces").or_default() += 1.0;
        *c.entry("workload.instrs").or_default() += trace.len() as f64;
        *c.entry("image.builds").or_default() += 1.0;
        *c.entry("image.mb").or_default() += image.approx_bytes() as f64 / 1e6;
        *c.entry("store.mb_written").or_default() += bytes.map_err(|e| e.to_string())? as f64 / 1e6;
        Ok((image, checksum))
    }
}

/// The traced run: an untraced pass for reference, then the same inputs
/// twice more on one thread so spans nest. `serve-repeat`'s set-up packs
/// its store through `pack`'s constituent calls (trace, build, checksum,
/// `save` per key). Then a real daemon on that store, driven over raw
/// protocol frames — the two clients' submits interleaved, each still
/// waiting for its `batch-done` — which yields the admission lanes,
/// `accept_ms` and frame costs; the daemon's own work is reachable only
/// as waiting and stays in `unattributed_s`. Then the daemon's job path
/// through its constituent calls (parse, journal, memory and disk tiers,
/// trace, build, checksum, save, guarded replay, render), which must
/// reproduce `run_local`'s scorecards.
pub fn traced(args: &PassArgs, shape: Shape) -> Result<Report, String> {
    let seed = report::program_seed(args.seed);
    let m = measure(args, shape, seed, &args.work.join("store-reference"))?;
    let mut r = m.report;
    let plan = submits(shape, seed, args.index as u64);

    let mut c = Counters::new();
    let mut t = Tracer::new(shape.name(), seed);
    let store = args.work.join("store-traced");
    let dir = t
        .span("store.open", 0, |_| StoreDir::create(&store))
        .map_err(|e| e.to_string())?;
    let (journal, _) = t
        .span("journal.open", 0, |_| {
            Journal::open(args.work.join(JOURNAL_FILE))
        })
        .map_err(|e| e.to_string())?;
    let mut replica = Replica {
        dir,
        journal,
        memory: HashMap::new(),
        sink: Vec::new(),
        files: Vec::new(),
    };
    if !shape.fresh {
        for key in matrix_keys(EXECS, seed) {
            t.span("sim", key.content_hash(), |t| replica.build(t, &mut c, key))?;
        }
    }
    let server = t.span("server", 0, |_| start(&store))?;
    let mut conns = plan
        .iter()
        .map(|_| Conn::open(server.addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let warm_up = warm_up(shape, seed);
    for req in &warm_up {
        conns[0].submit(&mut t, &mut c, req)?;
        conns[0].drain(&mut t, &mut c)?;
    }
    let mut accept_ms = Vec::new();
    for round in 0..shape.submits_per_client {
        for (conn, list) in conns.iter_mut().zip(&plan) {
            accept_ms.push(conn.submit(&mut t, &mut c, &list[round])?);
        }
        for conn in &mut conns {
            conn.drain(&mut t, &mut c)?;
        }
    }
    conns[0].send(&mut t, &mut c, 0, "{\"type\": \"stats\"}")?;
    let stats = conns[0].recv(&mut t, &mut c, 0)?;
    drop(conns);
    t.span("server", 0, |_| {
        server.shutdown();
        server.wait();
    });

    if shape.fresh {
        // The daemon wrote every fresh job's image into its store; the
        // replica starts from an empty one, as the daemon did. On
        // `serve-repeat` the daemon added nothing to the packed store.
        replica.dir = t
            .span("store.open", 0, |_| {
                StoreDir::create(args.work.join("store-replica"))
            })
            .map_err(|e| e.to_string())?;
    }
    let mut requests: Vec<&SubmitRequest> = warm_up.iter().collect();
    for round in 0..shape.submits_per_client {
        requests.extend(plan.iter().map(|list| &list[round]));
    }
    let mut replica_cards = Vec::new();
    for req in &requests {
        let bodies = replica.submit(&mut t, &mut c, &req.render())?;
        replica_cards.extend(req.jobs.iter().cloned().zip(bodies));
    }
    let spans = t.finish();
    // The replica must answer every job exactly as `run_local` does.
    if replica_cards
        .iter()
        .any(|(spec, body)| m.oracle.get(&job_hash(spec, &[])) != Some(body))
    {
        return Err("traced replica scorecards differ from run_local's".to_string());
    }

    stats_counters(&stats, &mut c);
    c.insert("store.memcpy_gbps", memcpy_gbps(&replica.files));
    let path = args.work.join("spans.json");
    report::write_file(&path, &spans)?;
    r.text("spans", &path.display().to_string())
        .num("untraced_wall_s", m.setup_s + m.wall_s)
        .latencies(
            "accept_ms",
            &accept_ms.into_iter().map(Some).collect::<Vec<_>>(),
        )
        .counters("counters", &c);
    Ok(r)
}

/// Copy bandwidth over the same `.vimg` bytes the decode read, into one
/// preallocated buffer, as a memcpy benchmark measures it: the roofline
/// `store.decode_gbps` is read against. The files were written during
/// set-up and read just before, so page cache and CPU caches are warm.
/// 0 when nothing was decoded.
fn memcpy_gbps(files: &[Vec<u8>]) -> f64 {
    let total: usize = files.iter().map(Vec::len).sum();
    if total == 0 {
        return 0.0;
    }
    let mut dst = vec![0u8; files.iter().map(Vec::len).max().unwrap_or(0)];
    let mut rounds: Vec<f64> = (0..MEMCPY_ROUNDS)
        .map(|_| {
            let started = Instant::now();
            for src in files {
                dst[..src.len()].copy_from_slice(black_box(src));
                black_box(&mut dst);
            }
            total as f64 / started.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[MEMCPY_ROUNDS / 2]
}
