//! The chaos harness: crash, tear, starve and sever the serve stack and
//! assert the crash-safety contract every time — an accepted job is a
//! durable promise, and every scorecard that eventually arrives is
//! byte-identical to an uninterrupted run.
//!
//! Scenarios:
//!
//! * **kill -9 mid-batch**: the real daemon binary, SIGKILLed with a
//!   full-matrix batch in flight, restarted on the same `--store-dir`;
//!   the resubmitted batch must come back byte-identical to the
//!   `run_local` oracle, with the journal having carried the recovery.
//! * **journal-served dedup**: a crafted journal with a completed
//!   scorecard body; the daemon serves it with zero executions.
//! * **torn journal tail**: garbage appended to the journal (a crash
//!   mid-append); the daemon boots, reports the truncation, recovers the
//!   good prefix and still serves correct results.
//! * **disk write faults**: `io-error`/`short-write` chaos on the store;
//!   scorecards stay byte-identical while the store degrades to the
//!   memory tier with WARN counters.
//! * **slow client**: a peer stalling mid-frame past the socket deadline
//!   is dropped with an error frame; an idle peer and a legit client are
//!   unaffected.
//! * **severed deliveries**: `disconnect`/`torn-frame` chaos (client- and
//!   server-side) surface as `ServeError::Disconnected` with the partial
//!   scorecards, and never hurt other clients.

use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use valign::core::serve::protocol::{read_frame, write_frame, Json};
use valign::core::serve::{
    job_hash, run_local, Client, DoneRecord, JobSpec, Journal, PendingRecord, Priority,
    ServeConfig, ServeError, Server, SubmitOutcome, SubmitRequest, JOURNAL_FILE,
};
use valign::core::workload::KernelId;
use valign::core::{FaultSet, SupervisorConfig, TraceStore};
use valign::kernels::util::Variant;

const SEED: u64 = 11;

fn scratch(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("valign-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// The full kernel × variant matrix on one config — the batch the CI
/// chaos-soak job also submits.
fn matrix_specs(execs: usize) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            specs.push(JobSpec {
                kernel: kernel.label(),
                variant: variant.label().to_string(),
                config: "4-way".to_string(),
                execs,
                seed: SEED,
                realign: "equal-latency".to_string(),
            });
        }
    }
    specs
}

fn small_specs(execs: usize) -> Vec<JobSpec> {
    matrix_specs(execs).into_iter().take(6).collect()
}

fn plain(jobs: Vec<JobSpec>) -> SubmitRequest {
    SubmitRequest {
        client: "chaos".to_string(),
        priority: Priority::Normal,
        inject: Vec::new(),
        jobs,
    }
}

fn submit_ok(client: &mut Client, req: &SubmitRequest) -> Vec<String> {
    match client.submit(req).expect("submit") {
        SubmitOutcome::Accepted { scorecards, .. } => scorecards,
        SubmitOutcome::Rejected { reason, .. } => panic!("unexpected rejection: {reason}"),
    }
}

fn oracle(specs: &[JobSpec]) -> Vec<String> {
    run_local(&TraceStore::new(), specs, &[], SupervisorConfig::default()).expect("oracle")
}

fn stat_u64(stats: &str, object: &str, key: &str) -> u64 {
    Json::parse(stats)
        .expect("stats parses")
        .get(object)
        .and_then(|o| o.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no {object}.{key} in {stats}"))
}

/// Spawns the real daemon binary on an ephemeral port and parses the
/// bound address off its stdout.
fn spawn_serve(store_dir: &Path, extra: &[&str]) -> (Child, SocketAddr, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_valign"))
        .arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--store-dir")
        .arg(store_dir)
        .arg("--quota")
        .arg("64")
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn valign serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout);
    let mut line = String::new();
    lines.read_line(&mut line).expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected serve banner: {line:?}"))
        .parse()
        .expect("parse bound address");
    (child, addr, lines)
}

fn poll_until(what: &str, timeout: Duration, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The acceptance scenario: SIGKILL the daemon mid-batch, restart it on
/// the same store, and get every scorecard back byte-identical to an
/// uninterrupted run.
#[test]
fn kill_dash_nine_mid_batch_loses_nothing() {
    let dir = scratch("kill9");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let specs = matrix_specs(300);
    let expected = oracle(&specs);
    let journal_path = dir.join(JOURNAL_FILE);

    // First incarnation: accept the batch, then die without warning.
    let (mut child, addr, _lines) = spawn_serve(&dir, &["--threads", "1"]);
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("deadline");
    write_frame(&mut raw, &plain(specs.clone()).render()).expect("submit frame");
    let accepted = read_frame(&mut raw).expect("accepted").expect("frame");
    assert!(accepted.contains("\"type\": \"accepted\""), "{accepted}");
    // The durable promise exists as soon as the accept was acknowledged.
    poll_until(
        "journal to grow past its magic",
        Duration::from_secs(20),
        || std::fs::metadata(&journal_path).is_ok_and(|m| m.len() > 8),
    );
    child.kill().expect("SIGKILL");
    let _ = child.wait();
    drop(raw);

    // Second incarnation, same store: the journal replays, unfinished
    // jobs re-enqueue. Resubmit the identical batch immediately — the
    // hash dedup attaches to (or is served from) the recovery, and every
    // scorecard must match the uninterrupted oracle byte-for-byte.
    let (mut child, addr, _lines) = spawn_serve(&dir, &["--threads", "2"]);
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stat_u64(&stats, "journal", "recovered_pending") >= 1,
        "the kill must have left pending journal records: {stats}"
    );
    assert!(stats.contains("\"enabled\": true"), "{stats}");
    let cards = submit_ok(&mut client, &plain(specs.clone()));
    assert_eq!(
        cards, expected,
        "recovered daemon diverged from the uninterrupted oracle"
    );

    // Once everything settles the journal compacts back to its magic and
    // no job is pending or duplicated.
    poll_until("drain and compaction", Duration::from_secs(30), || {
        let stats = client.stats().expect("stats");
        stat_u64(&stats, "journal", "pending") == 0
            && std::fs::metadata(&journal_path).is_ok_and(|m| m.len() == 8)
    });
    client.shutdown().expect("shutdown");
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal holding a finished scorecard body serves a resubmit with
/// zero executions — the dedup that makes a post-crash resubmit cheap.
#[test]
fn journaled_scorecards_are_served_without_rerunning() {
    let dir = scratch("served");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = small_specs(4).remove(0);
    let frame = oracle(std::slice::from_ref(&spec)).remove(0);
    let marker = "\"job_id\": 0, ";
    let at = frame.find(marker).expect("job_id in frame") + marker.len();
    let body = frame[at..].to_string();

    let hash = job_hash(&spec, &[]);
    {
        let (mut journal, _) = Journal::open(dir.join(JOURNAL_FILE)).expect("open journal");
        journal
            .append_accepted(&PendingRecord {
                hash,
                priority: Priority::Normal,
                inject: Vec::new(),
                spec: spec.clone(),
            })
            .expect("accepted record");
        journal
            .append_done(&DoneRecord {
                hash,
                kind: "completed".to_string(),
                card: body,
            })
            .expect("done record");
    }

    let store = TraceStore::with_disk(&dir).expect("store");
    let server =
        Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let cards = submit_ok(&mut client, &plain(vec![spec]));
    assert_eq!(cards, vec![frame], "served card must be byte-identical");
    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "journal", "recovered_done"), 1, "{stats}");
    assert_eq!(stat_u64(&stats, "jobs", "journal_served"), 1, "{stats}");
    assert_eq!(
        stat_u64(&stats, "jobs", "cache_served"),
        0,
        "a journal-recovered serve is not a lifetime-cache serve: {stats}"
    );
    assert_eq!(
        stat_u64(&stats, "jobs", "completed"),
        0,
        "nothing may have executed: {stats}"
    );
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scorecard completed during *this* daemon's lifetime serves the same
/// client's resubmit from the in-memory dedup cache while its other work
/// is still in the system — counted as `cache_served`, never as
/// `journal_served` (which is reserved for bodies recovered from a
/// previous incarnation's journal).
#[test]
fn lifetime_cache_serves_are_not_counted_as_journal_served() {
    let specs = small_specs(4);
    let quick = specs[0].clone();
    // Slow enough (~seconds) that the queue is still occupied when the
    // resubmit below lands — the window in which `quick`'s card lives
    // in the dedup cache.
    let slow = JobSpec {
        execs: 150,
        ..specs[1].clone()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(TraceStore::new()),
        ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    // The single worker drains in arrival order: `quick` completes
    // first, then `slow` holds the queue open for seconds.
    let background = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        submit_ok(&mut client, &plain(vec![quick, slow]))
    });
    let mut client = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        if stat_u64(&stats, "jobs", "completed") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "quick job never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let cards = submit_ok(&mut client, &plain(vec![specs[0].clone()]));
    assert_eq!(
        cards,
        oracle(&specs[..1]),
        "cache-served card must be byte-identical"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "jobs", "cache_served"), 1, "{stats}");
    assert_eq!(
        stat_u64(&stats, "jobs", "journal_served"),
        0,
        "no journal was ever replayed: {stats}"
    );
    assert_eq!(background.join().expect("background submit").len(), 2);
    server.shutdown();
    server.wait();
}

/// The lifetime dedup cache belongs to the client that asked: another
/// client resubmitting a finished spec executes it again, even while
/// other work keeps the queue from draining. How much a submit executes
/// therefore never depends on how other clients' submits happen to
/// interleave with it.
#[test]
fn lifetime_cache_serves_only_the_client_that_asked() {
    let specs = small_specs(4);
    let quick = specs[0].clone();
    let slow = JobSpec {
        execs: 150,
        ..specs[1].clone()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(TraceStore::new()),
        ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    // Two workers: `quick` completes while `slow` holds the queue open
    // for seconds, leaving a worker free for the resubmit below.
    let background = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        submit_ok(&mut client, &plain(vec![quick, slow]))
    });
    let mut client = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.stats().expect("stats");
        if stat_u64(&stats, "jobs", "completed") >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "quick job never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stranger = SubmitRequest {
        client: "stranger".to_string(),
        ..plain(specs[..1].to_vec())
    };
    let cards = submit_ok(&mut client, &stranger);
    assert_eq!(cards, oracle(&specs[..1]), "re-executed card must match");
    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "jobs", "cache_served"), 0, "{stats}");
    assert_eq!(stat_u64(&stats, "jobs", "deduped"), 0, "{stats}");
    assert!(
        stat_u64(&stats, "jobs", "completed") >= 2,
        "the stranger's resubmit must have executed: {stats}"
    );
    assert_eq!(background.join().expect("background submit").len(), 2);
    server.shutdown();
    server.wait();
}

/// Garbage on the journal tail — a crash mid-append — is truncated away
/// on boot; the good prefix recovers and service is unharmed.
#[test]
fn torn_journal_tail_recovers_the_good_prefix() {
    let dir = scratch("torn");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let specs = small_specs(4);
    let expected = oracle(&specs);
    {
        let (mut journal, _) = Journal::open(dir.join(JOURNAL_FILE)).expect("open journal");
        journal
            .append_accepted(&PendingRecord {
                hash: job_hash(&specs[0], &[]),
                priority: Priority::High,
                inject: Vec::new(),
                spec: specs[0].clone(),
            })
            .expect("accepted record");
    }
    {
        use std::fs::OpenOptions;
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(JOURNAL_FILE))
            .expect("open for tear");
        f.write_all(b"GARBAGE-TORN-TAIL").expect("tear");
    }

    let store = TraceStore::with_disk(&dir).expect("store");
    let server =
        Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "journal", "torn_bytes"), 17, "{stats}");
    assert_eq!(
        stat_u64(&stats, "journal", "recovered_pending"),
        1,
        "the record before the tear survives: {stats}"
    );
    let cards = submit_ok(&mut client, &plain(specs));
    assert_eq!(cards, expected, "torn-tail recovery changed results");
    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk write faults degrade the store to its memory tier — counted,
/// warned about, and invisible in the scorecards.
#[test]
fn disk_write_faults_never_touch_the_scorecards() {
    let dir = scratch("diskfault");
    let specs = small_specs(4);
    let expected = oracle(&specs);
    for spec in ["io-error:*", "short-write:*"] {
        let chaos = FaultSet::parse(&[spec.to_string()]).expect("chaos spec");
        let store = TraceStore::with_disk(&dir)
            .expect("store")
            .with_chaos(chaos);
        let server =
            Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::default()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let cards = submit_ok(&mut client, &plain(specs.clone()));
        assert_eq!(cards, expected, "{spec}: disk faults changed scorecards");
        let stats = client.stats().expect("stats");
        assert!(
            stat_u64(&stats, "store", "disk_write_failures") >= 1,
            "{spec}: write failures must be counted: {stats}"
        );
        server.shutdown();
        server.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A peer that stalls mid-frame past the socket deadline is dropped with
/// an error frame; an idle peer survives the same deadline untouched.
#[test]
fn slow_loris_is_dropped_but_idle_peers_survive() {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(TraceStore::new()),
        ServeConfig {
            io_timeout_ms: 200,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Idle past the deadline, then speak: still served.
    let mut idle = Client::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(500));
    let stats = idle.stats().expect("an idle connection must survive");
    assert!(stats.contains("\"type\": \"stats\""));

    // Two header bytes, then silence: dropped with a deadline error.
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("deadline");
    loris.write_all(&[0, 0]).expect("partial header");
    let reply = read_frame(&mut loris).expect("error frame").expect("frame");
    assert!(
        reply.contains("read deadline expired mid-frame"),
        "expected the deadline diagnostic, got {reply}"
    );
    assert!(
        read_frame(&mut loris).expect("clean close").is_none(),
        "the stalled connection must be closed"
    );

    // The legit client was never affected.
    let specs = small_specs(4)[..1].to_vec();
    let expected = oracle(&specs);
    let cards = submit_ok(&mut idle, &plain(specs));
    assert_eq!(cards, expected);
    server.shutdown();
    server.wait();
}

/// `disconnect` / `torn-frame` chaos severs exactly the matching
/// delivery: the client surfaces `ServeError::Disconnected` with its
/// partial scorecards, and other clients never notice.
#[test]
fn severed_deliveries_surface_partial_results_and_spare_others() {
    let specs = small_specs(4);
    let expected = oracle(&specs);
    let victim = format!("{}.{}", specs[0].kernel, specs[0].variant);

    // Client-side chaos: the submit asks for its own severing.
    for class in ["disconnect", "torn-frame"] {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(TraceStore::new()),
            ServeConfig::default(),
        )
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let req = SubmitRequest {
            client: "rude".to_string(),
            priority: Priority::Normal,
            inject: vec![format!("{class}:{victim}")],
            jobs: specs.clone(),
        };
        match client.submit(&req) {
            Err(ServeError::Disconnected { partial, detail }) => {
                assert!(
                    partial.len() < specs.len(),
                    "{class}: the severed batch cannot be complete"
                );
                assert!(!detail.is_empty());
                for card in &partial {
                    assert!(card.contains("\"type\": \"scorecard\""), "{card}");
                }
            }
            other => panic!("{class}: expected Disconnected, got {other:?}"),
        }
        // The daemon is unharmed: a clean client gets the full batch.
        // (The rude submit's hash differs — its inject set is part of the
        // job identity — so nothing here rides on its cached outcome.)
        let mut clean = Client::connect(server.addr()).expect("connect");
        let cards = submit_ok(&mut clean, &plain(specs.clone()));
        assert_eq!(cards, expected, "{class}: chaos leaked onto a clean client");
        server.shutdown();
        server.wait();
    }

    // Server-side chaos (`serve --inject`): same severing, configured on
    // the daemon, so even an innocent submit matching the selector dies —
    // and non-matching submits still complete.
    let chaos = FaultSet::parse(&[format!("disconnect:{victim}")]).expect("chaos");
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(TraceStore::new()),
        ServeConfig {
            chaos,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.submit(&plain(specs.clone())) {
        Err(ServeError::Disconnected { .. }) => {}
        other => panic!("server-side disconnect chaos did not fire: {other:?}"),
    }
    let mut clean = Client::connect(server.addr()).expect("connect");
    let safe = specs[1..].to_vec();
    let cards = submit_ok(&mut clean, &plain(safe.clone()));
    assert_eq!(cards, oracle(&safe), "non-matching jobs must be unaffected");
    server.shutdown();
    server.wait();
}

/// Duplicate specs inside one submit share a single execution: the dedup
/// ledger in action without any journal at all.
#[test]
fn duplicate_jobs_in_one_submit_run_once() {
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(TraceStore::new()),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let spec = small_specs(4).remove(0);
    let cards = submit_ok(&mut client, &plain(vec![spec.clone(), spec.clone()]));
    assert_eq!(cards.len(), 2);
    let strip = |frame: &str| frame.replacen("\"job_id\": 1", "\"job_id\": 0", 1);
    assert_eq!(
        strip(&cards[1]),
        cards[0],
        "both subscribers get the one execution's body"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(stat_u64(&stats, "jobs", "submitted"), 2, "{stats}");
    assert_eq!(stat_u64(&stats, "jobs", "deduped"), 1, "{stats}");
    assert_eq!(stat_u64(&stats, "jobs", "journal_served"), 0, "{stats}");
    assert_eq!(stat_u64(&stats, "jobs", "cache_served"), 0, "{stats}");
    assert_eq!(
        stat_u64(&stats, "jobs", "completed"),
        1,
        "exactly one execution: {stats}"
    );
    server.shutdown();
    server.wait();
}
