//! Integration tests for the `valign serve` simulation service — the
//! acceptance scenarios of the serve layer, over real sockets:
//!
//! * hostile bytes on the wire (bad magic, oversized headers, framed
//!   garbage from a deterministic fuzzer) cost the offending connection
//!   an error frame at most — the daemon keeps serving valid clients;
//! * admission control is reject-don't-queue: quota and capacity
//!   violations answer `rejected` with a `retry_after_ms` hint, an
//!   over-budget job is refused permanently (no hint), and nothing of a
//!   rejected batch is enqueued;
//! * scorecards are bit-identical to the `--local` batch path, under
//!   concurrent clients at mixed priorities, and across a daemon
//!   restart against a warm `--store-dir`;
//! * an injected panic quarantines exactly the selected job while its
//!   siblings stay bit-identical to an uninjected run, and an injected
//!   stall (watchdog overrun) is retried transparently — fault
//!   isolation holds over the wire;
//! * a warm single-job submit is not held up by the wire: no reply frame
//!   waits on the client's delayed ACK.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use valign::core::serve::protocol::{read_frame, write_frame, Json};
use valign::core::serve::{
    run_local, Client, JobSpec, Priority, ServeConfig, Server, SubmitOutcome, SubmitRequest,
};
use valign::core::workload::KernelId;
use valign::core::{SupervisorConfig, TraceStore};
use valign::kernels::util::Variant;

const EXECS: usize = 4;
const SEED: u64 = 11;

fn scratch(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("valign-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// A small but heterogeneous job list: two kernels × all variants on the
/// default 4-way machine.
fn specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for kernel in KernelId::ALL.iter().take(2) {
        for &variant in Variant::ALL {
            specs.push(JobSpec {
                kernel: kernel.label(),
                variant: variant.label().to_string(),
                config: "4-way".to_string(),
                execs: EXECS,
                seed: SEED,
                realign: "equal-latency".to_string(),
            });
        }
    }
    specs
}

fn start(cfg: ServeConfig) -> Server {
    Server::bind("127.0.0.1:0", Arc::new(TraceStore::new()), cfg).expect("bind ephemeral port")
}

fn submit_ok(client: &mut Client, req: &SubmitRequest) -> Vec<String> {
    match client.submit(req).expect("submit") {
        SubmitOutcome::Accepted { scorecards, .. } => scorecards,
        SubmitOutcome::Rejected { reason, .. } => panic!("unexpected rejection: {reason}"),
    }
}

fn plain_request(jobs: Vec<JobSpec>) -> SubmitRequest {
    SubmitRequest {
        client: "test".to_string(),
        priority: Priority::Normal,
        inject: Vec::new(),
        jobs,
    }
}

#[test]
fn garbage_on_the_wire_never_kills_the_daemon() {
    let server = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Raw hostile bytes: an oversized length header. The daemon answers
    // one error frame and drops the connection.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).expect("write");
    let reply = read_frame(&mut raw).expect("error frame").expect("frame");
    assert!(
        reply.contains("\"type\": \"error\""),
        "oversized header should earn an error frame, got {reply}"
    );

    // A truncated frame: promise 100 bytes, send 3, close.
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(&100u32.to_be_bytes()).expect("write");
    raw.write_all(b"abc").expect("write");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let reply = read_frame(&mut raw).expect("error frame").expect("frame");
    assert!(reply.contains("\"type\": \"error\""), "got {reply}");

    // Well-framed garbage from a deterministic LCG fuzzer: every payload
    // earns an error frame on the same connection — malformed *content*
    // does not cost the connection, only malformed *framing* does.
    let mut fuzz = TcpStream::connect(addr).expect("connect");
    fuzz.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    for round in 0..50 {
        let len = (state % 40 + 1) as usize;
        let payload: String = (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Printable ASCII plus JSON punctuation — parseable
                // garbage, unparseable garbage, half-open braces.
                char::from(b' ' + (state >> 33) as u8 % 95)
            })
            .collect();
        write_frame(&mut fuzz, &payload).expect("write frame");
        let reply = read_frame(&mut fuzz)
            .expect("daemon must answer, not die")
            .expect("frame");
        assert!(
            reply.contains("\"type\": \"error\""),
            "round {round}: payload {payload:?} earned {reply}"
        );
    }

    // After all that abuse a legitimate client still gets served.
    let mut client = Client::connect(addr).expect("connect");
    let cards = submit_ok(&mut client, &plain_request(specs()[..1].to_vec()));
    assert_eq!(cards.len(), 1);
    assert!(cards[0].contains("\"outcome\": \"completed\""));

    server.shutdown();
    server.wait();
}

#[test]
fn admission_rejects_are_backpressure_not_queueing() {
    let server = start(ServeConfig {
        threads: 1,
        queue_cap: 4,
        client_quota: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    // Three jobs against a quota of two: rejected atomically with a
    // retry hint — nothing of the batch runs.
    let outcome = client
        .submit(&plain_request(specs()[..3].to_vec()))
        .expect("submit");
    match outcome {
        SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert_eq!(reason, "quota-exceeded");
            assert!(retry_after_ms.is_some(), "load shedding carries a hint");
        }
        SubmitOutcome::Accepted { .. } => panic!("quota violation was admitted"),
    }

    // Five jobs against a capacity of four, spread over a fresh client
    // name so the quota check cannot fire first: queue-full.
    let mut other = Client::connect(addr).expect("connect");
    let five = SubmitRequest {
        client: "greedy".to_string(),
        priority: Priority::High,
        inject: Vec::new(),
        jobs: specs()[..5].to_vec(),
    };
    // quota 2 < 5 would reject anyway; capacity is checked first, so the
    // reason distinguishes the two.
    match other.submit(&five).expect("submit") {
        SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, "queue-full"),
        SubmitOutcome::Accepted { .. } => panic!("capacity violation was admitted"),
    }

    // A quota-sized batch still goes through after the rejections —
    // rejected submits left no residue in the queue accounting.
    let cards = submit_ok(&mut client, &plain_request(specs()[..2].to_vec()));
    assert_eq!(cards.len(), 2);

    server.shutdown();
    server.wait();
}

#[test]
fn over_budget_jobs_are_refused_permanently() {
    let server = start(ServeConfig {
        threads: 1,
        max_budget: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    match client
        .submit(&plain_request(specs()[..1].to_vec()))
        .expect("submit")
    {
        SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        } => {
            assert_eq!(reason, "over-budget");
            assert!(
                retry_after_ms.is_none(),
                "resubmitting cannot shrink a job's budget — no retry hint"
            );
        }
        SubmitOutcome::Accepted { .. } => panic!("over-budget job was admitted"),
    }
    server.shutdown();
    server.wait();
}

#[test]
fn concurrent_clients_get_scorecards_bit_identical_to_the_local_path() {
    // The oracle: the identical jobs through the identical execution and
    // rendering path, in-process, serially.
    let oracle = run_local(
        &TraceStore::new(),
        &specs(),
        &[],
        SupervisorConfig::default(),
    )
    .expect("local run");

    let server = start(ServeConfig {
        threads: 2,
        queue_cap: 64,
        client_quota: 16,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let priorities = [Priority::Low, Priority::High, Priority::Normal];
    let all: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let priority = priorities[i];
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let req = SubmitRequest {
                        client: format!("client-{i}"),
                        priority,
                        inject: Vec::new(),
                        jobs: specs(),
                    };
                    submit_ok(&mut client, &req)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    for (i, cards) in all.iter().enumerate() {
        assert_eq!(
            cards, &oracle,
            "client {i}: daemon scorecards diverged from the local batch path"
        );
    }
    server.shutdown();
    server.wait();
}

#[test]
fn a_restart_against_a_warm_store_replays_bit_identically() {
    let dir = scratch("warm");
    let jobs = specs();

    let cold = {
        let store = TraceStore::with_disk(&dir).expect("store dir");
        let server =
            Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::default()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let cards = submit_ok(&mut client, &plain_request(jobs.clone()));
        client.shutdown().expect("shutdown handshake");
        server.wait();
        cards
    };

    // A brand-new daemon process image: fresh memory tier, same disk.
    let store = TraceStore::with_disk(&dir).expect("store dir");
    let server =
        Server::bind("127.0.0.1:0", Arc::new(store), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let warm = submit_ok(&mut client, &plain_request(jobs));
    assert_eq!(cold, warm, "restart against a warm store changed results");

    // The warm run was actually served off disk — the stats frame says so.
    let stats = client.stats().expect("stats");
    let parsed = Json::parse(&stats).expect("stats parses");
    let disk_hits = parsed
        .get("store")
        .and_then(|s| s.get("disk_hits"))
        .and_then(Json::as_u64)
        .expect("disk_hits in stats");
    assert!(
        disk_hits > 0,
        "warm restart should hit the disk tier: {stats}"
    );

    server.shutdown();
    server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_faults_are_isolated_over_the_wire() {
    let server = start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let oracle = run_local(
        &TraceStore::new(),
        &specs(),
        &[],
        SupervisorConfig::default(),
    )
    .expect("local run");

    // A persistent panic on one job: that job is quarantined, every
    // sibling's scorecard is bit-identical to the uninjected oracle.
    let victim = format!("{}.{}", specs()[0].kernel, specs()[0].variant);
    let mut client = Client::connect(addr).expect("connect");
    let req = SubmitRequest {
        client: "faulty".to_string(),
        priority: Priority::Normal,
        inject: vec![format!("panic:{victim}")],
        jobs: specs(),
    };
    let cards = submit_ok(&mut client, &req);
    assert_eq!(cards.len(), oracle.len());
    for (card, expected) in cards.iter().zip(&oracle) {
        if card.contains(&format!("\"job\": \"{victim}\"")) {
            assert!(
                card.contains("\"outcome\": \"quarantined\""),
                "the injected job must be quarantined: {card}"
            );
        } else {
            assert_eq!(card, expected, "a sibling of the quarantined job changed");
        }
    }

    // A stall overruns the cycle-budget watchdog on the first attempt
    // and clears on retry: transparently survived, reported as retried.
    let req = SubmitRequest {
        client: "stalled".to_string(),
        priority: Priority::Normal,
        inject: vec!["stall:*".to_string()],
        jobs: specs()[..2].to_vec(),
    };
    let cards = submit_ok(&mut client, &req);
    for card in &cards {
        assert!(
            card.contains("\"outcome\": \"retried\""),
            "a stalled job should survive via retry: {card}"
        );
    }

    server.shutdown();
    server.wait();
}

#[test]
fn warm_single_job_submits_do_not_wait_on_delayed_acks() {
    let server = start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    // A spec that replays in about a millisecond even in a debug build.
    let req = plain_request(vec![JobSpec {
        kernel: "idct4x4".to_string(),
        variant: "unaligned".to_string(),
        config: "4-way".to_string(),
        execs: 2,
        seed: SEED,
        realign: "equal-latency".to_string(),
    }]);
    // Traces the spec into the memory tier; every later submit replays it.
    submit_ok(&mut client, &req);
    let mut ms: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            submit_ok(&mut client, &req);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    // With Nagle on, each reply frame after `accepted` waited for the
    // client's delayed ACK: a 40 ms floor under every submit.
    assert!(
        median < 25.0,
        "median submit to batch-done {median:.1} ms is ACK-bound: {ms:?}"
    );
    client.shutdown().expect("shutdown handshake");
    server.wait();
}
