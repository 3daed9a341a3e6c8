//! `valign` — command-line front end for the reproduction experiments.
//!
//! ```text
//! valign table1|table2|table3|fig4|fig8|fig9|fig10|all [--execs N] [--seed S] [--threads T]
//! valign run [--supervised] [--inject CLASS:SELECTOR]... [--execs N] [--seed S] [--threads T] [--store-dir DIR]
//! valign explain --kernel K --variant V [--json] [--execs N] [--seed S] [--threads T]
//! valign lint [--json] [--kernel K --variant V | --all] [--execs N] [--seed S] [--store-dir DIR]
//! valign audit [--store-dir DIR] [--json] [--execs N] [--seed S]
//! valign pack --store-dir DIR [--execs N] [--seed S] [--threads T]
//! valign verify-image --store-dir DIR
//! valign serve [--addr HOST:PORT] [--threads T] [--queue-cap N] [--quota N] [--max-budget CYC] [--io-timeout-ms MS] [--inject CLASS:SELECTOR]... [--store-dir DIR]
//! valign submit [--addr HOST:PORT] [--client NAME] [--priority low|normal|high] [--kernel K --variant V] [--config C] [--realign M] [--inject CLASS:SELECTOR]... [--execs N] [--seed S]
//! valign submit --stats | --shutdown [--addr HOST:PORT]
//! valign submit --local [--store-dir DIR] ...
//! ```
//!
//! Each experiment subcommand prints the corresponding table/figure of
//! the paper; `all` runs the full evaluation in order, sharing one
//! simulation context so every kernel/variant is traced exactly once (the
//! closing scorecard asserts this), and `--threads` spreads the replays
//! over a deterministic worker pool — output is bit-identical at any
//! thread count. Equivalent bench targets exist under `cargo bench -p
//! valign-bench`, this binary just makes the study runnable as a plain
//! tool.
//!
//! `explain` replays one kernel/variant across the three Table II
//! configurations and prints the cycle-attribution report: every replay
//! cycle charged to exactly one stall bucket, with the conservation
//! invariant (buckets sum to total cycles) checked per configuration.
//! `--json` emits the machine-readable form the replay-equivalence CI job
//! greps for `"conserved":true`.
//!
//! `run` replays the full kernel × variant × Table II batch and prints one
//! row per job. With `--supervised` the batch goes through the
//! `SupervisedRunner`: per-job panic isolation, integrity-checked replay
//! images, a cycle-budget watchdog, bounded retries, quarantine, and
//! graceful degradation to the reference walker — the scorecard then
//! carries per-outcome tallies and a `supervised totals` line CI greps.
//! `--inject CLASS:SELECTOR` (repeatable, requires `--supervised`) plants
//! deterministic faults — `panic:luma8x8.unaligned`, `image-corrupt:*`,
//! `stall:chroma`, … — to exercise those paths; a quarantined injection
//! still exits 0, because surviving the fault *is* the contract.
//!
//! `lint` runs the `valign-analyze` static checks over recorded traces
//! and the pipeline latency tables, and exits 1 on any ERROR diagnostic —
//! the trace gate CI enforces. With `--store-dir` the linted images come
//! off disk through the real loader, putting the decode path under the
//! same gate.
//!
//! `audit` is the zero-simulation static audit. With `--store-dir` it
//! walks the store directory: every `.vimg` file is decoded through the
//! full integrity ladder, its content checksum re-derived, the four
//! `image-*` invariant rules run, and the static cost-model bounds
//! computed per Table II configuration — one verdict line per file,
//! exit 1 on any ERROR. Without `--store-dir` it audits the full kernel ×
//! variant matrix and additionally replays each clean pair to check the
//! `costmodel-soundness` rule (measured attribution inside the static
//! bounds), printing one `costmodel-soundness: pass` line per pair for
//! CI to count.
//!
//! `serve` starts the long-running simulation daemon: a socket protocol
//! of length-prefixed JSON frames feeding a priority job queue into the
//! supervised executor, with admission control against the cycle-budget
//! watchdog, per-client quotas, reject-with-retry-after backpressure,
//! streaming per-job scorecards, and a live `stats` view of the trace
//! store's tier hit rates and the stall-bucket aggregate. With a
//! `--store-dir` the daemon is crash-safe: accepted jobs are journaled
//! durably before the accept is acknowledged, so a `kill -9` mid-batch
//! loses nothing — the next start replays the journal, re-runs
//! unfinished jobs and serves finished scorecards straight from the log
//! when clients resubmit. `serve --inject` plants server-side chaos
//! (disk write faults, severed deliveries) for the chaos harness.
//! `submit` is the matching client; `--local` runs the identical jobs
//! through the identical execution and rendering path in-process, which
//! is what makes daemon scorecards diffable against the batch CLI
//! byte-for-byte.
//!
//! `pack` pre-populates a persistent store directory with the packed
//! replay image of every kernel × variant of the standard matrix —
//! already-present verified files are reused, corrupt ones evicted and
//! rebuilt — so later `run`/`lint`/`all` invocations with the same
//! `--store-dir` warm-start off disk instead of re-tracing. `verify-image`
//! walks such a directory and climbs the full integrity ladder for every
//! file, printing one OK/INVALID verdict per file; it exits 1 if anything
//! is invalid. `run` and the experiment sweep accept `--store-dir` too,
//! routing every trace materialization through the two-tier store (the
//! scorecard then reports memory and disk tiers separately).

use valign::analyze::audit::{audit_matrix, audit_store, AuditOptions};
use valign::analyze::{lint_all, lint_kernel, LintOptions};
use valign::cache::RealignConfig;
use valign::core::experiments::{fig10, fig4, fig8, fig9, table1, table2, table3, ExperimentError};
use valign::core::workload::KernelId;
use valign::core::SimContext;
use valign::core::{explain, serve, store_ops};
use valign::core::{FaultSet, JobOutcome, SimJob, SupervisedRunner, TraceKey, TraceStore};
use valign::kernels::util::Variant;
use valign::pipeline::PipelineConfig;

#[derive(Debug, Clone)]
struct Options {
    execs: usize,
    seed: u64,
    threads: usize,
    json: bool,
    kernel: Option<String>,
    variant: Option<String>,
    supervised: bool,
    inject: Vec<String>,
    store_dir: Option<String>,
    addr: String,
    client: String,
    priority: String,
    config: String,
    realign: String,
    local: bool,
    stats: bool,
    shutdown: bool,
    queue_cap: usize,
    quota: usize,
    max_budget: u64,
    io_timeout_ms: u64,
}

fn parse_args() -> (String, Options) {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| usage("missing subcommand"));
    let mut opts = Options {
        execs: 200,
        seed: 20070425,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        json: false,
        kernel: None,
        variant: None,
        supervised: false,
        inject: Vec::new(),
        store_dir: None,
        addr: "127.0.0.1:4573".to_string(),
        client: "cli".to_string(),
        priority: "normal".to_string(),
        config: "4-way".to_string(),
        realign: "equal-latency".to_string(),
        local: false,
        stats: false,
        shutdown: false,
        queue_cap: 64,
        quota: 16,
        max_budget: u64::MAX,
        io_timeout_ms: 10_000,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--json" => opts.json = true,
            "--supervised" => opts.supervised = true,
            "--local" => opts.local = true,
            "--stats" => opts.stats = true,
            "--shutdown" => opts.shutdown = true,
            "--addr" => {
                opts.addr = args.next().unwrap_or_else(|| usage("--addr needs a value"));
            }
            "--client" => {
                opts.client = args
                    .next()
                    .unwrap_or_else(|| usage("--client needs a value"));
            }
            "--priority" => {
                opts.priority = args
                    .next()
                    .unwrap_or_else(|| usage("--priority needs a value"));
            }
            "--config" => {
                opts.config = args
                    .next()
                    .unwrap_or_else(|| usage("--config needs a value"));
            }
            "--realign" => {
                opts.realign = args
                    .next()
                    .unwrap_or_else(|| usage("--realign needs a value"));
            }
            "--queue-cap" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--queue-cap needs a value"));
                opts.queue_cap = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--queue-cap must be a positive number"));
            }
            "--quota" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--quota needs a value"));
                opts.quota = v
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--quota must be a positive number"));
            }
            "--max-budget" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--max-budget needs a value"));
                opts.max_budget = v
                    .parse()
                    .unwrap_or_else(|_| usage("--max-budget must be a number (cycles)"));
            }
            "--io-timeout-ms" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--io-timeout-ms needs a value"));
                opts.io_timeout_ms = v
                    .parse()
                    .unwrap_or_else(|_| usage("--io-timeout-ms must be a number (0 disables)"));
            }
            "--inject" => {
                opts.inject.push(
                    args.next()
                        .unwrap_or_else(|| usage("--inject needs a value")),
                );
            }
            "--store-dir" => {
                opts.store_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--store-dir needs a value")),
                );
            }
            "--all" => {
                opts.kernel = None;
                opts.variant = None;
            }
            "--kernel" => {
                opts.kernel = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--kernel needs a value")),
                );
            }
            "--variant" => {
                opts.variant = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--variant needs a value")),
                );
            }
            "--execs" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--execs needs a value"));
                opts.execs = v
                    .parse()
                    .unwrap_or_else(|_| usage("--execs must be a number"));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage("--seed needs a value"));
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a number"));
            }
            "--threads" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                opts.threads = v
                    .parse()
                    .ok()
                    .filter(|&t| t > 0)
                    .unwrap_or_else(|| usage("--threads must be a positive number"));
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    (cmd, opts)
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: valign <table1|table2|table3|fig4|fig8|fig9|fig10|all> \
         [--execs N] [--seed S] [--threads T]\n       \
         valign run [--supervised] [--inject CLASS:SELECTOR]... \
         [--execs N] [--seed S] [--threads T] [--store-dir DIR]\n       \
         valign explain --kernel K --variant V [--json] \
         [--execs N] [--seed S] [--threads T]\n       \
         valign lint [--json] [--kernel K --variant V | --all] \
         [--execs N] [--seed S] [--store-dir DIR]\n       \
         valign audit [--store-dir DIR] [--json] [--execs N] [--seed S]\n       \
         valign pack --store-dir DIR [--execs N] [--seed S] [--threads T]\n       \
         valign verify-image --store-dir DIR\n       \
         valign serve [--addr HOST:PORT] [--threads T] [--queue-cap N] \
         [--quota N] [--max-budget CYC] [--io-timeout-ms MS] \
         [--inject CLASS:SELECTOR]... [--store-dir DIR]\n       \
         valign submit [--addr HOST:PORT] [--client NAME] \
         [--priority low|normal|high] [--kernel K --variant V] [--config C] \
         [--realign M] [--inject CLASS:SELECTOR]... [--execs N] [--seed S]\n       \
         valign submit --stats | --shutdown [--addr HOST:PORT]\n       \
         valign submit --local [--store-dir DIR] ..."
    );
    std::process::exit(2);
}

/// Unwraps an experiment result, reporting the diagnostic error and
/// exiting 1 — an empty replay or a broken conservation invariant is a
/// reportable condition, not a panic.
fn or_die<T>(result: Result<T, ExperimentError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// Runs `valign pack`: pre-populates `--store-dir` with the packed image
/// of every kernel × variant of the standard matrix. Exits 1 when the
/// directory cannot be created or a packed file goes missing.
fn run_pack(o: &Options) -> ! {
    let Some(dir) = o.store_dir.as_deref() else {
        usage("pack needs --store-dir DIR");
    };
    match store_ops::pack(dir, o.execs.max(2), o.seed, o.threads) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `valign verify-image`: walks `--store-dir` and verifies every
/// image file against the full integrity ladder. Exits 0 only when every
/// file verifies.
fn run_verify_image(o: &Options) -> ! {
    let Some(dir) = o.store_dir.as_deref() else {
        usage("verify-image needs --store-dir DIR");
    };
    match store_ops::verify_image(dir) {
        Ok(report) => {
            print!("{}", report.render());
            std::process::exit(i32::from(!report.all_ok()));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Builds the job list a `submit` describes: one job for an explicit
/// `--kernel`/`--variant` pair, otherwise the full kernel × variant
/// matrix — always on the chosen `--config` and `--realign` model, so a
/// submit and a `--local` run of the same flags mean the same jobs.
fn submit_specs(o: &Options) -> Vec<serve::JobSpec> {
    let execs = o.execs.max(2);
    let spec = |kernel: String, variant: String| serve::JobSpec {
        kernel,
        variant,
        config: o.config.clone(),
        execs,
        seed: o.seed,
        realign: o.realign.clone(),
    };
    match (&o.kernel, &o.variant) {
        (Some(k), Some(v)) => vec![spec(k.clone(), v.clone())],
        (None, None) => {
            let mut specs = Vec::new();
            for &kernel in KernelId::ALL {
                for &variant in Variant::ALL {
                    specs.push(spec(kernel.label(), variant.label().to_string()));
                }
            }
            specs
        }
        _ => usage("--kernel and --variant go together (omit both for the full matrix)"),
    }
}

/// Runs `valign serve`: binds the daemon and blocks until a client sends
/// `shutdown`. The queue drains before exit — accepted jobs always get
/// their scorecards. `--inject` here is *server-side* chaos: `io-error`
/// / `short-write` specs fail matching image write-backs, `disconnect` /
/// `torn-frame` specs sever matching scorecard deliveries — the knobs
/// the chaos harness turns.
fn run_serve(o: &Options) -> ! {
    let chaos = FaultSet::parse(&o.inject).unwrap_or_else(|e| usage(&e.to_string()));
    let store = match o.store_dir.as_deref() {
        Some(dir) => match TraceStore::with_disk(dir) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("error: cannot open store dir: {e}");
                std::process::exit(1);
            }
        },
        None => TraceStore::new(),
    }
    .with_chaos(chaos.clone());
    let cfg = serve::ServeConfig {
        threads: o.threads,
        queue_cap: o.queue_cap,
        client_quota: o.quota,
        max_budget: o.max_budget,
        io_timeout_ms: o.io_timeout_ms,
        chaos,
        ..serve::ServeConfig::default()
    };
    match serve::Server::bind(o.addr.as_str(), std::sync::Arc::new(store), cfg) {
        Ok(server) => {
            println!("listening on {}", server.addr());
            server.wait();
            println!("drained and stopped");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", o.addr);
            std::process::exit(1);
        }
    }
}

/// Runs `valign submit`: `--stats` and `--shutdown` are daemon controls;
/// `--local` executes the identical jobs in-process through the
/// identical scorecard renderer (no daemon involved); otherwise the jobs
/// go over the wire and the scorecards stream back. Rejection
/// (backpressure or admission) exits 3 so scripts can distinguish
/// "try later" from failure.
fn run_submit(o: &Options) -> ! {
    if o.local {
        let store = match o.store_dir.as_deref() {
            Some(dir) => match TraceStore::with_disk(dir) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("error: cannot open store dir: {e}");
                    std::process::exit(1);
                }
            },
            None => TraceStore::new(),
        };
        let frames = serve::run_local(
            &store,
            &submit_specs(o),
            &o.inject,
            valign::core::SupervisorConfig::default(),
        )
        .unwrap_or_else(|e| usage(&e.message));
        for frame in frames {
            println!("{frame}");
        }
        std::process::exit(0);
    }
    let mut client = match serve::Client::connect(o.addr.as_str()) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("error: cannot connect to {}: {e}", o.addr);
            std::process::exit(1);
        }
    };
    if o.stats {
        match client.stats() {
            Ok(frame) => {
                println!("{frame}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    if o.shutdown {
        match client.shutdown() {
            Ok(()) => {
                println!("daemon shutting down");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    let priority = serve::Priority::from_label(&o.priority)
        .unwrap_or_else(|| usage("--priority must be low|normal|high"));
    let req = serve::SubmitRequest {
        client: o.client.clone(),
        priority,
        inject: o.inject.clone(),
        jobs: submit_specs(o),
    };
    match client.submit(&req) {
        Ok(serve::SubmitOutcome::Accepted {
            scorecards,
            batch_done,
        }) => {
            for frame in scorecards {
                println!("{frame}");
            }
            println!("{batch_done}");
            std::process::exit(0);
        }
        Ok(serve::SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        }) => {
            match retry_after_ms {
                Some(ms) => eprintln!("rejected: {reason} (retry after {ms} ms)"),
                None => eprintln!("rejected: {reason}"),
            }
            std::process::exit(3);
        }
        Err(serve::ServeError::Disconnected { partial, detail }) => {
            // The daemon died (or injected chaos) mid-batch: print what
            // arrived — a journaled daemon serves the remainder on
            // resubmit — and fail so scripts notice.
            for frame in &partial {
                println!("{frame}");
            }
            eprintln!(
                "error: daemon disconnected mid-batch after {} scorecard(s): {detail}",
                partial.len()
            );
            eprintln!("hint: resubmit against the restarted daemon to recover the rest");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `valign run`: the full kernel × variant × Table II sweep, plain
/// or supervised, one row per job. Injection faults are survived by
/// design (quarantine/degradation are reported outcomes), so the command
/// exits 0 unless the batch machinery itself is broken.
fn run_run(ctx: &SimContext, o: &Options) -> ! {
    if !o.inject.is_empty() && !o.supervised {
        usage("--inject requires --supervised");
    }
    let faults = FaultSet::parse(&o.inject).unwrap_or_else(|e| usage(&e.to_string()));
    let execs = o.execs.max(2);
    let configs: Vec<PipelineConfig> = PipelineConfig::table_ii()
        .into_iter()
        .map(|cfg| cfg.with_realign(RealignConfig::equal_latency()))
        .collect();
    let mut jobs = Vec::new();
    for &kernel in KernelId::ALL {
        for &variant in Variant::ALL {
            for cfg in &configs {
                jobs.push(SimJob::keyed(
                    TraceKey {
                        kernel,
                        variant,
                        execs,
                        seed: o.seed,
                    },
                    cfg.clone(),
                ));
            }
        }
    }
    println!(
        "RUN SWEEP: {} jobs ({} kernels x {} variants x {} configs, \
         {execs} executions, seed {}){}\n",
        jobs.len(),
        KernelId::ALL.len(),
        Variant::ALL.len(),
        configs.len(),
        o.seed,
        if o.supervised { ", supervised" } else { "" },
    );
    for spec in &o.inject {
        println!("injecting: {spec}");
    }
    if !o.inject.is_empty() {
        println!();
    }
    println!(
        "{:<22} {:<7} {:>12} {:<12} detail",
        "job", "config", "cycles", "outcome"
    );
    println!("{}", "-".repeat(72));
    if o.supervised {
        let supervisor = SupervisedRunner::new(o.threads).with_faults(faults);
        let outcomes = ctx.run_supervised("run", jobs.clone(), &supervisor);
        for (job, outcome) in jobs.iter().zip(&outcomes) {
            let cycles = outcome
                .result()
                .map_or_else(|| "-".to_string(), |r| r.cycles.to_string());
            let detail = match outcome {
                JobOutcome::Completed { .. } => String::new(),
                JobOutcome::Retried { attempts, .. } => format!("{attempts} attempts"),
                JobOutcome::Degraded {
                    reason, attempts, ..
                } => format!("reference walker after: {reason} ({attempts} attempt(s))"),
                JobOutcome::Quarantined { failure, attempts } => {
                    format!("{failure} ({attempts} attempts)")
                }
            };
            println!(
                "{:<22} {:<7} {:>12} {:<12} {detail}",
                job.label(),
                job.cfg.name,
                cycles,
                outcome.kind(),
            );
        }
    } else {
        let results = ctx.run_batch("run", jobs.clone());
        for (job, result) in jobs.iter().zip(&results) {
            println!(
                "{:<22} {:<7} {:>12} {:<12}",
                job.label(),
                job.cfg.name,
                result.cycles,
                "completed",
            );
        }
    }
    println!("\n== simulation scorecard ==\n");
    print!("{}", ctx.scorecard());
    std::process::exit(0);
}

/// Runs `valign lint`: exits 0 when the gate passes (zero ERROR
/// diagnostics), 1 otherwise.
fn run_lint(ctx: &SimContext, o: &Options) -> ! {
    let lint_opts = LintOptions {
        execs: o.execs.max(1),
        seed: o.seed,
    };
    let report = match (&o.kernel, &o.variant) {
        (None, None) => lint_all(ctx, lint_opts),
        (Some(k), Some(v)) => {
            let kernel =
                KernelId::from_label(k).unwrap_or_else(|| usage(&format!("unknown kernel {k}")));
            let variant =
                Variant::from_label(v).unwrap_or_else(|| usage(&format!("unknown variant {v}")));
            lint_kernel(ctx, kernel, variant, lint_opts)
        }
        _ => usage("--kernel and --variant go together (or use --all)"),
    };
    if o.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    std::process::exit(i32::from(!report.is_clean()));
}

/// Runs `valign audit --store-dir`: the zero-simulation static audit of
/// a store directory — decode, checksum re-derivation, image rules,
/// cost-model bounds. Exits 0 only when every file audits clean.
fn run_audit_store(o: &Options, dir: &str) -> ! {
    let audit_opts = AuditOptions {
        execs: o.execs.max(2),
        seed: o.seed,
    };
    match audit_store(dir, audit_opts) {
        Ok(report) => {
            if o.json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_human());
            }
            std::process::exit(i32::from(!report.is_clean()));
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs `valign audit` without `--store-dir`: the full-matrix audit —
/// image rules on every kernel/variant pair, plus the dynamic
/// `costmodel-soundness` check on each clean pair. Exits 0 only when the
/// whole matrix audits clean.
fn run_audit_matrix(ctx: &SimContext, o: &Options) -> ! {
    let audit_opts = AuditOptions {
        execs: o.execs.max(2),
        seed: o.seed,
    };
    let report = audit_matrix(ctx, audit_opts);
    if o.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    std::process::exit(i32::from(!report.is_clean()));
}

/// Runs `valign explain`: the cycle-attribution report for one
/// kernel/variant. Exits 1 with a diagnostic when the replay is empty or
/// the attribution buckets fail to sum to the total cycles.
fn run_explain(ctx: &SimContext, o: &Options) -> ! {
    let (Some(k), Some(v)) = (&o.kernel, &o.variant) else {
        usage("explain needs --kernel K and --variant V");
    };
    let kernel = KernelId::from_label(k).unwrap_or_else(|| usage(&format!("unknown kernel {k}")));
    let variant = Variant::from_label(v).unwrap_or_else(|| usage(&format!("unknown variant {v}")));
    let report = or_die(explain::run_with(
        ctx,
        kernel,
        variant,
        o.execs.max(2),
        o.seed,
    ));
    if o.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    std::process::exit(0);
}

/// The paper's tables and figures, in the order `valign all` prints them.
const EXPERIMENTS: [&str; 7] = [
    "table1", "table2", "table3", "fig4", "fig8", "fig9", "fig10",
];

/// Prints one of [`EXPERIMENTS`].
fn run_one(ctx: &SimContext, cmd: &str, o: &Options) {
    match cmd {
        "table1" => print!("{}", table1::render()),
        "table2" => print!("{}", table2::render()),
        "table3" => print!("{}", table3::run_with(ctx, o.execs.max(1), o.seed).render()),
        "fig4" => print!(
            "{}",
            fig4::run((o.execs / 50).max(1) as u32, o.seed).render()
        ),
        "fig8" => print!(
            "{}",
            or_die(fig8::run_with(ctx, o.execs.max(2), o.seed)).render()
        ),
        "fig9" => print!(
            "{}",
            or_die(fig9::run_with(ctx, o.execs.max(2), o.seed)).render()
        ),
        "fig10" => print!(
            "{}",
            or_die(fig10::run_with(ctx, (o.execs / 2).max(4), 2, o.seed)).render()
        ),
        other => unreachable!("{other} is not an experiment"),
    }
}

/// Runs `valign all`: every experiment, then the scorecard. Exits 1 when
/// the trace store retraced a kernel/variant.
fn run_all(ctx: &SimContext, o: &Options) {
    for c in EXPERIMENTS {
        run_one(ctx, c, o);
        println!();
    }
    println!("== simulation scorecard ==\n");
    print!("{}", ctx.scorecard());
    let stats = ctx.store().stats();
    if !stats.traced_exactly_once() {
        eprintln!(
            "error: trace store retraced a kernel/variant ({} misses for {} traces)",
            stats.misses, stats.entries
        );
        std::process::exit(1);
    }
}

/// The simulation context, on the `--store-dir` store when one is given
/// (opening it creates the directory). Exits 1 when it cannot be opened.
fn open_context(o: &Options) -> SimContext {
    match o.store_dir.as_deref() {
        Some(dir) => match TraceStore::with_disk(dir) {
            Ok(store) => SimContext::with_store(o.threads, store),
            Err(e) => {
                eprintln!("error: cannot open store dir: {e}");
                std::process::exit(1);
            }
        },
        None => SimContext::new(o.threads),
    }
}

fn main() {
    let (cmd, opts) = parse_args();
    // Every subcommand is named here, so an unknown one is refused before
    // anything touches the file system.
    match cmd.as_str() {
        "pack" => run_pack(&opts),
        "verify-image" => run_verify_image(&opts),
        "serve" => run_serve(&opts),
        "submit" => run_submit(&opts),
        // Store mode needs no simulation context at all — the whole
        // audit is static, straight off the directory.
        "audit" => match opts.store_dir.as_deref() {
            Some(dir) => run_audit_store(&opts, dir),
            None => run_audit_matrix(&open_context(&opts), &opts),
        },
        "run" => run_run(&open_context(&opts), &opts),
        "lint" => run_lint(&open_context(&opts), &opts),
        "explain" => run_explain(&open_context(&opts), &opts),
        "all" => run_all(&open_context(&opts), &opts),
        c if EXPERIMENTS.contains(&c) => run_one(&open_context(&opts), c, &opts),
        other => usage(&format!("unknown subcommand {other}")),
    }
}
