//! One pass of the valign benchmark, run by `run.py` in a process of
//! its own so each pass has its own peak memory and a cold start.
//!
//! ```text
//! valign-perfbench pass --workload W --seed N --index I --work DIR [--trace]
//! valign-perfbench paper --seed N
//! ```
//!
//! `pass` prints `{"event": "ready"}` when set-up is over, then one JSON
//! line of raw measurements; `--trace` makes it the traced run, which
//! also writes its spans to `DIR/spans.json`. `paper` prints the paper
//! error at seed N. The orchestrator does all statistics.

mod report;
mod serve;
mod spans;
mod sweep;

use std::path::PathBuf;

/// Arguments of one pass.
pub struct PassArgs {
    pub workload: String,
    /// Benchmark seed (see [`report::program_seed`]).
    pub seed: u64,
    /// Pass number within the run; picks fresh inputs per pass.
    pub index: usize,
    /// Scratch directory of this run, inside the checkout.
    pub work: PathBuf,
    pub trace: bool,
}

/// Submits per client in one pass of each serve workload.
const FRESH_SUBMITS: usize = 50;
const REPEAT_SUBMITS: usize = 100;

fn parse(args: &[String]) -> Result<(String, PassArgs), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?.clone();
    let mut p = PassArgs {
        workload: String::new(),
        seed: 0,
        index: 0,
        work: PathBuf::from("."),
        trace: false,
    };
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            p.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag}: {e}");
        match flag.as_str() {
            "--workload" => p.workload.clone_from(value),
            "--seed" => p.seed = value.parse().map_err(bad)?,
            "--index" => p.index = value.parse().map_err(bad)?,
            "--work" => p.work = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((cmd, p))
}

fn run(cmd: &str, p: &PassArgs) -> Result<String, String> {
    if cmd == "paper" {
        let pct = sweep::paper_only(report::program_seed(p.seed))?;
        return Ok(report::Report::default()
            .num("paper_error_pct", pct)
            .render());
    }
    if cmd != "pass" {
        return Err(format!("unknown subcommand {cmd}"));
    }
    let fresh = serve::Shape {
        fresh: true,
        submits_per_client: FRESH_SUBMITS,
    };
    let repeat = serve::Shape {
        fresh: false,
        submits_per_client: REPEAT_SUBMITS,
    };
    let report = match (p.workload.as_str(), p.trace) {
        ("sweep-cold", false) => sweep::pass(p),
        ("sweep-cold", true) => sweep::traced(p),
        ("serve-fresh", false) => serve::pass(p, fresh),
        ("serve-fresh", true) => serve::traced(p, fresh),
        ("serve-repeat", false) => serve::pass(p, repeat),
        ("serve-repeat", true) => serve::traced(p, repeat),
        (other, _) => Err(format!("unknown workload {other}")),
    }?;
    Ok(report.render())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse(&args).and_then(|(cmd, p)| run(&cmd, &p));
    match outcome {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("valign-perfbench: error: {e}");
            std::process::exit(1);
        }
    }
}
