//! RUMOR's benchmark: six named workloads, gated end-to-end metrics, and an
//! outside-in per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! rumor-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//! rumor-benchmark suite [--seed n] [--runs k] [--seconds s] [--out file]
//! rumor-benchmark --smoke
//! rumor-benchmark compare <a.json> <b.json>
//! ```

mod gen;
mod harness;
mod json;
mod layers;
mod run;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

use gen::Scale;
use harness::Res;
use json::quote;
use run::{Report, RunConfig};

/// `run_seconds` of `BENCHMARK.json`: the measured length of one run.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Command-line options shared by the single-workload run and the suite.
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub out: Option<String>,
    /// Positional arguments (sub-command and its operands).
    pub positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Res<Options> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 10,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Res<&String> {
            it.next()
                .ok_or_else(|| format!("{what} needs a value").into())
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?.clone()),
            "--seed" => o.seed = value("--seed")?.parse()?,
            "--seconds" => o.seconds = Some(value("--seconds")?.parse()?),
            "--trace" => o.trace = value("--trace")? != "0",
            "--runs" => o.runs = value("--runs")?.parse()?,
            "--out" => o.out = Some(value("--out")?.clone()),
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            _ => o.positional.push(arg.clone()),
        }
    }
    if o.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) || o.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(o)
}

/// One workload, one run: human-readable metrics, then the result object
/// as the last line of standard output.
fn run_one(name: &str, o: &Options) -> Res<bool> {
    let scale = if o.smoke { Scale::Smoke } else { Scale::Full };
    let cfg = RunConfig {
        seed: o.seed,
        seconds: o
            .seconds
            .unwrap_or(if o.smoke { 0.5 } else { DEFAULT_SECONDS }),
        scale,
    };
    let workload = gen::build(name, o.seed, scale)
        .ok_or_else(|| format!("unknown workload `{name}`; one of {:?}", gen::WORKLOADS))?;
    let report = if o.trace {
        layers::per_layer(&workload, &cfg)?
    } else {
        run::end_to_end(&workload, &cfg)?
    };
    println!(
        "workload {name}  seed {}  seconds {}  trace {}  nproc {}  generator_threads 1  commit {}",
        o.seed,
        cfg.seconds,
        o.trace as u8,
        stats::nproc(),
        suite::git_commit()
    );
    for (key, value) in &report.notes {
        println!("  note {key} = {value}");
    }
    for (name, s) in &report.metrics {
        println!(
            "  {name:<44} {:>16.4} {:<6} q1 {:.4} q3 {:.4} n {}",
            s.value, s.unit, s.q1, s.q3, s.n
        );
    }
    println!("{}", result_line(&report));
    Ok(report.correct && report.failed == 0)
}

fn result_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                json::Json::Num(s.value).render(),
                quote(s.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    )
}

fn dispatch(o: &Options) -> Res<bool> {
    match o.positional.first().map(String::as_str) {
        Some("compare") => match &o.positional[1..] {
            [a, b] => suite::compare(a, b),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some("suite") => suite::suite(o),
        Some(other) => Err(format!("unknown sub-command `{other}`").into()),
        None => match &o.workload {
            Some(name) => run_one(name, o),
            None if o.smoke => suite::smoke(),
            None => suite::suite(o),
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|o| dispatch(&o)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rumor-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
