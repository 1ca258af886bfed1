//! Everything that runs more than one workload: the suite (each workload
//! in a child process of this binary, one after the other), the smoke
//! check, and `compare` — the tool behind "two sets of runs agree".

use std::collections::BTreeMap;
use std::process::Command;

use crate::gen::WORKLOADS;
use crate::harness::Res;
use crate::json::Json;
use crate::stats::{iqr_share, nproc, quartiles};
use crate::Options;

/// The checked-out commit, read from `.git` without spawning git;
/// `unknown` in an exported tree.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs this binary with `args`, echoing its human-readable lines, and
/// returns whether it succeeded with the parsed result line (`Null` when
/// the child printed none: one failed run must not cost the whole suite).
fn child(args: &[String]) -> Res<(bool, Json)> {
    let output = Command::new(std::env::current_exe()?).args(args).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for line in lines {
        println!("  {line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    match Json::parse(last) {
        Ok(result) => Ok((output.status.success(), result)),
        Err(_) => {
            println!("  RUN FAILED: {args:?} printed no result");
            Ok((false, Json::Null))
        }
    }
}

fn metrics_of(result: &Json) -> BTreeMap<String, (f64, String)> {
    let mut out = BTreeMap::new();
    if let Some(metrics) = result.get("metrics").and_then(Json::as_obj) {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            out.insert(name.clone(), (value, unit));
        }
    }
    out
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `--runs` end-to-end runs per workload (run `i` uses `seed + i`, as the
/// acceptance check varies the seed across its runs) plus one traced run,
/// every run its own child process, strictly one at a time.
pub fn suite(o: &Options) -> Res<bool> {
    let seconds = o.seconds.unwrap_or(crate::DEFAULT_SECONDS);
    let mut all_ok = true;
    let mut workloads = BTreeMap::new();
    for name in WORKLOADS {
        let base = |seed: u64, trace: u8| -> Vec<String> {
            [
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                &trace.to_string(),
            ]
            .map(String::from)
            .to_vec()
        };
        let mut end_to_end: BTreeMap<String, (String, Vec<Json>)> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for i in 0..o.runs as u64 {
            println!("== {name}: end-to-end run {} of {}", i + 1, o.runs);
            let (ok, result) = child(&base(o.seed + i, 0))?;
            all_ok &= ok;
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (metric, (value, unit)) in metrics_of(&result) {
                end_to_end
                    .entry(metric)
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(Json::Num(value));
            }
        }
        println!("== {name}: traced run");
        let (ok, traced) = child(&base(o.seed, 1))?;
        all_ok &= ok;
        let per_layer = metrics_of(&traced)
            .into_iter()
            .map(|(k, (v, u))| {
                (
                    k,
                    obj(vec![("unit", Json::Str(u)), ("value", Json::Num(v))]),
                )
            })
            .collect();
        let end_to_end = end_to_end
            .into_iter()
            .map(|(k, (u, v))| {
                (
                    k,
                    obj(vec![("unit", Json::Str(u)), ("values", Json::Arr(v))]),
                )
            })
            .collect();
        workloads.insert(
            name.to_string(),
            obj(vec![
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        );
    }
    let doc = obj(vec![
        (
            "meta",
            obj(vec![
                ("nproc", Json::Num(nproc() as f64)),
                ("generator_threads", Json::Num(1.0)),
                ("seed", Json::Num(o.seed as f64)),
                ("runs", Json::Num(o.runs as f64)),
                ("run_seconds", Json::Num(seconds)),
                ("commit", Json::Str(git_commit())),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    let path = o
        .out
        .clone()
        .unwrap_or_else(|| format!("benchmark/out/suite-seed{}.json", o.seed));
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, doc.render() + "\n")?;
    print_suite(&doc);
    println!("wrote {path}");
    Ok(all_ok)
}

fn values_of(metric: &Json) -> Vec<f64> {
    metric
        .get("values")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn print_suite(doc: &Json) {
    println!(
        "\n{:<16} {:<22} {:>14} {:>14} {:>14} {:>4} {:>7}  unit",
        "workload", "metric", "median", "q1", "q3", "n", "iqr%"
    );
    for name in WORKLOADS {
        let Some(w) = doc.get("workloads").and_then(|w| w.get(name)) else {
            continue;
        };
        for (metric, m) in w
            .get("end_to_end")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let v = values_of(m);
            let (q1, med, q3) = quartiles(&v);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!(
                "{name:<16} {metric:<22} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>4} {:>7.2}  {unit}",
                v.len(),
                iqr_share(&v) * 100.0
            );
        }
        for (metric, m) in w
            .get("per_layer")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{name:<16} {metric:<44} {value:>16.4}  {unit}");
        }
    }
}

/// The contract file at the root of the checkout.
fn contract() -> Res<Json> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Ok(Json::parse(&text)?)
}

fn names_of(contract: &Json, list: &str) -> Vec<String> {
    contract
        .get(list)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| m.get("name").and_then(Json::as_str).map(String::from))
        .collect()
}

/// Tiny sizes, one short run per workload and mode: every metric named in
/// `BENCHMARK.json` is emitted with a unit, every workload passes its
/// reference check, nothing fails.
pub fn smoke() -> Res<bool> {
    let contract = contract()?;
    let mut problems = Vec::new();
    if names_of(&contract, "workloads") != WORKLOADS {
        problems.push(format!(
            "BENCHMARK.json workloads differ from {WORKLOADS:?}"
        ));
    }
    for name in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            println!("== {name}: smoke, trace {trace}");
            let args = ["--workload", name, "--smoke", "--trace", trace].map(String::from);
            let (ok, result) = child(&args)?;
            let emitted = metrics_of(&result);
            if !ok || result.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{name} trace {trace}: reference check failed"));
            }
            if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
                problems.push(format!("{name} trace {trace}: ops_failed != 0"));
            }
            for metric in names_of(&contract, list) {
                match emitted.get(&metric) {
                    Some((value, unit)) if !unit.is_empty() && value.is_finite() => {}
                    _ => problems.push(format!(
                        "{name} trace {trace}: `{metric}` missing, unitless or not finite"
                    )),
                }
            }
            for metric in emitted.keys() {
                if !names_of(&contract, list).contains(metric) {
                    problems.push(format!(
                        "{name} trace {trace}: `{metric}` not in BENCHMARK.json {list}"
                    ));
                }
            }
        }
    }
    for p in &problems {
        println!("SMOKE FAIL: {p}");
    }
    println!("smoke: {} problem(s)", problems.len());
    Ok(problems.is_empty())
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Better,
    Worse,
    Same,
    Unresolved,
}

/// `b` against base `a` for one metric. Unresolved when either side's
/// own spread exceeds the bound — the runs cannot tell a regression of
/// that size from noise; worse when `b`'s median is worse than `a`'s by
/// more than the bound; better when it is better by more than `a`'s spread.
fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (quartiles(a).1, quartiles(b).1);
    if iqr_share(a) > bound || iqr_share(b) > bound || med_a == 0.0 {
        return Verdict::Unresolved;
    }
    let gain = if higher_is_better {
        med_b / med_a - 1.0
    } else {
        1.0 - med_b / med_a
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > iqr_share(a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Per workload × end-to-end metric: both medians with quartiles, the
/// ratio with its base, and a verdict under `BENCHMARK.json`'s bounds.
pub fn compare(path_a: &str, path_b: &str) -> Res<bool> {
    let load = |p: &str| -> Res<Json> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let (a, b, contract) = (load(path_a)?, load(path_b)?, contract()?);
    println!("base a = {path_a}\n     b = {path_b}");
    println!(
        "{:<16} {:<18} {:>13} {:>24} {:>13} {:>24} {:>9}  verdict",
        "workload", "metric", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a"
    );
    let mut agree = true;
    for name in WORKLOADS {
        for spec in contract.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let metric = spec.get("name").and_then(Json::as_str).unwrap_or("");
            let side = |doc: &Json| {
                doc.get("workloads")
                    .and_then(|w| w.get(name)?.get("end_to_end")?.get(metric))
                    .map(values_of)
                    .unwrap_or_default()
            };
            let (va, vb) = (side(&a), side(&b));
            if va.is_empty() || vb.is_empty() {
                println!("{name:<16} {metric:<18} missing on one side");
                agree = false;
                continue;
            }
            let higher = spec.get("better").and_then(Json::as_str) == Some("higher");
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.1);
            let v = verdict(&va, &vb, higher, bound);
            let (qa, qb) = (quartiles(&va), quartiles(&vb));
            println!(
                "{name:<16} {metric:<18} {:>13.4} {:>24} {:>13.4} {:>24} {:>9.4}  {v:?}",
                qa.1,
                format!("[{:.4}, {:.4}]", qa.0, qa.2),
                qb.1,
                format!("[{:.4}, {:.4}]", qb.0, qb.2),
                qb.1 / qa.1,
            );
            agree &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
        }
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets do NOT agree"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shift = |by: f64| a.map(|v| v * by);
        assert_eq!(verdict(&a, &shift(1.0), true, 0.1), Verdict::Same);
        assert_eq!(verdict(&a, &shift(0.85), true, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(1.15), false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &shift(1.15), true, 0.1), Verdict::Better);
        assert_eq!(
            verdict(&a, &shift(0.95), true, 0.1),
            Verdict::Same,
            "inside the bound"
        );
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(&noisy, &a, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
    }
}
