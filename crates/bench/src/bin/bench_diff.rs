//! Compares two `BENCH_throughput.json` documents — the committed
//! baseline and a freshly generated run — and renders a per-path
//! speedup-delta report plus the plan-quality table (greedy vs
//! cost-based search m-op counts and their within-run throughput ratio),
//! the latency-percentile table (delivery / flush-barrier / update-epoch
//! distributions from the instrumented run), and the per-m-op time
//! attribution table (where sampled wall time went).
//! Used by the non-gating `bench-diff` CI step so every PR carries an
//! artifact showing how each engine path moved relative to the numbers
//! committed in the repository.
//!
//! ```text
//! cargo run --release -p rumor-bench --bin bench_diff \
//!     BENCH_throughput.json throughput-ci.json [bench-diff.md]
//! ```
//!
//! The parser is deliberately minimal: it reads exactly the line-oriented
//! shape `rumor_bench::throughput::render_json` emits (one path object
//! per line), so the harness stays dependency-free. Absolute events/sec
//! are expected to differ across hosts — the *speedup vs per-event*
//! deltas are the comparable signal, which is why the report leads with
//! them. The tool always exits 0; it reports, it does not gate.

use std::fmt::Write as _;

/// One measured path: label, absolute rate, speedup vs per-event.
struct PathRow {
    path: String,
    events_per_sec: f64,
    speedup: f64,
}

/// One workload's rows, keyed by the workload name.
struct Workload {
    name: String,
    paths: Vec<PathRow>,
}

/// One plan-quality row: the same query set optimized under the greedy
/// driver and the cost-based search.
struct QualityRow {
    workload: String,
    queries: f64,
    greedy_mops: f64,
    cost_mops: f64,
    greedy_eps: f64,
    cost_eps: f64,
}

/// One latency-distribution row from the instrumented run.
struct LatencyRow {
    metric: String,
    count: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
}

/// One per-m-op time-attribution row from the instrumented run.
struct AttributionRow {
    mop: String,
    op: String,
    events_in: f64,
    time_share: f64,
}

/// One multi-tenant server scenario row (loopback clients over TCP).
struct MultiTenantRow {
    scenario: String,
    clients: f64,
    registered: f64,
    events_per_sec: f64,
    delivery_p50_us: f64,
    delivery_p99_us: f64,
    shed_results: f64,
    events_saved: f64,
}

/// Everything the diff reads out of one rendered throughput document.
struct Doc {
    workloads: Vec<Workload>,
    plan_quality: Vec<QualityRow>,
    latency: Vec<LatencyRow>,
    time_attribution: Vec<AttributionRow>,
    multi_tenant: Vec<MultiTenantRow>,
}

/// Extracts the string value of `"key": "..."` from a line, if present.
fn field_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the numeric value of `"key": 123.4` from a line, if present.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the workload, plan-quality, latency, and time-attribution
/// sections of a rendered throughput document. Stops at the `"churn"`
/// array (lifecycle latency is host-bound noise between runs and has no
/// speedup baseline to diff).
fn parse(doc: &str) -> Doc {
    let mut workloads: Vec<Workload> = Vec::new();
    let mut plan_quality: Vec<QualityRow> = Vec::new();
    let mut latency: Vec<LatencyRow> = Vec::new();
    let mut time_attribution: Vec<AttributionRow> = Vec::new();
    let mut multi_tenant: Vec<MultiTenantRow> = Vec::new();
    for line in doc.lines() {
        if line.contains("\"churn\"") {
            break;
        }
        if let Some(scenario) = field_str(line, "scenario") {
            // Multi-tenant rows carry a `scenario` key nothing else uses.
            if let (
                Some(clients),
                Some(registered),
                Some(eps),
                Some(p50),
                Some(p99),
                Some(shed),
                Some(saved),
            ) = (
                field_num(line, "clients"),
                field_num(line, "registered"),
                field_num(line, "events_per_sec"),
                field_num(line, "delivery_p50_us"),
                field_num(line, "delivery_p99_us"),
                field_num(line, "shed_results"),
                field_num(line, "events_saved"),
            ) {
                multi_tenant.push(MultiTenantRow {
                    scenario,
                    clients,
                    registered,
                    events_per_sec: eps,
                    delivery_p50_us: p50,
                    delivery_p99_us: p99,
                    shed_results: shed,
                    events_saved: saved,
                });
            }
        } else if let Some(metric) = field_str(line, "metric") {
            // Latency rows carry a `metric` key nothing else uses.
            if let (Some(count), Some(p50), Some(p90), Some(p99), Some(max)) = (
                field_num(line, "count"),
                field_num(line, "p50_us"),
                field_num(line, "p90_us"),
                field_num(line, "p99_us"),
                field_num(line, "max_us"),
            ) {
                latency.push(LatencyRow {
                    metric,
                    count,
                    p50_us: p50,
                    p90_us: p90,
                    p99_us: p99,
                    max_us: max,
                });
            }
        } else if let Some(mop) = field_str(line, "mop") {
            // Time-attribution rows key on the stable m-op label.
            if let (Some(op), Some(events_in), Some(share)) = (
                field_str(line, "op"),
                field_num(line, "events_in"),
                field_num(line, "time_share"),
            ) {
                time_attribution.push(AttributionRow {
                    mop,
                    op,
                    events_in,
                    time_share: share,
                });
            }
        } else if let Some(workload) = field_str(line, "workload") {
            // Plan-quality rows carry a `workload` key (the path rows use
            // `path`/`name`), so the two sections cannot shadow each other.
            if let (Some(queries), Some(gm), Some(cm), Some(ge), Some(ce)) = (
                field_num(line, "queries"),
                field_num(line, "greedy_mops"),
                field_num(line, "cost_mops"),
                field_num(line, "greedy_events_per_sec"),
                field_num(line, "cost_events_per_sec"),
            ) {
                plan_quality.push(QualityRow {
                    workload,
                    queries,
                    greedy_mops: gm,
                    cost_mops: cm,
                    greedy_eps: ge,
                    cost_eps: ce,
                });
            }
        } else if let Some(path) = field_str(line, "path") {
            if let (Some(eps), Some(speedup), Some(w)) = (
                field_num(line, "events_per_sec"),
                field_num(line, "speedup_vs_per_event"),
                workloads.last_mut(),
            ) {
                w.paths.push(PathRow {
                    path,
                    events_per_sec: eps,
                    speedup,
                });
            }
        } else if let Some(name) = field_str(line, "name") {
            workloads.push(Workload {
                name,
                paths: Vec::new(),
            });
        }
    }
    Doc {
        workloads,
        plan_quality,
        latency,
        time_attribution,
        multi_tenant,
    }
}

fn pct(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (new / old - 1.0) * 100.0
    }
}

fn render(baseline: &Doc, fresh: &Doc) -> String {
    let mut out = String::new();
    out.push_str("# Throughput delta vs committed baseline\n\n");
    out.push_str(
        "Speedup columns (vs the run's own per-event row) are the \
         host-independent signal; absolute ev/s move with the runner.\n\n",
    );
    for fw in &fresh.workloads {
        let Some(bw) = baseline.workloads.iter().find(|b| b.name == fw.name) else {
            let _ = writeln!(out, "## {} — new workload (no baseline)\n", fw.name);
            continue;
        };
        let _ = writeln!(out, "## {}\n", fw.name);
        out.push_str(
            "| path | base ev/s | fresh ev/s | Δ ev/s | base speedup | fresh speedup | Δ speedup |\n\
             |---|---:|---:|---:|---:|---:|---:|\n",
        );
        for fp in &fw.paths {
            // A path measured on one side only (an engine path added or
            // retired since the baseline) has no delta: skip it.
            let Some(bp) = bw.paths.iter().find(|b| b.path == fp.path) else {
                continue;
            };
            let _ = writeln!(
                out,
                "| {} | {:.0} | {:.0} | {:+.1}% | {:.3} | {:.3} | {:+.3} |",
                fp.path,
                bp.events_per_sec,
                fp.events_per_sec,
                pct(fp.events_per_sec, bp.events_per_sec),
                bp.speedup,
                fp.speedup,
                fp.speedup - bp.speedup,
            );
        }
        out.push('\n');
    }
    for bw in &baseline.workloads {
        if !fresh.workloads.iter().any(|f| f.name == bw.name) {
            let _ = writeln!(out, "## {} — dropped (baseline only)\n", bw.name);
        }
    }
    if !fresh.plan_quality.is_empty() {
        out.push_str("## Plan quality (greedy vs cost-based search)\n\n");
        out.push_str(
            "m-op counts are deterministic plan-shape signal; the cost/greedy \
             throughput ratio compares the two plans within one run, so it is \
             host-independent too.\n\n",
        );
        out.push_str(
            "| workload | queries | greedy m-ops | cost m-ops | m-ops saved | \
             cost/greedy ev/s | base cost/greedy | base greedy/cost m-ops |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for fq in &fresh.plan_quality {
            let ratio = if fq.greedy_eps == 0.0 {
                0.0
            } else {
                fq.cost_eps / fq.greedy_eps
            };
            match baseline
                .plan_quality
                .iter()
                .find(|b| b.workload == fq.workload)
            {
                Some(bq) => {
                    let base_ratio = if bq.greedy_eps == 0.0 {
                        0.0
                    } else {
                        bq.cost_eps / bq.greedy_eps
                    };
                    let _ = writeln!(
                        out,
                        "| {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.2}x | {:.2}x | {:.0}/{:.0} |",
                        fq.workload,
                        fq.queries,
                        fq.greedy_mops,
                        fq.cost_mops,
                        fq.greedy_mops - fq.cost_mops,
                        ratio,
                        base_ratio,
                        bq.greedy_mops,
                        bq.cost_mops,
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "| {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.2}x | — | — |",
                        fq.workload,
                        fq.queries,
                        fq.greedy_mops,
                        fq.cost_mops,
                        fq.greedy_mops - fq.cost_mops,
                        ratio,
                    );
                }
            }
        }
        out.push('\n');
        if baseline.plan_quality.is_empty() {
            out.push_str("(baseline document predates the plan-quality section)\n\n");
        }
    }
    if !fresh.latency.is_empty() {
        out.push_str("## Latency percentiles (instrumented run)\n\n");
        out.push_str(
            "Log-bucket lower bounds in microseconds; absolute values move \
             with the runner, so the Δ p99 column is the signal to read.\n\n",
        );
        out.push_str(
            "| metric | samples | p50 us | p90 us | p99 us | max us | base p99 us | Δ p99 |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for fl in &fresh.latency {
            match baseline.latency.iter().find(|b| b.metric == fl.metric) {
                Some(bl) => {
                    let _ = writeln!(
                        out,
                        "| {} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:+.1}% |",
                        fl.metric,
                        fl.count,
                        fl.p50_us,
                        fl.p90_us,
                        fl.p99_us,
                        fl.max_us,
                        bl.p99_us,
                        pct(fl.p99_us, bl.p99_us),
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "| {} | {:.0} | {:.1} | {:.1} | {:.1} | {:.1} | — | — |",
                        fl.metric, fl.count, fl.p50_us, fl.p90_us, fl.p99_us, fl.max_us,
                    );
                }
            }
        }
        out.push('\n');
        if baseline.latency.is_empty() {
            out.push_str("(baseline document predates the latency section)\n\n");
        }
    }
    if !fresh.time_attribution.is_empty() {
        out.push_str("## Time attribution (sampled per-m-op wall time)\n\n");
        out.push_str(
            "Share of attributed wall time per m-op in the instrumented run, \
             busiest first; compare against the baseline's split, not its \
             absolute nanoseconds.\n\n",
        );
        out.push_str(
            "| m-op | op | events in | time share | base share | Δ share |\n\
             |---|---|---:|---:|---:|---:|\n",
        );
        for ft in &fresh.time_attribution {
            match baseline.time_attribution.iter().find(|b| b.mop == ft.mop) {
                Some(bt) => {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {:.0} | {:.1}% | {:.1}% | {:+.1}pp |",
                        ft.mop,
                        ft.op,
                        ft.events_in,
                        ft.time_share * 100.0,
                        bt.time_share * 100.0,
                        (ft.time_share - bt.time_share) * 100.0,
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {:.0} | {:.1}% | — | — |",
                        ft.mop,
                        ft.op,
                        ft.events_in,
                        ft.time_share * 100.0,
                    );
                }
            }
        }
        out.push('\n');
        if baseline.time_attribution.is_empty() {
            out.push_str("(baseline document predates the time-attribution section)\n\n");
        }
    }
    if !fresh.multi_tenant.is_empty() {
        out.push_str("## Multi-tenant server (loopback clients, Zipf query popularity)\n\n");
        out.push_str(
            "End-to-end over TCP: many clients, one shared plan. Absolute ev/s \
             and latency move with the runner; events saved is the deterministic \
             sharing-attribution signal, and shed must stay 0.\n\n",
        );
        out.push_str(
            "| scenario | clients | queries | ev/s | base ev/s | flush p50 us | flush p99 us | shed | events saved | base saved |\n\
             |---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
        );
        for fm in &fresh.multi_tenant {
            match baseline
                .multi_tenant
                .iter()
                .find(|b| b.scenario == fm.scenario)
            {
                Some(bm) => {
                    let _ = writeln!(
                        out,
                        "| {} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} | {:.0} |",
                        fm.scenario,
                        fm.clients,
                        fm.registered,
                        fm.events_per_sec,
                        bm.events_per_sec,
                        fm.delivery_p50_us,
                        fm.delivery_p99_us,
                        fm.shed_results,
                        fm.events_saved,
                        bm.events_saved,
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "| {} | {:.0} | {:.0} | {:.0} | — | {:.0} | {:.0} | {:.0} | {:.0} | — |",
                        fm.scenario,
                        fm.clients,
                        fm.registered,
                        fm.events_per_sec,
                        fm.delivery_p50_us,
                        fm.delivery_p99_us,
                        fm.shed_results,
                        fm.events_saved,
                    );
                }
            }
        }
        out.push('\n');
        if baseline.multi_tenant.is_empty() {
            out.push_str("(baseline document predates the multi-tenant section)\n\n");
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(base_path), Some(fresh_path)) = (args.first(), args.get(1)) else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json> [out.md]");
        std::process::exit(2);
    };
    let baseline = parse(&std::fs::read_to_string(base_path).expect("read baseline"));
    let fresh = parse(&std::fs::read_to_string(fresh_path).expect("read fresh run"));
    let report = render(&baseline, &fresh);
    print!("{report}");
    if let Some(out_path) = args.get(2) {
        std::fs::write(out_path, &report).expect("write report");
        eprintln!("wrote {out_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{
  "workloads": [
    {
      "name": "w",
      "paths": [
        {"path": "per_event", "events_per_sec": 1000.0, "results_out": 5, "speedup_vs_per_event": 1.000},
        {"path": "push_batch", "events_per_sec": 2000.0, "results_out": 5, "speedup_vs_per_event": 2.000}
      ]
    }
  ],
  "plan_quality": [
    {"workload": "overlapping_aggs", "queries": 32, "greedy_mops": 26, "cost_mops": 3, "greedy_events_per_sec": 500.0, "cost_events_per_sec": 1250.0, "results_match": true}
  ],
  "latency": [
    {"metric": "delivery", "count": 420, "p50_us": 8.2, "p90_us": 32.8, "p99_us": 131.1, "max_us": 262.1},
    {"metric": "flush_barrier", "count": 9, "p50_us": 524.3, "p90_us": 1048.6, "p99_us": 1048.6, "max_us": 1500.0}
  ],
  "time_attribution": [
    {"mop": "m3", "op": "filter", "events_in": 500, "est_nanos": 120000, "time_share": 0.6100},
    {"mop": "m7", "op": "project", "events_in": 500, "est_nanos": 76000, "time_share": 0.3900}
  ],
  "multi_tenant": [
    {"scenario": "zipf_selects_200c_1024q", "clients": 200, "registered": 1024, "distinct_bodies": 60, "events": 20000, "events_per_sec": 12345.6, "results_out": 9999, "delivery_p50_us": 100.0, "delivery_p90_us": 200.0, "delivery_p99_us": 400.0, "delivery_max_us": 800.0, "shed_results": 0, "events_saved": 7777}
  ],
  "churn": [
    {"resident_queries": 8, "integrate_ms": 0.5, "remove_ms": 0.2, "churn_events_per_sec": 9.0, "results_out": 1}
  ]
}"#;

    #[test]
    fn parses_rendered_shape_and_skips_churn() {
        let doc = parse(DOC);
        assert_eq!(doc.workloads.len(), 1);
        assert_eq!(doc.workloads[0].paths.len(), 2);
        assert_eq!(doc.workloads[0].paths[1].path, "push_batch");
        assert_eq!(doc.workloads[0].paths[1].speedup, 2.0);
        assert_eq!(doc.plan_quality.len(), 1);
        assert_eq!(doc.plan_quality[0].workload, "overlapping_aggs");
        assert_eq!(doc.plan_quality[0].greedy_mops, 26.0);
        assert_eq!(doc.plan_quality[0].cost_mops, 3.0);
        assert_eq!(doc.latency.len(), 2);
        assert_eq!(doc.latency[0].metric, "delivery");
        assert_eq!(doc.latency[0].count, 420.0);
        assert_eq!(doc.latency[0].p99_us, 131.1);
        assert_eq!(doc.latency[1].max_us, 1500.0);
        assert_eq!(doc.time_attribution.len(), 2);
        assert_eq!(doc.time_attribution[0].mop, "m3");
        assert_eq!(doc.time_attribution[0].op, "filter");
        assert_eq!(doc.time_attribution[0].time_share, 0.61);
        assert_eq!(doc.multi_tenant.len(), 1);
        assert_eq!(doc.multi_tenant[0].scenario, "zipf_selects_200c_1024q");
        assert_eq!(doc.multi_tenant[0].clients, 200.0);
        assert_eq!(doc.multi_tenant[0].registered, 1024.0);
        assert_eq!(doc.multi_tenant[0].events_saved, 7777.0);
    }

    #[test]
    fn renders_multi_tenant_with_and_without_baseline() {
        let base = parse(DOC);
        let fresh = parse(&DOC.replace("\"events_saved\": 7777", "\"events_saved\": 8888"));
        let report = render(&base, &fresh);
        assert!(report.contains("## Multi-tenant server"));
        assert!(report.contains(
            "| zipf_selects_200c_1024q | 200 | 1024 | 12346 | 12346 | 100 | 400 | 0 | 8888 | 7777 |"
        ));

        // A baseline predating the section must not lose the fresh rows.
        let old_base = parse(&DOC.replace("zipf_selects", "renamed_scenario"));
        let report = render(&old_base, &fresh);
        assert!(report.contains(
            "| zipf_selects_200c_1024q | 200 | 1024 | 12346 | — | 100 | 400 | 0 | 8888 | — |"
        ));
    }

    #[test]
    fn renders_latency_and_attribution_with_and_without_baseline() {
        let base = parse(DOC);
        let fresh = parse(&DOC.replace("\"p99_us\": 131.1", "\"p99_us\": 262.1"));
        let report = render(&base, &fresh);
        assert!(report.contains("## Latency percentiles"));
        assert!(report.contains("| delivery | 420 | 8.2 | 32.8 | 262.1 | 262.1 | 131.1 | +99.9% |"));
        assert!(report.contains("## Time attribution"));
        assert!(report.contains("| m3 | filter | 500 | 61.0% | 61.0% | +0.0pp |"));

        // A baseline predating the sections keeps the fresh rows, with
        // em-dashes where the comparison columns would go.
        let old_base = parse(
            &DOC.replace("delivery", "renamed_metric")
                .replace("\"mop\": \"m3\"", "\"mop\": \"m9\""),
        );
        let report = render(&old_base, &fresh);
        assert!(report.contains("| delivery | 420 | 8.2 | 32.8 | 262.1 | 262.1 | — | — |"));
        assert!(report.contains("| m3 | filter | 500 | 61.0% | — | — |"));
    }

    #[test]
    fn renders_deltas_for_matching_paths() {
        let base = parse(DOC);
        let fresh = parse(&DOC.replace("2000.0", "3000.0").replace("2.000", "3.000"));
        let report = render(&base, &fresh);
        assert!(report.contains("| push_batch | 2000 | 3000 | +50.0% | 2.000 | 3.000 | +1.000 |"));
    }

    #[test]
    fn skips_paths_present_on_one_side_only() {
        let retired = "        {\"path\": \"sharded/n2\", \"events_per_sec\": 700.0, \"results_out\": 5, \"speedup_vs_per_event\": 0.700},\n";
        let anchor = "        {\"path\": \"push_batch\"";
        let with_retired = DOC.replace(anchor, &format!("{retired}{anchor}"));
        for (base, fresh) in [(&with_retired[..], DOC), (DOC, &with_retired[..])] {
            let report = render(&parse(base), &parse(fresh));
            assert!(!report.contains("sharded/n2"), "{report}");
            assert!(
                report.contains("| push_batch | 2000 | 2000 | +0.0% | 2.000 | 2.000 | +0.000 |")
            );
        }
    }

    #[test]
    fn renders_plan_quality_with_and_without_baseline() {
        let base = parse(DOC);
        let fresh = parse(&DOC.replace("\"cost_mops\": 3", "\"cost_mops\": 4"));
        let report = render(&base, &fresh);
        assert!(report.contains("## Plan quality"));
        assert!(report.contains("| overlapping_aggs | 32 | 26 | 4 | 22 | 2.50x | 2.50x | 26/3 |"));

        // A baseline predating the section must not lose the fresh rows.
        let old_base = parse(&DOC.replace("overlapping_aggs", "renamed"));
        let report = render(&old_base, &fresh);
        assert!(report.contains("| overlapping_aggs | 32 | 26 | 4 | 22 | 2.50x | — | — |"));
    }
}
