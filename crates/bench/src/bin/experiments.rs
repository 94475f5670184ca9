//! The experiment driver: regenerates every table of the reproduction.
//!
//! Usage:
//!
//! ```text
//! experiments [all|e0|e1|e2|e3|e4|e5|e6|e7|e9]... [--quick] [--csv <dir>] [--json <file>]
//! ```
//!
//! `--quick` shrinks the populations ~10x for smoke runs; `--csv <dir>`
//! additionally writes one CSV file per table. E9 (the checker shoot-out)
//! writes its landscape JSON to `--json <file>` when given; otherwise a
//! full run writes the committed record `BENCH_checker_landscape.json` at
//! the repo root and a `--quick` run writes no JSON at all, so smoke
//! numbers never overwrite the record. `--json` without `e9` among the
//! selected experiments is an argument error (exit 2). The driver exits 1
//! if any check fails or any output file cannot be written.

use std::io::Write as _;

use chasekit_bench::exp::{
    e0_examples, e1_simple_linear, e2_linear, e3_scaling, e4_guarded, e5_looping, e6_landscape,
    e7_restricted, landscape,
};
use chasekit_bench::table::Table;

struct Options {
    which: Vec<String>,
    quick: bool,
    csv_dir: Option<String>,
    json_path: Option<String>,
}

const USAGE: &str =
    "usage: experiments [all|e0|e1|e2|e3|e4|e5|e6|e7|e9]... [--quick] [--csv <dir>] [--json <file>]";

fn parse_args() -> Options {
    let mut which = Vec::new();
    let mut quick = false;
    let mut csv_dir = None;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                csv_dir = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }))
            }
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a file argument");
                    std::process::exit(2);
                }))
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
            other => which.push(other.to_string()),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = (0..=7).map(|i| format!("e{i}")).collect();
        which.push("e9".to_string());
    }
    if json_path.is_some() && !which.iter().any(|w| w == "e9") {
        eprintln!("--json writes E9's landscape, but e9 is not among the selected experiments");
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    Options { which, quick, csv_dir, json_path }
}

fn emit(tables: &[Table], opts: &Options, failures: &mut Vec<String>, checks: &[(bool, String)]) {
    for t in tables {
        println!("{}", t.render());
        if let Some(dir) = &opts.csv_dir {
            let slug: String = t
                .title
                .chars()
                .take_while(|&c| c != ':')
                .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
                .collect();
            let path = format!("{dir}/{}.csv", slug.trim_matches('-'));
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::File::create(&path)?.write_all(t.to_csv().as_bytes()))
            {
                eprintln!("failed to write {path}: {e}");
                failures.push(format!("could not write {path}"));
            }
        }
    }
    for (ok, msg) in checks {
        if *ok {
            println!("CHECK PASS: {msg}");
        } else {
            println!("CHECK FAIL: {msg}");
            failures.push(msg.clone());
        }
    }
    println!();
}

fn main() {
    let opts = parse_args();
    let q = opts.quick;
    let mut failures: Vec<String> = Vec::new();

    for which in opts.which.clone() {
        match which.as_str() {
            "e0" => {
                let t = e0_examples::run(if q { 50 } else { 1_000 });
                emit(&[t], &opts, &mut failures, &[]);
            }
            "e1" => {
                let mut p = e1_simple_linear::Params::default();
                if q {
                    p.samples = 200;
                }
                let (t, o) = e1_simple_linear::run(&p);
                emit(
                    &[t],
                    &opts,
                    &mut failures,
                    &[
                        (o.wa_vs_exact_so == 0, "Theorem 1: WA = CT-so on SL".into()),
                        (o.ra_vs_exact_o == 0, "Theorem 1: RA = CT-o on SL".into()),
                        (o.truth_contradictions == 0, "E1: no chase contradictions".into()),
                    ],
                );
            }
            "e2" => {
                let mut p = e2_linear::Params::default();
                if q {
                    p.samples = 200;
                }
                let (ts, o) = e2_linear::run(&p);
                emit(
                    &ts,
                    &opts,
                    &mut failures,
                    &[
                        (
                            o.truth_contradictions == 0,
                            "Theorem 2: exact procedure matches the chase".into(),
                        ),
                        (
                            o.gap_misclassified == 0,
                            "Theorem 2: gap family classified correctly".into(),
                        ),
                        (o.wa_wrong > 0, "Theorem 2: WA is strictly weaker on linear rules".into()),
                    ],
                );
            }
            "e3" => {
                let mut p = e3_scaling::Params::default();
                if q {
                    p.rule_counts = vec![2, 8, 32];
                    p.arities = vec![2, 4, 6];
                    p.repeats = 3;
                }
                let ts = e3_scaling::run(&p);
                emit(&ts, &opts, &mut failures, &[]);
            }
            "e4" => {
                let mut p = e4_guarded::Params::default();
                if q {
                    p.samples = 150;
                    p.arities = vec![1, 2, 3];
                }
                match e4_guarded::run(&p) {
                    Ok((ts, o)) => emit(
                        &ts,
                        &opts,
                        &mut failures,
                        &[(
                            o.contradictions == 0,
                            "Theorem 4: guarded decider matches the chase".into(),
                        )],
                    ),
                    Err(e) => {
                        eprintln!("e4: guarded decider rejected a generated set: {e}");
                        failures.push(format!("e4 aborted: {e}"));
                    }
                }
            }
            "e5" => {
                let mut p = e5_looping::Params::default();
                if q {
                    p.depths = vec![1, 4, 16];
                }
                let (t, o) = e5_looping::run(&p);
                emit(
                    &[t],
                    &opts,
                    &mut failures,
                    &[(o.mismatches == 0, "Looping operator: diverges iff entailed".into())],
                );
            }
            "e6" => {
                let mut p = e6_landscape::Params::default();
                if q {
                    p.samples = 250;
                }
                let (ts, o) = e6_landscape::run(&p);
                emit(
                    &ts,
                    &opts,
                    &mut failures,
                    &[
                        (o.soundness_violations == 0, "Landscape: all conditions sound".into()),
                        (
                            o.containment_violations == 0,
                            "Landscape: RA/WA/JA/MFA containments hold".into(),
                        ),
                    ],
                );
            }
            "e7" => {
                let mut p = e7_restricted::Params::default();
                if q {
                    p.samples = 250;
                }
                let (t, o) = e7_restricted::run(&p);
                emit(
                    &[t],
                    &opts,
                    &mut failures,
                    &[
                        (
                            o.unconfirmed_witnesses == 0,
                            "E7: every divergence witness confirmed".into(),
                        ),
                        (
                            o.probe_contradictions == 0,
                            "E7: no probe contradicts a termination claim".into(),
                        ),
                    ],
                );
            }
            "e9" => {
                let p = if q { landscape::Params::quick() } else { landscape::Params::default() };
                let result = landscape::run(&p);
                let record =
                    concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checker_landscape.json");
                let json_path = opts.json_path.as_deref().or((!q).then_some(record));
                if let Some(path) = json_path {
                    if let Err(e) = std::fs::write(path, &result.json) {
                        eprintln!("failed to write {path}: {e}");
                        failures.push(format!("e9: could not write {path}"));
                    }
                }
                let o = &result.outcome;
                let min_programs = if q { 1_000 } else { 1_500 };
                emit(
                    &result.tables,
                    &opts,
                    &mut failures,
                    &[
                        (
                            o.contradictions.is_empty(),
                            format!(
                                "E9: zero checker-vs-chase contradictions ({} found)",
                                o.contradictions.len()
                            ),
                        ),
                        (
                            o.programs >= min_programs,
                            format!("E9: corpus scale ({} programs >= {min_programs})", o.programs),
                        ),
                    ],
                );
                for c in o.contradictions.iter().take(20) {
                    eprintln!("e9 contradiction: {c}");
                }
            }
            other => {
                eprintln!("unknown experiment {other}");
                std::process::exit(2);
            }
        }
    }

    if failures.is_empty() {
        println!("All experiment checks passed.");
    } else {
        println!("{} CHECK FAILURES:", failures.len());
        for f in &failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
