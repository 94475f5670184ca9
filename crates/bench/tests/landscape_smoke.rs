//! Smoke test for the landscape shoot-out artifact: a tiny run must
//! produce a JSON body that parses (hand-rolled writer — validate shape,
//! not just substrings), covers every registered checker in every
//! (family, size) cell, and reports internally consistent counts.

use chasekit_bench::exp::landscape::{run, Params, CHECKERS, FAMILIES};

fn tiny() -> Params {
    Params { sizes: vec![2], seeds_per_size: 4, ..Params::quick() }
}

/// Pulls the numeric value following `"key": ` out of a JSON line.
fn field(line: &str, key: &str) -> f64 {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag).unwrap_or_else(|| panic!("no {key} in `{line}`")) + tag.len();
    let rest = &line[start..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|e| panic!("bad {key} in `{line}`: {e}"))
}

#[test]
fn json_artifact_is_well_formed_and_complete() {
    let result = run(&tiny());
    let json = &result.json;

    // Structure: balanced braces/brackets, trailing newline, no NaN/inf
    // (format!("{:.4}", f64) would happily print them).
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(json.matches(open).count(), json.matches(close).count());
    }
    assert!(json.ends_with('\n'));
    assert!(!json.contains("NaN") && !json.contains("inf"), "non-finite stat leaked");

    // Every registered checker appears in every (family, size) cell.
    let cell_count = FAMILIES.len() * tiny().sizes.len();
    for name in CHECKERS {
        let tag = format!("\"checker\": \"{name}\"");
        assert_eq!(json.matches(&tag).count(), cell_count, "{name} missing from some cell");
    }
    for (family, _) in FAMILIES {
        assert!(json.contains(&format!("\"family\": \"{family}\"")));
    }

    // Every checker row's numbers parse and are internally consistent.
    let programs_per_cell = tiny().seeds_per_size as f64;
    for line in json.lines().filter(|l| l.contains("\"checker\": ")) {
        let applicable = field(line, "applicable");
        let decided = field(line, "terminates") + field(line, "diverges");
        let unknown = field(line, "unknown");
        assert!(applicable <= programs_per_cell, "`{line}`");
        assert_eq!(decided + unknown, applicable, "`{line}`");
        for key in ["precision", "recall"] {
            let v = field(line, key);
            assert!((0.0..=1.0).contains(&v), "{key} out of range in `{line}`");
        }
        for key in ["median_effort", "p95_effort", "median_us", "p95_us"] {
            assert!(field(line, key) >= 0.0, "`{line}`");
        }
    }

    // Header counts match the sweep.
    assert_eq!(field(json, "programs"), programs_per_cell * cell_count as f64);
    assert_eq!(field(json, "contradictions"), 0.0, "{:?}", result.outcome.contradictions);
    assert!(json.contains("\"quick\": true"));
}
