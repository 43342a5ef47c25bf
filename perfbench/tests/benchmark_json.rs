//! `BENCHMARK.json` names exactly the metrics the benchmark prints, with
//! the same units.

use perfbench::{end_to_end, Outcome, Samples, PER_LAYER};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one top-level list of the file.
fn listed(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |entry: &str, key: &str| {
        let from = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[from..from + entry[from..].find('"').expect("string closed")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn per_layer_list_matches_the_benchmark() {
    let expected: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), expected);
}

#[test]
fn end_to_end_list_matches_the_benchmark() {
    let mut out = Outcome::default();
    let mut latency = Samples::default();
    latency.push(1_000);
    end_to_end(&mut out, &[1.0], 1.0, 1, 1, &latency);
    let mut printed: Vec<(String, String)> = out
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut in_file = listed("end_to_end");
    printed.sort();
    in_file.sort();
    assert_eq!(in_file, printed);
}
