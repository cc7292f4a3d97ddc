//! The repository's `BENCHMARK.json` and this package's README must list
//! exactly the metrics the program prints, with the same units.

use dsv_perfbench::metrics::{catalogue_markdown, Better, MetricDef, END_TO_END, PER_LAYER};
use dsv_perfbench::Workload;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `{"name": .., "unit": .., "better": ..}` entries of one top-level
/// list of `BENCHMARK.json`, read without a JSON library: the file is
/// flat enough that each entry is one brace-delimited object.
fn entries(json: &str, key: &str) -> Vec<(String, String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("list present");
    let open = start + json[start..].find('[').expect("list opens");
    let close = open + json[open..].find(']').expect("list closes");
    let field = |obj: &str, f: &str| -> String {
        let at = obj.find(&format!("\"{f}\"")).map(|i| i + f.len() + 2);
        let Some(at) = at else { return String::new() };
        let rest = &obj[at..];
        let q = rest.find('"').expect("string value") + 1;
        rest[q..q + rest[q..].find('"').expect("closing quote")].to_string()
    };
    json[open + 1..close]
        .split('}')
        .filter(|o| o.contains("\"name\""))
        .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
        .collect()
}

fn expect(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| {
            let better = if d.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            (d.name.to_string(), d.unit.to_string(), better.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let json = read("../BENCHMARK.json");
    assert_eq!(entries(&json, "end_to_end"), expect(END_TO_END));
    assert_eq!(entries(&json, "per_layer"), expect(PER_LAYER));
    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|e| e.0)
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}

#[test]
fn readme_carries_the_generated_map() {
    let readme = read("README.md");
    assert!(
        readme.contains(&catalogue_markdown()),
        "README.md is stale: paste the output of `perfbench --catalogue`"
    );
}
