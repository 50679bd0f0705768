//! End-to-end tests of the CLI observability surface: the `--report`
//! JSON is deterministic for a fixed seeded command (stable key order,
//! no non-finite values), and `--trace` spans nest correctly.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The observability registry is process-global and `run` resets it, so
/// tests touching `--trace`/`--report` must not interleave.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn run_str(line: &str) -> Result<String, String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    let mut buf = Vec::new();
    klest_cli::run(&argv, &mut buf)?;
    Ok(String::from_utf8(buf).expect("utf8"))
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("klest_{}_{name}.json", std::process::id()))
}

/// All JSON object keys, in document order. Walks the text with a string
/// scanner (not a parser): a quoted string is a key iff the next
/// non-whitespace character is ':'.
fn key_sequence(json: &str) -> Vec<String> {
    let bytes = json.as_bytes();
    let mut keys = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && bytes[j] != b'"' {
                if bytes[j] == b'\\' {
                    j += 1;
                }
                j += 1;
            }
            let mut k = j + 1;
            while k < bytes.len() && (bytes[k] as char).is_whitespace() {
                k += 1;
            }
            if k < bytes.len() && bytes[k] == b':' {
                keys.push(json[start..j].to_string());
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    keys
}

/// Replaces every `"wall_ns": <integer>` value with 0 so two reports of
/// the same seeded run can be compared exactly (timings are the only
/// nondeterministic field).
fn zero_wall_ns(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find("\"wall_ns\":") {
        let after = pos + "\"wall_ns\":".len();
        out.push_str(&rest[..after]);
        out.push_str(" 0");
        let tail = &rest[after..];
        let end = tail
            .find([',', '\n', '}'])
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Extracts the `wall_ns` value of the span node with exactly `path`.
fn wall_ns_of(json: &str, path: &str) -> Option<u64> {
    let needle = format!("\"path\": \"{path}\"");
    let pos = json.find(&needle)?;
    let tail = &json[pos..];
    let wpos = tail.find("\"wall_ns\":")?;
    let digits: String = tail[wpos + "\"wall_ns\":".len()..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

const KLE_CMD: &str = "kle --kernel gaussian --area-fraction 0.05 --show 3";

#[test]
fn kle_report_is_deterministic_and_matches_golden() {
    let _guard = lock();
    // Same output path for both runs so argv (which the report embeds)
    // is identical; the second run overwrites the first.
    let path = tmp_path("kle_det");
    run_str(&format!("{KLE_CMD} --report {}", path.display())).unwrap();
    let a = std::fs::read_to_string(&path).unwrap();
    run_str(&format!("{KLE_CMD} --report {}", path.display())).unwrap();
    let b = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    // Two runs of the same seeded command differ only in timings.
    assert_eq!(zero_wall_ns(&a), zero_wall_ns(&b));

    // No non-finite values leak into the JSON (they serialize as null,
    // and a healthy run produces none at all).
    for token in ["NaN", "nan", "Infinity", "inf", "null"] {
        assert!(!a.contains(token), "report contains {token}:\n{a}");
    }

    // Key order matches the committed golden sequence exactly.
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/kle_report_keys.txt"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden file present");
    let expected: Vec<&str> = golden.lines().filter(|l| !l.is_empty()).collect();
    let actual = key_sequence(&a);
    assert_eq!(
        actual, expected,
        "report key sequence drifted from tests/golden/kle_report_keys.txt \
         — if the schema change is intentional, regenerate the golden file"
    );
}

#[test]
fn kle_trace_nests_spans_under_command() {
    let _guard = lock();
    let report = tmp_path("kle_trace");
    // --trace renders to stderr (not capturable here); the span tree it
    // renders is the same one the report serializes, so nesting is
    // asserted on the JSON.
    let out = run_str(&format!("{KLE_CMD} --trace --report {}", report.display())).unwrap();
    assert!(out.contains("rank r = "), "{out}");
    let json = std::fs::read_to_string(&report).unwrap();
    let _ = std::fs::remove_file(&report);

    // Full nested paths: command span at the root, pipeline stages below.
    for path in [
        "kle",
        "kle/mesh/build",
        "kle/galerkin/assemble",
        "kle/galerkin/eigensolve",
        "kle/galerkin/eigensolve/tridiagonalize",
        "kle/galerkin/eigensolve/ql",
        "kle/truncate",
    ] {
        assert!(
            json.contains(&format!("\"path\": \"{path}\"")),
            "missing span {path} in:\n{json}"
        );
    }
    // Nesting, not flattening: children appear inside their parent node,
    // so the parent's path occurs before the child's in the serialized
    // depth-first order.
    let pos = |p: &str| json.find(&format!("\"path\": \"{p}\"")).unwrap();
    assert!(pos("kle") < pos("kle/mesh/build"));
    assert!(pos("kle/mesh/build") < pos("kle/galerkin/assemble"));
    assert!(pos("kle/galerkin/assemble") < pos("kle/galerkin/eigensolve"));
    // The eigensolve's two phases, in the order they run.
    assert!(pos("kle/galerkin/eigensolve") < pos("kle/galerkin/eigensolve/tridiagonalize"));
    assert!(
        pos("kle/galerkin/eigensolve/tridiagonalize") < pos("kle/galerkin/eigensolve/ql")
    );
    assert!(pos("kle/galerkin/eigensolve/ql") < pos("kle/truncate"));
}

#[test]
fn ssta_report_covers_all_pipeline_stages() {
    // Plain, then supervised: `--deadline` runs both Monte Carlo arms in
    // supervised mode, which must report the same metrics.
    for extra in ["", "--deadline 60"] {
        ssta_report_covers_all_pipeline_stages_with(extra);
    }
}

fn ssta_report_covers_all_pipeline_stages_with(extra: &str) {
    let _guard = lock();
    let report = tmp_path("ssta");
    let out = run_str(&format!(
        "ssta --circuit c880 --scale 0.2 --samples 120 --seed 2008 --threads 2 {extra} --report {}",
        report.display()
    ))
    .unwrap();
    assert!(out.contains("e_mu"), "{out}");
    let json = std::fs::read_to_string(&report).unwrap();
    let _ = std::fs::remove_file(&report);

    // Every pipeline stage shows up with a nonzero wall time.
    for path in [
        "ssta",
        "ssta/kle/mesh/build",
        "ssta/kle/galerkin/assemble",
        "ssta/kle/galerkin/eigensolve",
        "ssta/kle/truncate",
        "ssta/mc/reference",
        "ssta/mc/kle",
    ] {
        let ns = wall_ns_of(&json, path).unwrap_or_else(|| panic!("span {path} missing"));
        assert!(ns > 0, "span {path} has zero wall time");
    }
    // Eigensolver effort and MC throughput are reported as metrics.
    for needle in [
        "\"eigen.ql_iterations\"",
        "\"mc.samples\"",
        "\"mc.samples_per_sec\"",
        "\"mc.worker_wall_ms\"",
        "\"mesh.min_angle_deg\"",
        "\"kle.rank\"",
        "\"ssta.speedup\"",
        "\"events\"",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
    assert!(json.contains("\"schema\": \"klest-run-report/v1\""));
}

#[test]
fn report_flag_off_leaves_no_observability_output() {
    let _guard = lock();
    // Without --trace/--report the sink stays off and output is the
    // plain command output only.
    let out = run_str("mesh --area-fraction 0.1").unwrap();
    assert!(out.contains("triangles"), "{out}");
    assert!(!out.contains("wrote"), "{out}");
}
