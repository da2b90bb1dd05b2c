//! Golden pin of the full paper reproduction: `repro all` must reproduce
//! `results/repro_all.txt` byte for byte. The sweep is deterministic and
//! machine-independent, so any drift means an engine change silently moved
//! the published numbers — regenerate the file deliberately instead:
//!
//! ```text
//! cargo run -p siteselect-bench --release --bin repro -- all > results/repro_all.txt
//! ```

use std::process::Command;

#[test]
#[ignore = "full paper reproduction (~20 s in release on 2 cores); run by CI and scripts/ci.sh"]
fn repro_all_matches_pinned_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "repro all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("utf-8 output");
    let pinned_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/repro_all.txt");
    let pinned = std::fs::read_to_string(pinned_path).expect("read results/repro_all.txt");
    if got == pinned {
        return;
    }
    // Byte equality failed: report the first drifting line, not a dump of
    // both 100-line documents.
    for (i, (g, p)) in got.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(
            g,
            p,
            "results/repro_all.txt drifted at line {}; if the change is \
             intended, regenerate with: cargo run -p siteselect-bench \
             --release --bin repro -- all > results/repro_all.txt",
            i + 1
        );
    }
    panic!(
        "results/repro_all.txt drifted in length: repro all printed {} lines, \
         the pinned file has {} — regenerate it deliberately",
        got.lines().count(),
        pinned.lines().count()
    );
}
