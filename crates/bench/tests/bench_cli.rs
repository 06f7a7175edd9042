//! The `bench` front door: a gate that is not one of the eight is a usage
//! error that names them.

use std::process::Command;

use hybridcast_bench::gates;

#[test]
fn unknown_gate_lists_the_eight_names_and_exits_2() {
    assert_eq!(gates::ALL.len(), 8);
    for args in [&["nope"][..], &[], &["serve_bench", "fast"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(args)
            .output()
            .expect("bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: bench <gate> [quick]"), "{stderr}");
        for (name, _) in gates::ALL {
            assert!(stderr.contains(name), "{name} missing from: {stderr}");
        }
        assert!(out.stdout.is_empty(), "no gate ran");
    }
}
