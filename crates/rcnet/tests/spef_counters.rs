//! The `rcnet.spef.*` counters one `spef::parse` call adds. The metrics
//! registry is process-global, so these checks run in one test of their
//! own binary: no other parse can run between a read and the next.

use rcnet::spef::parse;

const COUNTERS: [&str; 5] = ["lines", "caps", "res", "nets", "parse_errors"];

/// Two nets: 4 ground caps, 1 coupling cap and 3 resistors over 26
/// lines, the blank first line included.
const VALID: &str = r#"
*SPEF "IEEE 1481-1998"
*C_UNIT 1 FF
*R_UNIT 1 OHM
*D_NET a 3.0
*CONN
*I d1:Z O
*I l1:A I
*CAP
1 a:1 1.0
2 l1:A 1.0
3 a:1 agg:2 0.5
*RES
1 d1:Z a:1 5.0
2 a:1 l1:A 5.0
*END
*D_NET b 2.0
*CONN
*I d2:Z O
*I l2:A I
*CAP
1 d2:Z 1.0
2 l2:A 1.0
*RES
1 d2:Z l2:A 5.0
*END
"#;

/// Fails at its 10th line, a malformed resistor, after 2 caps and 1
/// resistor; 3 more lines follow.
const FAILING: &str = "*D_NET n 1.0
*CONN
*I d:Z O
*I l:A I
*CAP
1 l:A 1.0
2 d:Z 1.0
*RES
1 d:Z l:A 5.0
2 d:Z
*END
*D_NET m 1.0
*END
";

fn counts() -> [u64; 5] {
    COUNTERS.map(|c| obs::counter(&format!("rcnet.spef.{c}")).get())
}

fn deltas(text: &str) -> [u64; 5] {
    let before = counts();
    let _ = parse(text);
    let after = counts();
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn parse_adds_each_documents_counts_once() {
    assert_eq!(VALID.lines().count(), 26);
    // lines, caps, res, nets, parse_errors
    assert_eq!(deltas(VALID), [26, 5, 3, 2, 0]);
    assert_eq!(FAILING.lines().count(), 13);
    assert!(matches!(
        parse(FAILING),
        Err(rcnet::RcNetError::SpefParse { line: 10, .. })
    ));
    assert_eq!(deltas(FAILING), [13, 2, 1, 0, 1]);
}
