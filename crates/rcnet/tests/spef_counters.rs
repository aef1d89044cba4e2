//! The `rcnet.spef.*` counters one `spef::parse` call adds, on single-
//! and multi-shard documents. The metrics registry is process-global, so
//! these checks run in one test of their own binary: no other parse can
//! run between a read and the next.

use rcnet::spef::parse;

const COUNTERS: [&str; 6] = ["lines", "caps", "res", "nets", "parse_errors", "shards"];

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

/// VALID's four preamble lines, then its two nets (22 lines, 5 caps,
/// 3 resistors) `REPEATS` times: about 3.5 shards of sections, cut into
/// four shards.
const REPEATS: usize = 1000;

fn sharded() -> String {
    let (preamble, nets) = VALID.split_at(VALID.find("*D_NET").unwrap());
    preamble.to_string() + &nets.repeat(REPEATS)
}

fn counts() -> [u64; 6] {
    COUNTERS.map(|c| obs::counter(&format!("rcnet.spef.{c}")).get())
}

fn deltas(text: &str) -> [u64; 6] {
    let before = counts();
    let _ = parse(text);
    let after = counts();
    std::array::from_fn(|i| after[i] - before[i])
}

/// Tasks the `par` pool has been given, over every kind.
fn par_tasks() -> u64 {
    obs::metrics::snapshot()
        .counters
        .iter()
        .filter(|(key, _)| key.name == "par.tasks")
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn parse_adds_each_documents_counts_once() {
    assert_eq!(VALID.lines().count(), 26);
    // lines, caps, res, nets, parse_errors, shards
    assert_eq!(deltas(VALID), [26, 5, 3, 2, 0, 1]);
    assert_eq!(FAILING.lines().count(), 13);
    assert!(matches!(
        parse(FAILING),
        Err(rcnet::RcNetError::SpefParse { line: 10, .. })
    ));
    assert_eq!(deltas(FAILING), [13, 2, 1, 0, 1, 1]);

    // Multi-shard: the serial values, once per document.
    let k = REPEATS as u64;
    let text = sharded();
    let tasks = par_tasks();
    assert_eq!(deltas(&text), [4 + 22 * k, 5 * k, 3 * k, 2 * k, 0, 4]);
    assert_eq!(par_tasks() - tasks, 4, "one pool task per shard");

    // Failing in a middle shard, at the second resistor of repeat `j`
    // (same length, so the cuts stay put): caps and resistors up to the
    // failing line, lines over the whole text.
    let j = REPEATS / 2;
    let line = 4 + 22 * j + 11;
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[line - 1], "2 a:1 l1:A 5.0");
    lines[line - 1] = "2 a:1 l1:A    ";
    let failing = lines.join("\n") + "\n";
    assert!(matches!(
        parse(&failing),
        Err(rcnet::RcNetError::SpefParse { line: l, .. }) if l == line
    ));
    let j = j as u64;
    assert_eq!(
        deltas(&failing),
        [4 + 22 * k, 5 * j + 3, 3 * j + 1, 0, 1, 4]
    );

    // A no-op unit line after repeat `j` makes the parse finish serially
    // from that shard: still counted once.
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(line + 11, "*C_UNIT 1 FF");
    let restarted = lines.join("\n") + "\n";
    assert_eq!(
        deltas(&restarted),
        [4 + 22 * k + 1, 5 * k, 3 * k, 2 * k, 0, 4]
    );

    // The largest serve body (4 nets of 12 nodes; serve's have 4 to 12)
    // is one shard, parsed on the calling thread: no pool task.
    let mut g = netgen::NetGenerator::new(
        7,
        netgen::NetConfig {
            nodes_min: 12,
            nodes_max: 12,
            ..Default::default()
        },
    );
    let nets: Vec<_> = (0..4)
        .map(|i| g.net(format!("rq{i}"), i % 3 == 0))
        .collect();
    let body = rcnet::spef::write(&rcnet::spef::SpefHeader::default(), &nets);
    assert!(body.len() > 2000, "{} bytes", body.len());
    let tasks = par_tasks();
    assert_eq!(deltas(&body)[3..], [4, 0, 1]);
    assert_eq!(
        par_tasks(),
        tasks,
        "a single-shard parse gives the pool nothing"
    );
}
