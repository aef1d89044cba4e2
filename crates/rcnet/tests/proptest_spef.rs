//! Hostile-input property tests for the SPEF parser.
//!
//! The serving layer feeds untrusted request bodies straight into
//! `rcnet::spef::parse`, so the parser's contract is: *any* byte soup
//! either parses or returns a typed `RcNetError` — it must never panic,
//! hang, or produce a structurally invalid net.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rcnet::spef::parse;

/// A well-formed multi-net fixture exercising every section the parser
/// knows: header units, name map, connections, ground and coupling caps,
/// resistors. Mutations start from here so they hit deep code paths
/// instead of bouncing off the preamble.
const FIXTURE: &str = r#"*SPEF "IEEE 1481-1998"
*DESIGN "hostile"
*DIVIDER /
*DELIMITER :
*T_UNIT 1 PS
*C_UNIT 1 FF
*R_UNIT 1 OHM

*NAME_MAP
*1 blk/net0
*2 U1
*3 U2
*4 blk/net1

*D_NET *1 4.5
*CONN
*I *2:Z O
*I *3:A I
*CAP
1 *1:1 1.5
2 *3:A 1.5
3 *1:1 agg:7 0.25
*RES
1 *2:Z *1:1 12.0
2 *1:1 *3:A 8.0
*END

*D_NET *4 2.0
*CONN
*I U4:Z O
*I U5:B I
*CAP
1 U5:B 2.0
*RES
1 U4:Z U5:B 6.5
*END
"#;

/// Tokens a confused or malicious writer might splice in anywhere.
const HOSTILE_TOKENS: &[&str] = &[
    "*END",
    "*D_NET",
    "*D_NET *99 1e308",
    "*CONN",
    "*CAP",
    "*RES",
    "*NAME_MAP",
    "*T_UNIT 1 XS",
    "*T_UNIT NaN PS",
    "*DELIMITER",
    "*DIVIDER",
    "*I",
    "*I x:Z Q",
    "*P",
    "*9999",
    "1 *9999:1 1.5",
    "1 a b c d e",
    "-1 n:1 -inf",
    "1 n:1 1e999",
    "\u{0}\u{1}\u{2}",
    "\t\t\t",
    "*",
    "**",
    "*I :: O",
    "1 : : 0",
    "//",
];

/// Parse must return (Ok or Err), never panic; an Ok document must be
/// structurally sound enough to walk.
fn assert_total(text: &str) {
    if let Ok(doc) = parse(text) {
        for net in &doc.nets {
            // Walking paths, nodes and couplings must be safe on any
            // net the parser accepts.
            let mut paths = 0usize;
            for p in net.paths() {
                let _ = net.node(p.sink);
                paths += 1;
            }
            assert_eq!(paths, net.paths().len());
            assert!(net.node_count() >= 1);
        }
    }
}

/// Deterministic byte-level mutation of the fixture.
fn mutate_bytes(seed: u64, mutations: usize) -> String {
    let mut rng = TestRng::for_case("spef_mutate_bytes", seed as u32);
    let mut bytes = FIXTURE.as_bytes().to_vec();
    for _ in 0..mutations {
        if bytes.is_empty() {
            break;
        }
        let pos = rng.next_below(bytes.len() as u64) as usize;
        match rng.next_below(4) {
            0 => bytes[pos] = (rng.next_below(256)) as u8,
            1 => {
                bytes.remove(pos);
            }
            2 => bytes.insert(pos, (rng.next_below(128)) as u8),
            _ => bytes.truncate(pos),
        }
    }
    // The parser takes &str; lossy conversion mirrors what a server
    // would do with a request body that is not valid UTF-8.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Deterministic line-level mutation: duplicate, drop, swap, or splice
/// hostile tokens between lines.
fn mutate_lines(seed: u64, mutations: usize) -> String {
    let mut rng = TestRng::for_case("spef_mutate_lines", seed as u32);
    let mut lines: Vec<String> = FIXTURE.lines().map(str::to_string).collect();
    for _ in 0..mutations {
        if lines.is_empty() {
            lines.push(String::new());
        }
        let pos = rng.next_below(lines.len() as u64) as usize;
        match rng.next_below(4) {
            0 => {
                let l = lines[pos].clone();
                lines.insert(pos, l);
            }
            1 => {
                lines.remove(pos);
            }
            2 => {
                let tok = HOSTILE_TOKENS[rng.next_below(HOSTILE_TOKENS.len() as u64) as usize];
                lines.insert(pos, tok.to_string());
            }
            _ => {
                let other = rng.next_below(lines.len() as u64) as usize;
                lines.swap(pos, other);
            }
        }
    }
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn byte_mutations_never_panic(seed in 0u64..1_000_000, n in 1usize..24) {
        assert_total(&mutate_bytes(seed, n));
    }

    #[test]
    fn line_mutations_never_panic(seed in 0u64..1_000_000, n in 1usize..16) {
        assert_total(&mutate_lines(seed, n));
    }

    #[test]
    fn truncation_at_any_point_never_panics(frac in 0.0f64..1.0) {
        let cut = (FIXTURE.len() as f64 * frac) as usize;
        let mut cut = cut.min(FIXTURE.len());
        while !FIXTURE.is_char_boundary(cut) {
            cut -= 1;
        }
        assert_total(&FIXTURE[..cut]);
    }

    #[test]
    fn keyword_soup_never_panics(seed in 0u64..1_000_000, len in 1usize..40) {
        let mut rng = TestRng::for_case("spef_soup", seed as u32);
        let mut doc = String::new();
        for _ in 0..len {
            let tok = HOSTILE_TOKENS[rng.next_below(HOSTILE_TOKENS.len() as u64) as usize];
            doc.push_str(tok);
            doc.push(if rng.next_below(4) == 0 { ' ' } else { '\n' });
        }
        assert_total(&doc);
    }
}

#[test]
fn fixture_itself_parses_cleanly() {
    let doc = parse(FIXTURE).expect("fixture is valid SPEF");
    assert_eq!(doc.nets.len(), 2);
    assert_eq!(doc.nets[0].name(), "blk/net0");
    assert_eq!(doc.nets[1].name(), "blk/net1");
}

#[test]
fn non_finite_values_are_rejected() {
    for bad in ["NaN", "inf", "-inf"] {
        for (line, value) in [
            ("2 *3:A 1.5", "2 *3:A"),
            ("3 *1:1 agg:7 0.25", "3 *1:1 agg:7"),
            ("2 *1:1 *3:A 8.0", "2 *1:1 *3:A"),
        ] {
            let text = FIXTURE.replace(line, &format!("{value} {bad}"));
            assert!(parse(&text).is_err(), "`{value} {bad}` must be rejected");
        }
    }
}
