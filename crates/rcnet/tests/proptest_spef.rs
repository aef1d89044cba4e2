//! Hostile-input property tests for the SPEF parser.
//!
//! The serving layer feeds untrusted request bodies straight into
//! `rcnet::spef::parse`, so the parser's contract is: *any* byte soup
//! either parses or returns a typed `RcNetError` — it must never panic,
//! hang, or produce a structurally invalid net. It must also agree with
//! the reference line parser in `reference/`: the same document, or the
//! same error.

mod reference;

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rcnet::spef::{parse, SpefDocument};
use rcnet::topology::shortest_paths;
use rcnet::{RcNet, RcNetError};
use std::sync::OnceLock;

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

/// Parse must return (Ok or Err), never panic, and equal the reference
/// parser's result; an Ok document must be structurally sound enough to
/// walk.
fn assert_total(text: &str) -> Option<SpefDocument> {
    let got = parse(text);
    assert_same(text, &got, &reference::parse(text));
    let doc = got.ok()?;
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
        assert_structure(net);
    }
    Some(doc)
}

/// `got` equals `want`: the same document, header by bits, or the same
/// error.
fn assert_same(
    text: &str,
    got: &Result<SpefDocument, RcNetError>,
    want: &Result<SpefDocument, RcNetError>,
) {
    match (got, want) {
        (Ok(doc), Ok(want)) => {
            // By bits: `*T_UNIT NaN PS` is accepted.
            let h = (&doc.header, &want.header);
            assert_eq!(h.0.design, h.1.design, "{text:?}");
            assert_eq!((h.0.divider, h.0.delimiter), (h.1.divider, h.1.delimiter));
            for (a, b) in [
                (h.0.time_scale, h.1.time_scale),
                (h.0.cap_scale, h.1.cap_scale),
                (h.0.res_scale, h.1.res_scale),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{text:?}");
            }
            assert_eq!(doc.nets, want.nets, "{text:?}");
        }
        (Err(e), Err(want)) => assert_eq!(e, want, "{text:?}"),
        (got, want) => panic!("{text:?}: parse gave {got:?}, the reference {want:?}"),
    }
}

/// The net's derived structure equals what its edge list defines: each
/// node's neighbours in edge order, each wire path the one Dijkstra
/// finds, and each kept source distance Dijkstra's, bit for bit.
fn assert_structure(net: &RcNet) {
    let mut lists = vec![Vec::new(); net.node_count()];
    for (id, e) in net.iter_edges() {
        lists[e.a.index()].push((e.b, id));
        lists[e.b.index()].push((e.a, id));
    }
    for (id, _) in net.iter_nodes() {
        assert_eq!(net.neighbors(id), &lists[id.index()][..], "node {id}");
    }
    let sp = shortest_paths(net);
    assert_eq!(net.shortest_path_parents(), &sp.parent[..]);
    let bits = |d: &[rcnet::Ohms]| d.iter().map(|r| r.value().to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(net.shortest_path_distances()),
        bits(&sp.dist),
        "net `{}`",
        net.name()
    );
    for p in net.paths() {
        let (nodes, edges) = sp.path_to(p.sink);
        assert_eq!(
            (&p.nodes, &p.edges),
            (&nodes, &edges),
            "net `{}`",
            net.name()
        );
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

/// Deterministic line-level mutation of `base`: duplicate, drop, swap,
/// or splice hostile tokens between lines.
fn mutate_lines(base: &str, seed: u64, mutations: usize) -> String {
    let mut rng = TestRng::for_case("spef_mutate_lines", seed as u32);
    let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
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
        assert_total(&mutate_lines(FIXTURE, seed, n));
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

/// Separators a SPEF writer or a mangled transfer may put between
/// tokens: ASCII and Unicode whitespace, runs of it, and U+200B, which
/// is not whitespace and so joins its neighbours.
const SEPARATORS: &[&str] = &[
    "\t", "  ", " \t ", "\u{A0}", "\u{3000}", "\u{0B}", "\u{0C}", "\r", "\u{85}", "\u{2003}",
    "\u{200B}",
];

/// Line endings, some with a comment glued to the line's last token.
const LINE_ENDS: &[&str] = &[
    "\r\n",
    "//c\n",
    "//x\r\n",
    "//\u{E9}\n",
    " // note\n",
    "\n\n",
];

/// Deterministic respelling of the fixture: each space, line end and
/// `U` is kept or, with even odds, swapped for a random variant
/// (separators, CRLF and glued comments, non-ASCII names).
fn respell(seed: u64) -> String {
    let mut rng = TestRng::for_case("spef_respell", seed as u32);
    let mut out = String::new();
    let mut pick = |options: &[&'static str]| -> Option<&'static str> {
        if rng.next_below(2) == 0 {
            None
        } else {
            Some(options[rng.next_below(options.len() as u64) as usize])
        }
    };
    for c in FIXTURE.chars() {
        let variant = match c {
            ' ' => pick(SEPARATORS),
            '\n' => pick(LINE_ENDS),
            'U' => pick(&["Ü", "Ω", "\u{4E0A}"]),
            _ => None,
        };
        match variant {
            Some(v) => out.push_str(v),
            None => out.push(c),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn respellings_match_the_reference(seed in 0u64..1_000_000) {
        assert_total(&respell(seed));
    }
}

#[test]
fn spellings_of_the_fixture_parse_like_the_fixture() {
    let base = parse(FIXTURE).unwrap();
    for (what, text) in [
        ("CRLF", FIXTURE.replace('\n', "\r\n")),
        ("tabs", FIXTURE.replace(' ', "\t")),
        ("glued comment", FIXTURE.replace(" 8.0\n", " 8.0//x\n")),
        ("U+00A0", FIXTURE.replace(' ', "\u{A0}")),
        ("U+3000", FIXTURE.replace(' ', "\u{3000}")),
        (
            "vertical tab and form feed",
            FIXTURE.replace(' ', "\u{0B}\u{0C}"),
        ),
    ] {
        let doc = assert_total(&text).unwrap_or_else(|| panic!("{what} must parse"));
        assert_eq!(doc.nets, base.nets, "{what}");
    }
    let text = FIXTURE.replace("U4", "Ü4").replace("blk/net1", "блок/net1");
    let doc = assert_total(&text).expect("non-ASCII names parse");
    assert_eq!(doc.nets[1].name(), "блок/net1");
    assert_eq!(doc.nets[1].node(doc.nets[1].source()).name, "Ü4:Z");
}

fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64
}

fn render(nets: &[RcNet]) -> String {
    rcnet::spef::write(&rcnet::spef::SpefHeader::default(), nets)
}

/// wtbench's `design_spef` inputs: four AES-128 instances at scale
/// 0.004 (~370 nets of 6–36 nodes each), one document per instance.
fn design_documents(seed: u64) -> Vec<String> {
    let spec = netgen::paper_roster()
        .into_iter()
        .find(|d| d.name == "AES-128")
        .expect("AES-128 is in the paper roster");
    let cfg = netgen::NetConfig {
        nodes_min: 6,
        nodes_max: 36,
        ..Default::default()
    };
    (0..4)
        .map(|i| {
            render(&netgen::generate_design(&spec, 0.004, sub_seed(seed, i), cfg.clone()).nets)
        })
        .collect()
}

/// wtbench's `large_nets` inputs: 64 nets of 100 to 1000 nodes, every
/// third non-tree, in 16 documents of 4.
fn ladder_documents(seed: u64) -> Vec<String> {
    let nets: Vec<RcNet> = (0..64)
        .map(|i| {
            let n = 100 + 900 * i / 63;
            let cfg = netgen::NetConfig {
                nodes_min: n,
                nodes_max: n,
                ..Default::default()
            };
            netgen::NetGenerator::new(sub_seed(seed, i), cfg).net(format!("big{i}"), i % 3 == 0)
        })
        .collect();
    (0..16)
        .map(|g| {
            let mut idx = [g, 31 - g, 32 + g, 63 - g];
            idx.sort_unstable();
            render(&idx.map(|i| nets[i].clone()))
        })
        .collect()
}

#[test]
fn design_spef_documents_match_the_reference() {
    for seed in [2023, 7] {
        for text in design_documents(seed) {
            assert!(cut_lines(&text).len() > 8, "~690 KB: ten or more shards");
            let doc = assert_sharded(&text).expect("design documents parse");
            assert!(doc.nets.len() > 300);
            assert!(doc.nets.iter().any(|n| !n.is_tree()));
        }
    }
}

#[test]
fn large_nets_ladder_matches_the_reference() {
    for seed in [2023, 7] {
        for text in ladder_documents(seed) {
            assert_eq!(cut_lines(&text).len(), 2, "~146 KiB: two shards");
            let doc = assert_sharded(&text).expect("ladder documents parse");
            assert_eq!(doc.nets.len(), 4);
        }
    }
}

/// The parser's shard size. `parse` cuts a document at its first
/// `*D_NET` line, then at the first `*D_NET` line at or after every
/// `SHARD_BYTES` past the previous cut, where a `*D_NET` line is one
/// that starts with `*D_NET` and an ASCII space or tab.
const SHARD_BYTES: usize = 64 * 1024;

/// The 0-based indices of the lines `parse` cuts `text` at, by the rule
/// above.
fn cut_lines(text: &str) -> Vec<usize> {
    let mut cuts = Vec::new();
    let (mut at, mut next) = (0, 0);
    for (i, line) in text.split_inclusive('\n').enumerate() {
        let b = line.as_bytes();
        if at >= next && b.starts_with(b"*D_NET") && matches!(b.get(6), Some(b' ' | b'\t')) {
            cuts.push(i);
            next = at + SHARD_BYTES;
        }
        at += line.len();
    }
    cuts
}

/// `assert_total` with the shards parsed on 1, 2 and 4 pool lanes, the
/// pool forced on a 1-core host too: the result must not depend on how
/// many lanes parsed the shards, or in what order they finished.
fn assert_sharded(text: &str) -> Option<SpefDocument> {
    par::set_force_pool(true);
    let want = reference::parse(text);
    for threads in [2, 4] {
        par::set_threads(threads);
        assert_same(text, &parse(text), &want);
    }
    par::set_threads(1);
    assert_total(text)
}

/// FIXTURE's preamble, then its two nets repeated over three and a half
/// shards of sections: four shards, each opening on a `*D_NET` line.
fn sharded_fixture() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let (preamble, nets) = FIXTURE.split_at(FIXTURE.find("*D_NET").unwrap());
        let mut text = preamble.to_string();
        while text.len() < preamble.len() + 3 * SHARD_BYTES + SHARD_BYTES / 2 {
            text.push_str(nets);
        }
        text
    })
}

fn lines_of(text: &str) -> Vec<String> {
    text.lines().map(str::to_string).collect()
}

fn joined(lines: &[String]) -> String {
    lines.iter().flat_map(|l| [l.as_str(), "\n"]).collect()
}

#[test]
fn sharded_fixture_matches_the_reference() {
    let text = sharded_fixture();
    assert_eq!(cut_lines(text).len(), 4);
    let doc = assert_sharded(text).expect("the repeated fixture parses");
    assert_eq!(doc.nets.len(), 2 * text.matches("*D_NET *1 ").count());
    // Every shard reads the preamble's units, not the defaults.
    let units = text.replacen("*C_UNIT 1 FF", "*C_UNIT 1 PF", 1).replacen(
        "*R_UNIT 1 OHM",
        "*R_UNIT 2 KOHM",
        1,
    );
    let scaled = assert_sharded(&units).expect("other units parse");
    let (a, b) = (
        &scaled.nets[doc.nets.len() - 1],
        &doc.nets[doc.nets.len() - 1],
    );
    assert!((a.total_res().value() / b.total_res().value() / 2000.0 - 1.0).abs() < 1e-12);
    assert!((a.total_cap().value() / b.total_cap().value() / 1000.0 - 1.0).abs() < 1e-12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Duplicated, dropped and swapped lines and hostile tokens at random
    /// lines of any shard.
    #[test]
    fn sharded_line_mutations_match_the_reference(seed in 0u64..1_000_000, n in 1usize..16) {
        assert_sharded(&mutate_lines(sharded_fixture(), seed, n));
    }
}

/// Header keywords and a `*NAME_MAP` block after the first `*D_NET` of a
/// middle shard, inside its first net and right after it. Each changes
/// how the lines after it read, so the parse must finish serially from
/// that shard's start.
#[test]
fn state_changes_in_a_middle_shard_match_the_reference() {
    let base = lines_of(sharded_fixture());
    let cut = cut_lines(sharded_fixture())[2];
    let first_end = cut + base[cut..].iter().position(|l| l == "*END").unwrap();
    for block in [
        "*C_UNIT 1 PF",
        "*R_UNIT 2 KOHM",
        "*T_UNIT 1 NS",
        "*DESIGN \"renamed\"",
        "*DIVIDER .",
        "*DELIMITER :",
        "*DELIMITER /",
        "*NAME_MAP\n*1 moved/net0\n*5 U9",
        "*C_UNIT 1 XF",
    ] {
        for at in [cut + 3, first_end + 1] {
            let mut lines = base.clone();
            lines.insert(at, block.to_string());
            let text = joined(&lines);
            let cuts = cut_lines(&text);
            assert!(
                cuts[1] < cut && cut < at && at < cuts[3],
                "{block:?} in a middle shard"
            );
            assert_sharded(&text);
        }
    }
    // The change reaches every net after it: a later net's capacitance
    // reads 1000 times the original's.
    let mut lines = base.clone();
    lines.insert(first_end + 1, "*C_UNIT 1 PF".into());
    let doc = assert_sharded(&joined(&lines)).expect("a unit change parses");
    let plain = parse(sharded_fixture()).unwrap();
    let ratio = |i: usize| doc.nets[i].total_cap().value() / plain.nets[i].total_cap().value();
    assert_eq!(ratio(0), 1.0);
    assert!((ratio(doc.nets.len() - 1) / 1000.0 - 1.0).abs() < 1e-12);
}

/// A net left open right before each cut, the first one included,
/// fails at the next shard's first line, the `*D_NET` there, as one pass
/// fails; the last net left open is unterminated at the last line.
#[test]
fn a_missing_end_before_a_cut_fails_at_the_cut() {
    let base = lines_of(sharded_fixture());
    let cuts = cut_lines(sharded_fixture());
    let unclosed = |end: usize| {
        let mut lines = base.clone();
        // Same length as `*END`, so every cut stays where it was.
        lines[end] = "//EN".into();
        let text = joined(&lines);
        assert_eq!(cut_lines(&text), cuts);
        assert_sharded(&text);
        parse(&text).unwrap_err()
    };
    for &cut in &cuts[1..] {
        let end = (0..cut).rev().find(|&i| base[i] == "*END").unwrap();
        assert_eq!(
            unclosed(end),
            RcNetError::SpefParse {
                line: cut + 1,
                message: "*D_NET before previous *END".into(),
            }
        );
    }
    // The same before the first cut: after a leading space a `*D_NET`
    // line is no cut line, so its net opens in the preamble.
    let mut lines = base.clone();
    lines[cuts[0]].insert(0, ' ');
    let end = cuts[0] + base[cuts[0]..].iter().position(|l| l == "*END").unwrap();
    lines[end] = "//EN".into();
    let text = joined(&lines);
    let first = cut_lines(&text)[0];
    assert!(first > end);
    assert_sharded(&text);
    assert_eq!(
        parse(&text).unwrap_err(),
        RcNetError::SpefParse {
            line: first + 1,
            message: "*D_NET before previous *END".into(),
        }
    );
    let last = base.iter().rposition(|l| l == "*END").unwrap();
    assert_eq!(
        unclosed(last),
        RcNetError::SpefParse {
            line: base.len(),
            message: "unterminated *D_NET (missing *END)".into(),
        }
    );
}

/// A state change in the second shard and an error in the last: the
/// serial finish from the second shard must meet the error at its line.
/// The name-map case also uses the new entry in the last shard before
/// the error, which the preamble's map alone would reject.
#[test]
fn an_error_in_the_last_shard_after_a_state_change_matches_the_reference() {
    let base = lines_of(sharded_fixture());
    let cut = cut_lines(sharded_fixture())[1];
    let first_end = cut + base[cut..].iter().position(|l| l == "*END").unwrap();
    for (change, edits) in [
        ("*C_UNIT 1 PF", &[("2 *1:1 *3:A 8.0", "2 *1:1 *3:A")][..]),
        (
            "*NAME_MAP\n*5 U5",
            &[
                ("*I U4:Z O", "*I *5:Z O"),
                ("1 U4:Z U5:B 6.5", "1 *6:Z U5:B 6.5"),
            ][..],
        ),
    ] {
        let mut lines = base.clone();
        lines.insert(first_end + 1, change.to_string());
        let last_cut = *cut_lines(&joined(&lines)).last().unwrap();
        for (from, to) in edits {
            let at = last_cut + lines[last_cut..].iter().position(|l| l == from).unwrap();
            lines[at] = to.to_string();
        }
        let text = joined(&lines);
        assert_eq!(*cut_lines(&text).last().unwrap(), last_cut);
        assert_sharded(&text);
        match parse(&text) {
            Err(RcNetError::SpefParse { line, .. }) => assert!(line > last_cut, "{change:?}"),
            other => panic!("{change:?}: expected an error in the last shard, got {other:?}"),
        }
    }
}

/// A rewrite of one line.
type Respell = fn(&str) -> String;

/// CRLF and Unicode respellings of a cut line and the two lines on
/// either side of it. Some keep the cut; others move it, because a
/// `*D_NET` line followed by U+00A0, a carriage return or after a
/// leading space is no cut line, though it still opens a net.
#[test]
fn respelled_lines_around_a_cut_match_the_reference() {
    let base = lines_of(sharded_fixture());
    let cuts = cut_lines(sharded_fixture());
    let respellings: [(&str, Respell); 8] = [
        ("CRLF", |l| format!("{l}\r")),
        ("tab", |l| l.replacen(' ', "\t", 1)),
        ("U+00A0", |l| l.replacen(' ', "\u{A0}", 1)),
        ("U+3000", |l| l.replace(' ', "\u{3000}")),
        ("CR separator", |l| l.replacen(' ', "\r", 1)),
        ("leading space", |l| format!(" {l}")),
        ("glued comment", |l| format!("{l}//\u{E9}")),
        ("non-ASCII net name", |l| {
            l.replace("*D_NET *", "*D_NET \u{DC}")
        }),
    ];
    let nets = parse(sharded_fixture()).unwrap().nets.len();
    for cut in [cuts[1], cuts[3]] {
        for (what, respell) in respellings {
            let mut lines = base.clone();
            for l in &mut lines[cut - 2..=cut + 2] {
                *l = respell(l);
            }
            let doc = assert_sharded(&joined(&lines));
            let doc = doc.unwrap_or_else(|| panic!("{what} at line {cut} must parse"));
            assert_eq!(doc.nets.len(), nets, "{what}");
        }
    }
}
