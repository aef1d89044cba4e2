//! Line-oriented SPEF subset parser: one pass over the text, with every
//! token borrowed from it, or one pass per shard of a large document on
//! the `par` pool.

use crate::{Farads, Ohms, RcNet, RcNetBuilder, RcNetError};
use std::borrow::Cow;
use std::collections::HashMap;

/// Header fields of a SPEF document that affect interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct SpefHeader {
    /// Design name from `*DESIGN`.
    pub design: String,
    /// Hierarchy divider character from `*DIVIDER`.
    pub divider: char,
    /// Pin delimiter character from `*DELIMITER`.
    pub delimiter: char,
    /// Multiplier converting file time values to seconds.
    pub time_scale: f64,
    /// Multiplier converting file capacitance values to farads.
    pub cap_scale: f64,
    /// Multiplier converting file resistance values to ohms.
    pub res_scale: f64,
}

impl Default for SpefHeader {
    fn default() -> Self {
        SpefHeader {
            design: String::new(),
            divider: '/',
            delimiter: ':',
            time_scale: 1e-12,
            cap_scale: 1e-15,
            res_scale: 1.0,
        }
    }
}

/// A parsed SPEF document: the header plus one validated [`RcNet`] per
/// `*D_NET` section.
#[derive(Debug, Clone)]
pub struct SpefDocument {
    /// Interpreted header fields.
    pub header: SpefHeader,
    /// Parasitic networks in file order.
    pub nets: Vec<RcNet>,
}

fn err(line: usize, message: impl Into<String>) -> RcNetError {
    RcNetError::SpefParse {
        line,
        message: message.into(),
    }
}

fn unit_scale(line_no: usize, value: &str, unit: &str, kind: char) -> Result<f64, RcNetError> {
    let v: f64 = value
        .parse()
        .map_err(|_| err(line_no, format!("bad unit multiplier `{value}`")))?;
    let base = match (kind, unit.to_ascii_uppercase().as_str()) {
        ('t', "S") => 1.0,
        ('t', "MS") => 1e-3,
        ('t', "US") => 1e-6,
        ('t', "NS") => 1e-9,
        ('t', "PS") => 1e-12,
        ('c', "F") => 1.0,
        ('c', "PF") => 1e-12,
        ('c', "FF") => 1e-15,
        ('r', "OHM") => 1.0,
        ('r', "KOHM") => 1e3,
        _ => return Err(err(line_no, format!("unsupported unit `{unit}`"))),
    };
    Ok(v * base)
}

/// Resolves a node token to its name: the token itself, or for a
/// `*<idx>` name-map reference, optionally with a `<delimiter><pin>`
/// suffix as in `*12:3`, the mapped name plus suffix, written into `buf`.
fn resolve<'t>(
    token: &'t str,
    map: &HashMap<u64, &str>,
    delimiter: char,
    line_no: usize,
    buf: &'t mut String,
) -> Result<&'t str, RcNetError> {
    let Some(rest) = token.strip_prefix('*') else {
        return Ok(token);
    };
    let (idx_str, suffix) = match rest.find(delimiter) {
        Some(pos) => (&rest[..pos], &rest[pos..]),
        None => (rest, ""),
    };
    let idx: u64 = idx_str
        .parse()
        .map_err(|_| err(line_no, format!("bad name-map reference `{token}`")))?;
    let name = map
        .get(&idx)
        .ok_or_else(|| err(line_no, format!("unknown name-map index *{idx}")))?;
    buf.clear();
    buf.push_str(name);
    buf.push_str(suffix);
    Ok(buf)
}

/// Byte classes of the line scanner.
const TOKEN: u8 = 0;
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const SLASH: u8 = 3;
const WIDE: u8 = 4;

/// The class of every byte: the ASCII bytes `char::is_whitespace`
/// accepts other than the line feed (tab, vertical tab, form feed,
/// carriage return, space) are [`SPACE`], every byte of a multi-byte
/// character is [`WIDE`].
const CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'\n' => NEWLINE,
            b'\t' | 0x0B | 0x0C | b'\r' | b' ' => SPACE,
            b'/' => SLASH,
            0x80..=0xFF => WIDE,
            _ => TOKEN,
        };
        b += 1;
    }
    class
};

/// The tokens of one line up to a `//` comment, borrowed from the text.
/// No entry reads past its fourth token, so only four are kept, while
/// `len` counts them all.
struct Tokens<'a> {
    first: [&'a str; 4],
    len: usize,
}

impl<'a> Tokens<'a> {
    fn new() -> Self {
        Tokens {
            first: [""; 4],
            len: 0,
        }
    }

    fn push(&mut self, token: &'a str) {
        if let Some(slot) = self.first.get_mut(self.len) {
            *slot = token;
        }
        self.len += 1;
    }
}

/// The text's lines as `str::lines` splits them, each split into tokens
/// as `split_whitespace` splits it, up to the first `//`: one pass over
/// the bytes of ASCII lines. A line with any other byte before its
/// comment goes through `split_whitespace` itself, so Unicode whitespace
/// splits tokens there too.
struct Lines<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Lines<'a> {
    /// Index of the first line feed at or after `from`, or the text's end.
    fn line_end(&self, from: usize) -> usize {
        let bytes = &self.text.as_bytes()[from..];
        from + bytes
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(bytes.len())
    }

    /// The tokens of the line starting at `line_start`, which holds a
    /// multi-byte character at `wide`.
    fn unicode_line(&mut self, line_start: usize, wide: usize) -> Tokens<'a> {
        let end = self.line_end(wide);
        self.pos = end + 1;
        let line = &self.text[line_start..end];
        let code = line.find("//").map_or(line, |pos| &line[..pos]);
        let mut tokens = Tokens::new();
        code.split_whitespace().for_each(|t| tokens.push(t));
        tokens
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = Tokens<'a>;

    fn next(&mut self) -> Option<Tokens<'a>> {
        let bytes = self.text.as_bytes();
        let class = |i: usize| bytes.get(i).map_or(NEWLINE, |&b| CLASS[usize::from(b)]);
        let comment = |i: usize| bytes.get(i..i + 2) == Some(b"//");
        let line_start = self.pos;
        if line_start >= bytes.len() {
            return None;
        }
        let mut tokens = Tokens::new();
        let mut i = line_start;
        loop {
            while class(i) == SPACE {
                i += 1;
            }
            match class(i) {
                NEWLINE => break,
                WIDE => return Some(self.unicode_line(line_start, i)),
                SLASH if comment(i) => {
                    i = self.line_end(i);
                    break;
                }
                _ => {}
            }
            // A token: up to whitespace, a line end or a `//`.
            let start = i;
            i += 1;
            while class(i) == TOKEN || (class(i) == SLASH && !comment(i)) {
                i += 1;
            }
            if class(i) == WIDE {
                return Some(self.unicode_line(line_start, i));
            }
            tokens.push(&self.text[start..i]);
        }
        self.pos = i + 1;
        Some(tokens)
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Section {
    Preamble,
    NameMap,
    NetConn,
    NetCap,
    NetRes,
}

/// Bytes of `*D_NET` sections per shard: a document is cut at its first
/// `*D_NET` line, then at the first one at or after every `SHARD_BYTES`
/// past the previous cut.
const SHARD_BYTES: usize = 64 * 1024;

/// The first line start at or after `at` whose line begins with `*D_NET`
/// and an ASCII space or tab. Both tokenizers read such a line's first
/// token as the `*D_NET` keyword, whatever follows.
fn next_cut(text: &[u8], mut at: usize) -> Option<usize> {
    while at < text.len() {
        if at == 0 || text[at - 1] == b'\n' {
            let line = &text[at..];
            if line.starts_with(b"*D_NET") && matches!(line.get(6), Some(b' ' | b'\t')) {
                return Some(at);
            }
        }
        at += text[at..].iter().position(|&b| b == b'\n')? + 1;
    }
    None
}

/// The byte offsets where the shards of `text` start: the first `*D_NET`
/// line, then the first one at or after every [`SHARD_BYTES`] past the
/// previous cut.
fn cuts(text: &str) -> Vec<usize> {
    let mut cuts = Vec::new();
    let mut from = 0;
    while let Some(cut) = next_cut(text.as_bytes(), from) {
        cuts.push(cut);
        from = cut + SHARD_BYTES;
    }
    cuts
}

/// Lines read and entries parsed, added to the `rcnet.spef.*` counters
/// once per document.
#[derive(Default, Clone, Copy)]
struct Counts {
    lines: usize,
    caps: u64,
    res: u64,
}

/// How a run of the line loop ends when it meets no error.
enum End {
    /// At the end of its text.
    Done,
    /// In a shard, at a line that would change the header or the name
    /// map: the parse finishes serially from the shard's start.
    Restart,
}

/// What the line loop carries from one text to the next: the header and
/// name map it reads, the nets it built and its counts. A shard borrows
/// the header and name map of the preamble; a serial run owns them.
/// The section and the open net stay inside one run: a text starts at
/// the document's start or at a `*D_NET` line, which sets the section
/// and opens a net whatever came before it, and a net left open before
/// it is the earlier text's error.
#[derive(Default)]
struct Parser<'t, 's> {
    header: Cow<'s, SpefHeader>,
    name_map: Cow<'s, HashMap<u64, &'t str>>,
    nets: Vec<RcNet>,
    counts: Counts,
}

/// `e` with its line moved `by` lines down.
fn shifted(e: RcNetError, by: usize) -> RcNetError {
    match e {
        RcNetError::SpefParse { line, message } => RcNetError::SpefParse {
            line: line + by,
            message,
        },
        other => other,
    }
}

/// Parses a SPEF document from text.
///
/// Supports the header, `*NAME_MAP`, and `*D_NET` sections with `*CONN`,
/// `*CAP` (ground and coupling) and `*RES`. `//` comments and blank lines
/// are skipped anywhere. Tokens are borrowed from the text, and a node
/// name is copied only for a node its net has not seen.
///
/// A document with over 64 KiB of `*D_NET` sections is cut into shards
/// at `*D_NET` lines, which parse on the `par` pool after the preamble
/// and give the same document or the same first error as one pass; a
/// smaller document is one pass on the calling thread.
///
/// # Errors
///
/// Returns [`RcNetError::SpefParse`] with a line number on malformed input,
/// and [`RcNetError::InvalidNet`] when a `*D_NET` section fails RC-net
/// validation (e.g. no driver connection).
pub fn parse(text: &str) -> Result<SpefDocument, RcNetError> {
    let _span = obs::span("spef_parse");
    let cuts = cuts(text);
    let (result, mut counts) = if cuts.len() < 2 {
        Parser::default().finish(text)
    } else {
        parse_shards(text, &cuts)
    };
    if result.is_err() {
        // The parse stopped at the failing line; count the rest too.
        counts.lines = text.lines().count();
    }
    obs::counter("rcnet.spef.shards").add(cuts.len().max(1) as u64);
    obs::counter("rcnet.spef.lines").add(counts.lines as u64);
    obs::counter("rcnet.spef.caps").add(counts.caps);
    obs::counter("rcnet.spef.res").add(counts.res);
    match &result {
        Ok(doc) => obs::counter("rcnet.spef.nets").add(doc.nets.len() as u64),
        Err(e) => {
            obs::counter("rcnet.spef.parse_errors").inc();
            obs::event!(
                obs::Level::Warn,
                "rcnet.spef",
                "SPEF parse failed",
                error = e.to_string(),
            );
        }
    }
    result
}

/// Parses a document cut at `cuts` (two or more): the preamble before the
/// first cut serially, the shards on the `par` pool from the preamble's
/// header and name map, then their nets into one document in shard
/// order. The first shard that fails or restarts decides the rest: the
/// shards before it finished, and none of them changed the state.
fn parse_shards(text: &str, cuts: &[usize]) -> (Result<SpefDocument, RcNetError>, Counts) {
    let mut doc = Parser::default();
    if let Err(e) = parse_lines(&text[..cuts[0]], &mut doc, false, false) {
        return (Err(e), doc.counts);
    }
    let ends = cuts[1..].iter().copied().chain([text.len()]);
    let ranges: Vec<(usize, usize)> = cuts.iter().copied().zip(ends).collect();
    let shards = par::par_map("spef.shard", &ranges, |&(start, end)| {
        let mut shard = Parser {
            header: Cow::Borrowed(&*doc.header),
            name_map: Cow::Borrowed(&*doc.name_map),
            ..Parser::default()
        };
        let ended = parse_lines(&text[start..end], &mut shard, true, end == text.len());
        (shard.nets, shard.counts, ended)
    });
    for ((nets, counts, ended), &(start, _)) in shards.into_iter().zip(&ranges) {
        match ended {
            Ok(End::Done) => {
                doc.nets.extend(nets);
                doc.counts.lines += counts.lines;
                doc.counts.caps += counts.caps;
                doc.counts.res += counts.res;
            }
            Ok(End::Restart) => return doc.finish(&text[start..]),
            Err(e) => {
                doc.counts.caps += counts.caps;
                doc.counts.res += counts.res;
                return (Err(shifted(e, doc.counts.lines)), doc.counts);
            }
        }
    }
    // Every shard done: nothing is left to read.
    doc.finish("")
}

impl<'t> Parser<'t, '_> {
    /// Runs the line loop over `text`, the rest of the document, and
    /// returns the document with the counts.
    fn finish(mut self, text: &'t str) -> (Result<SpefDocument, RcNetError>, Counts) {
        let result = parse_lines(text, &mut self, false, true).map(|_| SpefDocument {
            header: self.header.into_owned(),
            nets: self.nets,
        });
        (result, self.counts)
    }
}

/// Runs the line loop over `text`, whole lines of the document, from
/// `state`; line numbers go on from its `counts.lines`. A `shard` stops
/// at a line that would change the header or the name map. A
/// `*D_NET` still open at the end is unterminated in the `last` text;
/// before a later text, it meets that text's first line, a `*D_NET`.
fn parse_lines<'t>(
    text: &'t str,
    state: &mut Parser<'t, '_>,
    shard: bool,
    last: bool,
) -> Result<End, RcNetError> {
    let Parser {
        header,
        name_map,
        nets,
        counts,
    } = state;
    let mut section = Section::Preamble;
    let mut builder: Option<RcNetBuilder> = None;
    // Resolved name-map references; two, for the entries naming two nodes.
    let (mut buf_a, mut buf_b) = (String::new(), String::new());

    for line in (Lines { text, pos: 0 }) {
        counts.lines += 1;
        let line_no = counts.lines;
        if line.len == 0 {
            continue;
        }
        let tokens = &line.first[..line.len.min(4)];
        let keyword = tokens[0];

        if keyword.starts_with('*') {
            match keyword {
                "*SPEF" | "*DATE" | "*VENDOR" | "*PROGRAM" | "*VERSION" | "*DESIGN_FLOW"
                | "*BUS_DELIMITER" | "*L_UNIT" => continue,
                "*DESIGN" | "*DIVIDER" | "*DELIMITER" | "*T_UNIT" | "*C_UNIT" | "*R_UNIT"
                | "*NAME_MAP"
                    if shard =>
                {
                    return Ok(End::Restart)
                }
                "*DESIGN" => {
                    header.to_mut().design = tokens
                        .get(1)
                        .map(|s| s.trim_matches('"').to_string())
                        .unwrap_or_default();
                    continue;
                }
                "*DIVIDER" => {
                    header.to_mut().divider = tokens
                        .get(1)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| err(line_no, "missing divider"))?;
                    continue;
                }
                "*DELIMITER" => {
                    header.to_mut().delimiter = tokens
                        .get(1)
                        .and_then(|s| s.chars().next())
                        .ok_or_else(|| err(line_no, "missing delimiter"))?;
                    continue;
                }
                "*T_UNIT" => {
                    if line.len < 3 {
                        return Err(err(line_no, "malformed *T_UNIT"));
                    }
                    header.to_mut().time_scale = unit_scale(line_no, tokens[1], tokens[2], 't')?;
                    continue;
                }
                "*C_UNIT" => {
                    if line.len < 3 {
                        return Err(err(line_no, "malformed *C_UNIT"));
                    }
                    header.to_mut().cap_scale = unit_scale(line_no, tokens[1], tokens[2], 'c')?;
                    continue;
                }
                "*R_UNIT" => {
                    if line.len < 3 {
                        return Err(err(line_no, "malformed *R_UNIT"));
                    }
                    header.to_mut().res_scale = unit_scale(line_no, tokens[1], tokens[2], 'r')?;
                    continue;
                }
                "*NAME_MAP" => {
                    section = Section::NameMap;
                    continue;
                }
                "*D_NET" => {
                    if builder.is_some() {
                        return Err(err(line_no, "*D_NET before previous *END"));
                    }
                    if line.len < 2 {
                        return Err(err(line_no, "malformed *D_NET"));
                    }
                    let name = resolve(tokens[1], name_map, header.delimiter, line_no, &mut buf_a)?;
                    builder = Some(RcNetBuilder::new(name));
                    section = Section::NetConn;
                    continue;
                }
                "*CONN" => {
                    section = Section::NetConn;
                    continue;
                }
                "*CAP" => {
                    section = Section::NetCap;
                    continue;
                }
                "*RES" => {
                    section = Section::NetRes;
                    continue;
                }
                "*END" => {
                    let b = builder
                        .take()
                        .ok_or_else(|| err(line_no, "*END outside *D_NET"))?;
                    nets.push(b.build()?);
                    section = Section::Preamble;
                    continue;
                }
                _ => {}
            }
        }

        match section {
            Section::NameMap => {
                // "*<idx> <name>"
                let idx_str = keyword
                    .strip_prefix('*')
                    .ok_or_else(|| err(line_no, "name-map entry must start with `*`"))?;
                let idx: u64 = idx_str
                    .parse()
                    .map_err(|_| err(line_no, format!("bad name-map index `{keyword}`")))?;
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err(line_no, "name-map entry missing name"))?;
                name_map.to_mut().insert(idx, *name);
            }
            Section::NetConn => {
                // "*I <pin> <dir>" or "*P <port> <dir>"
                if keyword != "*I" && keyword != "*P" {
                    return Err(err(
                        line_no,
                        format!("unexpected token `{keyword}` in *CONN"),
                    ));
                }
                if line.len < 3 {
                    return Err(err(line_no, "malformed connection entry"));
                }
                let pin = resolve(tokens[1], name_map, header.delimiter, line_no, &mut buf_a)?;
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "connection outside *D_NET"))?;
                match tokens[2] {
                    // Direction is the pin's own direction: a cell output
                    // drives the net, a cell input loads it.
                    "O" => {
                        b.source(pin, Farads(0.0));
                    }
                    "I" => {
                        b.sink(pin, Farads(0.0));
                    }
                    "B" => {
                        // Bidirectional: treat as a sink for timing purposes.
                        b.sink(pin, Farads(0.0));
                    }
                    d => return Err(err(line_no, format!("unknown pin direction `{d}`"))),
                }
            }
            Section::NetCap => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "*CAP entry outside *D_NET"))?;
                match line.len {
                    // "<id> <node> <cap>": ground capacitance
                    3 => {
                        let node =
                            resolve(tokens[1], name_map, header.delimiter, line_no, &mut buf_a)?;
                        let cap: f64 = tokens[2].parse().map_err(|_| {
                            err(line_no, format!("bad capacitance `{}`", tokens[2]))
                        })?;
                        let id = b.node_or_insert(node);
                        b.set_cap(id, Farads(cap * header.cap_scale));
                    }
                    // "<id> <node> <other_node> <cap>": coupling capacitance
                    4 => {
                        let node =
                            resolve(tokens[1], name_map, header.delimiter, line_no, &mut buf_a)?;
                        let other =
                            resolve(tokens[2], name_map, header.delimiter, line_no, &mut buf_b)?;
                        let cap: f64 = tokens[3].parse().map_err(|_| {
                            err(line_no, format!("bad capacitance `{}`", tokens[3]))
                        })?;
                        let id = b.node_or_insert(node);
                        b.coupling(id, other, Farads(cap * header.cap_scale));
                    }
                    _ => return Err(err(line_no, "malformed *CAP entry")),
                }
                counts.caps += 1;
            }
            Section::NetRes => {
                if line.len != 4 {
                    return Err(err(line_no, "malformed *RES entry"));
                }
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "*RES entry outside *D_NET"))?;
                let n1 = resolve(tokens[1], name_map, header.delimiter, line_no, &mut buf_a)?;
                let n2 = resolve(tokens[2], name_map, header.delimiter, line_no, &mut buf_b)?;
                let res: f64 = tokens[3]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad resistance `{}`", tokens[3])))?;
                let a = b.node_or_insert(n1);
                let bb = b.node_or_insert(n2);
                b.resistor(a, bb, Ohms(res * header.res_scale));
                counts.res += 1;
            }
            Section::Preamble => {
                return Err(err(line_no, format!("unexpected token `{keyword}`")));
            }
        }
    }
    match builder {
        None => Ok(End::Done),
        Some(_) if last => Err(err(counts.lines, "unterminated *D_NET (missing *END)")),
        Some(_) => Err(err(counts.lines + 1, "*D_NET before previous *END")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeKind;

    const SIMPLE: &str = r#"
*SPEF "IEEE 1481-1998"
*DESIGN "demo"
*DATE "today"
*VENDOR "oss"
*PROGRAM "netgen"
*VERSION "1.0"
*DIVIDER /
*DELIMITER :
*T_UNIT 1 NS
*C_UNIT 1 FF
*R_UNIT 1 OHM

*NAME_MAP
*1 net42
*2 U7
*3 U9

*D_NET *1 3.0
*CONN
*I *2:Z O
*I *3:A I
*CAP
1 *1:1 1.5     // internal node cap
2 *3:A 1.5
3 *1:1 agg:4 0.25
*RES
1 *2:Z *1:1 12.0
2 *1:1 *3:A 8.0
*END
"#;

    #[test]
    fn byte_classes_follow_char_is_whitespace() {
        for b in 0..=255u8 {
            let expected = match b {
                b'\n' => NEWLINE,
                b'/' => SLASH,
                0x80.. => WIDE,
                _ if char::from(b).is_whitespace() => SPACE,
                _ => TOKEN,
            };
            assert_eq!(CLASS[usize::from(b)], expected, "byte {b:#04x}");
        }
    }

    #[test]
    fn parses_header_units() {
        let doc = parse(SIMPLE).unwrap();
        assert_eq!(doc.header.design, "demo");
        assert_eq!(doc.header.time_scale, 1e-9);
        assert_eq!(doc.header.cap_scale, 1e-15);
        assert_eq!(doc.header.res_scale, 1.0);
    }

    #[test]
    fn parses_net_structure() {
        let doc = parse(SIMPLE).unwrap();
        assert_eq!(doc.nets.len(), 1);
        let net = &doc.nets[0];
        assert_eq!(net.name(), "net42");
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.edge_count(), 2);
        assert_eq!(net.node(net.source()).name, "U7:Z");
        assert_eq!(net.node(net.source()).kind, NodeKind::Source);
        assert_eq!(net.sinks().len(), 1);
        assert_eq!(net.couplings().len(), 1);
        assert_eq!(net.couplings()[0].aggressor, "agg:4");
        assert!((net.couplings()[0].cap.femto_farads() - 0.25).abs() < 1e-9);
        let internal = net.node_by_name("net42:1").unwrap();
        assert!((net.node(internal).cap.femto_farads() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn name_map_is_optional() {
        let text = r#"
*SPEF "IEEE 1481-1998"
*DELIMITER :
*C_UNIT 1 FF
*R_UNIT 1 OHM
*D_NET plain 1.0
*CONN
*I d:Z O
*I l:A I
*CAP
1 l:A 1.0
*RES
1 d:Z l:A 5.0
*END
"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.nets[0].name(), "plain");
        assert_eq!(doc.nets[0].edge_count(), 1);
    }

    #[test]
    fn rejects_unknown_map_index() {
        let text = "*DELIMITER :\n*D_NET *9 1.0\n*END\n";
        let e = parse(text).unwrap_err();
        assert!(matches!(e, RcNetError::SpefParse { .. }));
    }

    #[test]
    fn rejects_unterminated_net() {
        let text = "*D_NET n 1.0\n*CONN\n*I a:Z O\n";
        assert!(parse(text).is_err());
    }

    #[test]
    fn rejects_bad_direction() {
        let text = "*D_NET n 1.0\n*CONN\n*I a:Z X\n*END\n";
        let e = parse(text).unwrap_err();
        match e {
            RcNetError::SpefParse { line, .. } => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn net_without_driver_fails_validation() {
        let text = r#"
*D_NET n 1.0
*CONN
*I l:A I
*CAP
1 l:A 1.0
*RES
1 l:A n:1 5.0
*END
"#;
        // n:1 becomes an internal node; the net has no source.
        assert!(matches!(parse(text), Err(RcNetError::InvalidNet(_))));
    }

    #[test]
    fn kohm_and_pf_units_scale() {
        let text = r#"
*C_UNIT 1 PF
*R_UNIT 1 KOHM
*D_NET n 1.0
*CONN
*I d:Z O
*I l:A I
*CAP
1 l:A 0.001
*RES
1 d:Z l:A 0.01
*END
"#;
        let doc = parse(text).unwrap();
        let net = &doc.nets[0];
        assert!((net.total_cap().value() - 1e-15).abs() < 1e-27);
        assert!((net.total_res().value() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multiple_nets_parse_in_order() {
        let text = r#"
*D_NET a 1.0
*CONN
*I d1:Z O
*I l1:A I
*CAP
1 l1:A 1.0
*RES
1 d1:Z l1:A 5.0
*END
*D_NET b 1.0
*CONN
*I d2:Z O
*I l2:A I
*CAP
1 l2:A 1.0
*RES
1 d2:Z l2:A 5.0
*END
"#;
        let doc = parse(text).unwrap();
        assert_eq!(doc.nets.len(), 2);
        assert_eq!(doc.nets[0].name(), "a");
        assert_eq!(doc.nets[1].name(), "b");
    }
}
