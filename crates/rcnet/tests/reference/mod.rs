//! The reference SPEF parser: the line parser `rcnet::spef::parse`
//! replaced, the same code apart from its metrics. It splits each line
//! into a `Vec<&str>`, copies every node token into a `String`, and
//! looks nodes up through `RcNetBuilder::node_by_name`. The tests hold
//! `rcnet::spef::parse` to it: equal documents, or equal errors.

use rcnet::spef::{SpefDocument, SpefHeader};
use rcnet::{Farads, Ohms, RcNetBuilder, RcNetError};
use std::collections::HashMap;

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

/// Resolves `*<idx>` name-map references inside a node token. Handles the
/// delimiter form `*12:3` (mapped name plus pin/sub-node suffix).
fn resolve(
    token: &str,
    map: &HashMap<u64, String>,
    delimiter: char,
    line_no: usize,
) -> Result<String, RcNetError> {
    if let Some(rest) = token.strip_prefix('*') {
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
        Ok(format!("{name}{suffix}"))
    } else {
        Ok(token.to_string())
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

/// Parses a SPEF document from text, line by line, with an owned
/// `String` per token.
pub fn parse(text: &str) -> Result<SpefDocument, RcNetError> {
    let mut header = SpefHeader::default();
    let mut name_map: HashMap<u64, String> = HashMap::new();
    let mut nets = Vec::new();
    let mut section = Section::Preamble;
    let mut builder: Option<RcNetBuilder> = None;

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = match raw.find("//") {
            Some(pos) => &raw[..pos],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let keyword = tokens[0];

        match keyword {
            "*SPEF" | "*DATE" | "*VENDOR" | "*PROGRAM" | "*VERSION" | "*DESIGN_FLOW"
            | "*BUS_DELIMITER" | "*L_UNIT" => continue,
            "*DESIGN" => {
                header.design = tokens
                    .get(1)
                    .map(|s| s.trim_matches('"').to_string())
                    .unwrap_or_default();
                continue;
            }
            "*DIVIDER" => {
                header.divider = tokens
                    .get(1)
                    .and_then(|s| s.chars().next())
                    .ok_or_else(|| err(line_no, "missing divider"))?;
                continue;
            }
            "*DELIMITER" => {
                header.delimiter = tokens
                    .get(1)
                    .and_then(|s| s.chars().next())
                    .ok_or_else(|| err(line_no, "missing delimiter"))?;
                continue;
            }
            "*T_UNIT" => {
                if tokens.len() < 3 {
                    return Err(err(line_no, "malformed *T_UNIT"));
                }
                header.time_scale = unit_scale(line_no, tokens[1], tokens[2], 't')?;
                continue;
            }
            "*C_UNIT" => {
                if tokens.len() < 3 {
                    return Err(err(line_no, "malformed *C_UNIT"));
                }
                header.cap_scale = unit_scale(line_no, tokens[1], tokens[2], 'c')?;
                continue;
            }
            "*R_UNIT" => {
                if tokens.len() < 3 {
                    return Err(err(line_no, "malformed *R_UNIT"));
                }
                header.res_scale = unit_scale(line_no, tokens[1], tokens[2], 'r')?;
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
                if tokens.len() < 2 {
                    return Err(err(line_no, "malformed *D_NET"));
                }
                let name = resolve(tokens[1], &name_map, header.delimiter, line_no)?;
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
                name_map.insert(idx, (*name).to_string());
            }
            Section::NetConn => {
                // "*I <pin> <dir>" or "*P <port> <dir>"
                if keyword != "*I" && keyword != "*P" {
                    return Err(err(
                        line_no,
                        format!("unexpected token `{keyword}` in *CONN"),
                    ));
                }
                if tokens.len() < 3 {
                    return Err(err(line_no, "malformed connection entry"));
                }
                let pin = resolve(tokens[1], &name_map, header.delimiter, line_no)?;
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
                match tokens.len() {
                    // "<id> <node> <cap>": ground capacitance
                    3 => {
                        let node = resolve(tokens[1], &name_map, header.delimiter, line_no)?;
                        let cap: f64 = tokens[2].parse().map_err(|_| {
                            err(line_no, format!("bad capacitance `{}`", tokens[2]))
                        })?;
                        let id = b
                            .node_by_name(&node)
                            .unwrap_or_else(|| b.internal(node, Farads(0.0)));
                        b.set_cap(id, Farads(cap * header.cap_scale));
                    }
                    // "<id> <node> <other_node> <cap>": coupling capacitance
                    4 => {
                        let node = resolve(tokens[1], &name_map, header.delimiter, line_no)?;
                        let other = resolve(tokens[2], &name_map, header.delimiter, line_no)?;
                        let cap: f64 = tokens[3].parse().map_err(|_| {
                            err(line_no, format!("bad capacitance `{}`", tokens[3]))
                        })?;
                        let id = b
                            .node_by_name(&node)
                            .unwrap_or_else(|| b.internal(node, Farads(0.0)));
                        b.coupling(id, other, Farads(cap * header.cap_scale));
                    }
                    _ => return Err(err(line_no, "malformed *CAP entry")),
                }
            }
            Section::NetRes => {
                if tokens.len() != 4 {
                    return Err(err(line_no, "malformed *RES entry"));
                }
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(line_no, "*RES entry outside *D_NET"))?;
                let n1 = resolve(tokens[1], &name_map, header.delimiter, line_no)?;
                let n2 = resolve(tokens[2], &name_map, header.delimiter, line_no)?;
                let res: f64 = tokens[3]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad resistance `{}`", tokens[3])))?;
                let a = b
                    .node_by_name(&n1)
                    .unwrap_or_else(|| b.internal(n1, Farads(0.0)));
                let bb = b
                    .node_by_name(&n2)
                    .unwrap_or_else(|| b.internal(n2, Farads(0.0)));
                b.resistor(a, bb, Ohms(res * header.res_scale));
            }
            Section::Preamble => {
                return Err(err(line_no, format!("unexpected token `{keyword}`")));
            }
        }
    }
    if builder.is_some() {
        return Err(err(
            text.lines().count(),
            "unterminated *D_NET (missing *END)",
        ));
    }
    Ok(SpefDocument { header, nets })
}
