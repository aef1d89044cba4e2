//! Leveled structured events, written to stderr as
//! `[level target] message k=v ...` lines.
//!
//! The fast path is a single relaxed atomic load: when the event's level
//! is filtered out (e.g. `OBS_LEVEL=off`), [`emit`] returns before
//! touching any lock or allocation.

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};

/// Event severity. Ordered so that a smaller numeric value is more
/// severe; the global filter keeps events with `level <= filter`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Filter value only: no event passes.
    Off = 0,
    /// Unrecoverable or correctness-relevant problems.
    Error = 1,
    /// Suspicious conditions (rejected inputs, fallbacks taken).
    Warn = 2,
    /// High-level progress (per-run, per-stage).
    Info = 3,
    /// Per-iteration detail (per-epoch, per-net).
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    /// Lower-case name, as accepted by `OBS_LEVEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parses an `OBS_LEVEL` value; unknown strings return `None`.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Text.
    Str(String),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::I64(v) => write!(f, "{v}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<&String> for Value {
    fn from(v: &String) -> Self {
        Value::Str(v.clone())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(v as i64)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

// The level filter: a plain atomic so the disabled path never locks.
// `UNSET` marks "not yet initialized from OBS_LEVEL".
const UNSET: u8 = u8::MAX;
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);
/// Default filter when `OBS_LEVEL` is absent: warnings and errors only,
/// so tests and table binaries stay quiet unless something is wrong.
const DEFAULT_LEVEL: Level = Level::Warn;

#[cold]
fn init_level_from_env() -> u8 {
    let lvl = std::env::var("OBS_LEVEL")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(DEFAULT_LEVEL);
    // Racing initializers compute the same value; last store wins.
    LEVEL.store(lvl as u8, Ordering::Relaxed);
    lvl as u8
}

fn current_level() -> u8 {
    let v = LEVEL.load(Ordering::Relaxed);
    if v == UNSET {
        init_level_from_env()
    } else {
        v
    }
}

/// Whether events at `level` currently pass the filter. A single relaxed
/// atomic load once initialized — safe to call on hot paths.
#[inline]
pub fn enabled(level: Level) -> bool {
    level != Level::Off && (level as u8) <= current_level()
}

/// Overrides the filter programmatically (wins over `OBS_LEVEL`).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The stderr line of one event, without the newline.
fn render(level: Level, target: &str, message: &str, fields: &[(&str, Value)]) -> String {
    let mut line = format!("[{} {}] {}", level.as_str(), target, message);
    for (k, v) in fields {
        line.push(' ');
        line.push_str(k);
        line.push('=');
        line.push_str(&v.to_string());
    }
    line
}

/// Writes one structured event to stderr, if `level` passes the
/// filter. The disabled path takes no locks.
pub fn emit(level: Level, target: &str, message: &str, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    eprintln!("{}", render(level, target, message, fields));
}

/// Emits a leveled structured event: `event!(Level::Warn, "bench.harness",
/// "bad flag", flag = "--epochs", value = raw)`. Field values go through
/// `Value::from`. The level check happens before any field is evaluated.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled($level) {
            $crate::emit(
                $level,
                $target,
                $msg,
                &[$((stringify!($key), $crate::Value::from($val))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_round_trips() {
        for l in [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(l.as_str()), Some(l));
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("bogus"), None);
    }

    #[test]
    fn enabled_follows_level_order_and_off_passes_nothing() {
        let all = [
            Level::Off,
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ];
        for filter in all {
            set_level(filter);
            for level in all {
                let expect = level != Level::Off && level <= filter;
                assert_eq!(enabled(level), expect, "{level} under filter {filter}");
            }
        }
        set_level(DEFAULT_LEVEL);
    }

    #[test]
    fn event_line_is_level_target_message_fields() {
        let fields = [
            ("count", Value::from(3usize)),
            ("ratio", Value::from(0.5f64)),
            ("name", Value::from("x\"y")),
        ];
        assert_eq!(
            render(Level::Info, "obs.test", "hello", &fields),
            "[info obs.test] hello count=3 ratio=0.5 name=x\"y"
        );
        assert_eq!(render(Level::Warn, "a.b", "m", &[]), "[warn a.b] m");
        // The macro takes the same conversions; libtest captures the line.
        crate::event!(
            Level::Error,
            "obs.test",
            "hello",
            count = 3usize,
            ratio = 0.5f64,
            name = "x\"y",
        );
    }
}
