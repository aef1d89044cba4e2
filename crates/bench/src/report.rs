//! The report writer of every `BENCH_*.json`.
//!
//! A report is one JSON object that opens with the same envelope
//! ([`report`]): `schema`, `host_cores` (the machine's cores, not the
//! pool's lanes), `kernel_tier` (the GEMM/softmax kernels CPUID chose)
//! and `smoke` (whether the bin's `--smoke` flag shrank the run;
//! always `false` for `compute` and `loadgen`, which have none). The
//! bin's own keys follow, each row built once as an [`Obj`].

use std::fmt::Write as _;

/// A value the writer can put under a key.
pub trait ToJson {
    /// Appends the value as JSON.
    fn push_json(&self, out: &mut String);
}

impl ToJson for f64 {
    /// A non-finite value becomes `null`.
    fn push_json(&self, out: &mut String) {
        obs::json::push_f64(out, *self);
    }
}

macro_rules! to_json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn push_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
to_json_display!(u64, u128, usize, bool);

impl ToJson for str {
    fn push_json(&self, out: &mut String) {
        obs::json::push_string(out, self);
    }
}

impl ToJson for String {
    fn push_json(&self, out: &mut String) {
        obs::json::push_string(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn push_json(&self, out: &mut String) {
        (**self).push_json(out);
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn push_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.push_json(out);
        }
        out.push(']');
    }
}

/// A JSON object, written key by key in the order they are put.
#[derive(Debug, Default, Clone)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// The object with `key: value` appended.
    pub fn put(mut self, key: &str, value: impl ToJson) -> Obj {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        obs::json::push_string(&mut self.0, key);
        self.0.push(':');
        value.push_json(&mut self.0);
        self
    }

    /// The object with `key: value` appended when there is a value.
    pub fn put_some(self, key: &str, value: Option<impl ToJson>) -> Obj {
        match value {
            Some(v) => self.put(key, v),
            None => self,
        }
    }

    /// The object's JSON text.
    fn render(&self) -> String {
        format!("{{{}}}", self.0)
    }

    /// Writes the object and a newline to `path`, and says so on
    /// stderr; exits 1 when the file cannot be written.
    pub fn write_to(&self, path: &str) {
        let bin = crate::flags::program();
        match std::fs::write(path, self.render() + "\n") {
            Ok(()) => eprintln!("{bin}: wrote {path}"),
            Err(e) => {
                eprintln!("{bin}: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

impl ToJson for Obj {
    fn push_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.0);
        out.push('}');
    }
}

/// A report's envelope, to which the bin puts its own keys.
pub fn report(schema: &str, smoke: bool) -> Obj {
    Obj::new()
        .put("schema", schema)
        .put("host_cores", par::host_parallelism())
        .put("kernel_tier", tensor::kernels::tier().name())
        .put("smoke", smoke)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serve::json::{parse, Json};

    #[test]
    fn reports_parse_and_open_with_the_envelope() {
        let row = |n: usize| Obj::new().put("n", n).put("s", n as f64 * 0.5);
        let obj = report("bench.test.v1", true)
            .put("rows", vec![row(1), row(2)])
            .put_some("absent", None::<f64>)
            .put_some("present", Some("x"));
        let text = obj.render();
        let json = parse(&text).expect("the report parses");
        for key in [
            "\"schema\"",
            "\"host_cores\"",
            "\"kernel_tier\"",
            "\"smoke\"",
        ] {
            assert!(
                text.starts_with("{\"schema\"") && text.contains(key),
                "{text}"
            );
        }
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some("bench.test.v1")
        );
        assert_eq!(json.get("smoke").and_then(Json::as_bool), Some(true));
        let cores = json.get("host_cores").and_then(Json::as_u64);
        assert_eq!(cores, Some(par::host_parallelism() as u64));
        let tier = json.get("kernel_tier").and_then(Json::as_str);
        assert_eq!(tier, Some(tensor::kernels::tier().name()));
        let Some(Json::Arr(rows)) = json.get("rows") else {
            panic!("rows is an array: {text}");
        };
        assert_eq!(rows[1].get("s").and_then(Json::as_f64), Some(1.0));
        assert!(json.get("absent").is_none());
        assert_eq!(json.get("present").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn non_finite_values_are_null_and_strings_escaped() {
        let text = Obj::new()
            .put("nan", f64::NAN)
            .put("inf", f64::INFINITY)
            .put("name", "a \"quoted\"\\path\n")
            .render();
        assert_eq!(
            text,
            r#"{"nan":null,"inf":null,"name":"a \"quoted\"\\path\n"}"#
        );
        let json = parse(&text).expect("the object parses");
        assert_eq!(json.get("nan"), Some(&Json::Null));
        let name = json.get("name").and_then(Json::as_str);
        assert_eq!(name, Some("a \"quoted\"\\path\n"));
    }
}
