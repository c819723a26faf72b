//! Small helpers over the vendored serde shim's [`Value`] tree, which is the
//! benchmark's only JSON representation (result lines, result files, trace
//! files, expected values).

use serde::{Number, Serialize, Value};

/// Lets a ready-made [`Value`] go through `serde_json`'s printers (the shim
/// implements `Serialize` for data types, not for `Value` itself).
struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Compact JSON text of `value`.
pub fn compact(value: &Value) -> String {
    serde_json::to_string(&Tree(value)).expect("a value tree always serialises")
}

/// Pretty-printed JSON text of `value`, with a trailing newline.
pub fn pretty(value: &Value) -> String {
    let mut text =
        serde_json::to_string_pretty(&Tree(value)).expect("a value tree always serialises");
    text.push('\n');
    text
}

pub fn float(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

pub fn int(x: u64) -> Value {
    Value::Number(Number::Int(x as i128))
}

/// The number in `value`, integer or float.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Number(Number::Int(i)) => Some(*i as f64),
        Value::Number(Number::Float(f)) => Some(*f),
        _ => None,
    }
}
