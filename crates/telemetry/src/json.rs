//! The one writer behind every `--json` artifact.
//!
//! Artifacts need a little more than a flat [`Event`]: ordered scalar
//! fields, a nested object (`outcomes`, a sketch summary), an array of
//! objects (`cells`) and an array of integers (`failed_seeds`) — and
//! nothing else, so that is all [`Json`] can hold. Scalars and strings go
//! through the same encoder as the JSONL wire
//! ([`Event::to_json`](crate::event::Event::to_json)), so a grid cell
//! built once as an [`Event`] reads the same in the stream and in the
//! artifact, and every string is escaped.
//!
//! [`JsonObject::render`] lays a document out the way the artifacts
//! always have: one top-level field per line, an array of objects one
//! element per line, everything nested inline with `", "` / `": "`
//! separators (CI greps `"report_digest": "…"`).

use crate::event::{push_json_scalar, push_json_string, Event, FieldValue};

/// One artifact value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A scalar (or `null`).
    Scalar(FieldValue),
    /// An array of unsigned integers.
    U64s(Vec<u64>),
    /// A nested object.
    Object(JsonObject),
    /// An array of objects.
    Objects(Vec<JsonObject>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Scalar(FieldValue::U64(v))
    }
}

impl From<f64> for Json {
    /// Non-finite values become `0.0`, as in [`Event::with_f64`].
    fn from(v: f64) -> Self {
        Json::Scalar(FieldValue::F64(if v.is_finite() { v } else { 0.0 }))
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Scalar(FieldValue::Bool(v))
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Scalar(FieldValue::Str(v.to_owned()))
    }
}

impl From<Vec<u64>> for Json {
    fn from(v: Vec<u64>) -> Self {
        Json::U64s(v)
    }
}

impl From<JsonObject> for Json {
    fn from(v: JsonObject) -> Self {
        Json::Object(v)
    }
}

impl From<Vec<JsonObject>> for Json {
    fn from(v: Vec<JsonObject>) -> Self {
        Json::Objects(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    /// `None` renders as `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Scalar(FieldValue::Null), Into::into)
    }
}

/// An object: named values in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject(Vec<(String, Json)>);

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fields of `event`, in order, without its `kind` tag.
    pub fn from_event(event: &Event) -> Self {
        JsonObject(
            event
                .fields()
                .iter()
                .map(|(k, v)| (k.clone(), Json::Scalar(v.clone())))
                .collect(),
        )
    }

    /// Appends a field.
    pub fn with(mut self, name: &str, value: impl Into<Json>) -> Self {
        self.0.push((name.to_owned(), value.into()));
        self
    }

    /// Renders the object as an artifact document (see the module docs
    /// for the layout), newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            push_json_string(&mut out, name);
            out.push_str(": ");
            match value {
                Json::Objects(items) if !items.is_empty() => {
                    out.push_str("[\n");
                    for (j, item) in items.iter().enumerate() {
                        if j > 0 {
                            out.push_str(",\n");
                        }
                        out.push_str("    ");
                        item.push_inline(&mut out);
                    }
                    out.push_str("\n  ]");
                }
                other => other.push_inline(&mut out),
            }
        }
        out.push_str("\n}\n");
        out
    }

    fn push_inline(&self, out: &mut String) {
        out.push('{');
        for (i, (name, value)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_string(out, name);
            out.push_str(": ");
            value.push_inline(out);
        }
        out.push('}');
    }
}

impl Json {
    fn push_inline(&self, out: &mut String) {
        match self {
            Json::Scalar(v) => push_json_scalar(out, v),
            Json::U64s(items) => {
                let items: Vec<String> = items.iter().map(u64::to_string).collect();
                out.push_str(&format!("[{}]", items.join(", ")));
            }
            Json::Object(object) => object.push_inline(out),
            Json::Objects(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.push_inline(out);
                }
                out.push(']');
            }
        }
    }
}

/// `x` rounded to `decimals` places: the artifacts' fixed-precision
/// floats (`mean`, `*_ms`) keep their value under the shortest
/// round-trip encoding.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_layout_matches_the_artifacts() {
        let cell = Event::new("cell")
            .with_str("protocol", "htlc")
            .with_opt_u64("budget", None)
            .with_bool("drained", true);
        let doc = JsonObject::new()
            .with("schema_version", 1u64)
            .with("outcomes", JsonObject::new().with("success", 2u64))
            .with("failed_seeds", vec![3u64, 5])
            .with("sketch", None::<JsonObject>)
            .with(
                "cells",
                vec![JsonObject::from_event(&cell), JsonObject::from_event(&cell)],
            );
        let cell_json = "{\"protocol\": \"htlc\", \"budget\": null, \"drained\": true}";
        assert_eq!(
            doc.render(),
            format!(
                "{{\n  \"schema_version\": 1,\n  \"outcomes\": {{\"success\": 2}},\n  \
                 \"failed_seeds\": [3, 5],\n  \"sketch\": null,\n  \"cells\": [\n    \
                 {cell_json},\n    {cell_json}\n  ]\n}}\n"
            )
        );
    }

    #[test]
    fn rounding_keeps_three_decimals() {
        assert_eq!(
            Json::from(round_to(55_145.827_4, 3)),
            Json::from(55_145.827)
        );
        assert_eq!(round_to(0.250_49, 3), 0.25);
    }
}
