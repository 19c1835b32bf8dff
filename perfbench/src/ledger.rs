//! Spans recorded around the benchmark's calls into the program: kept in
//! memory, written once at exit.

use crate::host::json_str;
use std::fmt::Write;
use std::time::Instant;

/// Index of a span in its [`Ledger`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An append-only span store with one time origin.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Ledger {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Ledger::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id);
        r
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// The spans as a JSON array of `[name, start_ns, end_ns, parent]`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i == 0 { "" } else { ",\n" };
            write!(
                out,
                "{sep}[{}, {}, {}, {parent}]",
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            )
            .expect("writing to a String");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_nest_inside_their_parent() {
        let mut l = Ledger::default();
        let root = l.open("forward", None);
        let x = l.span("op", Some(root), || (1..=3u64).sum::<u64>());
        l.close(root);
        assert_eq!(x, 6);
        let (r, op) = (l.get(root), l.get(root + 1));
        assert_eq!(op.parent, Some(root));
        assert!(op.start_ns >= r.start_ns && op.end_ns <= r.end_ns);
        assert!(l.to_json().starts_with("[[\"forward\", "));
        assert!(l.to_json().ends_with(", 0]]"));
    }
}
