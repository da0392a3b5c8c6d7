//! Spans recorded by the benchmark's own code around each call it makes
//! into a layer. Kept in memory, written out once at exit. No crate of the
//! system is instrumented: these are the layer boundaries as seen from
//! outside.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One workload's spans, in start order.
#[derive(Debug)]
pub struct SpanLog {
    pub workload: String,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &str) -> SpanLog {
        SpanLog {
            workload: workload.to_string(),
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one. Returns its index for
    /// [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let at = self.now_ns();
        self.enter_at(name, at)
    }

    pub fn exit(&mut self, id: usize) {
        let at = self.now_ns();
        self.exit_at(id, at);
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    fn enter_at(&mut self, name: &'static str, at: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    fn exit_at(&mut self, id: usize, at: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = at;
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Total self time of every span called `name`.
    pub fn self_time_of(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_time_ns(i))
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_time_ns(i) as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("workload", Json::str(self.workload.clone())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut log = SpanLog::new("w");
        let root = log.enter_at("root", 0);
        let a = log.enter_at("a", 10);
        let a1 = log.enter_at("a1", 20);
        log.exit_at(a1, 50);
        log.exit_at(a, 60);
        let b = log.enter_at("b", 70);
        log.exit_at(b, 90);
        log.exit_at(root, 100);
        // root: 100 long, children a (50) and b (20); the grandchild a1 is
        // a's business, not root's.
        assert_eq!(log.self_time_ns(root), 30);
        assert_eq!(log.self_time_ns(a), 20);
        assert_eq!(log.self_time_ns(a1), 30);
        assert_eq!(log.self_time_ns(b), 20);
        assert_eq!(log.spans[a1].parent, Some(a));
        assert_eq!(log.spans[b].parent, Some(root));
        // Self times partition the root's duration.
        let total: u64 = (0..log.spans.len()).map(|i| log.self_time_ns(i)).sum();
        assert_eq!(total, log.spans[root].duration_ns());
    }

    #[test]
    fn json_carries_every_field() {
        let mut log = SpanLog::new("tsp-sim8");
        let r = log.enter_at("workload", 5);
        let c = log.enter_at("runtime.run", 6);
        log.exit_at(c, 9);
        log.exit_at(r, 10);
        let j = crate::json::parse(&log.to_json().pretty()).unwrap();
        let spans = j.as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("name").unwrap().as_str(), Some("runtime.run"));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("self_ns").unwrap().as_f64(), Some(2.0));
        assert_eq!(spans[0].get("workload").unwrap().as_str(), Some("tsp-sim8"));
    }
}
