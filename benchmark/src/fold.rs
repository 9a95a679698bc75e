//! Folds recorded spans into per-name self time.
//!
//! The recorder stores flat complete events (name, thread, start,
//! duration). Spans of one thread nest by interval containment — they
//! come from RAII guards — so a span's parent is the innermost span of
//! the same thread whose interval contains it, and its *self* time is
//! its duration minus what its direct children cover. Self times
//! partition every root span, so they add up instead of double counting
//! the way raw per-name totals do.

use std::collections::BTreeMap;

/// One complete span, as the recorder reports it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub ts_ns: u64,
    pub dur_ns: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Folded {
    /// How many spans were folded.
    pub spans: u64,
    pub by_name: BTreeMap<&'static str, Totals>,
    /// Summed duration of the outermost `scope` spans.
    pub scope_total_ns: u64,
    /// Summed self time of every span inside (or being) a `scope` span.
    /// Equals `scope_total_ns` when the spans nest cleanly; the
    /// difference is the fold's own residual and is reported.
    pub scope_self_ns: u64,
}

impl Folded {
    pub fn of(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Adds another fold's totals to this one.
    pub fn merge(&mut self, other: &Folded) {
        self.spans += other.spans;
        for (name, t) in &other.by_name {
            let total = self.by_name.entry(name).or_default();
            total.count += t.count;
            total.total_ns += t.total_ns;
            total.self_ns += t.self_ns;
        }
        self.scope_total_ns += other.scope_total_ns;
        self.scope_self_ns += other.scope_self_ns;
    }
}

struct Open {
    end_ns: u64,
    dur_ns: u64,
    children_ns: u64,
    name: &'static str,
    in_scope: bool,
}

/// Folds `spans` (any order, any mix of threads) into per-name totals,
/// accounting separately for everything nested under spans named
/// `scope`.
pub fn fold(spans: &[Span], scope: &str) -> Folded {
    let mut order: Vec<&Span> = spans.iter().collect();
    // Per thread, by start; of two spans starting together the longer
    // is the parent and must be opened first.
    order.sort_by(|a, b| {
        (a.tid, a.ts_ns)
            .cmp(&(b.tid, b.ts_ns))
            .then(b.dur_ns.cmp(&a.dur_ns))
    });
    let mut out = Folded {
        spans: spans.len() as u64,
        ..Folded::default()
    };
    let mut stack: Vec<Open> = Vec::new();
    let mut current_tid = None;
    for span in order {
        if current_tid != Some(span.tid) {
            close_all(&mut stack, &mut out);
            current_tid = Some(span.tid);
        }
        let end_ns = span.ts_ns.saturating_add(span.dur_ns);
        // Everything that does not contain this span has ended (or only
        // overlaps it, which RAII spans never do): close it.
        while stack
            .last()
            .is_some_and(|top| end_ns > top.end_ns || span.ts_ns >= top.end_ns)
        {
            close_top(&mut stack, &mut out);
        }
        let parent_in_scope = stack.last().is_some_and(|p| p.in_scope);
        if let Some(parent) = stack.last_mut() {
            parent.children_ns += span.dur_ns;
        }
        if span.name == scope && !parent_in_scope {
            out.scope_total_ns += span.dur_ns;
        }
        stack.push(Open {
            end_ns,
            dur_ns: span.dur_ns,
            children_ns: 0,
            name: span.name,
            in_scope: parent_in_scope || span.name == scope,
        });
    }
    close_all(&mut stack, &mut out);
    out
}

fn close_top(stack: &mut Vec<Open>, out: &mut Folded) {
    let Some(open) = stack.pop() else { return };
    let self_ns = open.dur_ns.saturating_sub(open.children_ns);
    let totals = out.by_name.entry(open.name).or_default();
    totals.count += 1;
    totals.total_ns += open.dur_ns;
    totals.self_ns += self_ns;
    if open.in_scope {
        out.scope_self_ns += self_ns;
    }
}

fn close_all(stack: &mut Vec<Open>, out: &mut Folded) {
    while !stack.is_empty() {
        close_top(stack, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, ts_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            tid,
            ts_ns,
            dur_ns,
        }
    }

    #[test]
    fn nested_spans_subtract_direct_children_only() {
        // run[0,100) ⊃ verify[10,90) ⊃ query[20,30), query[40,70)
        let spans = [
            span("query", 1, 40, 30),
            span("run", 1, 0, 100),
            span("verify", 1, 10, 80),
            span("query", 1, 20, 10),
        ];
        let f = fold(&spans, "run");
        assert_eq!(
            f.of("run"),
            Totals {
                count: 1,
                total_ns: 100,
                self_ns: 20
            }
        );
        assert_eq!(
            f.of("verify"),
            Totals {
                count: 1,
                total_ns: 80,
                self_ns: 40
            }
        );
        assert_eq!(
            f.of("query"),
            Totals {
                count: 2,
                total_ns: 40,
                self_ns: 40
            }
        );
        assert_eq!(f.scope_total_ns, 100);
        assert_eq!(f.scope_self_ns, 100, "self times partition the root");
    }

    #[test]
    fn siblings_do_not_nest_even_when_they_touch() {
        // a[0,10) then b[10,20): b starts exactly where a ends.
        let spans = [span("a", 1, 0, 10), span("b", 1, 10, 10)];
        let f = fold(&spans, "a");
        assert_eq!(f.of("a").self_ns, 10);
        assert_eq!(f.of("b").self_ns, 10);
        assert_eq!((f.scope_total_ns, f.scope_self_ns), (10, 10));
    }

    #[test]
    fn threads_fold_independently() {
        // The same wall-clock interval on two threads: neither is the
        // other's child.
        let spans = [
            span("job", 1, 0, 100),
            span("job", 2, 10, 50),
            span("query", 2, 20, 10),
            span("query", 1, 20, 10),
        ];
        let f = fold(&spans, "job");
        assert_eq!(
            f.of("job"),
            Totals {
                count: 2,
                total_ns: 150,
                self_ns: 130
            }
        );
        assert_eq!(f.of("query").count, 2);
        assert_eq!((f.scope_total_ns, f.scope_self_ns), (150, 150));
    }

    #[test]
    fn scope_counts_only_the_outermost_scope_span_and_ignores_outsiders() {
        // job ⊃ run ⊃ run (re-entrant) ; plus a span outside any run.
        let spans = [
            span("job", 1, 0, 100),
            span("run", 1, 10, 60),
            span("run", 1, 20, 10),
            span("outside", 1, 80, 10),
        ];
        let f = fold(&spans, "run");
        assert_eq!(f.scope_total_ns, 60);
        assert_eq!(f.scope_self_ns, 60);
        assert_eq!(f.of("job").self_ns, 30);
    }

    #[test]
    fn equal_starts_open_the_longer_span_first() {
        let spans = [span("inner", 1, 0, 5), span("outer", 1, 0, 10)];
        let f = fold(&spans, "outer");
        assert_eq!(f.of("outer").self_ns, 5);
        assert_eq!(f.of("inner").self_ns, 5);
    }

    #[test]
    fn merging_adds_totals() {
        let mut a = fold(&[span("run", 1, 0, 10), span("q", 1, 2, 3)], "run");
        let b = fold(&[span("run", 1, 100, 20)], "run");
        a.merge(&b);
        assert_eq!(a.spans, 3);
        assert_eq!(
            a.of("run"),
            Totals {
                count: 2,
                total_ns: 30,
                self_ns: 27
            }
        );
        assert_eq!((a.scope_total_ns, a.scope_self_ns), (30, 30));
    }
}
