//! In-memory span recorder for the traced run.
//!
//! Spans are opened around each workload op and around each call into the
//! client, from the benchmark's own code. The recorder is thread-local
//! because every workload runs on one thread; while it is off, opening a
//! span costs one flag test and records nothing.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name, e.g. `kv.get` or `pool.read`.
    pub name: &'static str,
    /// Sub-kind, e.g. the source a read was served from; empty if none.
    pub tag: &'static str,
    /// 1-based id; 0 is "no parent".
    pub id: u32,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Start, ns since the recorder was enabled.
    pub start_ns: u64,
    /// End, ns since the recorder was enabled.
    pub end_ns: u64,
}

impl SpanRec {
    /// Wall-clock duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Clears any earlier spans and starts recording on this thread.
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch = Instant::now();
        r.spans.clear();
        r.open.clear();
    });
    ON.with(|on| on.set(true));
}

/// Stops recording and hands back every span recorded since [`enable`].
pub fn take() -> Vec<SpanRec> {
    ON.with(|on| on.set(false));
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// An open span; it ends when dropped.
#[must_use = "a span ends when the guard drops"]
pub struct Guard(u32);

impl Guard {
    /// Sets the span's tag.
    pub fn tag(&self, tag: &'static str) {
        if self.0 != 0 {
            REC.with(|r| r.borrow_mut().spans[self.0 as usize - 1].tag = tag);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 == 0 {
            return;
        }
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            r.spans[self.0 as usize - 1].end_ns = now;
            r.open.pop();
        });
    }
}

/// Opens a span named `name`, a child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(0);
    }
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.spans.len() as u32 + 1;
        let parent = r.open.last().copied().unwrap_or(0);
        let now = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(SpanRec {
            name,
            tag: "",
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        r.open.push(id);
        Guard(id)
    })
}

/// Per-key totals of a span set, keyed `name` or `name.tag`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Agg {
    /// Spans under the key.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Summed duration of direct children, ns.
    pub child_ns: u64,
    /// Direct children.
    pub children: u64,
}

impl Agg {
    /// Mean duration in µs (0 without spans).
    pub fn mean_us(&self) -> f64 {
        per(self.total_ns, self.count) / 1e3
    }

    /// Mean self time in µs (0 without spans).
    pub fn self_us(&self) -> f64 {
        per(self.self_ns, self.count) / 1e3
    }
}

fn per(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The key a span is aggregated under.
fn key(s: &SpanRec) -> String {
    if s.tag.is_empty() {
        s.name.to_owned()
    } else {
        format!("{}.{}", s.name, s.tag)
    }
}

/// Aggregates spans by name and by `name.tag`. Children of one span run
/// one after another on one thread, so a span's self time is its duration
/// minus the sum of its direct children's durations.
pub fn aggregate(spans: &[SpanRec]) -> BTreeMap<String, Agg> {
    let mut child_ns = vec![0u64; spans.len()];
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            child_ns[s.parent as usize - 1] += s.dur_ns();
            children[s.parent as usize - 1] += 1;
        }
    }
    let mut out: BTreeMap<String, Agg> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let keys = if s.tag.is_empty() {
            vec![s.name.to_owned()]
        } else {
            vec![s.name.to_owned(), key(s)]
        };
        for k in keys {
            let a = out.entry(k).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns();
            a.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
            a.child_ns += child_ns[i];
            a.children += children[i];
        }
    }
    out
}

/// Renders spans as tab-separated lines under a header line, one span
/// per line.
pub fn to_tsv(spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(spans.len() * 48 + 64);
    out.push_str("id\tparent\tname\ttag\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.tag, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        enable();
        {
            let _outer = span("kv.get");
            {
                let inner = span("pool.read");
                inner.tag("nvm");
            }
            let _second = span("pool.read");
        }
        let _root2 = span("kv.put");
        drop(_root2);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 0);
        let agg = aggregate(&spans);
        let get = agg["kv.get"];
        assert_eq!(get.children, 2);
        assert_eq!(get.self_ns + get.child_ns, get.total_ns);
        assert_eq!(agg["pool.read"].count, 2);
        assert_eq!(agg["pool.read.nvm"].count, 1);
        assert!(!enabled());
        let off = span("kv.get");
        assert_eq!(off.0, 0);
    }
}
