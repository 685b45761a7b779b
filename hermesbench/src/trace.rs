//! Host-time spans for the traced run.
//!
//! The benchmark wraps every call it makes into a library in a span named
//! `<layer>.<op>` (`core.insert`, `bgp.rib_process`, `netsim.run`, …).
//! Spans nest: a span opened while another is open becomes its child, so
//! a layer's *self time* is its spans' durations minus their children's.
//! Recording is off by default — [`enter`] is then one thread-local flag
//! read and no clock read — and is armed per pass by [`start`]. Spans stay
//! in memory until [`finish`] hands them back; nothing is written while a
//! pass runs.

use hermes_util::bench::Stopwatch;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// One closed span. Times are host nanoseconds since the pass started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<op>`.
    pub name: &'static str,
    /// Start, ns since the recorder was armed.
    pub start_ns: u64,
    /// End, ns since the recorder was armed.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms the recorder for this thread, discarding anything recorded before.
pub fn start() {
    REC.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Disarms the recorder and returns the closed spans in opening order.
pub fn finish() -> Vec<Span> {
    REC.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// An open span; closes when dropped.
#[must_use = "a span closes when this guard drops"]
pub struct Guard {
    idx: Option<usize>,
}

/// Opens a span named `<layer>.<op>` as a child of the innermost open one.
/// Inert (no clock read) while the recorder is disarmed.
#[inline]
pub fn enter(name: &'static str) -> Guard {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.clock.elapsed().as_nanos() as u64;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
        });
        rec.open.push(idx);
        Some(idx)
    });
    Guard { idx }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            REC.with(|r| {
                if let Some(rec) = r.borrow_mut().as_mut() {
                    let now = rec.clock.elapsed().as_nanos() as u64;
                    rec.spans[idx].end_ns = now;
                    rec.open.retain(|&i| i != idx);
                }
            });
        }
    }
}

/// Self time per layer in nanoseconds: each span's duration minus the
/// durations of its direct children, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// Durations in nanoseconds of every span with this exact name.
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Tab-separated dump: `name start_ns end_ns parent` (parent `-` for
/// roots), one span per line.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("name\tstart_ns\tend_ns\tparent\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            s.name, s.start_ns, s.end_ns, parent
        ));
    }
    out
}
