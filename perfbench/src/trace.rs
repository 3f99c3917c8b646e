//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's own calls into the simulator's
//! public API (no span lives inside the program). Each carries a name, the
//! job it belongs to, its parent span, and start/end offsets from the
//! tracer's origin. Nothing is written until [`Tracer::to_jsonl`] renders them at
//! the end of the benchmark.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `pipeline.new`.
    pub name: &'static str,
    /// Job the span belongs to (`u32::MAX` for spans outside any job).
    pub job: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self time: duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Totals {
    /// Mean duration in nanoseconds (0 when there is no span).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Spans outside any job carry this id.
pub const NO_JOB: u32 = u32::MAX;

/// Records nested spans of a single-threaded caller.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    job: u32,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: NO_JOB,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Attribute the spans opened from now on to `job`.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns: start,
            end_ns: start,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span, which must be `idx`.
    pub fn exit(&mut self, idx: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name);
        let r = f();
        self.exit(idx);
        r
    }

    /// Totals per span name, leaving out the spans of `invalid` jobs.
    pub fn totals(&self, invalid: &BTreeSet<u32>) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            if invalid.contains(&s.job) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// All spans as JSON lines (one object per span, `id` is the index).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let job = if s.job == NO_JOB {
                "null".to_string()
            } else {
                s.job.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {job}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_invalid_jobs_are_dropped() {
        let mut t = Tracer::new();
        t.set_job(0);
        let outer = t.enter("outer");
        t.leaf("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit(outer);
        t.set_job(1);
        t.leaf("inner", || ());
        let all = t.totals(&BTreeSet::new());
        assert_eq!(all["inner"].count, 2);
        let o = all["outer"];
        assert!(o.total_ns >= all["inner"].total_ns);
        assert!(o.self_ns < o.total_ns, "child time is not self time");
        let valid = t.totals(&BTreeSet::from([1]));
        assert_eq!(valid["inner"].count, 1);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.lines().nth(1).unwrap().contains("\"parent\": 0,"));
    }
}
