//! Spans recorded around the benchmark's calls into each layer's public
//! functions. Spans live in memory and are written out when the run ends;
//! nothing here reaches inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder for one thread of calls; spans recorded
/// on other threads are added with [`Trace::push`].
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    /// An empty trace whose clock starts now.
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Trace {
    /// Nanoseconds since the epoch of `t`.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.at(Instant::now());
        out
    }

    /// Adds a span timed elsewhere (on another thread, or before its
    /// parent was known) and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let (start, end) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span with this name.
    pub fn total(&self, name: &str) -> Duration {
        Duration::from_nanos(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::dur)
                .sum(),
        )
    }

    /// Self time per layer (the name up to its first `.`): each span's
    /// duration minus the part of it that its child spans cover, summed.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s, children[i].iter().map(|&c| &self.spans[c]));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_default() += Duration::from_nanos(s.dur().saturating_sub(covered));
        }
        out
    }

    /// Writes every span as one CSV line: name, start ns, end ns, parent
    /// index (empty for a root).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index,name,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(w, "{i},{},{},{},{parent}", s.name, s.start, s.end)?;
        }
        w.flush()
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of the
/// children's intervals (children on several threads may overlap).
fn covered_ns<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t = Trace {
            epoch: Instant::now(),
            spans: vec![
                span("serve.mix", 0, 100, None),
                span("wire.a", 10, 40, Some(0)),
                span("wire.b", 30, 60, Some(0)),
                span("wire.c", 80, 90, Some(0)),
            ],
            open: Vec::new(),
        };
        let by_layer = t.self_time_by_layer();
        // Children cover 10..60 and 80..90: 60 of the parent's 100 ns.
        assert_eq!(by_layer["serve"], Duration::from_nanos(40));
        assert_eq!(by_layer["wire"], Duration::from_nanos(70));
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Trace::default();
        t.span("outer.a", |t| t.span("inner.b", |_| ()));
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
