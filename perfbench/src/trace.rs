//! In-memory spans for the traced run.
//!
//! Spans are recorded only by the benchmark, around its calls into each
//! layer's public functions. Work inside the engine has no span of its own:
//! its duration comes from the engine's statement profiles, read before and
//! after the call, and is recorded as a child span of known length but
//! unknown position inside its parent (it starts at the parent's start).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `appserver.handle` or `relstore.engine`.
    pub name: &'static str,
    /// Operation or statement the span covers.
    pub detail: String,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// A trace whose clock starts at `origin` (threads tracing one run
    /// share it).
    pub fn with_origin(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        detail: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            detail: detail.into(),
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its interval
    /// its children cover (children are clipped to the parent's interval).
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let lo = span.start_ns.max(parent.start_ns);
                let hi = span.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.nanos().saturating_sub(c))
            .collect()
    }

    /// Writes the spans as tab-separated lines: index, request, name,
    /// detail, start, end, parent, self time (nanoseconds).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "span\trequest\tname\tdetail\tstart_ns\tend_ns\tparent\tself_ns"
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_nanos()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{self_ns}",
                s.request, s.name, s.detail, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_children() {
        let mut t = Trace::default();
        let root = t.record("a", "", 100, 200, None, 1);
        t.record("b", "", 100, 130, Some(root), 1);
        t.record("c", "", 190, 250, Some(root), 1);
        assert_eq!(t.self_nanos(), vec![60, 30, 60]);
    }
}
