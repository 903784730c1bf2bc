//! In-memory spans recorded by the benchmark around its calls into each
//! layer: name, start, end and the enclosing span. Spans stay in memory
//! until the run ends and are then written out as CSV.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// A span recorder; when disabled, `enter`/`exit` do nothing, so the
/// same replay code runs traced and untraced.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let id = self.open.pop().expect("exit matches an enter") as usize;
        self.spans[id].end_ns = self.now_ns();
    }

    /// Self time per span name (duration minus the time covered by
    /// direct children) in nanoseconds, with the span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Writes every span as `id,name,start_ns,end_ns,parent`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(out, "{id},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let st = t.self_times();
        let (inner, n) = st["inner"];
        assert_eq!(n, 1);
        assert!(inner >= 2_000_000);
        assert!(st["outer"].0 < inner);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x");
        t.exit();
        assert!(t.self_times().is_empty());
    }
}
