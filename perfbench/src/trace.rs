//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code wraps each call into a layer's public function
//! in a span (name, start, end, parent, job id). Spans stay in memory and
//! are written out once, after the run. Alongside the spans the tracer
//! keeps one sample map per job: every span adds its duration to the
//! `<name>_ms` sample of the job it belongs to, and [`Tracer::record`]
//! adds counts measured at the same boundaries. A disabled tracer only
//! runs the wrapped closures, so the untraced run and the traced run share
//! one code path.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are microseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    pub job: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    job: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: Vec<BTreeMap<String, f64>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            job: 0,
            spans: Vec::new(),
            open: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// Starts attributing spans and samples to job `job`.
    pub fn begin_job(&mut self, job: u64) {
        if self.on {
            self.job = job;
            self.samples.push(BTreeMap::new());
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            job: self.job,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[index].end_us = end_us;
        self.add(&format!("{name}_ms"), (end_us - start_us) / 1e3);
        out
    }

    /// Sets sample `name` of the current job.
    pub fn record(&mut self, name: &str, value: f64) {
        if let Some(job) = self.samples.last_mut() {
            job.insert(name.to_string(), value);
        }
    }

    fn add(&mut self, name: &str, value: f64) {
        if let Some(job) = self.samples.last_mut() {
            *job.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// Time spent in spans named `name` during the current job, in ms (0
    /// when there were none or when off).
    pub fn ms(&self, name: &str) -> f64 {
        self.samples
            .last()
            .and_then(|job| job.get(&format!("{name}_ms")))
            .copied()
            .unwrap_or(0.0)
    }

    /// All samples of `name`, one per job that recorded it.
    pub fn series(&self, name: &str) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|job| job.get(name).copied())
            .collect()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Writes the spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {parent}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.name, s.job, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_job() {
        let mut tr = Tracer::on();
        tr.begin_job(7);
        tr.span("job", |tr| {
            tr.span("a", |_| ());
            tr.span("a", |_| ());
        });
        tr.record("count", 3.0);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.job == 7 && s.end_us >= s.start_us));
        let a = (spans[1].end_us - spans[1].start_us + spans[2].end_us - spans[2].start_us) / 1e3;
        assert!((tr.ms("a") - a).abs() < 1e-9);
        assert_eq!(tr.series("count"), vec![3.0]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        tr.begin_job(1);
        let v = tr.span("job", |tr| tr.span("inner", |_| 5));
        tr.record("count", 1.0);
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty());
        assert!(tr.series("count").is_empty());
    }
}
