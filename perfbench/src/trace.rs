//! In-memory span recording for the traced run: spans carry (name, start,
//! end, parent, campaign id) and are written once, at the end, as Chrome
//! trace-event JSON (opens in Perfetto / chrome://tracing) plus a
//! per-layer self-time summary table.
//!
//! A span's *self time* is its duration minus its children's. Children are
//! logical: the decomposition pass times each layer's public call on its
//! own, after the campaign it explains, and attaches it under the span of
//! the phase that runs it inside the real runner. Self times of a campaign
//! therefore sum exactly to the campaign's wall time, with the campaign
//! span's own self time as the unattributed remainder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub dur: Duration,
    pub parent: Option<usize>,
    pub campaign: u64,
}

pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span that has already happened.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        dur: Duration,
        parent: Option<usize>,
        campaign: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            dur,
            parent,
            campaign,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        campaign: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let id = self.record(name, start, start.elapsed(), parent, campaign);
        (value, id)
    }

    /// Self seconds per `(campaign, span name)`, summed over spans.
    pub fn self_times(&self) -> BTreeMap<(u64, &'static str), f64> {
        let mut children = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.dur.as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(children) {
            *out.entry((span.campaign, span.name)).or_insert(0.0) += span.dur.as_secs_f64() - child;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// one track per campaign.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let ts = span
                .start
                .saturating_duration_since(self.origin)
                .as_secs_f64()
                * 1e6;
            let parent = span
                .parent
                .map_or("null".to_owned(), |p| format!("\"{}\"", self.spans[p].name));
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{\"campaign\":{},\"span\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.campaign,
                span.dur.as_secs_f64() * 1e6,
                span.campaign,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}
