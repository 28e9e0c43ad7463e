//! Named metric registry and the hand-rolled Prometheus text renderer.

use crate::{Counter, Gauge, Histogram, HistogramSnapshot};

use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Clone, Debug)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics.
///
/// Metric names follow Prometheus conventions: `snake_case` base name with
/// an optional `{key="value"}` label suffix (build one with
/// [`crate::label`] / [`crate::label2`]). Registering the same name twice
/// returns a handle onto the same underlying metric; registering it as a
/// different *type* panics.
///
/// Most code uses the process-wide default, [`Registry::global`].
#[derive(Debug, Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

static GLOBAL: Registry = Registry::new();

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self {
            slots: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-wide default registry.
    pub fn global() -> &'static Registry {
        &GLOBAL
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Counter(Counter::new()))
        {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered as a non-counter"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Gauge(Gauge::new()))
        {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered as a non-gauge"),
        }
    }

    /// Get or create the histogram `name` with the given upper bounds.
    /// If `name` already exists its original bounds are kept.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_string())
            .or_insert_with(|| Slot::Histogram(Histogram::with_bounds(bounds)))
        {
            Slot::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered as a non-histogram"),
        }
    }

    /// All registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.slots.lock().unwrap().keys().cloned().collect()
    }

    /// Current value of the counter `name`, if registered as a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.slots.lock().unwrap().get(name)? {
            Slot::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Current value of the gauge `name`, if registered as a gauge.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.slots.lock().unwrap().get(name)? {
            Slot::Gauge(g) => Some(g.get()),
            _ => None,
        }
    }

    /// Snapshot of the histogram `name`, if registered as a histogram.
    pub fn histogram_snapshot(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.slots.lock().unwrap().get(name)? {
            Slot::Histogram(h) => h.snapshot(),
            _ => None,
        }
    }

    /// Render every registered metric in the Prometheus text exposition
    /// format (`text/plain; version=0.0.4`): one `# TYPE` line per metric
    /// family, histograms expanded into cumulative `_bucket{le=…}` series
    /// plus `_sum` and `_count`. Output is sorted by name, so identical
    /// state renders identical bytes.
    pub fn render_prometheus(&self) -> String {
        // Group label variants under their family so each family gets a
        // single TYPE line with all its samples together.
        let mut families: BTreeMap<String, Vec<(String, Slot)>> = BTreeMap::new();
        {
            let slots = self.slots.lock().unwrap();
            for (name, slot) in slots.iter() {
                let (family, labels) = match name.find('{') {
                    Some(i) => (
                        name[..i].to_string(),
                        name[i + 1..name.len() - 1].to_string(),
                    ),
                    None => (name.clone(), String::new()),
                };
                families
                    .entry(family)
                    .or_default()
                    .push((labels, slot.clone()));
            }
        }
        let mut out = String::new();
        for (family, variants) in &families {
            let kind = match &variants[0].1 {
                Slot::Counter(_) => "counter",
                Slot::Gauge(_) => "gauge",
                Slot::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            for (labels, slot) in variants {
                match slot {
                    Slot::Counter(c) => {
                        out.push_str(&sample(family, labels, &c.get().to_string()));
                    }
                    Slot::Gauge(g) => {
                        out.push_str(&sample(family, labels, &g.get().to_string()));
                    }
                    Slot::Histogram(h) => {
                        let Some(snap) = h.snapshot() else { continue };
                        let mut cum = 0u64;
                        for (i, c) in snap.counts.iter().enumerate() {
                            cum += c;
                            let le = match snap.bounds.get(i) {
                                Some(b) => format!("{b}"),
                                None => "+Inf".to_string(),
                            };
                            let with_le = if labels.is_empty() {
                                format!("le=\"{le}\"")
                            } else {
                                format!("{labels},le=\"{le}\"")
                            };
                            out.push_str(&sample(
                                &format!("{family}_bucket"),
                                &with_le,
                                &cum.to_string(),
                            ));
                        }
                        out.push_str(&sample(
                            &format!("{family}_sum"),
                            labels,
                            &format!("{}", snap.sum),
                        ));
                        out.push_str(&sample(
                            &format!("{family}_count"),
                            labels,
                            &snap.count.to_string(),
                        ));
                    }
                }
            }
        }
        out
    }
}

fn sample(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on<R>(f: impl FnOnce() -> R) -> R {
        // Tests in this binary share the process-wide flag; serialise them.
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap();
        crate::set_enabled(true);
        let r = f();
        crate::set_enabled(false);
        r
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        on(|| {
            let reg = Registry::new();
            let c = reg.counter("c_total");
            c.inc();
            c.add(4);
            assert_eq!(reg.counter_value("c_total"), Some(5));
            let g = reg.gauge("g");
            g.set(7);
            g.add(-2);
            assert_eq!(reg.gauge_value("g"), Some(5));
            assert_eq!(reg.counter_value("g"), None);
        });
    }

    #[test]
    fn disabled_recording_is_invisible() {
        on(|| {
            let reg = Registry::new();
            let c = reg.counter("quiet_total");
            crate::set_enabled(false);
            c.add(100);
            crate::set_enabled(true);
            assert_eq!(reg.counter_value("quiet_total"), Some(0));
        });
    }

    #[test]
    fn histogram_buckets_and_render() {
        on(|| {
            let reg = Registry::new();
            let h = reg.histogram("lat_seconds", &[0.1, 1.0]);
            h.observe(0.05);
            h.observe(0.5);
            h.observe(5.0);
            let snap = reg.histogram_snapshot("lat_seconds").unwrap();
            assert_eq!(snap.counts, vec![1, 1, 1]);
            assert_eq!(snap.count, 3);
            assert!((snap.sum - 5.55).abs() < 1e-9);
            let text = reg.render_prometheus();
            assert!(text.contains("# TYPE lat_seconds histogram"));
            assert!(text.contains("lat_seconds_bucket{le=\"0.1\"} 1"));
            assert!(text.contains("lat_seconds_bucket{le=\"1\"} 2"));
            assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 3"));
            assert!(text.contains("lat_seconds_count 3"));
        });
    }

    #[test]
    fn labeled_variants_share_one_type_line() {
        on(|| {
            let reg = Registry::new();
            reg.counter(&crate::label("req_total", "path", "/a")).inc();
            reg.counter(&crate::label("req_total", "path", "/b")).inc();
            let text = reg.render_prometheus();
            assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
            assert!(text.contains("req_total{path=\"/a\"} 1"));
            assert!(text.contains("req_total{path=\"/b\"} 1"));
        });
    }

    #[test]
    fn span_timer_records() {
        on(|| {
            let reg = Registry::new();
            let h = reg.histogram("span_seconds", &crate::exponential_bounds(1e-9, 10.0, 12));
            {
                let _s = h.start();
            }
            assert_eq!(reg.histogram_snapshot("span_seconds").unwrap().count, 1);
        });
    }

    #[test]
    fn label_escaping() {
        assert_eq!(crate::label("m", "k", "a\"b\\c"), "m{k=\"a\\\"b\\\\c\"}");
    }
}
