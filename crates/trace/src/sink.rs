//! Recorder backends.
//!
//! The runtime owns exactly one `Box<dyn TraceSink>` per cluster (or none:
//! the disabled path is a single `Option` check per emission site, so a run
//! without tracing does no allocation and no event construction).

use crate::event::{Event, TraceMode};

/// Destination for stamped events. Recording order is the deterministic
/// simulator order, so two same-seed runs feed any sink identically.
pub trait TraceSink {
    fn record(&mut self, e: Event);
    /// Number of events currently retained.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Consume the sink and return the retained events in recording order.
    fn into_events(self: Box<Self>) -> Vec<Event>;
}

/// Unbounded recorder: keeps the full stream.
#[derive(Debug, Default)]
pub struct VecRecorder {
    events: Vec<Event>,
}

impl VecRecorder {
    pub fn new() -> Self {
        VecRecorder { events: Vec::new() }
    }
}

impl TraceSink for VecRecorder {
    fn record(&mut self, e: Event) {
        self.events.push(e);
    }
    fn len(&self) -> usize {
        self.events.len()
    }
    fn into_events(self: Box<Self>) -> Vec<Event> {
        self.events
    }
}

/// Bounded recorder: keeps only the most recent `cap` events.
#[derive(Debug)]
pub struct RingRecorder {
    buf: Vec<Event>,
    head: usize,
    cap: usize,
}

impl RingRecorder {
    pub fn new(cap: usize) -> Self {
        RingRecorder { buf: Vec::with_capacity(cap.min(4096)), head: 0, cap: cap.max(1) }
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, e: Event) {
        if self.buf.len() < self.cap {
            self.buf.push(e);
        } else {
            self.buf[self.head] = e;
            self.head = (self.head + 1) % self.cap;
        }
    }
    fn len(&self) -> usize {
        self.buf.len()
    }
    fn into_events(self: Box<Self>) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

/// Build the sink selected by a `TraceMode` (`Send`: a parallel driver's
/// node carries its private sink onto its own OS thread).
pub fn make_sink(mode: TraceMode) -> Box<dyn TraceSink + Send> {
    match mode {
        TraceMode::Full => Box::new(VecRecorder::new()),
        TraceMode::Ring(cap) => Box::new(RingRecorder::new(cap)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn ev(t: u64) -> Event {
        Event { t, ev: TraceEvent::ThreadReady { node: 0, thread: t as u32 } }
    }

    #[test]
    fn vec_recorder_keeps_everything_in_order() {
        let mut s: Box<dyn TraceSink> = Box::new(VecRecorder::new());
        for t in 0..100 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 100);
        let out = s.into_events();
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].t < w[1].t));
    }

    #[test]
    fn ring_recorder_keeps_last_cap_in_order() {
        let mut s: Box<dyn TraceSink> = Box::new(RingRecorder::new(16));
        for t in 0..100 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 16);
        let out = s.into_events();
        assert_eq!(out.first().unwrap().t, 84);
        assert_eq!(out.last().unwrap().t, 99);
        assert!(out.windows(2).all(|w| w[0].t + 1 == w[1].t));
    }

    #[test]
    fn ring_recorder_under_capacity() {
        let mut s: Box<dyn TraceSink> = Box::new(RingRecorder::new(16));
        for t in 0..5 {
            s.record(ev(t));
        }
        assert_eq!(s.into_events().len(), 5);
    }

    #[test]
    fn ring_recorder_at_exactly_cap_has_not_wrapped() {
        // cap events: buffer full, head still 0 — recording order intact.
        let mut s: Box<dyn TraceSink> = Box::new(RingRecorder::new(8));
        for t in 0..8 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 8);
        let out = s.into_events();
        assert_eq!(out.iter().map(|e| e.t).collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ring_recorder_at_cap_plus_one_evicts_only_the_oldest() {
        // cap+1 events: exactly one eviction; the wrap seam sits after the
        // overwritten slot and into_events unrotates across it.
        let mut s: Box<dyn TraceSink> = Box::new(RingRecorder::new(8));
        for t in 0..9 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 8);
        let out = s.into_events();
        assert_eq!(out.iter().map(|e| e.t).collect::<Vec<_>>(), (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn ring_recorder_multi_lap_redrain_order() {
        // Several full laps later the drain must still be oldest→newest,
        // and a fresh recorder fed the drained output reproduces it (the
        // "re-drain" round trip used by the threads-driver merge).
        let mut s: Box<dyn TraceSink> = Box::new(RingRecorder::new(4));
        for t in 0..23 {
            s.record(ev(t));
        }
        let out = s.into_events();
        assert_eq!(out.iter().map(|e| e.t).collect::<Vec<_>>(), vec![19, 20, 21, 22]);
        let mut s2: Box<dyn TraceSink> = Box::new(RingRecorder::new(4));
        for e in &out {
            s2.record(*e);
        }
        assert_eq!(s2.into_events(), out);
    }

    #[test]
    fn ring_recorder_cap_one_keeps_only_newest() {
        let mut s: Box<dyn TraceSink> = Box::new(RingRecorder::new(1));
        for t in 0..3 {
            s.record(ev(t));
        }
        let out = s.into_events();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].t, 2);
    }

    #[test]
    fn make_sink_honours_mode() {
        let mut s = make_sink(TraceMode::Ring(2));
        for t in 0..10 {
            s.record(ev(t));
        }
        assert_eq!(s.len(), 2);
        assert_eq!(make_sink(TraceMode::Full).len(), 0);
    }
}
