//! RAII span timers. A [`span`] measures wall time from creation to drop,
//! recording it into the histogram `<name>.seconds`. Spans nest: each
//! thread keeps a stack of open span names, and at `Trace` verbosity every
//! span drop emits an event carrying its full `parent>child` path, so
//! draining events at `--trace` reconstructs the trace tree. Below
//! `Trace` that event would be discarded, so a drop builds neither the
//! path nor the duration text: it pops the stack and records into the
//! histogram through this thread's cached handle.

use crate::Verbosity;
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Timer guard returned by [`span`]; records on drop.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Opens a span named `name` (e.g. `"mbp.core.buy"`). When recording is
/// disabled this is a single atomic load and the returned guard is inert.
pub fn span(name: &'static str) -> Span {
    if !crate::is_enabled() {
        return Span { name, start: None };
    }
    // `try_borrow_mut` fails only on re-entry (a span opened from inside
    // the drop path while the stack is borrowed); return an inert guard
    // then — instrumentation must never abort the thread it observes.
    let pushed = STACK.with(|s| s.try_borrow_mut().map(|mut stack| stack.push(name)).is_ok());
    if !pushed {
        return Span { name, start: None };
    }
    Span {
        name,
        start: Some(Instant::now()),
    }
}

impl Span {
    /// The span's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let secs = start.elapsed().as_secs_f64();
        let traced = crate::verbosity() >= Verbosity::Trace;
        // A `start: Some` span always pushed, so the pop below stays
        // balanced; the fallible borrow mirrors `span()` for re-entrancy.
        let path = STACK.with(|s| match s.try_borrow_mut() {
            Ok(mut stack) => {
                let path = traced.then(|| stack.join(">"));
                stack.pop();
                path
            }
            Err(_) => traced.then(String::new),
        });
        // Both records re-check the enabled flag, so disabling midway
        // through a span only skips them — the stack stays balanced.
        if crate::is_enabled() {
            crate::registry::observe_span(self.name, secs);
        }
        if let Some(path) = path {
            crate::event(
                Verbosity::Trace,
                self.name,
                "span",
                &[("path", path), ("secs", format!("{secs:.9}"))],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support;

    #[test]
    fn span_records_histogram_and_trace_event() {
        let _g = test_support::serial();
        crate::reset();
        crate::enable();
        crate::set_verbosity(Verbosity::Trace);
        {
            let _outer = span("mbp.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("mbp.test.inner");
            }
        }
        let snap = crate::snapshot();
        let outer = snap.histogram("mbp.test.outer.seconds").expect("outer");
        assert_eq!(outer.count, 1);
        assert!(outer.sum >= 0.002, "outer span too short: {}", outer.sum);
        assert_eq!(snap.histogram("mbp.test.inner.seconds").unwrap().count, 1);

        let events = crate::drain_events();
        let paths: Vec<&str> = events
            .iter()
            .filter(|e| e.message == "span")
            .map(|e| {
                e.fields
                    .iter()
                    .find(|(k, _)| k == "path")
                    .unwrap()
                    .1
                    .as_str()
            })
            .collect();
        assert!(
            paths.contains(&"mbp.test.outer>mbp.test.inner"),
            "{paths:?}"
        );
        assert!(paths.contains(&"mbp.test.outer"), "{paths:?}");
        crate::set_verbosity(Verbosity::Info);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn disabled_span_is_inert_and_stack_balanced() {
        let _g = test_support::serial();
        crate::reset();
        crate::disable();
        {
            let _s = span("mbp.test.noop");
        }
        assert!(crate::snapshot().is_empty());
        // A subsequent enabled span sees an empty stack (path == own name).
        crate::enable();
        crate::set_verbosity(Verbosity::Trace);
        {
            let _s = span("mbp.test.solo");
        }
        let events = crate::drain_events();
        let path = &events
            .iter()
            .find(|e| e.message == "span")
            .unwrap()
            .fields
            .iter()
            .find(|(k, _)| k == "path")
            .unwrap()
            .1;
        assert_eq!(path, "mbp.test.solo");
        crate::set_verbosity(Verbosity::Info);
        crate::disable();
        crate::reset();
    }
}
