//! Structured events: discrete facts (one per pipeline evaluation, one
//! per encoded region, ...) too rich for a scalar metric.
//!
//! Events carry a static kind, the thread's current context label (see
//! [`crate::push_label`]) and an arbitrary [`Json`] payload. They land in
//! a global buffer, are emitted as `{"type":"event",...}` lines by the
//! JSONL sink and as an `events` array in run manifests.
//!
//! [`event`] is gated: it records nothing when observability is off, so
//! it may sit at region granularity on warm paths.

use std::sync::{Mutex, OnceLock};

use crate::json::Json;

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Static event kind, e.g. `"eval"`.
    pub kind: &'static str,
    /// Context label at record time (`""` when unlabelled).
    pub label: String,
    /// Structured payload.
    pub fields: Json,
}

impl Event {
    /// The event as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind)),
            ("label", Json::str(&self.label)),
            ("fields", self.fields.clone()),
        ])
    }
}

fn buffer() -> &'static Mutex<Vec<Event>> {
    static BUFFER: OnceLock<Mutex<Vec<Event>>> = OnceLock::new();
    BUFFER.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records an event under `kind` with the given `label` and payload.
/// No-op when observability is disabled.
pub fn event(kind: &'static str, label: impl Into<String>, fields: Json) {
    if !crate::enabled() {
        return;
    }
    buffer().lock().expect("event buffer poisoned").push(Event {
        kind,
        label: label.into(),
        fields,
    });
}

/// A copy of every recorded event, sorted by `(kind, label)` with ties
/// kept in record order — deterministic even when worker threads raced.
pub fn snapshot() -> Vec<Event> {
    let mut events = buffer().lock().expect("event buffer poisoned").clone();
    events.sort_by(|a, b| (a.kind, &a.label).cmp(&(b.kind, &b.label)));
    events
}

/// Discards all recorded events.
pub fn reset() {
    buffer().lock().expect("event buffer poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{set_mode, Mode};

    fn my_events(kind: &str) -> Vec<Event> {
        snapshot().into_iter().filter(|e| e.kind == kind).collect()
    }

    #[test]
    fn events_record_only_when_enabled() {
        let _lock = crate::test_lock();
        let before = crate::mode();
        set_mode(Mode::Off);
        event("event.test.gated", "a", Json::Null);
        assert!(my_events("event.test.gated").is_empty());

        set_mode(Mode::Json);
        event(
            "event.test.gated",
            "b",
            Json::obj(vec![("n", Json::U64(1))]),
        );
        let mine = my_events("event.test.gated");
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].label, "b");
        assert_eq!(mine[0].fields.get("n").and_then(Json::as_u64), Some(1));
        set_mode(before);
    }

    #[test]
    fn snapshot_sorts_by_kind_and_label() {
        let _lock = crate::test_lock();
        let before = crate::mode();
        set_mode(Mode::Json);
        event("event.test.sort", "z", Json::U64(1));
        event("event.test.sort", "a", Json::U64(2));
        let mine = my_events("event.test.sort");
        assert_eq!(mine.len(), 2);
        assert_eq!(mine[0].label, "a");
        assert_eq!(mine[1].label, "z");
        set_mode(before);
    }

    #[test]
    fn to_json_shape() {
        let e = Event {
            kind: "eval",
            label: "mmul/k5".to_string(),
            fields: Json::obj(vec![("fetches", Json::U64(9))]),
        };
        assert_eq!(
            e.to_json().render(),
            r#"{"kind":"eval","label":"mmul/k5","fields":{"fetches":9}}"#
        );
    }
}
