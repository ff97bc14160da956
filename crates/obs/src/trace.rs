//! Structured event tracing with a Chrome trace-event JSON backend.
//!
//! The central type is [`Tracer`], a cheaply-cloneable handle that is either
//! *disabled* (the default — a `None` inside, so every emission site costs a
//! single branch and allocates nothing) or *enabled* (shared buffer of
//! [`TraceEvent`]s). The buffer serializes to the Chrome trace-event array
//! format understood by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! Conventions used throughout the simulator:
//!
//! * `pid` — subsystem track group (0 = protocol, 1 = network, 2 = machine).
//! * `tid` — node id within the group (or link id for the network group).
//! * `ts`  — simulated cycle of the event start.
//! * `dur` — `Some(cycles)` renders a complete span (`"ph":"X"`), `None`
//!   renders an instant (`"ph":"i"`).
//! * `cat` — dot-separated category (`proto.handler`, `am.miss`,
//!   `net.link`, …) used for filtering in the UI and in tests.

use std::cell::RefCell;
use std::rc::Rc;

use pimdsm_engine::Cycle;

/// The canonical registry of trace vocabulary.
///
/// Every `cat` and `name` the simulator passes to [`Tracer::span`] /
/// [`Tracer::instant`] must be listed here — this is where consumers
/// (suite assertions, trace filters, Perfetto queries) look events up, so
/// an unregistered string is an event nothing can find. The
/// `pimdsm-lint` rule **O001** enforces the registry in both directions:
/// an emitted literal missing from the registry and a registered entry no
/// simulation crate emits are both violations.
pub mod registry {
    /// Every event category (`cat` field), sorted.
    pub const CATEGORIES: &[&str] = &[
        "am.hit",
        "am.inject",
        "am.miss",
        "am.pageout",
        "am.swap",
        "machine.barrier",
        "machine.fault",
        "machine.reconfig",
        "machine.recovery",
        "net.link",
        "net.local",
        "net.msg",
        "proto.disk",
        "proto.handler",
        "proto.read",
        "proto.retry",
        "proto.write",
        "svc.offload",
        "svc.request",
    ];

    /// Every event name (`name` field), sorted.
    pub const EVENT_NAMES: &[&str] = &[
        "Ack",
        "Hint",
        "Read",
        "ReadEx",
        "WriteBack",
        "barrier",
        "degrade",
        "deliver",
        "fault",
        "hit",
        "inject",
        "kill",
        "local",
        "miss",
        "offload",
        "pageout",
        "read.remote",
        "reconfig",
        "recovery",
        "rejoin",
        "request",
        "retry",
        "stall",
        "swap",
        "write.remote",
        "xfer",
    ];

    /// Whether `cat` is a registered category.
    pub fn is_known_category(cat: &str) -> bool {
        CATEGORIES.binary_search(&cat).is_ok()
    }

    /// Whether `name` is a registered event name.
    pub fn is_known_event_name(name: &str) -> bool {
        EVENT_NAMES.binary_search(&name).is_ok()
    }
}

/// Track-group ids (`pid` in the Chrome trace) per subsystem.
pub mod track {
    /// Protocol handlers and attraction-memory events (tid = node id).
    pub const PROTO: u32 = 0;
    /// Network links (tid = link id).
    pub const NET: u32 = 1;
    /// Machine-level events: barriers, reconfiguration (tid = 0).
    pub const MACHINE: u32 = 2;
}

/// One trace event in the Chrome trace-event model.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name shown in the timeline slice.
    pub name: &'static str,
    /// Dot-separated category, e.g. `proto.handler`, `net.link`.
    pub cat: &'static str,
    /// Track group (subsystem), see [`track`].
    pub pid: u32,
    /// Track within the group (node id / link id).
    pub tid: u32,
    /// Start cycle.
    pub ts: Cycle,
    /// `Some(d)` = complete span of `d` cycles, `None` = instant.
    pub dur: Option<Cycle>,
    /// Small key/value payload rendered into the `args` object.
    pub args: Vec<(&'static str, u64)>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    events: Vec<TraceEvent>,
}

/// Handle for emitting trace events.
///
/// `Tracer::default()` (or [`Tracer::disabled`]) is a no-op handle: emission
/// compiles down to a branch on a `None` option. [`Tracer::enabled`] returns
/// a recording handle; clones share one buffer, so a single enabled tracer
/// can be attached to the network, every protocol node, and the machine.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    buf: Option<Rc<RefCell<TraceBuf>>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    #[inline]
    pub fn disabled() -> Self {
        Tracer { buf: None }
    }

    /// A tracer that records into a fresh shared buffer.
    pub fn enabled() -> Self {
        Tracer {
            buf: Some(Rc::new(RefCell::new(TraceBuf::default()))),
        }
    }

    /// Whether this handle records events. Emission sites may use this to
    /// skip argument construction entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Record a complete span (`ph:"X"`).
    #[inline]
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors the Chrome trace event's fields one to one"
    )]
    pub fn span(
        &self,
        pid: u32,
        tid: u32,
        name: &'static str,
        cat: &'static str,
        ts: Cycle,
        dur: Cycle,
        args: &[(&'static str, u64)],
    ) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut().events.push(TraceEvent {
                name,
                cat,
                pid,
                tid,
                ts,
                dur: Some(dur),
                args: args.to_vec(),
            });
        }
    }

    /// Record an instant event (`ph:"i"`).
    #[inline]
    pub fn instant(
        &self,
        pid: u32,
        tid: u32,
        name: &'static str,
        cat: &'static str,
        ts: Cycle,
        args: &[(&'static str, u64)],
    ) {
        if let Some(buf) = &self.buf {
            buf.borrow_mut().events.push(TraceEvent {
                name,
                cat,
                pid,
                tid,
                ts,
                dur: None,
                args: args.to_vec(),
            });
        }
    }

    /// Number of recorded events (0 for a disabled tracer).
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.borrow().events.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded events, sorted by `(pid, tid, ts)`.
    ///
    /// Sorting makes the output deterministic and guarantees monotone
    /// timestamps *per track* even though a transaction walk may book
    /// resource time out of order.
    pub fn events_sorted(&self) -> Vec<TraceEvent> {
        let mut events = self
            .buf
            .as_ref()
            .map_or_else(Vec::new, |b| b.borrow().events.clone());
        events.sort_by_key(|e| (e.pid, e.tid, e.ts, e.dur.unwrap_or(0)));
        events
    }

    /// Render the buffer as a Chrome trace-event JSON array string.
    ///
    /// The output loads directly in Perfetto / `chrome://tracing`:
    /// a JSON array of objects with `name`, `cat`, `ph`, `ts`, `pid`,
    /// `tid`, optional `dur`, and an `args` object. Simulated cycles map
    /// 1:1 onto microseconds (the unit Chrome assumes for `ts`).
    #[cfg(feature = "json")]
    pub fn to_chrome_json(&self) -> String {
        use crate::json::JsonValue;

        let mut arr: Vec<JsonValue> = Vec::with_capacity(self.len() + 4);
        // Process-name metadata records label each subsystem group.
        for (pid, label) in [
            (track::PROTO, "proto"),
            (track::NET, "net"),
            (track::MACHINE, "machine"),
        ] {
            arr.push(JsonValue::obj([
                ("name", JsonValue::str("process_name")),
                ("ph", JsonValue::str("M")),
                ("pid", JsonValue::u64(pid as u64)),
                ("tid", JsonValue::u64(0)),
                ("args", JsonValue::obj([("name", JsonValue::str(label))])),
            ]));
        }
        for e in self.events_sorted() {
            let mut obj = vec![
                ("name", JsonValue::str(e.name)),
                ("cat", JsonValue::str(e.cat)),
                (
                    "ph",
                    JsonValue::str(if e.dur.is_some() { "X" } else { "i" }),
                ),
                ("pid", JsonValue::u64(e.pid as u64)),
                ("tid", JsonValue::u64(e.tid as u64)),
                ("ts", JsonValue::u64(e.ts)),
            ];
            if let Some(d) = e.dur {
                obj.push(("dur", JsonValue::u64(d)));
            } else {
                // Instant scope: thread.
                obj.push(("s", JsonValue::str("t")));
            }
            obj.push((
                "args",
                JsonValue::Obj(
                    e.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), JsonValue::u64(*v)))
                        .collect(),
                ),
            ));
            arr.push(JsonValue::obj(obj));
        }
        JsonValue::Arr(arr).render()
    }

    /// Write the Chrome trace JSON to `path`.
    #[cfg(feature = "json")]
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_lookup_works() {
        for list in [registry::CATEGORIES, registry::EVENT_NAMES] {
            assert!(list.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        }
        assert!(registry::is_known_category("proto.handler"));
        assert!(!registry::is_known_category("proto.hanlder"));
        assert!(registry::is_known_event_name("read.remote"));
        assert!(!registry::is_known_event_name("nonsense"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.span(0, 0, "x", "c", 0, 10, &[("a", 1)]);
        t.instant(0, 0, "y", "c", 5, &[]);
        assert_eq!(t.len(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn clones_share_a_buffer_and_sort_by_track_time() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        t.span(0, 1, "b", "c", 50, 5, &[]);
        t2.span(0, 1, "a", "c", 10, 5, &[]);
        t2.span(0, 0, "z", "c", 99, 1, &[]);
        let ev = t.events_sorted();
        assert_eq!(ev.len(), 3);
        assert_eq!((ev[0].tid, ev[0].ts), (0, 99));
        assert_eq!((ev[1].tid, ev[1].ts), (1, 10));
        assert_eq!((ev[2].tid, ev[2].ts), (1, 50));
    }

    #[cfg(feature = "json")]
    #[test]
    fn chrome_json_is_a_valid_array() {
        let t = Tracer::enabled();
        t.span(
            track::PROTO,
            3,
            "read",
            "proto.handler",
            100,
            40,
            &[("page", 7)],
        );
        t.instant(track::PROTO, 3, "am.miss", "am.miss", 100, &[]);
        let doc = crate::json::parse(&t.to_chrome_json()).unwrap();
        let arr = doc.as_arr().unwrap();
        // 3 metadata records + 2 events.
        assert_eq!(arr.len(), 5);
        let span = arr
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("read"))
            .unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("dur").unwrap().as_u64(), Some(40));
        assert_eq!(
            span.get("args").unwrap().get("page").unwrap().as_u64(),
            Some(7)
        );
    }
}
