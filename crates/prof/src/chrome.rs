//! Multi-track Chrome/Perfetto trace export.
//!
//! Converts a [`Span`] list into the Trace Event JSON format that
//! `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! render: one `pid 0` process with a named thread per track — `tid 0`
//! the host thread, `tid 1` the hidden helper threads, `tid 10 + k` the
//! stream with the k-th smallest id, `tid 1000 + m` pool member `m` —
//! `ph:"X"` duration events for spans (timestamps in microseconds of
//! *modeled* time), and `ph:"s"` / `ph:"f"` flow arrows from a `nowait`
//! submission to the work it enqueued. Byte counts ride in `args`, so
//! memcpy bars show their sizes.
//!
//! Stream workers record their spans concurrently, so the span log's
//! interleaving of tracks varies from run to run. The output does not:
//! events are written grouped by track — host, tasks, streams by id,
//! then pool devices by member — keeping record order within each track.
//!
//! This is the workspace's one Chrome-trace writer.

use ompx_sim::json;
use ompx_sim::span::{Span, Track};

const HOST_TID: u32 = 0;
const TASKS_TID: u32 = 1;
const STREAM_TID_BASE: u32 = 10;
/// Pool-device tracks (`ompx-serve`) sit above the stream range so a trace
/// with both keeps stable ids: `tid 1000 + member index`.
const DEVICE_TID_BASE: u32 = 1000;

/// Output order of a track: host, tasks, streams by id, devices by member.
fn track_key(track: &Track) -> (u8, u64) {
    match *track {
        Track::Host => (0, 0),
        Track::Tasks => (1, 0),
        Track::Stream(id) => (2, id),
        Track::Device(member) => (3, member as u64),
    }
}

/// Stable tid assignment: host and tasks are fixed, streams get
/// `STREAM_TID_BASE + k` by rank in the ascending `streams` ids.
fn tid_of(track: &Track, streams: &[u64]) -> u32 {
    match track {
        Track::Host => HOST_TID,
        Track::Tasks => TASKS_TID,
        Track::Stream(id) => STREAM_TID_BASE + streams.partition_point(|s| s < id) as u32,
        Track::Device(member) => DEVICE_TID_BASE + *member as u32,
    }
}

/// Render `spans` as a Chrome trace-event JSON document.
pub fn to_chrome_trace(spans: &[Span]) -> String {
    let mut ordered: Vec<&Span> = spans.iter().collect();
    // Stable: spans of one track keep their record order.
    ordered.sort_by_key(|s| track_key(&s.track));
    let mut tracks: Vec<Track> = ordered.iter().map(|s| s.track).collect();
    tracks.dedup();
    let streams: Vec<u64> = tracks
        .iter()
        .filter_map(|t| match t {
            Track::Stream(id) => Some(*id),
            _ => None,
        })
        .collect();

    let mut events: Vec<String> = Vec::new();
    // Thread-name metadata first, so viewers label tracks before any event.
    events.push(meta_thread_name(HOST_TID, "host (modeled time)"));
    for track in &tracks {
        let tid = tid_of(track, &streams);
        match track {
            Track::Host => {}
            Track::Tasks => {
                events.push(meta_thread_name(tid, "hidden helper threads (nowait tasks)"))
            }
            Track::Stream(id) => {
                events.push(meta_thread_name(tid, &format!("stream {id} (interop obj)")))
            }
            Track::Device(member) => {
                events.push(meta_thread_name(tid, &format!("pool device {member}")))
            }
        }
    }

    for s in ordered {
        let tid = tid_of(&s.track, &streams);
        let ts_us = s.start_s * 1e6;
        let dur_us = s.dur_s * 1e6;
        let trace_arg = match s.trace {
            Some(id) => format!(",\"trace\":{id}"),
            None => String::new(),
        };
        events.push(format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.6},\"dur\":{:.6},\"args\":{{\"bytes\":{}{}}}}}",
            json::quoted(&s.name),
            s.cat.label(),
            tid,
            ts_us,
            dur_us,
            s.bytes,
            trace_arg
        ));
        // Flow arrows: tail ("s") rides at the end of the emitting span,
        // head ("f", bp:"e") binds to the enclosing receiving slice.
        if let Some(id) = s.flow_out {
            events.push(format!(
                "{{\"name\":\"nowait\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{:.6}}}",
                id,
                tid,
                ts_us + dur_us
            ));
        }
        if let Some(id) = s.flow_in {
            events.push(format!(
                "{{\"name\":\"nowait\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":0,\"tid\":{},\"ts\":{:.6}}}",
                id,
                tid,
                ts_us + dur_us * 0.5
            ));
        }
    }

    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

fn meta_thread_name(tid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\"args\":{{\"name\":{}}}}}",
        tid,
        json::quoted(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompx_sim::span::SpanCategory;

    fn span(track: Track, name: &str, flow_out: Option<u64>, flow_in: Option<u64>) -> Span {
        Span {
            track,
            name: name.to_string(),
            cat: SpanCategory::Kernel,
            start_s: 1e-6,
            dur_s: 2e-6,
            bytes: 64,
            flow_in,
            flow_out,
            trace: None,
        }
    }

    #[test]
    fn tracks_get_named_tids() {
        let spans = vec![
            span(Track::Host, "submit", Some(1), None),
            span(Track::Stream(42), "k", None, Some(1)),
            span(Track::Stream(7), "k2", None, None),
            span(Track::Tasks, "t", None, None),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.contains("\"name\":\"host (modeled time)\""));
        assert!(json.contains("\"name\":\"stream 42 (interop obj)\""));
        assert!(json.contains("\"name\":\"stream 7 (interop obj)\""));
        assert!(json.contains("hidden helper threads"));
        // Streams are numbered by ascending id, not by first appearance.
        assert!(json.contains("\"tid\":10,\"args\":{\"name\":\"stream 7"));
        assert!(json.contains("\"tid\":11,\"args\":{\"name\":\"stream 42"));
    }

    #[test]
    fn interleaving_of_tracks_does_not_change_the_bytes() {
        // The same per-track sequences, recorded in two interleavings in
        // which the streams first appear in opposite orders.
        let host = [
            span(Track::Host, "submit a", Some(1), None),
            span(Track::Host, "submit b", Some(2), None),
        ];
        let a = [
            span(Track::Stream(12), "a1", None, Some(1)),
            span(Track::Stream(12), "a2", None, None),
        ];
        let b = [
            span(Track::Stream(11), "b1", None, Some(2)),
            span(Track::Stream(11), "b2", None, None),
        ];
        let task = span(Track::Tasks, "t", None, None);
        let first = vec![
            host[0].clone(),
            a[0].clone(),
            host[1].clone(),
            b[0].clone(),
            a[1].clone(),
            task.clone(),
            b[1].clone(),
        ];
        let second = vec![
            b[0].clone(),
            task,
            host[0].clone(),
            b[1].clone(),
            a[0].clone(),
            host[1].clone(),
            a[1].clone(),
        ];
        let json = to_chrome_trace(&first);
        assert_eq!(json, to_chrome_trace(&second));
        // Grouped by track in record order: host, tasks, then streams by id.
        let order: Vec<usize> = ["submit a", "submit b", "\"t\"", "b1", "b2", "a1", "a2"]
            .iter()
            .map(|name| json.find(name).expect(name))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{json}");
    }

    #[test]
    fn flow_arrows_pair_s_and_f_on_the_same_id() {
        let spans = vec![
            span(Track::Host, "submit", Some(9), None),
            span(Track::Stream(1), "k", None, Some(9)),
        ];
        let json = to_chrome_trace(&spans);
        assert!(json.contains("\"ph\":\"s\",\"id\":9"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":9"));
    }

    #[test]
    fn names_are_escaped_and_bytes_carried() {
        let mut s = span(Track::Host, "memcpy \"H2D\"", None, None);
        s.bytes = 4096;
        let json = to_chrome_trace(&[s]);
        assert!(json.contains("memcpy \\\"H2D\\\""));
        assert!(json.contains("\"args\":{\"bytes\":4096}"));
    }

    #[test]
    fn trace_ids_ride_in_args() {
        let mut s = span(Track::Device(0), "batch", None, None);
        s.trace = Some(17);
        let json = to_chrome_trace(&[s]);
        assert!(json.contains("\"args\":{\"bytes\":64,\"trace\":17}"));
    }
}
