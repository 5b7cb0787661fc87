//! Chrome `trace_event` JSON export.
//!
//! The format is the Trace Event Format consumed by `chrome://tracing` and
//! Perfetto: a `traceEvents` array of objects with `ph` (phase letter),
//! `ts`/`dur` in microseconds, `pid`/`tid` tracks and free-form `args`.
//! We map the virtual machine onto one process (pid 0) with one thread per
//! rank (tid = rank) plus a global track (tid = p) carrying phase blocks,
//! sync points and decision instants.
//!
//! The export is a pure function of the recorded events: float formatting
//! uses Rust's shortest-round-trip `Display`, so identical traces always
//! serialise to identical bytes.

use crate::json::quote;
use crate::tracer::{SpanKind, Tracer};

/// Virtual seconds → Chrome microseconds, rendered deterministically.
fn us(t: f64) -> String {
    format!("{}", t * 1e6)
}

/// Serialises the full trace as Chrome `trace_event` JSON.
///
/// Open the result in `chrome://tracing` or drag it into
/// <https://ui.perfetto.dev>. Rank timelines are threads of process 0;
/// phase blocks, sync instants and decision events live on the extra
/// "phases" track.
pub fn chrome_trace_json(t: &Tracer) -> String {
    let p = t.p();
    let mut ev: Vec<String> = Vec::new();
    ev.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
         \"args\":{\"name\":\"optipart virtual BSP machine\"}}"
            .to_string(),
    );
    for r in 0..p {
        ev.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{r},\
             \"args\":{{\"name\":\"rank {r}\"}}}}"
        ));
    }
    ev.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{p},\
         \"args\":{{\"name\":\"phases\"}}}}"
    ));

    for ps in t.phase_spans() {
        ev.push(format!(
            "{{\"name\":{},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\
             \"dur\":{},\"pid\":0,\"tid\":{p},\"args\":{{\"bytes\":{}}}}}",
            quote(t.name(ps.name)),
            us(ps.t0),
            us(ps.t1 - ps.t0),
            ps.bytes,
        ));
    }
    for d in t.decisions() {
        let args: Vec<String> = d
            .args
            .iter()
            .map(|&(k, v)| format!("{}:{}", quote(t.name(k)), v))
            .collect();
        ev.push(format!(
            "{{\"name\":{},\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"p\",\
             \"ts\":{},\"pid\":0,\"tid\":{p},\"args\":{{{}}}}}",
            quote(t.name(d.name)),
            us(d.t),
            args.join(","),
        ));
    }
    for s in t.syncs() {
        ev.push(format!(
            "{{\"name\":\"sync:{},\"cat\":\"sync\",\"ph\":\"i\",\"s\":\"p\",\
             \"ts\":{},\"pid\":0,\"tid\":{p},\"args\":{{\"blocker\":{}}}}}",
            // The literal minus its opening quote: the prefix sits inside it.
            &quote(t.name(s.name))[1..],
            us(s.t),
            s.blocker,
        ));
    }
    for (r, spans) in t.spans().iter().enumerate() {
        for s in spans {
            let cat = match s.kind {
                SpanKind::Compute => "compute",
                SpanKind::Comm => "comm",
            };
            ev.push(format!(
                "{{\"name\":{},\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":0,\"tid\":{r},\"args\":{{\"bytes\":{},\
                 \"phase\":{}}}}}",
                quote(t.name(s.name)),
                us(s.t0),
                us(s.t1 - s.t0),
                s.bytes,
                quote(t.name(s.phase)),
            ));
        }
    }
    for m in t.marks() {
        ev.push(format!(
            "{{\"name\":{},\"cat\":\"mark\",\"ph\":\"i\",\"s\":\"t\",\
             \"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{\"value\":{}}}}}",
            quote(t.name(m.name)),
            us(m.t),
            m.rank,
            m.value,
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// FNV-1a over a byte string — the digest primitive behind
/// [`chrome_trace_digest`], exposed so harnesses can fingerprint other
/// deterministic artefacts (reports, solution vectors) the same way.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A 64-bit fingerprint of the full Chrome export. Byte-identity of traces
/// is the repo's determinism contract (same seed ⇒ same trace at any host
/// thread count); the digest lets cross-run and cross-thread-count checks
/// compare traces without holding two multi-megabyte strings.
pub fn chrome_trace_digest(t: &Tracer) -> u64 {
    fnv1a(chrome_trace_json(t).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_is_valid_shape_and_deterministic() {
        let build = || {
            let mut t = Tracer::new(2);
            t.enable_spans();
            t.phase_begin("work");
            t.record_compute(0, 0.0, 1.5, 100);
            t.begin_collective("allreduce", 1.5, 0);
            t.record_comm(0, 1.5, 1.75, 8, 0);
            t.record_comm(1, 1.5, 1.75, 8, 0);
            t.phase_end(0.0, 1.75, 16);
            t.mark(1, 0.0, "fault.straggler", 4.0);
            t.decision(1.75, "probe", &[("tp", 0.5)]);
            t
        };
        let a = chrome_trace_json(&build());
        let b = chrome_trace_json(&build());
        assert_eq!(a, b, "export must be byte-identical");
        assert!(a.starts_with('{') && a.trim_end().ends_with('}'));
        assert!(a.contains("\"allreduce\""));
        assert!(a.contains("\"fault.straggler\""));
        assert!(a.contains("\"probe\""));
        // Balanced braces (cheap well-formedness check without a parser).
        let open = a.matches('{').count();
        let close = a.matches('}').count();
        assert_eq!(open, close);
    }
}
