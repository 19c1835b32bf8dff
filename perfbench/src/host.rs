//! The per-run record: host, kernel-path state and seed, so runs from
//! different hosts or environment settings are never compared silently.

use owlp_arith::microkernel::{MR, NR};
use std::fmt::Write;

/// Environment variables that change the kernel path or the pack budget.
pub const ENV_KNOBS: [&str; 4] = [
    "OWLP_SIMD",
    "OWLP_BLOCK",
    "OWLP_THREADS",
    "OWLP_STREAM_BUDGET",
];

/// The run record as one JSON object.
pub fn run_record(workload: &str, seed: u64, trace: bool, seconds: u64) -> String {
    let cache = owlp_format::cache_info();
    let mut env = String::new();
    for (i, var) in ENV_KNOBS.iter().enumerate() {
        let value = std::env::var(var).map_or("null".to_string(), |v| json_str(&v));
        let sep = if i == 0 { "" } else { ", " };
        write!(env, "{sep}\"{var}\": {value}").expect("writing to a String");
    }
    format!(
        concat!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, ",
            "\"nproc\": {}, \"thread_budget\": {}, \"cpu_model\": {}, ",
            "\"cache\": {{\"l1d\": {}, \"l2\": {}, \"l3\": {}, \"detected\": {}}}, ",
            "\"simd_tier\": {}, \"block_geometry_owlp\": {}, \"block_geometry_exact\": {}, ",
            "\"env\": {{{}}}}}"
        ),
        json_str(workload),
        seed,
        trace,
        seconds,
        owlp_par::hardware_threads(),
        owlp_par::thread_budget(),
        owlp_format::blocking::cpu_model().map_or("null".to_string(), |m| json_str(&m)),
        cache.l1d,
        cache.l2,
        cache.l3,
        cache.detected,
        json_str(owlp_arith::microkernel::selected_tier().name()),
        // The same resolution the OwL-P (2-byte svals) and exact (4-byte
        // band lanes) drive loops make before clamping to a shape.
        json_str(&owlp_format::block_geometry(2, MR, NR).to_string()),
        json_str(&owlp_format::block_geometry(4, MR, NR).to_string()),
        env,
    )
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn record_names_every_knob_and_the_seed() {
        let r = run_record("decode", 42, false, 10);
        for var in ENV_KNOBS {
            assert!(r.contains(var), "{var} missing from {r}");
        }
        assert!(r.contains("\"seed\": 42"));
        assert!(r.contains("\"simd_tier\""));
        assert!(r.contains("\"block_geometry_owlp\""));
    }
}
