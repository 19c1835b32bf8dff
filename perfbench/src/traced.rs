//! The traced run: per-layer metrics from a shadow cold start and shadow
//! forwards interleaved with untraced forwards of the same model.

use crate::archive::PackReport;
use crate::e2e::{timed_forward, Gate, COLD_STARTS, MIN_SAMPLES};
use crate::ledger::Ledger;
use crate::shadow::{self, Scratch, ShadowForward};
use crate::stats::median;
use crate::workload::{Op, Workload};
use crate::Metric;
use owlp_core::transformer::TinyTransformer;
use owlp_format::Bf16;
use std::path::Path;
use std::time::{Duration, Instant};

/// Op spans plus glue spans must cover each shadow forward's wall time
/// to within this share.
pub const CONSERVATION_BOUND: f64 = 0.05;

/// A shadow forward must take within this share of the untraced forward
/// it shadows (median over rounds).
pub const OVERHEAD_BOUND: f64 = 0.25;

/// Per-layer metrics, the spans behind them, and the correctness tally.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    pub gate: Gate,
    /// Shadow forwards run, and those with any op or output differing
    /// from the program's.
    pub shadow_forwards: u64,
    pub shadow_failed: u64,
}

fn med(samples: &[ShadowForward], f: impl Fn(&ShadowForward) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// Runs the traced workload. Fails when the ledger does not conserve
/// time or the shadow forward does not track the untraced one.
pub fn run(
    workload: Workload,
    archive: &Path,
    inputs: &[Vec<Bf16>],
    threads: usize,
    seconds: f64,
    pack: PackReport,
) -> Result<Traced, String> {
    let c = workload.config();
    let mut ledger = Ledger::default();

    let mut splits = Vec::with_capacity(COLD_STARTS);
    let mut scrubs = Vec::with_capacity(COLD_STARTS);
    let mut weights = None;
    for _ in 0..COLD_STARTS {
        drop(weights.take());
        let (w, split) =
            ledger.span("shadow_cold_start", None, || shadow::cold_start(c, archive))?;
        splits.push(split);
        weights = Some(w);
        scrubs.push(ledger.span("scrub", None, || shadow::scrub_s(archive))?);
    }
    let weights = weights.expect("at least one cold start");
    let model =
        TinyTransformer::from_archive(c, archive).map_err(|e| format!("from_archive: {e}"))?;
    let mut gate = Gate::new(&model, inputs).map_err(|e| format!("exact forward: {e}"))?;

    let mut scratch = Scratch::default();
    let (mut untraced, mut traced_n, mut traced_1) = (Vec::new(), Vec::new(), Vec::new());
    let mut shadow_failed = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut step = 0usize;
    while Instant::now() < deadline || untraced.len() < MIN_SAMPLES {
        let i = step % inputs.len();
        let (real, secs) = timed_forward(&model, &inputs[i], threads);
        gate.check(i, &real);
        untraced.push(secs);
        let real = real.map_err(|e| format!("forward: {e}"))?;
        for (budget, out) in [(threads, &mut traced_n), (1, &mut traced_1)] {
            let s = owlp_par::with_threads(budget, || {
                shadow::forward(c, &weights, &inputs[i], &real, &mut ledger, &mut scratch)
            })?;
            shadow_failed += u64::from(s.mismatches > 0);
            out.push(s);
        }
        step += 1;
    }

    let conservation = traced_n
        .iter()
        .chain(&traced_1)
        .map(ShadowForward::conservation_err)
        .fold(0.0, f64::max);
    if conservation > CONSERVATION_BOUND {
        return Err(format!(
            "time conservation violated: op + glue spans miss {:.1}% of a shadow forward (bound {:.0}%)",
            conservation * 100.0,
            CONSERVATION_BOUND * 100.0
        ));
    }
    let forward_s = median(&untraced);
    let (n, one) = (&traced_n, &traced_1);
    // Each shadow forward runs right after the untraced forward it
    // shadows; pairing them keeps host-speed drift out of the ratio.
    let overhead = median(
        &n.iter()
            .zip(&untraced)
            .map(|(s, &u)| s.wall_s / u)
            .collect::<Vec<_>>(),
    ) - 1.0;
    if overhead.abs() > OVERHEAD_BOUND {
        return Err(format!(
            "shadow forward takes {:+.1}% vs the untraced forward (bound ±{:.0}%)",
            overhead * 100.0,
            OVERHEAD_BOUND * 100.0
        ));
    }

    // Counts repeat exactly: take them from the first shadow forward of
    // input 0 at the thread budget.
    let first = &traced_n[0];
    let mut metrics = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| metrics.push(Metric { name, value, unit });
    for op in Op::ALL {
        let k = op.index();
        let name = op.name();
        let kernel_n = med(n, |s| s.ops[k].kernel_s);
        let kernel_1 = med(one, |s| s.ops[k].kernel_s);
        let st = first.ops[k];
        push(format!("arith.{name}.kernel_s"), kernel_n, "s");
        push(
            format!("arith.{name}.gmacs"),
            st.macs as f64 / kernel_n / 1e9,
            "GMAC/s",
        );
        push(
            format!("arith.{name}.outlier_products"),
            st.outlier_products as f64,
            "count",
        );
        push(
            format!("arith.{name}.max_wavefront_outliers"),
            st.max_wavefront_outliers as f64,
            "count",
        );
        push(
            format!("format.{name}.act_codec_s"),
            med(n, |s| s.ops[k].codec_s),
            "s",
        );
        push(
            format!("format.{name}.act_outlier_ratio"),
            st.act_outliers as f64 / st.act_elems as f64,
            "ratio",
        );
        push(
            format!("par.{name}.efficiency"),
            kernel_1 / (threads as f64 * kernel_n),
            "ratio",
        );
    }
    push(
        "arith.weight_gbps_computed".into(),
        weights.plane_bytes as f64 / med(n, ShadowForward::weight_kernel_s) / 1e9,
        "GB/s",
    );
    push("core.glue_s".into(), med(n, |s| s.glue_s), "s");
    let split =
        |f: fn(&shadow::ColdStartSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    push("format.open_s".into(), split(|s| s.open_s), "s");
    push(
        "format.adopt_verify_s".into(),
        split(|s| s.adopt_verify_s),
        "s",
    );
    push("format.to_bf16_s".into(), split(|s| s.to_bf16_s), "s");
    push("format.pack_s".into(), pack.pack_s, "s");
    push(
        "format.pack_peak_alloc_bytes".into(),
        pack.peak_alloc_bytes as f64,
        "B",
    );
    push(
        "format.archive_bytes".into(),
        pack.archive_bytes as f64,
        "B",
    );
    push("format.scrub_s".into(), median(&scrubs), "s");
    push("core.forward_s".into(), forward_s, "s");
    push("core.trace_overhead_frac".into(), overhead, "ratio");
    push("core.time_conservation_err".into(), conservation, "ratio");
    Ok(Traced {
        metrics,
        ledger,
        gate,
        shadow_forwards: (traced_n.len() + traced_1.len()) as u64,
        shadow_failed,
    })
}
