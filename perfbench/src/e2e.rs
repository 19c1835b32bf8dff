//! The untraced closed loop: cold starts, back-to-back forwards at the
//! thread budget and at one thread, and the bit-exact correctness gate.

use crate::stats::{median, p90_with_tail, peak_rss_mib};
use crate::workload::Workload;
use owlp_arith::ArithError;
use owlp_core::transformer::{ForwardTrace, GemmEngine, TinyTransformer};
use owlp_format::Bf16;
use std::path::Path;
use std::time::{Duration, Instant};

/// Cold starts per run; `setup_s` is their median.
pub const COLD_STARTS: usize = 5;

/// Samples each thread budget gets even when `--seconds` runs out first.
pub const MIN_SAMPLES: usize = 3;

/// Whether `got` matches `want` bit for bit: output and every GEMM output.
pub fn bit_identical(got: &ForwardTrace, want: &ForwardTrace) -> bool {
    fn same(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }
    same(&got.output, &want.output)
        && got.gemm_outputs.len() == want.gemm_outputs.len()
        && got
            .gemm_outputs
            .iter()
            .zip(&want.gemm_outputs)
            .all(|(g, w)| same(g, w))
}

/// Counts forwards against the exact engine's references.
#[derive(Debug)]
pub struct Gate {
    refs: Vec<ForwardTrace>,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// One untimed exact-engine forward per input of the pool.
    pub fn new(model: &TinyTransformer, inputs: &[Vec<Bf16>]) -> Result<Gate, ArithError> {
        let refs = inputs
            .iter()
            .map(|x| model.forward(x, GemmEngine::Exact))
            .collect::<Result<_, _>>()?;
        Ok(Gate {
            refs,
            attempted: 0,
            failed: 0,
        })
    }

    /// Records one forward of input `i`: it fails when it returned `Err`
    /// or differs in any bit from the reference.
    pub fn check(&mut self, i: usize, got: &Result<ForwardTrace, ArithError>) -> bool {
        self.attempted += 1;
        let ok = got.as_ref().is_ok_and(|t| bit_identical(t, &self.refs[i]));
        if !ok {
            self.failed += 1;
        }
        ok
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// End-to-end figures of one untraced run.
#[derive(Debug)]
pub struct E2e {
    pub tokens_per_s: f64,
    pub tokens_per_s_1t: f64,
    pub forward_ms_p50: f64,
    pub forward_ms_p90: Option<f64>,
    pub setup_s: f64,
    pub peak_rss_mib: f64,
    pub samples: usize,
    pub samples_1t: usize,
    pub gate: Gate,
}

/// Cold start: map + verify + adopt + BF16 rebuild, through the end of
/// the first forward.
fn cold_start(
    workload: Workload,
    archive: &Path,
    input: &[Bf16],
) -> Result<(TinyTransformer, Result<ForwardTrace, ArithError>, f64), String> {
    let t = Instant::now();
    let model = TinyTransformer::from_archive(workload.config(), archive)
        .map_err(|e| format!("from_archive: {e}"))?;
    let first = model.forward(input, GemmEngine::Owlp);
    Ok((model, first, t.elapsed().as_secs_f64()))
}

/// One OwL-P forward under a `threads` budget, and its wall seconds.
pub fn timed_forward(
    model: &TinyTransformer,
    input: &[Bf16],
    threads: usize,
) -> (Result<ForwardTrace, ArithError>, f64) {
    owlp_par::with_threads(threads, || {
        let t = Instant::now();
        let r = std::hint::black_box(model.forward(std::hint::black_box(input), GemmEngine::Owlp));
        (r, t.elapsed().as_secs_f64())
    })
}

/// Runs the untraced workload: [`COLD_STARTS`] cold starts, then
/// alternating forwards at `threads` and at one thread for `seconds`.
pub fn run(
    workload: Workload,
    archive: &Path,
    inputs: &[Vec<Bf16>],
    threads: usize,
    seconds: f64,
) -> Result<E2e, String> {
    let mut setup = Vec::with_capacity(COLD_STARTS);
    let mut gate = None::<Gate>;
    let mut model = None;
    for _ in 0..COLD_STARTS {
        drop(model.take()); // one resident model at a time
        let (m, first, secs) = cold_start(workload, archive, &inputs[0])?;
        setup.push(secs);
        let g = match &mut gate {
            Some(g) => g,
            None => gate.insert(Gate::new(&m, inputs).map_err(|e| format!("exact forward: {e}"))?),
        };
        g.check(0, &first);
        model = Some(m);
    }
    let (model, mut gate) = (
        model.expect("at least one cold start"),
        gate.expect("gate built"),
    );

    let tokens = workload.config().seq as f64;
    let (mut n_t, mut one_t) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut step = 0usize;
    while Instant::now() < deadline || n_t.len() < MIN_SAMPLES {
        let i = step % inputs.len();
        let (r, secs) = timed_forward(&model, &inputs[i], threads);
        gate.check(i, &r);
        n_t.push(secs);
        let (r, secs) = timed_forward(&model, &inputs[i], 1);
        gate.check(i, &r);
        one_t.push(secs);
        step += 1;
    }
    Ok(E2e {
        tokens_per_s: tokens / median(&n_t),
        tokens_per_s_1t: tokens / median(&one_t),
        forward_ms_p50: median(&n_t) * 1e3,
        forward_ms_p90: p90_with_tail(&n_t).map(|s| s * 1e3),
        setup_s: median(&setup),
        peak_rss_mib: peak_rss_mib()?,
        samples: n_t.len(),
        samples_1t: one_t.len(),
        gate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use owlp_core::transformer::TinyConfig;

    fn small() -> (TinyTransformer, Vec<Vec<Bf16>>) {
        let cfg = TinyConfig::small();
        let model = TinyTransformer::new(cfg, crate::workload::MODEL, 5);
        let x = (0..cfg.seq * cfg.hidden)
            .map(|i| Bf16::from_f32((i % 13) as f32 * 0.125 - 0.75))
            .collect();
        (model, vec![x])
    }

    #[test]
    fn owlp_forward_passes_the_gate() {
        let (model, inputs) = small();
        let mut gate = Gate::new(&model, &inputs).unwrap();
        assert!(gate.check(0, &model.forward(&inputs[0], GemmEngine::Owlp)));
        assert_eq!((gate.attempted, gate.failed), (1, 0));
        assert_eq!(gate.error_rate(), 0.0);
    }

    #[test]
    fn a_corrupted_output_is_counted() {
        let (model, inputs) = small();
        let mut gate = Gate::new(&model, &inputs).unwrap();
        let good = model.forward(&inputs[0], GemmEngine::Owlp).unwrap();

        let mut flipped = good.clone();
        flipped.output[3] = f32::from_bits(flipped.output[3].to_bits() ^ 1);
        assert!(!gate.check(0, &Ok(flipped)));

        let mut inner = good.clone();
        let last = inner.gemm_outputs.len() - 1;
        inner.gemm_outputs[last][0] = f32::from_bits(inner.gemm_outputs[last][0].to_bits() ^ 1);
        assert!(!gate.check(0, &Ok(inner)));

        let mut short = good.clone();
        short.gemm_outputs.pop();
        assert!(!gate.check(0, &Ok(short)));

        let err = ArithError::DimensionMismatch {
            what: "A",
            expected: 1,
            actual: 0,
        };
        assert!(!gate.check(0, &Err(err)));
        assert!(gate.check(0, &Ok(good)));
        assert_eq!((gate.attempted, gate.failed), (5, 4));
        assert_eq!(gate.error_rate(), 0.8);
    }

    #[test]
    fn the_fp_baseline_fails_the_gate() {
        // A real engine drift, not a hand-made flip, must be caught too.
        let (model, inputs) = small();
        let mut gate = Gate::new(&model, &inputs).unwrap();
        assert!(!gate.check(0, &model.forward(&inputs[0], GemmEngine::FpBaseline)));
    }
}
