//! The traced run's ledger: a shadow cold start and a shadow forward that
//! re-drive the program op by op through its public calls.
//!
//! The shadow forward repeats `TinyTransformer::forward` on the OwL-P
//! engine: the same f32 glue (layernorm, softmax, GELU, residuals, head
//! slicing, BF16 rounding), the activation codec
//! (`encode_tensor_into` + `decode_packed_into`) and the packed kernel
//! (`owlp_gemm_packed`). Every op reads the activations the program
//! really produced — the preceding `ForwardTrace::gemm_outputs` — and its
//! own output must equal the program's bit for bit.

use crate::ledger::{Ledger, SpanId};
use crate::workload::{op_sequence, weight_names, weight_shapes, Op};
use owlp_arith::align::AlignUnit;
use owlp_arith::gemm::{owlp_gemm_packed, PreparedTensor};
use owlp_arith::pe::PeConfig;
use owlp_core::transformer::{ForwardTrace, TinyConfig};
use owlp_format::{encode_tensor_into, Bf16, EncodedTensor, MappedArchive, PackedOperands};
use std::path::Path;
use std::time::Instant;

/// The shadow cold start's split of `from_archive`, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColdStartSplit {
    /// `MappedArchive::open`: map, header/footer/index checks.
    pub open_s: f64,
    /// `MappedArchive::tensor` over every weight: plane digests + adoption.
    pub adopt_verify_s: f64,
    /// `MappedTensor::to_bf16_vec` over every weight: BF16 rebuild.
    pub to_bf16_s: f64,
}

/// Prepared weights per layer (wqkv, wo, w1, w2) adopted from the archive.
pub struct ShadowWeights {
    layers: Vec<[PreparedTensor; 4]>,
    /// Bytes of the weight planes a forward's kernels stream: panel
    /// planes (sval planes where no panels were stored) plus outlier
    /// side tables. Computed from plane sizes, not measured traffic.
    pub plane_bytes: u64,
}

/// Re-does `TinyTransformer::from_archive` step by step, timing each.
pub fn cold_start(c: TinyConfig, path: &Path) -> Result<(ShadowWeights, ColdStartSplit), String> {
    let mut split = ColdStartSplit::default();
    let t = Instant::now();
    let archive = MappedArchive::open(path).map_err(|e| format!("open: {e}"))?;
    split.open_s = t.elapsed().as_secs_f64();
    let shapes = weight_shapes(c);
    let mut plane_bytes = 0u64;
    let layers = (0..c.layers)
        .map(|l| {
            let names = weight_names(l);
            let mut prepared = Vec::with_capacity(4);
            for (name, &(k, n)) in names.iter().zip(&shapes) {
                let t = Instant::now();
                let mapped = archive
                    .tensor(name)
                    .map_err(|e| format!("tensor {name}: {e}"))?;
                split.adopt_verify_s += t.elapsed().as_secs_f64();
                if (mapped.k(), mapped.n()) != (k, n) {
                    return Err(format!(
                        "{name} is {}x{}, not {k}x{n}",
                        mapped.k(),
                        mapped.n()
                    ));
                }
                let t = Instant::now();
                std::hint::black_box(mapped.to_bf16_vec());
                split.to_bf16_s += t.elapsed().as_secs_f64();
                let p = PreparedTensor::from_mapped(mapped);
                let ops = p.packed();
                let main = p.panels().map_or(ops.svals().len(), |pn| pn.data().len()) * 2;
                plane_bytes +=
                    (main + ops.outlier_positions().len() * 4 + ops.outlier_exps().len()) as u64;
                prepared.push(p);
            }
            Ok(prepared.try_into().expect("four weights per layer"))
        })
        .collect::<Result<_, String>>()?;
    Ok((
        ShadowWeights {
            layers,
            plane_bytes,
        },
        split,
    ))
}

/// Seconds `MappedArchive::verify` takes to scrub every plane and tile.
pub fn scrub_s(path: &Path) -> Result<f64, String> {
    let archive = MappedArchive::open(path).map_err(|e| format!("open: {e}"))?;
    let t = Instant::now();
    archive.verify().map_err(|e| format!("verify: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// One op kind's share of a shadow forward.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStats {
    /// `owlp_gemm_packed` time.
    pub kernel_s: f64,
    /// Activation encode + packed decode time (both operands on the
    /// attention ops, whose right-hand side is an activation too).
    pub codec_s: f64,
    pub macs: u64,
    pub outlier_products: u64,
    pub max_wavefront_outliers: u64,
    pub act_outliers: u64,
    /// `Σ m·k` over the op's calls.
    pub act_elems: u64,
}

/// The ledger of one shadow forward.
#[derive(Debug, Clone, Default)]
pub struct ShadowForward {
    pub ops: [OpStats; 6],
    /// Time outside every op span, inside glue spans.
    pub glue_s: f64,
    /// The whole shadow forward's span.
    pub wall_s: f64,
    /// Σ op spans + Σ glue spans.
    pub accounted_s: f64,
    /// Ops whose output differs from `ForwardTrace::gemm_outputs`, plus
    /// one if the final hidden states differ.
    pub mismatches: usize,
}

impl ShadowForward {
    /// `|wall − accounted| / wall`.
    pub fn conservation_err(&self) -> f64 {
        (self.wall_s - self.accounted_s).abs() / self.wall_s
    }

    /// Σ kernel time over the four weight ops.
    pub fn weight_kernel_s(&self) -> f64 {
        Op::ALL
            .iter()
            .filter(|o| o.is_weight())
            .map(|o| self.ops[o.index()].kernel_s)
            .sum()
    }
}

/// Reusable activation-side codec buffers.
#[derive(Debug, Default)]
pub struct Scratch {
    enc_a: EncodedTensor,
    packed_a: PackedOperands,
    enc_b: EncodedTensor,
    packed_b: PackedOperands,
}

/// The right-hand operand of an op.
enum Rhs<'w> {
    Weight(&'w PreparedTensor),
    Activation(&'w [Bf16]),
}

struct Driver<'a> {
    ledger: &'a mut Ledger,
    scratch: &'a mut Scratch,
    real: &'a ForwardTrace,
    root: SpanId,
    next: usize,
    outs: Vec<Vec<f32>>,
    stats: ShadowForward,
}

impl<'a> Driver<'a> {
    fn glue<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.ledger.open(name, Some(self.root));
        let r = f();
        self.ledger.close(id);
        let s = self.ledger.get(id).secs();
        self.stats.glue_s += s;
        self.stats.accounted_s += s;
        r
    }

    /// Runs one GEMM and returns the program's output for it, which the
    /// rest of the shadow forward consumes.
    fn op(
        &mut self,
        op: Op,
        a: &[Bf16],
        rhs: Rhs<'_>,
        (m, k, n): (usize, usize, usize),
    ) -> Result<&'a [f32], String> {
        let span = self.ledger.open(op.name(), Some(self.root));
        let codec = self.ledger.open("codec", Some(span));
        let s = &mut *self.scratch;
        let fmt = |e: owlp_format::FormatError| format!("{} encode: {e}", op.name());
        encode_tensor_into(a, None, &mut s.enc_a).map_err(fmt)?;
        s.enc_a.decode_packed_into(&mut s.packed_a);
        let (b, panels) = match rhs {
            Rhs::Weight(w) => (w.packed(), w.panels()),
            Rhs::Activation(b) => {
                encode_tensor_into(b, None, &mut s.enc_b).map_err(fmt)?;
                s.enc_b.decode_packed_into(&mut s.packed_b);
                (&s.packed_b, None)
            }
        };
        self.ledger.close(codec);
        let kernel = self.ledger.open("kernel", Some(span));
        let out = owlp_gemm_packed(
            &s.packed_a,
            b,
            panels,
            m,
            k,
            n,
            PeConfig::PAPER,
            AlignUnit::Exact,
        )
        .map_err(|e| format!("{} kernel: {e}", op.name()))?;
        self.ledger.close(kernel);
        self.ledger.close(span);

        let st = &mut self.stats.ops[op.index()];
        st.codec_s += self.ledger.get(codec).secs();
        st.kernel_s += self.ledger.get(kernel).secs();
        st.macs += (m * k * n) as u64;
        st.outlier_products += out.total_outlier_products as u64;
        st.max_wavefront_outliers = st
            .max_wavefront_outliers
            .max(out.max_wavefront_outliers as u64);
        st.act_outliers += out.act_outliers as u64;
        st.act_elems += (m * k) as u64;
        self.stats.accounted_s += self.ledger.get(span).secs();
        self.outs.push(out.output);
        let real = self
            .real
            .gemm_outputs
            .get(self.next)
            .ok_or_else(|| format!("the program ran fewer than {} GEMMs", self.next + 1))?;
        self.next += 1;
        Ok(real)
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Re-drives one forward of `input` op by op against the program's trace
/// `real`, recording spans into `ledger`.
pub fn forward(
    c: TinyConfig,
    weights: &ShadowWeights,
    input: &[Bf16],
    real: &ForwardTrace,
    ledger: &mut Ledger,
    scratch: &mut Scratch,
) -> Result<ShadowForward, String> {
    let root = ledger.open("shadow_forward", None);
    let mut d = Driver {
        ledger,
        scratch,
        real,
        root,
        next: 0,
        outs: Vec::with_capacity(real.gemm_outputs.len()),
        stats: ShadowForward::default(),
    };
    let (seq, hid, dh) = (c.seq, c.hidden, c.hidden / c.heads);
    let mut x: Vec<f32> = d.glue("input", || input.iter().map(|b| b.to_f32()).collect());
    for w in &weights.layers {
        let normed = d.glue("layernorm", || layernorm(&x, seq, hid));
        let a = d.glue("bf16_round", || to_bf16(&normed));
        let qkv = d.op(Op::Qkv, &a, Rhs::Weight(&w[0]), (seq, hid, 3 * hid))?;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut ctx = vec![0.0f32; seq * hid];
        for h in 0..c.heads {
            let (q, k_t, v) = d.glue("head_slice", || {
                let slice = |base: usize| -> Vec<Bf16> {
                    (0..seq)
                        .flat_map(|t| {
                            let row = t * 3 * hid + base + h * dh;
                            qkv[row..row + dh].iter().map(|&v| Bf16::from_f32(v))
                        })
                        .collect()
                };
                (slice(0), transpose(&slice(hid), seq, dh), slice(2 * hid))
            });
            let scores = d.op(Op::AttnScore, &q, Rhs::Activation(&k_t), (seq, dh, seq))?;
            let probs = d.glue("softmax", || softmax_rows(scores, seq, seq, scale));
            let probs = d.glue("bf16_round", || to_bf16(&probs));
            let head = d.op(Op::AttnContext, &probs, Rhs::Activation(&v), (seq, seq, dh))?;
            d.glue("head_merge", || {
                for t in 0..seq {
                    ctx[t * hid + h * dh..t * hid + (h + 1) * dh]
                        .copy_from_slice(&head[t * dh..(t + 1) * dh]);
                }
            });
        }
        let a = d.glue("bf16_round", || to_bf16(&ctx));
        let proj = d.op(Op::OProj, &a, Rhs::Weight(&w[1]), (seq, hid, hid))?;
        d.glue("residual", || add_into(&mut x, proj));
        let normed = d.glue("layernorm", || layernorm(&x, seq, hid));
        let a = d.glue("bf16_round", || to_bf16(&normed));
        let up = d.op(Op::FfnUp, &a, Rhs::Weight(&w[2]), (seq, hid, c.ffn))?;
        let act: Vec<f32> = d.glue("gelu", || up.iter().map(|&u| gelu(u)).collect());
        let a = d.glue("bf16_round", || to_bf16(&act));
        let down = d.op(Op::FfnDown, &a, Rhs::Weight(&w[3]), (seq, c.ffn, hid))?;
        d.glue("residual", || add_into(&mut x, down));
    }
    d.ledger.close(root);
    let mut stats = d.stats;
    stats.wall_s = d.ledger.get(root).secs();
    stats.mismatches = usize::from(real.gemm_outputs.len() != op_sequence(c).len())
        + d.outs
            .iter()
            .zip(&real.gemm_outputs)
            .filter(|(o, r)| !same_bits(o, r))
            .count()
        + usize::from(!same_bits(&x, &real.output));
    Ok(stats)
}

// --- The program's f32 glue, restated op for op: any drift from
// `TinyTransformer::forward` shows as a shadow mismatch.

fn to_bf16(xs: &[f32]) -> Vec<Bf16> {
    xs.iter().map(|&x| Bf16::from_f32(x)).collect()
}

fn add_into(x: &mut [f32], y: &[f32]) {
    for (xi, yi) in x.iter_mut().zip(y) {
        *xi += yi;
    }
}

fn transpose(m: &[Bf16], rows: usize, cols: usize) -> Vec<Bf16> {
    let mut out = vec![Bf16::ZERO; rows * cols];
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = m[r * cols + c];
        }
    }
    out
}

fn layernorm(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for c in 0..cols {
            out[r * cols + c] = (row[c] - mean) * inv;
        }
    }
    out
}

fn softmax_rows(scores: &[f32], rows: usize, cols: usize, scale: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; scores.len()];
    for r in 0..rows {
        let row = &scores[r * cols..(r + 1) * cols];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b * scale));
        let mut denom = 0.0f32;
        for c in 0..cols {
            let e = (row[c] * scale - max).exp();
            out[r * cols + c] = e;
            denom += e;
        }
        for c in 0..cols {
            out[r * cols + c] /= denom;
        }
    }
    out
}

fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ScratchArchive;
    use owlp_core::transformer::{GemmEngine, TinyTransformer};

    fn setup(cfg: TinyConfig, name: &str) -> (ScratchArchive, TinyTransformer, Vec<Bf16>) {
        let dir = std::env::temp_dir().join(format!(
            "owlp-perfbench-shadow-{name}-{}",
            std::process::id()
        ));
        let archive = ScratchArchive::reserve(&dir).unwrap();
        let model = TinyTransformer::new(cfg, crate::workload::MODEL, 9);
        model.save_archive(archive.path()).unwrap();
        let x = (0..cfg.seq * cfg.hidden)
            .map(|i| Bf16::from_f32(((i * 7) % 17) as f32 * 0.0625 - 0.5))
            .collect();
        (archive, model, x)
    }

    #[test]
    fn shadow_forward_matches_the_program_bit_for_bit() {
        let cfg = TinyConfig {
            seq: 8,
            hidden: 32,
            heads: 4,
            ffn: 64,
            layers: 2,
        };
        let (archive, model, x) = setup(cfg, "match");
        let (weights, split) = cold_start(cfg, archive.path()).unwrap();
        assert!(split.open_s > 0.0 && split.adopt_verify_s > 0.0);
        let real = model.forward(&x, GemmEngine::Owlp).unwrap();
        let mut ledger = Ledger::default();
        let s = forward(
            cfg,
            &weights,
            &x,
            &real,
            &mut ledger,
            &mut Scratch::default(),
        )
        .unwrap();
        assert_eq!(s.mismatches, 0);
        assert!(s.accounted_s <= s.wall_s);
        let score_macs =
            (cfg.layers * cfg.heads * cfg.seq * (cfg.hidden / cfg.heads) * cfg.seq) as u64;
        assert_eq!(s.ops[Op::AttnScore.index()].macs, score_macs);
        assert!(s.ops.iter().all(|o| o.act_elems > 0));
    }

    #[test]
    fn shadow_forward_counts_a_corrupted_program_output() {
        let cfg = TinyConfig::small();
        let (archive, model, x) = setup(cfg, "corrupt");
        let (weights, _) = cold_start(cfg, archive.path()).unwrap();
        let mut real = model.forward(&x, GemmEngine::Owlp).unwrap();
        real.gemm_outputs[2][1] = f32::from_bits(real.gemm_outputs[2][1].to_bits() ^ 1);
        let mut ledger = Ledger::default();
        let s = forward(
            cfg,
            &weights,
            &x,
            &real,
            &mut ledger,
            &mut Scratch::default(),
        )
        .unwrap();
        assert!(s.mismatches >= 1);
    }
}
