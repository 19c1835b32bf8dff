//! The three workloads: transformer shapes, seeded inputs, and the op
//! order of one forward pass.

use owlp_core::transformer::TinyConfig;
use owlp_format::Bf16;
use owlp_model::profiles::{profile_for, Dataset, TensorRole};
use owlp_model::{ModelId, OpKind, TensorGen};

/// Weights follow this model's calibrated profiles; inputs its WikiText-2
/// activation profile.
pub const MODEL: ModelId = ModelId::Llama2_7b;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Prompt processing: prepared-weight GEMMs on real activations.
    Prefill,
    /// One token per forward over 50M weights: weight-streaming GEMV.
    Decode,
    /// seq/hidden = 8: attention GEMMs with both operands encoded per call.
    LongContext,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Prefill, Workload::Decode, Workload::LongContext];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Prefill => "prefill",
            Workload::Decode => "decode",
            Workload::LongContext => "long_context",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn config(self) -> TinyConfig {
        let (seq, hidden, heads, ffn, layers) = match self {
            Workload::Prefill => (128, 512, 8, 2048, 2),
            Workload::Decode => (1, 1024, 8, 4096, 4),
            Workload::LongContext => (512, 128, 4, 512, 2),
        };
        TinyConfig {
            seq,
            hidden,
            heads,
            ffn,
            layers,
        }
    }

    /// Distinct inputs the closed loop cycles through, each checked
    /// against its own exact-engine reference. Decode draws a fresh token
    /// row per step from a larger pool.
    pub fn input_pool(self) -> usize {
        match self {
            Workload::Decode => 8,
            Workload::Prefill | Workload::LongContext => 2,
        }
    }
}

/// The seeded input pool of `workload`: `seq × hidden` BF16 activations
/// drawn from the model's WikiText-2 activation profile.
pub fn inputs(workload: Workload, seed: u64) -> Vec<Vec<Bf16>> {
    let c = workload.config();
    let profile = profile_for(
        MODEL,
        OpKind::QkvProj,
        TensorRole::Activation,
        Dataset::WikiText2,
    );
    let gen = TensorGen::new(profile, c.seq, c.hidden);
    (0..workload.input_pool() as u64)
        .map(|i| gen.values(seed ^ (i + 1).wrapping_mul(0xA24B_AED4_963E_E407)))
        .collect()
}

/// The GEMMs of one forward pass, by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Qkv,
    OProj,
    FfnUp,
    FfnDown,
    AttnScore,
    AttnContext,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Qkv,
        Op::OProj,
        Op::FfnUp,
        Op::FfnDown,
        Op::AttnScore,
        Op::AttnContext,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Qkv => "qkv",
            Op::OProj => "o_proj",
            Op::FfnUp => "ffn_up",
            Op::FfnDown => "ffn_down",
            Op::AttnScore => "attn_score",
            Op::AttnContext => "attn_context",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the right-hand operand is a prepared weight tensor.
    pub fn is_weight(self) -> bool {
        matches!(self, Op::Qkv | Op::OProj | Op::FfnUp | Op::FfnDown)
    }
}

/// `ForwardTrace::gemm_outputs` order: per layer the QKV projection,
/// then score and context per head, then the output projection and the
/// two FFN GEMMs.
pub fn op_sequence(c: TinyConfig) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..c.layers {
        ops.push(Op::Qkv);
        for _ in 0..c.heads {
            ops.push(Op::AttnScore);
            ops.push(Op::AttnContext);
        }
        ops.extend([Op::OProj, Op::FfnUp, Op::FfnDown]);
    }
    ops
}

/// Archive names of layer `l`'s weights in wqkv / wo / w1 / w2 order, as
/// `TinyTransformer::save_archive` writes them.
pub fn weight_names(l: usize) -> [String; 4] {
    ["wqkv", "wo", "w1", "w2"].map(|t| format!("layer{l}/{t}"))
}

/// `(k, n)` of layer weights in wqkv / wo / w1 / w2 order.
pub fn weight_shapes(c: TinyConfig) -> [(usize, usize); 4] {
    [
        (c.hidden, 3 * c.hidden),
        (c.hidden, c.hidden),
        (c.hidden, c.ffn),
        (c.ffn, c.hidden),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = inputs(Workload::Decode, 7);
        assert_eq!(a, inputs(Workload::Decode, 7));
        assert_ne!(a, inputs(Workload::Decode, 8));
        assert_eq!(a.len(), Workload::Decode.input_pool());
        assert_ne!(a[0], a[1], "decode steps get fresh token rows");
        let c = Workload::Decode.config();
        assert!(a.iter().all(|x| x.len() == c.seq * c.hidden));
    }

    #[test]
    fn op_sequence_counts_every_gemm() {
        let c = Workload::LongContext.config();
        let ops = op_sequence(c);
        assert_eq!(ops.len(), c.layers * (4 + 2 * c.heads));
        assert_eq!(
            ops.iter().filter(|&&o| o == Op::AttnScore).count(),
            c.layers * c.heads
        );
    }
}
