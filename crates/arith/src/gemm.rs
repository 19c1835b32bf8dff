//! End-to-end functional GEMMs.
//!
//! [`owlp_gemm`] runs the full OwL-P pipeline — shared-exponent encoding,
//! bias decoding, INT PE columns with outlier bypass, align + INT2FP — and
//! is verified bit-exact against [`crate::exact::exact_gemm`]. It also
//! reports the outlier statistics the performance model consumes.

use crate::align::AlignUnit;
use crate::column::PeColumn;
use crate::error::ArithError;
use crate::kulisch::KulischAcc;
use crate::microkernel::{self, MR, MR8, NR};
use crate::pe::PeConfig;
use crate::window::{WindowAcc, OWLP_PRODUCT_BITS};
use owlp_format::decode::DecodedOperand;
use owlp_format::{
    encode_tensor, encode_tensor_into, Bf16, EncodedTensor, MappedTensor, PackedOperands,
    PackedPanels,
};
use serde::{Deserialize, Serialize};

/// Result of an OwL-P GEMM with datapath statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OwlpGemmOutput {
    /// Row-major `m×n` FP32 results.
    pub output: Vec<f32>,
    /// Shared exponent chosen for the activation tensor.
    pub shared_a: u8,
    /// Shared exponent chosen for the weight tensor.
    pub shared_w: u8,
    /// Outlier entries in the encoded activation tensor.
    pub act_outliers: usize,
    /// Outlier entries in the encoded weight tensor.
    pub weight_outliers: usize,
    /// Largest number of outlier products observed in one column wavefront
    /// (one output element's pass) — what the scheduler must keep under the
    /// path budget.
    pub max_wavefront_outliers: usize,
    /// Total products routed down outlier paths.
    pub total_outlier_products: usize,
}

/// ABFT checksum vectors of one OwL-P GEMM: the *observed* row and column
/// sums of the raw shared-frame accumulator words ([`WindowAcc::raw`]),
/// collected inline by the drive loop before outlier correction.
///
/// Because every normal product is an integer on the shared frame, these
/// sums obey the same closed arithmetic as the data: an independent
/// reference `rows[i] = Σ_k a_sval[i,k]·(Σ_j b_sval[k,j])` must match
/// *exactly* — zero false positives, no FP tolerance band — and a single
/// accumulator-lane upset perturbs exactly one row and one column sum,
/// localizing the damaged output element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbftSums {
    /// `rows[i]` — Σ over j of the raw pre-correction accumulator of
    /// output element `(i, j)`.
    pub rows: Vec<i128>,
    /// `cols[j]` — Σ over i of the same raw words.
    pub cols: Vec<i128>,
}

/// A sanctioned single-bit upset on one output element's accumulator lane,
/// applied inside the drive loop *before* the ABFT sums are collected — so
/// the corrupted output and the checksums disagree with the reference in
/// exactly the way a real in-flight particle strike would produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStrike {
    /// Output row of the struck element.
    pub i: usize,
    /// Output column of the struck element.
    pub j: usize,
    /// Accumulator bit to flip (`< 127`).
    pub bit: u32,
}

/// A tensor encoded and packed once, for reuse across GEMM calls.
///
/// Weight tensors in a serving loop are multiplied every iteration but
/// never change; preparing them once hoists the encode + decode-pack work
/// out of the per-request path (the memoisation the event-driven model and
/// the functional transformer use). The planes inside may be owned heap
/// buffers (the encode path) or borrowed views into a mapped archive v2
/// file ([`PreparedTensor::from_mapped`]) — the GEMM reads them through
/// the same slices either way.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedTensor {
    packed: PackedOperands,
    /// Weight panels for the register-tiled microkernel, memoised when the
    /// tensor was prepared with a known `k×n` shape
    /// ([`PreparedTensor::with_shape`]).
    panels: Option<PackedPanels>,
}

impl PreparedTensor {
    /// Encodes and packs `t` once (shape-agnostic: no panel cache — the
    /// GEMM packs panels per call).
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::Format`] for non-finite inputs.
    pub fn new(t: &[Bf16]) -> Result<Self, ArithError> {
        let enc = encode_tensor(t, None)?;
        let packed = enc.decode_packed();
        Ok(PreparedTensor {
            packed,
            panels: None,
        })
    }

    /// Encodes, packs, **and panel-tiles** `t` as a `k×n` weight matrix:
    /// the microkernel panels are built once here and reused by every
    /// [`owlp_gemm_prepared`] call, replacing the per-call (formerly
    /// per-output-element) strided column gather.
    ///
    /// # Errors
    ///
    /// As [`PreparedTensor::new`], plus [`ArithError::DimensionMismatch`]
    /// when `t.len() != k·n`.
    pub fn with_shape(t: &[Bf16], k: usize, n: usize) -> Result<Self, ArithError> {
        check_shape(t, k * n, "B")?;
        let mut prep = PreparedTensor::new(t)?;
        prep.panels = Some(prep.packed.pack_panels(k, n));
        Ok(prep)
    }

    /// Adopts the planes of an archive-v2 tensor *without decoding or
    /// re-packing anything*: the operand planes and (when the archive
    /// stored them) the microkernel weight panels are borrowed views into
    /// the mapped file, so preparation is O(1) and the weight bytes stay
    /// shared with the page cache. Bit-identical to
    /// [`PreparedTensor::with_shape`] on the tensor's original values.
    pub fn from_mapped(t: MappedTensor) -> Self {
        let (packed, panels) = t.into_parts();
        PreparedTensor { packed, panels }
    }

    /// The packed decoded operands.
    pub fn packed(&self) -> &PackedOperands {
        &self.packed
    }

    /// The memoised microkernel panels, when prepared with a shape.
    pub fn panels(&self) -> Option<&PackedPanels> {
        self.panels.as_ref()
    }
}

/// Reusable activation-side buffers for [`owlp_gemm_prepared_with`] and
/// [`owlp_gemm_prepared_f32_with`]: the per-step activation path of a
/// serving loop rounds (f32 inputs only), re-encodes
/// ([`owlp_format::encode_tensor_into`]) and re-decodes
/// ([`owlp_format::EncodedTensor::decode_packed_into`]) into the same
/// buffers every call, so in steady state the whole activation side —
/// BF16 rounding buffer, code/exponent streams, and packed planes —
/// allocates nothing.
#[derive(Debug, Default)]
pub struct GemmScratch {
    packed_a: PackedOperands,
    enc_a: EncodedTensor,
    bf_a: Vec<Bf16>,
}

/// [`owlp_gemm`] with a pre-prepared weight tensor: only the activation
/// side pays encode + pack, the weight side reuses its cached planes (and
/// its memoised panels, when built via [`PreparedTensor::with_shape`]).
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_prepared(
    a: &[Bf16],
    b: &PreparedTensor,
    m: usize,
    k: usize,
    n: usize,
) -> Result<OwlpGemmOutput, ArithError> {
    let mut scratch = GemmScratch::default();
    owlp_gemm_prepared_with(a, b, m, k, n, &mut scratch)
}

/// [`owlp_gemm_prepared`] with caller-owned activation scratch: a serving
/// loop (e.g. the `owlp-core` transformer's per-layer sweep) keeps one
/// [`GemmScratch`] alive so the per-step activation decode allocates
/// nothing in steady state.
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_prepared_with(
    a: &[Bf16],
    b: &PreparedTensor,
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<OwlpGemmOutput, ArithError> {
    check_shape(a, m * k, "A")?;
    encode_tensor_into(a, None, &mut scratch.enc_a)?;
    scratch.enc_a.decode_packed_into(&mut scratch.packed_a);
    owlp_gemm_packed(
        &scratch.packed_a,
        &b.packed,
        b.panels.as_ref(),
        m,
        k,
        n,
        PeConfig::PAPER,
        AlignUnit::Exact,
    )
}

/// [`owlp_gemm_prepared_with`] taking raw `f32` activations: the f32 →
/// BF16 rounding an accelerator's vector unit performs on the way into
/// the GEMM happens here, into the scratch's reusable rounding buffer —
/// so a fused forward pass (e.g. the `owlp-core` transformer) hands its
/// f32 activations straight in and never materialises a per-call BF16
/// tensor. Bit-identical to rounding with [`Bf16::from_f32`] and calling
/// [`owlp_gemm_prepared_with`].
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_prepared_f32_with(
    a: &[f32],
    b: &PreparedTensor,
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut GemmScratch,
) -> Result<OwlpGemmOutput, ArithError> {
    check_len(a.len(), m * k, "A")?;
    scratch.bf_a.clear();
    scratch.bf_a.extend(a.iter().map(|&x| Bf16::from_f32(x)));
    // Split-borrow the scratch so the rounded buffer can feed the encode
    // while the packed planes receive the decode.
    let GemmScratch {
        packed_a,
        enc_a,
        bf_a,
    } = scratch;
    encode_tensor_into(bf_a, None, enc_a)?;
    enc_a.decode_packed_into(packed_a);
    owlp_gemm_packed(
        packed_a,
        &b.packed,
        b.panels.as_ref(),
        m,
        k,
        n,
        PeConfig::PAPER,
        AlignUnit::Exact,
    )
}

/// Runs the OwL-P pipeline on `a` (`m×k`, row-major) × `b` (`k×n`,
/// row-major) with the paper's PE configuration and the exact align unit.
///
/// # Errors
///
/// Returns [`ArithError::Format`] for non-finite inputs and
/// [`ArithError::DimensionMismatch`] for shape errors.
///
/// ```
/// use owlp_format::Bf16;
/// use owlp_arith::{exact_gemm, owlp_gemm};
/// # fn main() -> Result<(), owlp_arith::ArithError> {
/// let a: Vec<Bf16> = (0..6).map(|i| Bf16::from_f32(i as f32 - 2.5)).collect();
/// let b: Vec<Bf16> = (0..6).map(|i| Bf16::from_f32(0.5 * i as f32)).collect();
/// let r = owlp_gemm(&a, &b, 2, 3, 2)?;
/// let golden = exact_gemm(&a, &b, 2, 3, 2);
/// assert_eq!(r.output, golden);
/// # Ok(())
/// # }
/// ```
pub fn owlp_gemm(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<OwlpGemmOutput, ArithError> {
    owlp_gemm_with(a, b, m, k, n, PeConfig::PAPER, AlignUnit::Exact)
}

/// [`owlp_gemm`] with explicit PE configuration and align-unit policy.
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_with(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
) -> Result<OwlpGemmOutput, ArithError> {
    check_shape(a, m * k, "A")?;
    check_shape(b, k * n, "B")?;
    let enc_a = encode_tensor(a, None)?;
    let enc_b = encode_tensor(b, None)?;
    let packed_a = enc_a.decode_packed();
    let packed_b = enc_b.decode_packed();
    owlp_gemm_decoded(&packed_a, &packed_b, m, k, n, config, align)
}

/// The datapath half of [`owlp_gemm`], reusable when the tensors are
/// already encoded/decoded (as the accelerator model does per layer).
/// Packs microkernel panels for `b` on the fly; see [`owlp_gemm_packed`]
/// to supply memoised ones.
///
/// # Errors
///
/// As [`owlp_gemm`].
pub fn owlp_gemm_decoded(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
) -> Result<OwlpGemmOutput, ArithError> {
    owlp_gemm_packed(packed_a, packed_b, None, m, k, n, config, align)
}

/// Flat (CSR) outlier-tag table of one operand, built once per GEMM call:
/// `tags[off[u]..off[u + 1]]` holds unit `u`'s `(exponent term, depth)`
/// pairs, where `split` maps a flat position to `(unit, depth)` and the
/// exponent term is `max(exp, 1)` (the PE's subnormal-outlier clamp). Each
/// unit's slice is sorted by exponent, so every exponent group is one
/// contiguous run and the first/last entries bound the unit's exponents.
fn tag_table(
    ops: &PackedOperands,
    units: usize,
    split: impl Fn(usize) -> (usize, usize),
) -> (Vec<usize>, Vec<(i32, u32)>) {
    let mut off = vec![0usize; units + 1];
    for &p in ops.outlier_positions() {
        off[split(p as usize).0 + 1] += 1;
    }
    for u in 0..units {
        off[u + 1] += off[u];
    }
    let mut fill = off.clone();
    let mut tags = vec![(0i32, 0u32); off[units]];
    for (&p, &e) in ops.outlier_positions().iter().zip(ops.outlier_exps()) {
        let (u, depth) = split(p as usize);
        tags[fill[u]] = (e.max(1) as i32, depth as u32);
        fill[u] += 1;
    }
    for u in 0..units {
        tags[off[u]..off[u + 1]].sort_unstable();
    }
    (off, tags)
}

/// The full datapath drive loop, with optionally memoised weight panels.
///
/// Under [`AlignUnit::Exact`] the m×n sweep runs in MR×NR register tiles:
/// the [`crate::microkernel`] computes each tile as an `i16×i16→i32`
/// outer-product dot over the activation sval rows and one
/// [`PackedPanels`] panel, partial-summing `i64` lanes that spill into a
/// per-element [`WindowAcc`] on the shared-exponent frame (no overflow by
/// the K_SPILL bound — see the microkernel docs). Tagged outliers enter
/// that sum as their as-if-normal value and are then corrected in
/// *exponent groups*. For each activation row × NR-column panel, the
/// row's tagged products are summed per outlier exponent into one NR-wide
/// `i64` vector, with a count of nonzero products beside it, and the
/// groups are folded into one window per column on their true outlier
/// frames (the outlier's own exponent replacing the shared one, as the
/// PE's bypass path rebuilds it). Each output element then pays one window
/// op pair for all its activation groups: their total leaves the shared
/// frame, and the row's folded window joins a second window sized from
/// the row's and column's exponent bounds. Weight-side tags are grouped
/// per element, one window op pair per weight exponent. A doubly-tagged
/// depth finds its activation exponent in a dense `m×k` plane, and a frame
/// that escapes the window goes through a [`KulischAcc`]. Integer
/// re-association is exact and each group sum is `< 2^30·k`, so every path
/// computes the exact sum and rounds it once with the same RNE conversion:
/// the result is bit-identical to driving the PE column. The outlier statistics count exactly the nonzero tagged
/// products the PE's bypass path would carry. Runs under an
/// [`AlignUnit::Bounded`] policy are order-sensitive and keep the full
/// [`PeColumn`] datapath.
///
/// `panels` (when `Some` and shape-matched) must be
/// `packed_b.pack_panels(k, n)` — [`PreparedTensor::with_shape`] memoises
/// exactly that; mismatched or absent panels are rebuilt here.
///
/// # Errors
///
/// As [`owlp_gemm`].
#[allow(clippy::too_many_arguments)]
pub fn owlp_gemm_packed(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    panels: Option<&PackedPanels>,
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
) -> Result<OwlpGemmOutput, ArithError> {
    owlp_gemm_packed_impl::<false>(packed_a, packed_b, panels, m, k, n, config, align, None)
        .map(|(out, _)| out)
}

/// [`owlp_gemm_packed`] with ABFT checksum collection (and optionally a
/// sanctioned accumulator-lane strike), on the paper's PE configuration
/// and the exact align unit — the only datapath whose regrouped integer
/// sums the checksum algebra covers.
///
/// The returned [`AbftSums`] are the observed raw row/column sums; the
/// integrity layer verifies them against an independently computed
/// reference and, on mismatch, localizes and recomputes the damaged
/// element. Collection is O(m·n) extra integer adds on top of the
/// O(m·k·n) kernel, so the overhead vanishes with `k`.
///
/// # Errors
///
/// As [`owlp_gemm`].
#[allow(clippy::too_many_arguments)]
pub fn owlp_gemm_packed_abft(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    panels: Option<&PackedPanels>,
    m: usize,
    k: usize,
    n: usize,
    strike: Option<LaneStrike>,
) -> Result<(OwlpGemmOutput, AbftSums), ArithError> {
    owlp_gemm_packed_impl::<true>(
        packed_a,
        packed_b,
        panels,
        m,
        k,
        n,
        PeConfig::PAPER,
        AlignUnit::Exact,
        strike,
    )
    .map(|(out, sums)| (out, sums.expect("ABFT sums collected on the exact path")))
}

// `ABFT` is a const generic so the compiler monomorphizes a checksum-free
// copy of the hot loop for the plain GEMM: the per-element strike and
// row/column-sum bookkeeping below compiles out entirely instead of
// burdening the non-ABFT path with dead `Option` checks (the PR6 bench
// recorded exactly that leak as a serial regression).
#[allow(clippy::too_many_arguments)]
fn owlp_gemm_packed_impl<const ABFT: bool>(
    packed_a: &PackedOperands,
    packed_b: &PackedOperands,
    panels: Option<&PackedPanels>,
    m: usize,
    k: usize,
    n: usize,
    config: PeConfig,
    align: AlignUnit,
    strike: Option<LaneStrike>,
) -> Result<(OwlpGemmOutput, Option<AbftSums>), ArithError> {
    check_len(packed_a.len(), m * k, "decoded A")?;
    check_len(packed_b.len(), k * n, "decoded B")?;
    let rows = k.div_ceil(config.lanes).max(1);
    let column = PeColumn::new(config, rows).with_align(align);
    let shared_a = packed_a.shared_exp();
    let shared_w = packed_b.shared_exp();
    let fast_ok = matches!(align, AlignUnit::Exact);
    debug_assert!(fast_ok || !ABFT, "ABFT requires the exact align unit");
    // Outlier-tag tables, hoisted out of the m×n sweep: per activation row
    // and per weight column, the tagged depths grouped by exponent term.
    let (row_off, row_tags) = tag_table(packed_a, m, |p| (p / k, p % k));
    let (col_off, col_tags) = tag_table(packed_b, n, |p| (p % n, p / n));
    // Dense activation exponent-term plane (0 = untagged), built only when
    // the weights carry tags: a doubly-tagged depth looks up its activation
    // exponent here in O(1).
    let mut a_exp = vec![0u8; if col_tags.is_empty() { 0 } else { m * k }];
    if !a_exp.is_empty() {
        for (&p, &e) in packed_a
            .outlier_positions()
            .iter()
            .zip(packed_a.outlier_exps())
        {
            a_exp[p as usize] = e.max(1);
        }
    }
    let a_sval = packed_a.svals();
    let win0 = WindowAcc::for_owlp_normal(shared_a, shared_w, k);
    // Weight panels for the microkernel: reuse the caller's memoised set
    // when its shape matches, otherwise pack once per call (still hoisted
    // out of the m×n sweep entirely).
    let mut panels_store = None;
    let panels: Option<&PackedPanels> = if fast_ok {
        Some(match panels {
            Some(p) if p.k() == k && p.n() == n => p,
            _ => panels_store.insert(packed_b.pack_panels(k, n)),
        })
    } else {
        None
    };
    // All-zero activation row standing in for the `m % MR` edge rows: zero
    // svals contribute nothing, so the full-size kernel handles edges.
    let zero_row = vec![0i16; k];
    // Cache-blocking geometry (BLIS-style Mc/Kc/Nc), resolved once before
    // the fan-out so the thread-local `with_block` override and the
    // `OWLP_BLOCK` environment knob apply at every thread count, exactly
    // like the kernel tier below. Kc is additionally capped at the lane
    // spill period so one Kc stripe always fits a single i64 lane segment.
    let geom = owlp_format::block_geometry(2, MR, NR).for_shape(m, k, n, MR, NR);
    let (mc, nc) = (geom.mc, geom.nc);
    let kc = geom.kc.min(microkernel::K_SPILL);
    // Tile-parallel over output columns: each chunk runs the register-tiled
    // microkernel (or the PE column) over its panel range. The grain is
    // NR-aligned so no MR×NR tile straddles a chunk boundary, and a grain
    // wider than one Nc block rounds to whole blocks so chunk boundaries
    // never split a block at any thread count. Results assemble in column
    // order and the wavefront statistics reduce over the ordered tile list
    // (max and sum — order-free anyway), so the output is bit-identical to
    // the serial sweep at every thread count.
    let grain = {
        let g = crate::exact::row_grain(k, m).next_multiple_of(NR);
        if g > nc {
            g.next_multiple_of(nc)
        } else {
            g
        }
    };
    let col_ops = 2 * (k as u64).saturating_mul(m as u64).max(1);
    // Resolved before the fan-out so a `with_tier` override on this thread
    // (tests, per-tier benches) applies inside every pool worker.
    let tier = microkernel::selected_tier();
    // The widened 8×NR tile only pays on AVX2, where it amortizes one
    // panel load + interleave over eight rows; on every other tier it
    // would compute the same two MR-tile calls the 4-row loop already
    // makes, so those tiers keep the narrow shape.
    let use_x8 = tier == microkernel::KernelTier::Avx2;
    let tiles = owlp_par::map_chunks_weighted(n, grain, col_ops, |cols| {
        let j0 = cols.start;
        let mut values;
        let mut max_wavefront = 0usize;
        let mut total = 0usize;
        // Per-chunk ABFT partials: full-length row sums (this chunk's
        // column slice contributes to every row) and this chunk's column
        // sums. i128 addition is exact, so the merge is order-free and the
        // checksums are bit-identical at every thread count.
        let mut sums = ABFT.then(|| (vec![0i128; m], vec![0i128; cols.len()]));
        if fast_ok {
            let panels = panels.expect("panels are built whenever the fast path runs");
            values = vec![0.0f32; cols.len() * m];
            // Reused across tiles: the current row's exponent groups on the
            // current panel, and the current element's Kulisch-bound terms
            // and doubly-tagged products.
            let mut groups: Vec<(i32, [i64; NR])> = Vec::new();
            let mut escaped: Vec<(i64, i32)> = Vec::new();
            let mut doubly: Vec<(i64, i32, i32)> = Vec::new();
            // Finalizes one MR×NR window tile into `values`: the sanctioned
            // strike, the ABFT checksum partials, and the grouped outlier
            // correction. Shared by the single-stripe path (windows straight
            // out of `tile_dot`) and the multi-stripe path (windows rebuilt
            // from the persistent lane plane), so the correction logic
            // exists in exactly one copy.
            let mut finalize_tile = |wins: &[[WindowAcc; NR]; MR],
                                     ib: usize,
                                     jb: usize,
                                     panel: &[i16]| {
                let mr = MR.min(m - ib);
                let nr = NR.min(cols.end - jb);
                // The sanctioned upset lands on the raw lane *before*
                // checksum collection: output and checksums corrupt
                // consistently, exactly as an in-flight strike would.
                let mut struck;
                let wins = match strike {
                    Some(s)
                        if ABFT && (ib..ib + mr).contains(&s.i) && (jb..jb + nr).contains(&s.j) =>
                    {
                        struck = *wins;
                        struck[s.i - ib][s.j - jb].toggle_bit(s.bit);
                        &struck
                    }
                    _ => wins,
                };
                // ABFT checksum partials, in a pass of their own so the
                // correction loop below carries no checksum state (i128
                // addition is exact and order-free, so the checksums
                // are unchanged bit for bit). Compiled out of the
                // non-ABFT monomorphization.
                if ABFT {
                    if let Some((rs, cs)) = sums.as_mut() {
                        let mut tile_cs = [0i128; NR];
                        for (r, wins_row) in wins.iter().enumerate().take(mr) {
                            let mut row = 0i128;
                            for (c, w) in wins_row.iter().enumerate().take(nr) {
                                row += w.raw();
                                tile_cs[c] += w.raw();
                            }
                            rs[ib + r] += row;
                        }
                        for (c, part) in tile_cs.iter().enumerate().take(nr) {
                            cs[jb + c - cols.start] += part;
                        }
                    }
                }
                for (r, wins_row) in wins.iter().enumerate().take(mr) {
                    let i = ib + r;
                    let rtags = &row_tags[row_off[i]..row_off[i + 1]];
                    let row_sval = &a_sval[i * k..(i + 1) * k];
                    let row_exp = a_exp.get(i * k..(i + 1) * k).unwrap_or_default();
                    // Panel-wide activation groups: per outlier
                    // exponent, the NR-wide sum of the tagged products
                    // (each < 2^30, so a group stays < 2^30·k in i64).
                    // Beside them, per column: the sum of every group,
                    // the count of nonzero products (zero products stay
                    // on the normal path, as in the PE), and all groups
                    // folded into one window at the row's lowest frame
                    // — absent only when the row's own span outgrows an
                    // i128, and then no element of the row fits either.
                    groups.clear();
                    let mut row_sum = [0i64; NR];
                    let mut row_nonzero = [0u32; NR];
                    for run in rtags.chunk_by(|x, y| x.0 == y.0) {
                        let mut sum = [0i64; NR];
                        for &(_, kk) in run {
                            let a = row_sval[kk as usize] as i64;
                            let p = &panel[kk as usize * NR..][..NR];
                            for c in 0..NR {
                                let v = a * p[c] as i64;
                                sum[c] += v;
                                row_nonzero[c] += (v != 0) as u32;
                            }
                        }
                        for c in 0..NR {
                            row_sum[c] += sum[c];
                        }
                        groups.push((run[0].0 + shared_w as i32 - 268, sum));
                    }
                    let row_wins = match (groups.first(), groups.last()) {
                        (Some(first), Some(last)) => WindowAcc::for_span(
                            first.0,
                            last.0 + OWLP_PRODUCT_BITS,
                            rtags.len() as u64,
                        )
                        .map(|w0| {
                            let mut ws = [w0; NR];
                            for (f, sum) in &groups {
                                for c in 0..NR {
                                    ws[c].add(sum[c], *f);
                                }
                            }
                            ws
                        }),
                        _ => None,
                    };
                    for (c, &tile_win) in wins_row.iter().enumerate().take(nr) {
                        let j = jb + c;
                        let ctags = &col_tags[col_off[j]..col_off[j + 1]];
                        let mut win = tile_win;
                        let out_idx = (j - cols.start) * m + i;
                        if rtags.is_empty() && ctags.is_empty() {
                            values[out_idx] = win.round_to_f32();
                            continue;
                        }
                        // Grouped correction: the tagged products leave
                        // the shared frame as group sums and re-enter on
                        // their true outlier frames — `max(exp, 1)`
                        // replacing the shared exponent on the tagged
                        // side, the PE's bypass-path frame. The row's
                        // groups re-enter as its folded window. The wide
                        // window is sized from the row's and column's
                        // exponent bounds (the first and last entries of
                        // their sorted tags); only a doubly-tagged frame
                        // can escape it, and escaped frames join through
                        // a Kulisch register. Integer re-association is
                        // exact, so every path rounds the same sum once.
                        let mut lo = win.frame();
                        let mut hi = lo + OWLP_PRODUCT_BITS;
                        if let (Some(first), Some(last)) = (rtags.first(), rtags.last()) {
                            lo = lo.min(first.0 + shared_w as i32 - 268);
                            hi = hi.max(last.0 + shared_w as i32 - 268 + OWLP_PRODUCT_BITS);
                        }
                        if let (Some(first), Some(last)) = (ctags.first(), ctags.last()) {
                            lo = lo.min(shared_a as i32 + first.0 - 268);
                            hi = hi.max(shared_a as i32 + last.0 - 268 + OWLP_PRODUCT_BITS);
                        }
                        // A span that outgrows an i128 leaves an empty
                        // fit range: every term then joins the Kulisch
                        // register.
                        let terms = (k + rtags.len() + 2 * ctags.len()) as u64;
                        let hi_fit = match WindowAcc::for_span(lo, hi, terms) {
                            Some(_) => hi - OWLP_PRODUCT_BITS,
                            None => lo - 1,
                        };
                        let mut wide = WindowAcc::new(lo);
                        escaped.clear();
                        win.add_aligned(-row_sum[c]);
                        let mut routed = row_nonzero[c] as usize;
                        match row_wins {
                            Some(rw) if hi_fit >= lo => wide.add_window(&rw[c]),
                            _ => escaped.extend(groups.iter().map(|&(f, sum)| (sum[c], f))),
                        }
                        let mut put = |v: i64, f: i32| {
                            if (lo..=hi_fit).contains(&f) {
                                wide.add(v, f)
                            } else {
                                escaped.push((v, f))
                            }
                        };
                        // Weight-side groups, per element: products whose
                        // activation is normal sum per weight exponent. A
                        // doubly-tagged product already moved with its
                        // activation group; it is set aside and moved on
                        // from that frame to the frame of both exponents.
                        let mut flush = |ew: i32, sum: i64, nonzero: usize| {
                            if nonzero != 0 {
                                win.add_aligned(-sum);
                                put(sum, shared_a as i32 + ew - 268);
                                routed += nonzero;
                            }
                        };
                        let (mut ew, mut sum, mut nonzero) = (0i32, 0i64, 0usize);
                        doubly.clear();
                        for &(e, kk) in ctags {
                            if e != ew {
                                flush(ew, sum, nonzero);
                                (ew, sum, nonzero) = (e, 0, 0);
                            }
                            let kk = kk as usize;
                            let v = row_sval[kk] as i64 * panel[kk * NR + c] as i64;
                            if v == 0 {
                                continue;
                            }
                            match row_exp[kk] {
                                0 => {
                                    sum += v;
                                    nonzero += 1;
                                }
                                ea => doubly.push((v, ea as i32, e)),
                            }
                        }
                        flush(ew, sum, nonzero);
                        for &(v, ea, ew) in &doubly {
                            put(-v, ea + shared_w as i32 - 268);
                            put(v, ea + ew - 268);
                        }
                        values[out_idx] = if routed == 0 {
                            // Every tagged product was zero — the
                            // shared-frame window holds the exact sum.
                            win.round_to_f32()
                        } else if escaped.is_empty() {
                            wide.add_window(&win);
                            wide.round_to_f32()
                        } else {
                            let mut acc = KulischAcc::new();
                            win.merge_into(&mut acc);
                            wide.merge_into(&mut acc);
                            for &(v, f) in &escaped {
                                acc.add_scaled(v, f);
                            }
                            acc.round_to_f32()
                        };
                        max_wavefront = max_wavefront.max(routed);
                        total += routed;
                    }
                }
            };
            // BLIS-style blocked traversal of this chunk's column range.
            // Blocking is pure re-association of the same exact integer
            // sums, so every (Mc, Kc, Nc) choice — including the unblocked
            // geometry — produces bit-identical output at every tier.
            let single_stripe = k <= kc;
            // Persistent per-Nc-block accumulator planes for the
            // multi-stripe path, allocated lazily and reused across blocks.
            let row_tiles = m.div_ceil(MR);
            let mut lane_tiles: Vec<[[i64; NR]; MR]> = Vec::new();
            let mut spill_tiles: Vec<[[WindowAcc; NR]; MR]> = Vec::new();
            let mut jc = cols.start;
            while jc < cols.end {
                let hi_col = (jc + nc).min(cols.end);
                if single_stripe {
                    // One Kc stripe covers the whole depth: windows go
                    // straight from registers into the finalize pass — the
                    // pre-blocking structure with Mc/Nc loop shaping on top.
                    for ic in (0..m).step_by(mc) {
                        let ic_end = (ic + mc).min(m);
                        for jb in (jc..hi_col).step_by(NR) {
                            let panel = panels.panel(jb / NR);
                            let mut ib = ic;
                            while ib < ic_end {
                                if use_x8 && ib + MR8 <= ic_end {
                                    let a8: [&[i16]; MR8] = std::array::from_fn(|r| {
                                        &a_sval[(ib + r) * k..(ib + r + 1) * k]
                                    });
                                    let [w0, w1] =
                                        microkernel::tile_dot_i16_x8_with(tier, a8, panel, win0);
                                    finalize_tile(&w0, ib, jb, panel);
                                    finalize_tile(&w1, ib + MR, jb, panel);
                                    ib += MR8;
                                } else {
                                    let mr = MR.min(ic_end - ib);
                                    let a_rows: [&[i16]; MR] = std::array::from_fn(|r| {
                                        if r < mr {
                                            &a_sval[(ib + r) * k..(ib + r + 1) * k]
                                        } else {
                                            zero_row.as_slice()
                                        }
                                    });
                                    // The microkernel covers the outlier-free
                                    // bulk: every product is an integer
                                    // < 2^30 on the shared frame (outlier
                                    // svals included as their as-if-normal
                                    // value, corrected in the finalize), so
                                    // regrouping into register tiles cannot
                                    // change the exact per-element sum.
                                    let wins =
                                        microkernel::tile_dot_i16_with(tier, a_rows, panel, win0);
                                    finalize_tile(&wins, ib, jb, panel);
                                    ib += MR;
                                }
                            }
                        }
                    }
                } else {
                    // Multi-stripe: Kc stripes accumulate into a persistent
                    // tile-major i64 lane plane covering this Nc block;
                    // depths beyond the spill period flush into a lazy
                    // WindowAcc spill plane first. Each flush boundary is
                    // just another association order of the same exact sum.
                    let groups = (hi_col - jc).div_ceil(NR);
                    lane_tiles.clear();
                    lane_tiles.resize(groups * row_tiles, [[0i64; NR]; MR]);
                    let spill = k > microkernel::K_SPILL;
                    if spill {
                        spill_tiles.clear();
                        spill_tiles.resize(groups * row_tiles, [[win0; NR]; MR]);
                    }
                    let mut depth = 0usize;
                    let mut pc = 0usize;
                    while pc < k {
                        let kcl = kc.min(k - pc);
                        if depth + kcl > microkernel::K_SPILL {
                            debug_assert!(spill, "flush only occurs when k > K_SPILL");
                            for (lt, st) in lane_tiles.iter_mut().zip(spill_tiles.iter_mut()) {
                                for (lr, sr) in lt.iter_mut().zip(st.iter_mut()) {
                                    for (lane, w) in lr.iter_mut().zip(sr.iter_mut()) {
                                        w.add_aligned(std::mem::take(lane));
                                    }
                                }
                            }
                            depth = 0;
                        }
                        for ic in (0..m).step_by(mc) {
                            let ic_end = (ic + mc).min(m);
                            for (g, jb) in (jc..hi_col).step_by(NR).enumerate() {
                                let panel = panels.panel(jb / NR);
                                let stripe = &panel[pc * NR..(pc + kcl) * NR];
                                let mut ib = ic;
                                while ib < ic_end {
                                    let t = g * row_tiles + ib / MR;
                                    if use_x8 && ib + MR8 <= ic_end {
                                        let a8: [&[i16]; MR8] = std::array::from_fn(|r| {
                                            let row = (ib + r) * k;
                                            &a_sval[row + pc..row + pc + kcl]
                                        });
                                        let (lo_t, hi_t) = lane_tiles.split_at_mut(t + 1);
                                        microkernel::tile_mul_i16_x8_with(
                                            tier,
                                            a8,
                                            stripe,
                                            &mut lo_t[t],
                                            &mut hi_t[0],
                                        );
                                        ib += MR8;
                                    } else {
                                        let mr = MR.min(ic_end - ib);
                                        let a_rows: [&[i16]; MR] = std::array::from_fn(|r| {
                                            if r < mr {
                                                let row = (ib + r) * k;
                                                &a_sval[row + pc..row + pc + kcl]
                                            } else {
                                                &zero_row[..kcl]
                                            }
                                        });
                                        microkernel::tile_mul_i16_with(
                                            tier,
                                            a_rows,
                                            stripe,
                                            &mut lane_tiles[t],
                                        );
                                        ib += MR;
                                    }
                                }
                            }
                        }
                        depth += kcl;
                        pc += kcl;
                    }
                    // Finalize pass: rebuild each tile's windows from the
                    // lane plane (plus the spill plane when one exists) and
                    // run the shared strike/checksum/correction logic.
                    for (g, jb) in (jc..hi_col).step_by(NR).enumerate() {
                        let panel = panels.panel(jb / NR);
                        for ib in (0..m).step_by(MR) {
                            let t = g * row_tiles + ib / MR;
                            let wins: [[WindowAcc; NR]; MR] = std::array::from_fn(|r| {
                                std::array::from_fn(|c| {
                                    let mut w = if spill { spill_tiles[t][r][c] } else { win0 };
                                    w.add_aligned(lane_tiles[t][r][c]);
                                    w
                                })
                            });
                            finalize_tile(&wins, ib, jb, panel);
                        }
                    }
                }
                jc = hi_col;
            }
        } else {
            values = Vec::with_capacity(cols.len() * m);
            // Bounded align reduces contributions in the PE column's
            // arrival order — order-sensitive, so drive the real datapath.
            let mut wt_col: Vec<DecodedOperand> = Vec::new();
            let mut act_rows: Vec<Option<Vec<DecodedOperand>>> = vec![None; m];
            for j in cols {
                wt_col.clear();
                wt_col.extend((0..k).map(|kk| packed_b.get(kk * n + j)));
                for (i, slot) in act_rows.iter_mut().enumerate() {
                    let act_row = slot.get_or_insert_with(|| {
                        (i * k..(i + 1) * k).map(|x| packed_a.get(x)).collect()
                    });
                    let out = column.compute_unchecked(act_row, &wt_col, shared_a, shared_w);
                    values.push(out.value);
                    max_wavefront = max_wavefront.max(out.outlier_products);
                    total += out.outlier_products;
                }
            }
        }
        (j0, values, max_wavefront, total, sums)
    });
    let mut output = vec![0.0f32; m * n];
    let mut max_wavefront = 0usize;
    let mut total_outlier_products = 0usize;
    let mut abft_sums = ABFT.then(|| AbftSums {
        rows: vec![0i128; m],
        cols: vec![0i128; n],
    });
    for (j0, values, tile_max, tile_total, chunk_sums) in tiles {
        max_wavefront = max_wavefront.max(tile_max);
        total_outlier_products += tile_total;
        if let (Some(dst), Some((rs, cs))) = (abft_sums.as_mut(), chunk_sums) {
            for (d, s) in dst.rows.iter_mut().zip(rs) {
                *d += s;
            }
            dst.cols[j0..j0 + cs.len()].copy_from_slice(&cs);
        }
        for (idx, v) in values.into_iter().enumerate() {
            let (dj, i) = (idx / m.max(1), idx % m.max(1));
            output[i * n + j0 + dj] = v;
        }
    }
    Ok((
        OwlpGemmOutput {
            output,
            shared_a,
            shared_w,
            act_outliers: packed_a.stored_outlier_count(),
            weight_outliers: packed_b.stored_outlier_count(),
            max_wavefront_outliers: max_wavefront,
            total_outlier_products,
        },
        abft_sums,
    ))
}

fn check_shape(t: &[Bf16], expected: usize, what: &'static str) -> Result<(), ArithError> {
    check_len(t.len(), expected, what)
}

fn check_len(actual: usize, expected: usize, what: &'static str) -> Result<(), ArithError> {
    if actual != expected {
        return Err(ArithError::DimensionMismatch {
            what,
            expected,
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_gemm;
    use crate::fpmac::fp_mac_gemm;

    fn bf_vec(xs: &[f32]) -> Vec<Bf16> {
        xs.iter().map(|&x| Bf16::from_f32(x)).collect()
    }

    /// Deterministic pseudo-random BF16 tensor: magnitudes in a narrow
    /// exponent band (like real LLM tensors) with optional huge outliers.
    fn synth(len: usize, seed: u64, outlier_every: usize) -> Vec<Bf16> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
                let sign = if state & (1 << 13) == 0 { 1.0 } else { -1.0 };
                let base = sign * (0.75 + u * 0.5); // exponents 126..=127
                let v = if outlier_every > 0 && i % outlier_every == outlier_every - 1 {
                    base * 1.0e18
                } else {
                    base
                };
                Bf16::from_f32(v)
            })
            .collect()
    }

    #[test]
    fn bit_exact_vs_golden_no_outliers() {
        let a = synth(8 * 16, 1, 0);
        let b = synth(16 * 4, 2, 0);
        let r = owlp_gemm(&a, &b, 8, 16, 4).unwrap();
        let golden = exact_gemm(&a, &b, 8, 16, 4);
        for (x, y) in r.output.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(r.act_outliers, 0);
    }

    #[test]
    fn bit_exact_vs_golden_with_outliers() {
        let a = synth(4 * 24, 3, 11);
        let b = synth(24 * 5, 4, 17);
        let r = owlp_gemm(&a, &b, 4, 24, 5).unwrap();
        let golden = exact_gemm(&a, &b, 4, 24, 5);
        for (x, y) in r.output.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(r.act_outliers > 0);
        assert!(r.total_outlier_products > 0);
    }

    #[test]
    fn forced_blocks_stay_bit_identical_with_outliers_and_abft() {
        use owlp_format::{with_block, BlockGeometry};
        let (m, k, n) = (13, 40, 11);
        let a = synth(m * k, 5, 9);
        let b = synth(k * n, 6, 13);
        let ea = encode_tensor(&a, None).unwrap();
        let eb = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (ea.decode_packed(), eb.decode_packed());
        let strike = Some(LaneStrike { i: 3, j: 7, bit: 9 });
        let baseline = with_block(BlockGeometry::UNBLOCKED, || {
            owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, strike).unwrap()
        });
        // Ragged tails, block == extent, block > extent, and the
        // multi-stripe lane-plane path (kc < k) all regroup the same exact
        // integer sums — outputs and ABFT checksums must match bit for bit.
        for geom in ["4,8,4", "8,40,12", "16,64,16", "4,16,8", "12,24,4"] {
            let g = BlockGeometry::parse(geom).unwrap();
            let (out, sums) = with_block(g, || {
                owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, strike).unwrap()
            });
            for (x, y) in out.output.iter().zip(&baseline.0.output) {
                assert_eq!(x.to_bits(), y.to_bits(), "geometry {geom}");
            }
            assert_eq!(sums, baseline.1, "geometry {geom}");
            assert_eq!(
                out.total_outlier_products,
                baseline.0.total_outlier_products
            );
            assert_eq!(
                out.max_wavefront_outliers,
                baseline.0.max_wavefront_outliers
            );
        }
    }

    #[test]
    fn owlp_is_at_least_as_accurate_as_fp_baseline() {
        // Against the exact result, OwL-P's error is zero by construction;
        // the sequential FP32 baseline's is ≥ 0. Construct a case where the
        // baseline is strictly worse.
        let a = bf_vec(&[1e30, 0.5, 0.5, 0.5, 0.5, -1e30]);
        let b = bf_vec(&[1.0, 0.5, 0.5, 0.5, 0.5, 1.0]);
        let owlp = owlp_gemm(&a, &b, 1, 6, 1).unwrap().output[0];
        let base = fp_mac_gemm(&a, &b, 1, 6, 1)[0];
        let golden = exact_gemm(&a, &b, 1, 6, 1)[0];
        assert_eq!(owlp, golden);
        assert_eq!(golden, 1.0);
        assert_eq!(base, 0.0); // the baseline lost the small terms
    }

    #[test]
    fn zero_dimensional_edges() {
        let r = owlp_gemm(&[], &[], 0, 0, 0).unwrap();
        assert!(r.output.is_empty());
        let a = bf_vec(&[1.0, 2.0]);
        let r2 = owlp_gemm(&a, &[], 2, 1, 0).unwrap();
        assert!(r2.output.is_empty());
    }

    #[test]
    fn k_zero_gives_zeros() {
        let r = owlp_gemm(&[], &[], 2, 0, 3).unwrap();
        assert_eq!(r.output, vec![0.0; 6]);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = bf_vec(&[1.0; 5]);
        let b = bf_vec(&[1.0; 6]);
        assert!(matches!(
            owlp_gemm(&a, &b, 2, 3, 2),
            Err(ArithError::DimensionMismatch { what: "A", .. })
        ));
    }

    #[test]
    fn nonfinite_input_is_reported() {
        let mut a = bf_vec(&[1.0; 4]);
        a[2] = Bf16::INFINITY;
        let b = bf_vec(&[1.0; 4]);
        assert!(matches!(
            owlp_gemm(&a, &b, 2, 2, 2),
            Err(ArithError::Format(_))
        ));
    }

    #[test]
    fn wavefront_statistics_reported() {
        // Put 3 outliers in one activation row → wavefront of 3.
        let mut xs = vec![1.0f32; 2 * 16];
        xs[1] = 1e20;
        xs[5] = 1e20;
        xs[9] = 1e20;
        let a = bf_vec(&xs);
        let b = bf_vec(&[1.0f32; 16 * 2]);
        let r = owlp_gemm(&a, &b, 2, 16, 2).unwrap();
        assert_eq!(r.max_wavefront_outliers, 3);
    }

    #[test]
    fn parallel_owlp_gemm_is_bit_identical_to_serial() {
        // Column grain is 16384/(k·m) = 16, so n = 64 spans four tiles.
        let (m, k, n) = (16, 64, 64);
        let a = synth(m * k, 21, 9);
        let b = synth(k * n, 22, 13);
        let serial = owlp_par::with_threads(1, || owlp_gemm(&a, &b, m, k, n).unwrap());
        for t in [2, 4, 8] {
            let par = owlp_par::with_threads(t, || owlp_gemm(&a, &b, m, k, n).unwrap());
            assert_eq!(par, serial, "{t} threads");
        }
    }

    #[test]
    fn prepared_with_shape_and_scratch_is_bit_identical() {
        // Shapes deliberately off the MR/NR grid; outliers on both sides.
        let (m, k, n) = (9, 37, 13);
        let acts = [synth(m * k, 31, 9), synth(m * k, 32, 7)];
        let b = synth(k * n, 33, 11);
        let plain = PreparedTensor::new(&b).unwrap();
        assert!(plain.panels().is_none());
        let shaped = PreparedTensor::with_shape(&b, k, n).unwrap();
        assert!(shaped.panels().is_some());
        let mut scratch = GemmScratch::default();
        for a in &acts {
            let fresh = owlp_gemm_prepared(a, &plain, m, k, n).unwrap();
            let memo = owlp_gemm_prepared_with(a, &shaped, m, k, n, &mut scratch).unwrap();
            assert_eq!(
                memo, fresh,
                "memoised panels + scratch must not change a bit"
            );
            let golden = exact_gemm(a, &b, m, k, n);
            for (x, y) in memo.output.iter().zip(&golden) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert!(matches!(
            PreparedTensor::with_shape(&b, k, n + 1),
            Err(ArithError::DimensionMismatch { what: "B", .. })
        ));
    }

    #[test]
    fn prepared_f32_path_matches_rounded_bf16_path() {
        let (m, k, n) = (7, 41, 10);
        let b = synth(k * n, 51, 8);
        let shaped = PreparedTensor::with_shape(&b, k, n).unwrap();
        let mut scratch = GemmScratch::default();
        // Several shapes through ONE scratch, including f32 values that
        // round (inexact in BF16) and an outlier-scale activation.
        for seed in [1u64, 2, 3] {
            let a32: Vec<f32> = (0..m * k)
                .map(|i| {
                    let base = ((i as f32) * 0.137 + seed as f32).sin() * 3.0;
                    if i % 17 == 0 {
                        base * 1e20
                    } else {
                        base
                    }
                })
                .collect();
            let rounded: Vec<Bf16> = a32.iter().map(|&x| Bf16::from_f32(x)).collect();
            let via_bf16 = owlp_gemm_prepared(&rounded, &shaped, m, k, n).unwrap();
            let via_f32 =
                owlp_gemm_prepared_f32_with(&a32, &shaped, m, k, n, &mut scratch).unwrap();
            assert_eq!(via_f32, via_bf16, "f32 entry must only move the rounding");
        }
        assert!(matches!(
            owlp_gemm_prepared_f32_with(&[0.0f32; 3], &shaped, m, k, n, &mut scratch),
            Err(ArithError::DimensionMismatch { what: "A", .. })
        ));
        assert!(matches!(
            owlp_gemm_prepared_f32_with(&vec![f32::NAN; m * k], &shaped, m, k, n, &mut scratch),
            Err(ArithError::Format(_))
        ));
    }

    #[test]
    fn abft_sums_match_reference_and_localize_a_strike() {
        let (m, k, n) = (9, 37, 13);
        let a = synth(m * k, 41, 9);
        let b = synth(k * n, 42, 11);
        let enc_a = encode_tensor(&a, None).unwrap();
        let enc_b = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (enc_a.decode_packed(), enc_b.decode_packed());
        let (out, sums) = owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, None).unwrap();
        // The ABFT run must not perturb the plain result by a bit.
        let plain = owlp_gemm(&a, &b, m, k, n).unwrap();
        assert_eq!(out, plain);
        // Independent reference over the sval planes: the raw accumulator
        // of (i, j) is exactly Σ_k a_sval[i,k]·b_sval[k,j].
        let bsum: Vec<i128> = (0..k)
            .map(|kk| (0..n).map(|j| pb.svals()[kk * n + j] as i128).sum())
            .collect();
        for i in 0..m {
            let want: i128 = (0..k)
                .map(|kk| pa.svals()[i * k + kk] as i128 * bsum[kk])
                .sum();
            assert_eq!(sums.rows[i], want, "row {i}");
        }
        // A single lane strike moves exactly one row and one column sum,
        // by exactly ±2^bit — even when f32 rounding masks it in the
        // output (an outlier-dominated element swallows a low-bit flip;
        // the integer checksums never do).
        let strike = LaneStrike {
            i: 4,
            j: 7,
            bit: 19,
        };
        let (_, struck) = owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, Some(strike)).unwrap();
        let delta = struck.rows[4] - sums.rows[4];
        assert_eq!(delta.abs(), 1i128 << 19);
        assert_eq!(struck.cols[7] - sums.cols[7], delta);
        for i in (0..m).filter(|&i| i != 4) {
            assert_eq!(struck.rows[i], sums.rows[i], "row {i} untouched");
        }
        for j in (0..n).filter(|&j| j != 7) {
            assert_eq!(struck.cols[j], sums.cols[j], "col {j} untouched");
        }
        // On an outlier-free workload the same strike is output-visible.
        let a2 = synth(m * k, 43, 0);
        let b2 = synth(k * n, 44, 0);
        let enc_a2 = encode_tensor(&a2, None).unwrap();
        let enc_b2 = encode_tensor(&b2, None).unwrap();
        let (pa2, pb2) = (enc_a2.decode_packed(), enc_b2.decode_packed());
        let (clean2, _) = owlp_gemm_packed_abft(&pa2, &pb2, None, m, k, n, None).unwrap();
        let (bad2, _) = owlp_gemm_packed_abft(&pa2, &pb2, None, m, k, n, Some(strike)).unwrap();
        assert_ne!(
            bad2.output[4 * n + 7].to_bits(),
            clean2.output[4 * n + 7].to_bits()
        );
    }

    #[test]
    fn parallel_abft_sums_are_bit_identical_to_serial() {
        let (m, k, n) = (16, 64, 64);
        let a = synth(m * k, 51, 9);
        let b = synth(k * n, 52, 13);
        let enc_a = encode_tensor(&a, None).unwrap();
        let enc_b = encode_tensor(&b, None).unwrap();
        let (pa, pb) = (enc_a.decode_packed(), enc_b.decode_packed());
        let run = || owlp_gemm_packed_abft(&pa, &pb, None, m, k, n, None).unwrap();
        let serial = owlp_par::with_threads(1, run);
        for t in [2, 4, 8] {
            assert_eq!(owlp_par::with_threads(t, run), serial, "{t} threads");
        }
    }

    #[test]
    fn large_k_spanning_many_pes() {
        let a = synth(2 * 256, 7, 40);
        let b = synth(256 * 3, 8, 33);
        let r = owlp_gemm(&a, &b, 2, 256, 3).unwrap();
        let golden = exact_gemm(&a, &b, 2, 256, 3);
        for (x, y) in r.output.iter().zip(&golden) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
