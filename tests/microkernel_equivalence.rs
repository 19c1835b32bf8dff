//! Integration: the register-tiled microkernel drive loops (`owlp_gemm`'s
//! packed-plane fast path, the prepared/panel-cached variant, and the
//! banded `exact_gemm`) equal the scalar per-product Kulisch oracle
//! bit-for-bit — across outlier densities from all-normal to all-outlier,
//! across shapes that leave MR/NR edge remainders, and at every thread
//! count. The dense-outlier sweep pushes the grouped outlier correction
//! from no outliers to all-outlier rows, with doubly-tagged depths whose
//! frames escape to the Kulisch register, through the multi-stripe path,
//! and checks the outlier statistics against an independent count. Every
//! dense check runs the weight three ways — panels packed per call,
//! panels memoised with their column tag table, and a mapped archive
//! tensor whose table is built on first use — and every activation row
//! count from one (the decode GEMV) to past the widest register tile.

use owlp_repro::arith::exact::exact_gemm;
use owlp_repro::arith::gemm::{
    owlp_gemm, owlp_gemm_packed_abft, owlp_gemm_prepared_with, GemmScratch, OwlpGemmOutput,
    PreparedTensor,
};
use owlp_repro::arith::microkernel::{
    self, available_tiers, dot_sval_with, tile_dot_i16_with, tile_dot_i32_with, with_tier,
    KernelTier, MR, MR8, NR,
};
use owlp_repro::arith::{KulischAcc, WindowAcc};
use owlp_repro::format::{
    encode_tensor, select_window, with_block, ArchiveWriter, Bf16, BlockGeometry, MappedArchive,
    PackedOperands, PackedPanels,
};
use owlp_repro::integrity::abft::reference_sums;
use owlp_repro::par::with_threads;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Thread counts for the cross-tier sweep: the serial path and one
/// fan-out wide enough to split every chunking strategy.
const TIER_THREADS: [usize; 2] = [1, 4];

/// Outlier densities in permille: all-normal, the paper's realistic ~3%,
/// and all-outlier (every nonzero element far outside the shared window).
const DENSITIES: [u32; 3] = [0, 30, 1000];

/// A tensor with a tunable outlier ratio (permille of entries pushed far
/// outside any plausible exponent window), zeros included.
fn tensor(len: usize, outlier_permille: u32, seed: u64) -> Vec<Bf16> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let base = ((state >> 40) as i32 % 500) as f32 * 4e-3;
            let v = if (state % 1000) < outlier_permille as u64 {
                base * 1e25
            } else {
                base
            };
            Bf16::from_f32(v)
        })
        .collect()
}

/// The scalar oracle: one full Kulisch register per output element, one
/// product at a time, rounded once.
fn kulisch_oracle(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = KulischAcc::new();
            for kk in 0..k {
                acc.add_product(a[i * k + kk], b[kk * n + j]);
            }
            out.push(acc.round_to_f32());
        }
    }
    out
}

fn assert_bits_equal(name: &str, got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", name);
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{}[{}]: {} vs {}", name, i, x, y);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every tiled drive loop equals the scalar Kulisch oracle, for shapes
    /// deliberately straddling the MR×NR grid, at 0/30/1000‰ outlier
    /// density, at 1/2/4/8 threads.
    #[test]
    fn tiled_gemms_match_the_scalar_kulisch_oracle(
        m_tiles in 0usize..3,
        m_rem in 0usize..MR,
        n_tiles in 0usize..3,
        n_rem in 0usize..NR,
        k in 1usize..48,
        density_idx in 0usize..DENSITIES.len(),
        seed in any::<u64>(),
    ) {
        let m = (m_tiles * MR + m_rem).max(1);
        let n = (n_tiles * NR + n_rem).max(1);
        let density = DENSITIES[density_idx];
        let a = tensor(m * k, density, seed);
        let b = tensor(k * n, density, seed.rotate_left(17) | 2);
        let oracle = kulisch_oracle(&a, &b, m, k, n);
        let prepared = PreparedTensor::with_shape(&b, k, n).expect("finite inputs");
        let mut scratch = GemmScratch::default();
        for t in THREADS {
            let owlp = with_threads(t, || owlp_gemm(&a, &b, m, k, n)).expect("finite inputs");
            assert_bits_equal("owlp_gemm", &owlp.output, &oracle)?;
            let prep = with_threads(t, || {
                owlp_gemm_prepared_with(&a, &prepared, m, k, n, &mut scratch)
            })
            .expect("finite inputs");
            assert_bits_equal("owlp_gemm_prepared_with", &prep.output, &oracle)?;
            let exact = with_threads(t, || exact_gemm(&a, &b, m, k, n));
            assert_bits_equal("exact_gemm", &exact, &oracle)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every SIMD tier this host offers produces bit-identical GEMM
    /// outputs to the forced-scalar oracle — across outlier densities,
    /// k values that leave pairwise-madd and K_PAD remainders, and at
    /// serial and fanned-out thread counts. Signs are exercised by the
    /// generator (roughly half of all entries are negative).
    #[test]
    fn every_tier_matches_the_forced_scalar_oracle(
        m_rem in 0usize..MR,
        n_rem in 0usize..NR,
        k in 1usize..48,
        density_idx in 0usize..DENSITIES.len(),
        seed in any::<u64>(),
    ) {
        let (m, n) = (MR + m_rem, NR + n_rem);
        let density = DENSITIES[density_idx];
        let a = tensor(m * k, density, seed);
        let b = tensor(k * n, density, seed.rotate_left(23) | 2);
        let scalar_owlp = with_tier(KernelTier::Scalar, || owlp_gemm(&a, &b, m, k, n))
            .expect("finite inputs");
        let scalar_exact = with_tier(KernelTier::Scalar, || exact_gemm(&a, &b, m, k, n));
        for &tier in available_tiers() {
            for t in TIER_THREADS {
                let owlp = with_tier(tier, || with_threads(t, || owlp_gemm(&a, &b, m, k, n)))
                    .expect("finite inputs");
                assert_bits_equal(tier.name(), &owlp.output, &scalar_owlp.output)?;
                let exact = with_tier(tier, || with_threads(t, || exact_gemm(&a, &b, m, k, n)));
                assert_bits_equal(tier.name(), &exact, &scalar_exact)?;
            }
        }
    }

    /// The raw kernel entry points agree with the scalar tier exactly at
    /// the extremes of their input contracts: svals sampled from
    /// {0, ±1, ±small, ±32752} (32752 is the maximum folded-significand
    /// magnitude, the bound the pairwise-madd no-wrap proof rests on),
    /// at depths straddling the SIMD lane widths.
    #[test]
    fn raw_kernels_agree_with_scalar_at_extreme_svals(
        k in 1usize..70,
        seed in any::<u64>(),
    ) {
        const EXTREMES: [i16; 9] = [0, 1, -1, 7, -7, 300, -300, 32752, -32752];
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            EXTREMES[(state % EXTREMES.len() as u64) as usize]
        };
        let rows: Vec<Vec<i16>> = (0..MR).map(|_| (0..k).map(|_| next()).collect()).collect();
        let panel: Vec<i16> = (0..k * NR).map(|_| next()).collect();
        let a_rows: [&[i16]; MR] = std::array::from_fn(|r| rows[r].as_slice());
        let win0 = WindowAcc::new(0);
        let oracle = tile_dot_i16_with(KernelTier::Scalar, a_rows, &panel, win0);
        let dot_oracle = dot_sval_with(KernelTier::Scalar, &rows[0], &rows[1], win0);
        // The i32 twin sees in-band aligned magnitudes; scale to ~2^27 so
        // the full-depth lane sum provably fits i64 at k<70 (the caller's
        // band-width budget provides the same guarantee in production).
        let rows32: Vec<Vec<i32>> =
            (0..MR).map(|_| (0..k).map(|_| next() as i32 * 4_099).collect()).collect();
        let panel32: Vec<i32> = (0..k * NR).map(|_| next() as i32 * 4_093).collect();
        let a32: [&[i32]; MR] = std::array::from_fn(|r| rows32[r].as_slice());
        let oracle32 = tile_dot_i32_with(KernelTier::Scalar, a32, &panel32);
        // Every tile height the drive loops run, edge tiles included.
        let rows8: Vec<Vec<i16>> = (0..MR8).map(|_| (0..k).map(|_| next()).collect()).collect();
        check_row_count::<1>(&rows8, &panel, k)?;
        check_row_count::<2>(&rows8, &panel, k)?;
        check_row_count::<3>(&rows8, &panel, k)?;
        check_row_count::<4>(&rows8, &panel, k)?;
        check_row_count::<5>(&rows8, &panel, k)?;
        check_row_count::<6>(&rows8, &panel, k)?;
        check_row_count::<7>(&rows8, &panel, k)?;
        check_row_count::<8>(&rows8, &panel, k)?;
        for &tier in available_tiers() {
            let wins = tile_dot_i16_with(tier, a_rows, &panel, win0);
            for (wr, or) in wins.iter().zip(&oracle) {
                for (w, o) in wr.iter().zip(or) {
                    prop_assert_eq!(w.raw(), o.raw(), "tile_dot_i16 {} k={}", tier, k);
                }
            }
            let dot = dot_sval_with(tier, &rows[0], &rows[1], win0);
            prop_assert_eq!(dot.raw(), dot_oracle.raw(), "dot_sval {} k={}", tier, k);
            let lanes = tile_dot_i32_with(tier, a32, &panel32);
            prop_assert_eq!(lanes, oracle32, "tile_dot_i32 {} k={}", tier, k);
        }
    }
}

/// The first `R` rows of `rows` as one `R`-row tile, at every tier,
/// against each row computed alone on the scalar tier.
fn check_row_count<const R: usize>(
    rows: &[Vec<i16>],
    panel: &[i16],
    k: usize,
) -> Result<(), TestCaseError> {
    let win0 = WindowAcc::new(0);
    let a_rows: [&[i16]; R] = std::array::from_fn(|r| rows[r].as_slice());
    for &tier in available_tiers() {
        let wins = tile_dot_i16_with(tier, a_rows, panel, win0);
        for (r, wr) in wins.iter().enumerate() {
            let [alone] = tile_dot_i16_with(KernelTier::Scalar, [a_rows[r]], panel, win0);
            for (w, o) in wr.iter().zip(&alone) {
                prop_assert_eq!(w.raw(), o.raw(), "{} R={} row {} k={}", tier, R, r, k);
            }
        }
    }
    Ok(())
}

/// `with_tier` requests above what the host supports clamp to an
/// available tier and still match the oracle (e.g. `avx2` forced on an
/// SSE2-only machine, `neon` on x86) — the env-override safety net.
#[test]
fn unavailable_tier_requests_clamp_and_stay_exact() {
    let (m, k, n) = (MR + 1, 13, NR + 2);
    let a = tensor(m * k, 30, 0xC1A5);
    let b = tensor(k * n, 30, 0x51DE);
    let oracle = kulisch_oracle(&a, &b, m, k, n);
    for tier in [KernelTier::Sse2, KernelTier::Avx2, KernelTier::Neon] {
        let out =
            microkernel::with_tier(tier, || owlp_gemm(&a, &b, m, k, n)).expect("finite inputs");
        for (x, y) in out.output.iter().zip(&oracle) {
            assert_eq!(x.to_bits(), y.to_bits(), "forced {tier}");
        }
    }
}

/// Deterministic sweep of the exact MR/NR boundary shapes (1, MR−1, MR,
/// MR+1, 2·MR+3, and the NR analogues) at the realistic density.
#[test]
fn edge_remainder_shapes_are_bit_exact() {
    let k = 19;
    let ms = [1, MR - 1, MR, MR + 1, 2 * MR + 3];
    let ns = [1, NR - 1, NR, NR + 1, 2 * NR + 3];
    for (i, &m) in ms.iter().enumerate() {
        for (j, &n) in ns.iter().enumerate() {
            let seed = 0xED6E ^ ((i as u64) << 8) ^ (j as u64);
            let a = tensor(m * k, 30, seed);
            let b = tensor(k * n, 30, seed | 1 << 20);
            let oracle = kulisch_oracle(&a, &b, m, k, n);
            let owlp = owlp_gemm(&a, &b, m, k, n).expect("finite inputs");
            let exact = exact_gemm(&a, &b, m, k, n);
            for (x, y) in owlp.output.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "owlp {m}x{k}x{n}");
            }
            for (x, y) in exact.iter().zip(&oracle) {
                assert_eq!(x.to_bits(), y.to_bits(), "exact {m}x{k}x{n}");
            }
        }
    }
}

/// Activation outlier densities of the dense sweep, in permille.
const ACT_DENSITIES: [u32; 6] = [0, 30, 270, 600, 980, 1000];

/// Weight outlier densities of the dense sweep, in permille.
const WT_DENSITIES: [u32; 3] = [0, 20, 100];

/// A dense-outlier tensor: about `permille` of the entries are pushed
/// outside the shared window, across many exponents. GELU-like entries
/// are normals of either sign plus large positive and tiny negative
/// outliers, 6–55 octaves out; softmax-like entries are all positive, with
/// every outlier tiny and 8–67 octaves below the window. One entry in
/// sixteen is zero.
fn dense_tensor(len: usize, permille: u32, softmax: bool, seed: u64) -> Vec<Bf16> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state >> 60 == 0 {
                return Bf16::ZERO;
            }
            let frac = 1.0 + ((state >> 40) & 0xff) as f32 / 256.0;
            let spread = ((state >> 24) % 50) as i32;
            let (exp, negative) = if state % 1000 >= permille as u64 {
                (
                    -(((state >> 20) % 3) as i32),
                    !softmax && state & (1 << 33) != 0,
                )
            } else if softmax {
                (-8 - spread - ((state >> 50) % 10) as i32, false)
            } else if state & (1 << 34) == 0 {
                (6 + spread, false)
            } else {
                (-6 - spread, true)
            };
            let v = frac * 2f32.powi(exp);
            Bf16::from_f32(if negative { -v } else { v })
        })
        .collect()
}

/// The outlier statistics counted naively from the BF16 values: a product
/// takes an outlier path when either operand lies outside its tensor's
/// shared window and neither is zero.
fn naive_outlier_stats(a: &[Bf16], b: &[Bf16], m: usize, k: usize, n: usize) -> (usize, usize) {
    let (wa, wb) = (select_window(a), select_window(b));
    let (mut max, mut total) = (0usize, 0usize);
    for i in 0..m {
        for j in 0..n {
            let routed = (0..k)
                .filter(|&kk| {
                    let (x, y) = (a[i * k + kk], b[kk * n + j]);
                    !x.is_zero() && !y.is_zero() && (!wa.contains(x) || !wb.contains(y))
                })
                .count();
            max = max.max(routed);
            total += routed;
        }
    }
    (max, total)
}

/// Packs `b` into a fresh archive-v2 file and maps it back: the zero-copy
/// weight path, whose column tag table is built on first use.
fn mapped_archive(b: &[Bf16], k: usize, n: usize) -> (std::path::PathBuf, MappedArchive) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "owlp-microkernel-equivalence-{}-{}.owl2",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let mut w = ArchiveWriter::with_budget(&path, 4 << 10).expect("archive created");
    w.add_tensor_slice("w", k, n, b).expect("tensor packed");
    w.finish().expect("archive written");
    let archive = MappedArchive::open(&path).expect("archive maps");
    (path, archive)
}

/// Runs the ABFT drive loop at every tier × thread count × blocking
/// geometry (the unblocked oracle, an awkward multi-stripe split, thin
/// stripes over whole blocks, and the automatic choice), on the weight
/// packed per call, with memoised panels
/// and column table, and mapped from an archive. Checks each run against
/// the exact engine, the forced-scalar unblocked serial run, the
/// independent ABFT reference sums, and the naive outlier statistics.
fn check_dense_gemm(
    a: &[Bf16],
    b: &[Bf16],
    m: usize,
    k: usize,
    n: usize,
) -> Result<(), TestCaseError> {
    let pa = encode_tensor(a, None)
        .expect("finite inputs")
        .decode_packed();
    let pb = encode_tensor(b, None)
        .expect("finite inputs")
        .decode_packed();
    let exact = exact_gemm(a, b, m, k, n);
    let reference = reference_sums(&pa, &pb, m, k, n);
    let (max, total) = naive_outlier_stats(a, b, m, k, n);
    let run = |pb: &PackedOperands, panels: Option<&PackedPanels>| {
        owlp_gemm_packed_abft(&pa, pb, panels, m, k, n, None).expect("finite inputs")
    };
    let (scalar, scalar_sums) = with_tier(KernelTier::Scalar, || {
        with_threads(1, || {
            with_block(BlockGeometry::UNBLOCKED, || run(&pb, None))
        })
    });
    assert_bits_equal("forced-scalar", &scalar.output, &exact)?;
    prop_assert_eq!(&scalar_sums, &reference, "ABFT reference sums");
    prop_assert_eq!(scalar.max_wavefront_outliers, max, "max wavefront outliers");
    prop_assert_eq!(
        scalar.total_outlier_products,
        total,
        "total outlier products"
    );
    let memo = pb.pack_panels(k, n);
    let (path, archive) = mapped_archive(b, k, n);
    let mapped = archive.tensor("w").expect("digest-verified load");
    let variants: [(&str, &PackedOperands, Option<&PackedPanels>); 3] = [
        ("per-call", &pb, None),
        ("memoised", &pb, Some(&memo)),
        ("mapped", mapped.operands(), mapped.panels()),
    ];
    let split = BlockGeometry::parse("4,8,4").expect("valid geometry");
    // Thin K stripes under whole-M, whole-N blocks: one multi-stripe lane
    // plane spans several panels and every row of the chunk.
    let stripes = BlockGeometry::parse("0,8,0").expect("valid geometry");
    for (variant, ops_b, panels) in variants {
        for &tier in available_tiers() {
            for t in TIER_THREADS {
                for geom in [
                    Some(BlockGeometry::UNBLOCKED),
                    Some(split),
                    Some(stripes),
                    None,
                ] {
                    let (out, sums): (OwlpGemmOutput, _) = with_tier(tier, || {
                        with_threads(t, || match geom {
                            Some(g) => with_block(g, || run(ops_b, panels)),
                            None => run(ops_b, panels),
                        })
                    });
                    let what = format!("{variant} {tier} {t}t {geom:?}");
                    prop_assert_eq!(&out, &scalar, "{}", what);
                    prop_assert_eq!(&sums, &scalar_sums, "{}", what);
                }
            }
        }
    }
    drop(mapped);
    drop(archive);
    std::fs::remove_file(&path).ok();
    let plain = owlp_gemm(a, b, m, k, n).expect("finite inputs");
    prop_assert_eq!(&plain, &scalar, "plain vs ABFT drive loop");
    Ok(())
}

/// Every activation row count from the one-row decode GEMV to one past
/// the widest register tile, so every edge-tile height runs: at a depth
/// that is single-stripe under the automatic geometry and multi-stripe
/// under the split one, and at a depth beyond the lane spill period.
#[test]
fn every_edge_row_count_matches_every_oracle() {
    let n = NR + 3;
    for m in 1..=MR8 + 1 {
        for (k, act) in [(37, 270), (microkernel::K_SPILL + 5, 30)] {
            let seed = 0x5EED ^ (m as u64) << 20 ^ k as u64;
            let a = dense_tensor(m * k, act, m % 2 == 0, seed);
            let b = dense_tensor(k * n, WT_DENSITIES[2], false, seed.rotate_left(13) | 4);
            if let Err(e) = check_dense_gemm(&a, &b, m, k, n) {
                panic!("m={m} k={k}: {e}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Activation density from none to all-outlier (GELU-like or
    /// softmax-like rows) against weight density up to 10%: outputs, ABFT
    /// sums and outlier statistics at every tier, thread count and
    /// geometry. The dense rows force doubly-tagged depths; their frames
    /// escape the singly-tagged window bounds to the Kulisch register, and
    /// rows with outliers far above and below the window overflow the
    /// wide window entirely.
    #[test]
    fn dense_outlier_sweep_matches_every_oracle(
        m in 1usize..11,
        k in 1usize..90,
        n in 1usize..11,
        act_idx in 0usize..ACT_DENSITIES.len(),
        wt_idx in 0usize..WT_DENSITIES.len(),
        softmax in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let a = dense_tensor(m * k, ACT_DENSITIES[act_idx], softmax, seed);
        let b = dense_tensor(k * n, WT_DENSITIES[wt_idx], false, seed.rotate_left(29) | 4);
        check_dense_gemm(&a, &b, m, k, n)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Depths beyond the lane spill period take the multi-stripe path with
    /// its spill plane; the grouped correction must see the same sums.
    #[test]
    fn dense_outliers_beyond_the_spill_period_match_every_oracle(
        m in 1usize..=MR8 + 1,
        extra_k in 1usize..40,
        n in 1usize..6,
        act_idx in 0usize..ACT_DENSITIES.len(),
        softmax in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = microkernel::K_SPILL + extra_k;
        let a = dense_tensor(m * k, ACT_DENSITIES[act_idx], softmax, seed);
        let b = dense_tensor(k * n, WT_DENSITIES[2], false, seed.rotate_left(31) | 8);
        check_dense_gemm(&a, &b, m, k, n)?;
    }
}
