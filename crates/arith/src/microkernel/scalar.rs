//! The scalar reference kernels — the always-on oracle.
//!
//! These are the PR5 register-tiled loops, verbatim: every SIMD tier in
//! [`super::x86`] / [`super::neon`] is differential-tested against them
//! (`tests/microkernel_equivalence.rs`), and `OWLP_SIMD=scalar` forces
//! them at runtime on any host. They carry the exactness contract the
//! SIMD tiers inherit: products are exact in `i32`, `i64` lane sums are
//! exact per [`super::K_SPILL`] segment, and integer regrouping cannot
//! change the sum.
//!
//! Contracts here are the relaxed module-level ones (`panel.len() ≥
//! seg·NR`) — the public wrappers in [`super`] own the debug assertions.

use super::{MR, NR};

/// Scalar tier of [`super::tile_mul_i16`], for any row count `R`: one
/// `i16×i16→i32` FMA per product, widened to the `i64` lane once per term.
#[inline]
pub fn tile_mul_i16<const R: usize>(
    a_rows: [&[i16]; R],
    panel: &[i16],
    lanes: &mut [[i64; NR]; R],
) {
    let seg = a_rows[0].len();
    for kk in 0..seg {
        let b = &panel[kk * NR..kk * NR + NR];
        for r in 0..R {
            let av = a_rows[r][kk] as i32;
            for (c, lane) in lanes[r].iter_mut().enumerate() {
                // i16×i16 → exact i32 product, widened once per lane.
                *lane += (av * b[c] as i32) as i64;
            }
        }
    }
}

/// Scalar tier of one [`super::dot_sval`] K-segment: the plain
/// multiply-accumulate sweep (`a.len() == b.len() ≤ K_SPILL`).
#[inline]
pub fn dot_seg(a: &[i16], b: &[i16]) -> i64 {
    let mut sum = 0i64;
    for (x, y) in a.iter().zip(b) {
        sum += (*x as i32 * *y as i32) as i64;
    }
    sum
}

/// Scalar tier of [`super::tile_mul_i32`]: band-plane products taken
/// directly in `i64` (`|a| < 2^31` each side).
#[inline]
pub fn tile_mul_i32(a_rows: [&[i32]; MR], panel: &[i32], lanes: &mut [[i64; NR]; MR]) {
    let seg = a_rows[0].len();
    for kk in 0..seg {
        let b = &panel[kk * NR..kk * NR + NR];
        for r in 0..MR {
            let av = a_rows[r][kk] as i64;
            for (c, lane) in lanes[r].iter_mut().enumerate() {
                *lane += av * b[c] as i64;
            }
        }
    }
}
