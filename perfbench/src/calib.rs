//! Host-mode diagnostic.
//!
//! The host's speed for bignum-heavy code switches between modes that are
//! 1.5–2× apart while a plain integer loop barely moves. This kernel is
//! written here, shares no code with the program, allocates on every
//! round and is dominated by 64×64→128-bit multiply-accumulate, the shape
//! of the RSA inner loop, so it slows down when the program would. Its
//! time is reported next to the metrics and never used to scale them: it
//! tells a slow host from a slow program.

use std::hint::black_box;
use utp_server::metrics::HostStopwatch;

const LIMBS: usize = 32;
const ROUNDS: u32 = 12_000;
const REPS: usize = 5;

/// One kernel call: `ROUNDS` schoolbook 2048×2048-bit products, each
/// into a freshly allocated buffer.
fn kernel() -> u64 {
    let mut a: Vec<u64> = (1..=LIMBS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let b: Vec<u64> = (1..=LIMBS as u64)
        .map(|i| i.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1)
        .collect();
    let mut acc = 0u64;
    for _ in 0..ROUNDS {
        let mut out = vec![0u64; 2 * LIMBS];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            out[i + LIMBS] = carry as u64;
        }
        let out = black_box(out);
        acc ^= out[LIMBS];
        a[0] = a[0].wrapping_add(out[2 * LIMBS - 1] | 1);
    }
    acc
}

/// Median host time of one kernel call, µs, over a few calls.
pub fn measure() -> f64 {
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let sw = HostStopwatch::start();
            black_box(kernel());
            sw.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[REPS / 2]
}
