//! Small numeric helpers: quantiles, a host-speed calibration kernel
//! and a seeded generator.

use std::sync::OnceLock;
use std::time::Duration;

/// The `q` quantile (0..=1) of `values`, by the Harrell–Davis estimator:
/// a Beta-weighted mean of all order statistics. Latencies of a rotation
/// over several backends form clusters; a plain sample quantile that
/// falls between two clusters jumps from one to the other between runs,
/// while this estimate moves smoothly. `NaN` when `values` is empty;
/// infinite samples (failed requests) sort last and make any quantile
/// whose weight reaches them infinite.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    if a <= 0.0 || b <= 0.0 {
        return if q <= 0.0 { sorted[0] } else { sorted[sorted.len() - 1] };
    }
    let mut below = 0.0;
    let mut estimate = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let upto = incomplete_beta(a, b, (i + 1) as f64 / n);
        let weight = upto - below;
        below = upto;
        if weight > 0.0 {
            estimate += weight * x;
        }
    }
    estimate
}

/// The `q` quantile, or — when fewer than ten samples would lie beyond
/// it — the highest quantile with ten samples beyond it. Returns the
/// estimate and the quantile actually used.
pub fn tail_quantile(values: &[f64], q: f64) -> (f64, f64) {
    let at = q.min(1.0 - 10.0 / values.len().max(1) as f64).max(0.5);
    (quantile(values, at), at)
}

/// The regularized incomplete beta function I_x(a, b), by its continued
/// fraction (modified Lentz).
fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front =
        ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        (ln_front.exp() * beta_fraction(a, b, x) / a).clamp(0.0, 1.0)
    } else {
        (1.0 - ln_front.exp() * beta_fraction(b, a, 1.0 - x) / b).clamp(0.0, 1.0)
    }
}

fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let (qab, qap, qam) = (a + b, a + 1.0, a - 1.0);
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        let m2 = 2.0 * m;
        for aa in [
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ] {
            d = 1.0 + aa * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + aa / c;
            c = if c.abs() < TINY { TINY } else { c };
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-12 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series =
        G[1..].iter().enumerate().fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Words in the calibration buffer (8 MiB: past every core's L2, so
/// the kernel feels memory contention as well as core speed).
const CALIBRATION_WORDS: usize = 1 << 20;

/// [`calibrate`]'s time on the reference host (one vCPU of an otherwise
/// idle 2-vCPU x86-64 VM). Calibrated host timings read as if measured
/// there.
pub const CALIBRATION_REF_MS: f64 = 0.75;

/// Times a fixed piece of host work independent of the program: a chain
/// of 2^18 dependent random reads, each ANDed and popcounted, over a
/// 8 MiB buffer. Returns milliseconds.
pub fn calibrate() -> f64 {
    static BUFFER: OnceLock<Vec<u64>> = OnceLock::new();
    let words = BUFFER.get_or_init(|| {
        let mut rng = Rng::new(0xca11);
        (0..CALIBRATION_WORDS).map(|_| rng.next_u64()).collect()
    });
    let start = std::time::Instant::now();
    let mut rng = Rng::new(1);
    let mut acc = 0u64;
    for _ in 0..(1 << 18) {
        let i = (rng.next_u64() ^ acc) as usize & (CALIBRATION_WORDS - 1);
        acc = acc.wrapping_add(u64::from((words[i] & acc.rotate_left(7)).count_ones()));
    }
    std::hint::black_box(acc);
    ms(start.elapsed())
}

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// derives from `--seed` repeats exactly.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((quantile(&v, 0.5) - 51.0).abs() < 1e-6, "symmetric data: the middle");
        assert!((quantile(&v, 0.9) - 91.0).abs() < 0.5);
        assert!((quantile(&[7.0], 0.99) - 7.0).abs() < 1e-9);
        // Between two clusters the estimate sits in the gap, not on an edge.
        let mut two = vec![10.0; 50];
        two.extend(vec![20.0; 50]);
        let mid = quantile(&two, 0.5);
        assert!(mid > 12.0 && mid < 18.0, "{mid}");
        assert!(quantile(&[1.0, f64::INFINITY], 0.9).is_infinite());
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x^2.
        assert!((incomplete_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-9);
        assert!((incomplete_beta(2.0, 1.0, 0.3) - 0.09).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, (0..4).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect::<Vec<_>>());
    }
}
