//! Random samplers used by the failure and workload models.
//!
//! Only `rand`'s uniform primitives are used; the shaped distributions
//! (Poisson, normal, log-normal) are implemented here so the workspace does
//! not need `rand_distr`. The implementations are the textbook ones:
//! Box–Muller for the normal behind the log-normal, and Knuth's method
//! (with a normal approximation for large means) for the Poisson.

use rand::Rng;

/// Samples a standard normal via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a normal with the given mean and standard deviation.
///
/// # Panics
///
/// Panics if `std_dev < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * standard_normal(rng)
}

/// Samples a log-normal parameterised by the *median* of the distribution
/// and the shape parameter `sigma` (the standard deviation of the underlying
/// normal). `median = exp(mu)`.
///
/// # Panics
///
/// Panics if `median <= 0` or `sigma < 0`.
pub fn log_normal_median<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "log-normal median must be positive");
    assert!(sigma >= 0.0, "log-normal sigma must be non-negative");
    (median.ln() + sigma * standard_normal(rng)).exp()
}

/// Samples a Poisson with mean `lambda`.
///
/// Uses Knuth's multiplication method for small `lambda` and a rounded
/// normal approximation for `lambda > 30` (adequate for the event-count
/// processes modelled here).
///
/// # Panics
///
/// Panics if `lambda < 0`.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    assert!(lambda >= 0.0, "poisson mean must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda > 30.0 {
        let sample = normal(rng, lambda, lambda.sqrt());
        return sample.round().max(0.0) as u64;
    }
    let threshold = (-lambda).exp();
    let mut count = 0u64;
    let mut product: f64 = rng.random_range(0.0..1.0);
    while product > threshold {
        count += 1;
        product *= rng.random_range(0.0..1.0_f64);
    }
    count
}

/// Samples `true` with probability `p` (clamped to `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    let p = p.clamp(0.0, 1.0);
    rng.random_range(0.0..1.0) < p
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xFACE_B00C)
    }

    fn mean_of<F: FnMut(&mut StdRng) -> f64>(n: usize, mut f: F) -> f64 {
        let mut r = rng();
        (0..n).map(|_| f(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_moments_converge() {
        let m = mean_of(200_000, |r| normal(r, 10.0, 3.0));
        assert!((m - 10.0).abs() < 0.05, "{m}");
        let mut r = rng();
        let samples: Vec<f64> = (0..200_000).map(|_| normal(&mut r, 0.0, 2.0)).collect();
        let var = samples.iter().map(|x| x * x).sum::<f64>() / samples.len() as f64;
        assert!((var - 4.0).abs() < 0.1, "{var}");
    }

    #[test]
    fn log_normal_median_converges() {
        let mut r = rng();
        let mut samples: Vec<f64> = (0..100_001)
            .map(|_| log_normal_median(&mut r, 45.0, 1.0))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[samples.len() / 2];
        assert!((med - 45.0).abs() < 2.0, "{med}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn poisson_small_lambda() {
        let m = mean_of(100_000, |r| poisson(r, 3.5) as f64);
        assert!((m - 3.5).abs() < 0.05, "{m}");
        let mut r = rng();
        assert_eq!(poisson(&mut r, 0.0), 0);
    }

    #[test]
    fn poisson_large_lambda_uses_normal_approximation() {
        let m = mean_of(100_000, |r| poisson(r, 52.0) as f64);
        assert!((m - 52.0).abs() < 0.3, "{m}");
        // Standard deviation should be about sqrt(52) ~ 7.2.
        let mut r = rng();
        let samples: Vec<f64> = (0..100_000).map(|_| poisson(&mut r, 52.0) as f64).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!((var.sqrt() - 7.2).abs() < 0.4, "{}", var.sqrt());
    }

    #[test]
    fn bernoulli_frequency() {
        let mut r = rng();
        let hits = (0..100_000).filter(|_| bernoulli(&mut r, 0.08)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.08).abs() < 0.005, "{freq}");
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(bernoulli(&mut r, 7.0));
        assert!(!bernoulli(&mut r, -2.0));
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn poisson_rejects_negative_lambda() {
        poisson(&mut rng(), -1.0);
    }
}
