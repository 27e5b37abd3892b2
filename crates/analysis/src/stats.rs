//! Small statistics helpers: the least-squares fits behind the `bench`
//! crate's Figure 4.8 and BENCH_4 claims.

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Least-squares slope and intercept of y over x (for the linear-growth
/// claim of Figure 4.8).
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len());
    let mx = mean(x);
    let my = mean(y);
    let sxy: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    let sxx: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
    let slope = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    (slope, my - slope * mx)
}

/// Coefficient of determination R² of a linear fit.
pub fn r_squared(x: &[f64], y: &[f64]) -> f64 {
    let (slope, intercept) = linear_fit(x, y);
    let my = mean(y);
    let ss_tot: f64 = y.iter().map(|v| (v - my) * (v - my)).sum();
    let ss_res: f64 = x
        .iter()
        .zip(y)
        .map(|(a, b)| {
            let pred = slope * a + intercept;
            (b - pred) * (b - pred)
        })
        .sum();
    if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_a_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn perfect_line_fits() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [3.0, 5.0, 7.0, 9.0];
        let (slope, intercept) = linear_fit(&x, &y);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!((r_squared(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_lower_r2() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 9.0, 1.0, 8.0, 3.0];
        assert!(r_squared(&x, &y) < 0.5);
    }
}
