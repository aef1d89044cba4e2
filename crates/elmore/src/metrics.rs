//! Closed-form delay metrics derived from circuit moments.

use rcnet::Seconds;

/// Natural log of 2, the 50 % crossing of a single-pole exponential in
/// units of its time constant.
pub const LN2: f64 = std::f64::consts::LN_2;

/// Elmore 50 % delay estimate from the first moment: `ln 2 * (-m1)`.
///
/// The raw Elmore delay `-m1` is the mean of the impulse response and a
/// provable upper bound of the 50 % delay; scaling by `ln 2` matches a
/// single-pole response exactly.
pub fn elmore50(m1: f64) -> Seconds {
    Seconds(LN2 * (-m1).max(0.0))
}

/// D2M two-moment delay metric (Alpert–Devgan–Kashyap, ISPD 2000):
/// `D2M = ln 2 * m1^2 / sqrt(m2)`.
///
/// Far more accurate than Elmore on far-from-driver sinks. Falls back to
/// [`elmore50`] when `m2` is non-positive (degenerate, e.g. capacitance-free
/// nets).
pub fn d2m(m1: f64, m2: f64) -> Seconds {
    if m2 <= 0.0 {
        return elmore50(m1);
    }
    Seconds(LN2 * m1 * m1 / m2.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pole_identities() {
        // For a single pole with time constant tau: m1 = -tau, m2 = tau^2.
        let tau = 5e-12;
        let (m1, m2) = (-tau, tau * tau);
        assert!((elmore50(m1).value() - LN2 * tau).abs() < 1e-24);
        assert!((d2m(m1, m2).value() - LN2 * tau).abs() < 1e-24);
    }

    #[test]
    fn d2m_leq_elmore_for_multi_pole() {
        // Multi-pole responses have m2 > m1^2, making D2M < ln2*(-m1).
        let m1 = -10e-12;
        let m2 = 2.0 * m1 * m1;
        assert!(d2m(m1, m2).value() < elmore50(m1).value());
    }

    #[test]
    fn degenerate_moments_fall_back() {
        assert_eq!(d2m(-1e-12, 0.0), elmore50(-1e-12));
        assert_eq!(elmore50(1e-12).value(), 0.0); // positive m1 clamps
    }
}
