//! The golden simulator as an [`sta::WireTimer`]: the "sign-off"
//! reference that arrival-time comparisons hold the estimators against.

use rcnet::{RcNet, Seconds};
use rcsim::{GoldenTimer, SiMode};
use sta::cells::Cell;
use sta::{StaError, WireTimer};

/// Wire timer backed by the golden transient simulator.
#[derive(Debug)]
pub struct GoldenWireTimer {
    timer: GoldenTimer,
    si: bool,
}

impl GoldenWireTimer {
    /// Creates the adapter; `si` enables worst-case aggressors on coupled
    /// nets.
    pub fn new(timer: GoldenTimer, si: bool) -> Self {
        GoldenWireTimer { timer, si }
    }
}

impl WireTimer for GoldenWireTimer {
    /// Simulates `net` driven through the driver's resistance, or the
    /// timer's own one when `driver` is `None`.
    fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        driver: Option<&Cell>,
    ) -> Result<Vec<(Seconds, Seconds)>, StaError> {
        let timer = match driver {
            Some(cell) => self.timer.clone().with_drive(cell.drive_res()),
            None => self.timer.clone(),
        };
        let si = if self.si && !net.couplings().is_empty() {
            SiMode::WorstCase {
                aggressor_ramp: input_slew,
            }
        } else {
            SiMode::Off
        };
        let timing = timer
            .time_net(net, input_slew, si)
            .map_err(|e| StaError::Wire(e.to_string()))?;
        Ok(timing.iter().map(|p| (p.delay, p.slew)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, Ohms, RcNetBuilder};

    fn net(r: f64) -> RcNet {
        let mut b = RcNetBuilder::new("t");
        let s = b.source("s", Farads::from_ff(1.0));
        let k = b.sink("k", Farads::from_ff(10.0));
        b.resistor(s, k, Ohms(r));
        b.build().unwrap()
    }

    #[test]
    fn golden_timer_adapter_returns_positive_timing() {
        let t = GoldenWireTimer::new(GoldenTimer::default(), true);
        let rows = t
            .time_net(&net(500.0), Seconds::from_ps(20.0), None)
            .unwrap();
        assert_eq!(rows.len(), 1);
        let (d, s) = rows[0];
        assert!(d.value() > 0.0);
        assert!(s.value() > 0.0);
        // A second query simulates again and agrees.
        assert_eq!(
            t.time_net(&net(500.0), Seconds::from_ps(20.0), None)
                .unwrap(),
            rows
        );
    }

    #[test]
    fn nets_sharing_a_name_are_timed_apart() {
        let golden = GoldenTimer::default();
        let t = GoldenWireTimer::new(golden.clone(), false);
        let slew = Seconds::from_ps(20.0);
        let (short, long) = (net(100.0), net(2000.0));
        assert_eq!(short.name(), long.name());
        let rows = |n: &RcNet| t.time_net(n, slew, None).unwrap();
        let direct = |n: &RcNet| {
            let timing = golden.time_net(n, slew, SiMode::Off).unwrap();
            timing.iter().map(|p| (p.delay, p.slew)).collect::<Vec<_>>()
        };
        assert_eq!(rows(&short), direct(&short));
        assert_eq!(rows(&long), direct(&long));
        assert!(rows(&long)[0].0 > rows(&short)[0].0);
    }
}
