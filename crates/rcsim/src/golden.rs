//! The golden timer front end: per-path wire slew/delay labels.

use crate::mna::MnaSystem;
use crate::si::Aggressor;
use crate::transient::{CaptureSet, RampInput, SimOptions, SolverKind, TransientSim};
use crate::SimError;
use rcnet::{NodeId, Ohms, RcNet, Seconds};

/// Signal transition direction at the victim driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Edge {
    /// 0 → vdd transition.
    #[default]
    Rise,
    /// vdd → 0 transition.
    Fall,
}

/// Crosstalk analysis mode.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SiMode {
    /// Ignore coupling activity (aggressors quiet); coupling caps still
    /// load the victim.
    #[default]
    Off,
    /// Every coupling capacitor sees a worst-case opposite-switching
    /// aggressor with the given transition time, aligned with the victim.
    WorstCase {
        /// Aggressor full 0→100 % ramp time.
        aggressor_ramp: Seconds,
    },
}

/// Measured timing of one wire path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathTiming {
    /// The path's sink node.
    pub sink: NodeId,
    /// Wire delay: `t50(sink) - t50(driver pin)`.
    pub delay: Seconds,
    /// Wire slew: 10–90 % rise time at the sink.
    pub slew: Seconds,
}

/// Golden wire timer: simulates the net and measures every wire path.
///
/// Only the driver pin and the sinks are captured during integration,
/// and a net that has not settled by the end of the initial horizon is
/// *continued* from its last state with the existing factorization (warm
/// restart) rather than re-simulated from `t = 0`.
///
/// # Examples
///
/// ```
/// use rcnet::{Farads, Ohms, RcNetBuilder, Seconds};
/// use rcsim::{GoldenTimer, SiMode};
///
/// # fn main() -> Result<(), rcsim::SimError> {
/// # let mut b = RcNetBuilder::new("n");
/// # let s = b.source("d:Z", Farads(1e-15));
/// # let k = b.sink("l:A", Farads(20e-15));
/// # b.resistor(s, k, Ohms(200.0));
/// # let net = b.build().map_err(rcsim::SimError::from)?;
/// let timer = GoldenTimer::new(1.0, Ohms(120.0));
/// let timing = timer.time_net(&net, Seconds::from_ps(25.0), SiMode::Off)?;
/// assert!(timing[0].slew.value() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenTimer {
    vdd: f64,
    r_drive: Ohms,
    steps: usize,
    max_extensions: u32,
    solver: SolverKind,
    horizon_tau: f64,
}

impl Default for GoldenTimer {
    /// 1 V swing behind a 120 Ω driver with 4000-step integration.
    fn default() -> Self {
        GoldenTimer::new(1.0, Ohms(120.0))
    }
}

impl GoldenTimer {
    /// Creates a timer with the given supply swing and drive resistance.
    pub fn new(vdd: f64, r_drive: Ohms) -> Self {
        GoldenTimer {
            vdd,
            r_drive,
            steps: 4000,
            max_extensions: 5,
            solver: SolverKind::default(),
            horizon_tau: 15.0,
        }
    }

    /// Overrides the integration step count (trade accuracy for speed).
    pub fn with_steps(mut self, steps: usize) -> Self {
        self.steps = steps;
        self
    }

    /// Overrides the drive resistance.
    pub fn with_drive(mut self, r_drive: Ohms) -> Self {
        self.r_drive = r_drive;
        self
    }

    /// Selects the linear solver backend (sparse LDLᵀ by default; the
    /// dense LU oracle is for tests and benchmarks).
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the initial horizon in units of the net's estimated
    /// dominant time constant (default 15.0). Smaller values make the
    /// warm-restart horizon extension kick in; mainly for tests.
    pub fn with_horizon_tau(mut self, taus: f64) -> Self {
        self.horizon_tau = taus;
        self
    }

    /// The supply swing.
    pub fn vdd(&self) -> f64 {
        self.vdd
    }

    /// The Thevenin drive resistance.
    pub fn r_drive(&self) -> Ohms {
        self.r_drive
    }

    /// The selected solver backend.
    pub fn solver(&self) -> SolverKind {
        self.solver
    }

    /// Simulates `net` with a rising input of the given 10–90 % slew and
    /// measures the slew and delay of every wire path (in `net.paths()`
    /// order).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotSettled`] when the net does not reach its
    /// final value within the maximum extended horizon, and propagates
    /// numeric/parameter errors from the integrator.
    pub fn time_net(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        si: SiMode,
    ) -> Result<Vec<PathTiming>, SimError> {
        self.time_net_edge(net, input_slew, si, Edge::Rise)
    }

    /// Like [`GoldenTimer::time_net`] for an explicit transition
    /// direction; worst-case aggressors switch opposite to the victim.
    ///
    /// # Errors
    ///
    /// See [`GoldenTimer::time_net`].
    pub fn time_net_edge(
        &self,
        net: &RcNet,
        input_slew: Seconds,
        si: SiMode,
        edge: Edge,
    ) -> Result<Vec<PathTiming>, SimError> {
        let positive = input_slew.value() > 0.0;
        if !positive {
            return Err(SimError::BadParameter(format!(
                "input slew must be positive, got {input_slew}"
            )));
        }
        let _span = obs::span("golden_net");
        let wall = std::time::Instant::now();
        let sys = MnaSystem::new(net, self.r_drive)?;
        // A 10-90% slew corresponds to 80% of the full ramp.
        let ramp = input_slew.value() / 0.8;
        let input = match edge {
            Edge::Rise => RampInput::rising(self.vdd, ramp),
            Edge::Fall => RampInput::falling(self.vdd, ramp),
        };
        let aggressor = match si {
            SiMode::Off => None,
            SiMode::WorstCase { aggressor_ramp } => {
                // Worst case is the aggressor switching against the victim.
                let mut a = Aggressor::worst_case(aggressor_ramp.value(), self.vdd);
                a.rising = matches!(edge, Edge::Fall);
                Some(a)
            }
        };

        let settled_value = |v: f64| match edge {
            Edge::Rise => v >= 0.995 * self.vdd,
            Edge::Fall => v <= 0.005 * self.vdd,
        };
        let t50_of = |wf: &crate::waveform::Waveform| match edge {
            Edge::Rise => wf.t50(self.vdd),
            Edge::Fall => wf.t50_fall(self.vdd),
        };
        let slew_of = |wf: &crate::waveform::Waveform| match edge {
            Edge::Rise => wf.rise_slew(self.vdd),
            Edge::Fall => wf.fall_slew(self.vdd),
        };

        let tau = sys.tau_estimate(net);
        let horizon = ramp + self.horizon_tau * tau;
        let h = horizon / self.steps as f64;
        // Only the nodes the measurement below reads.
        let mut capture = vec![net.source()];
        capture.extend(net.sinks().iter().copied());
        let opts = SimOptions {
            solver: self.solver,
            capture: CaptureSet::Nodes(capture),
        };
        let mut sim = TransientSim::new(&sys, net, &input, aggressor.as_ref(), h, &opts)?;
        sim.run(self.steps)?;
        // Each extension doubles the covered horizon by integrating the
        // same number of steps again from the current state — the
        // factorization and RHS history carry over (warm restart).
        let mut extension_steps = self.steps;
        let mut extensions = 0;
        loop {
            let res = sim.snapshot();
            let settled = net
                .sinks()
                .iter()
                .all(|&s| {
                    settled_value(res.waveform(s).expect("sink captured").final_value().value())
                });
            if settled {
                let src_t50 = res
                    .waveform(net.source())
                    .and_then(t50_of)
                    .ok_or_else(|| SimError::NotSettled {
                        net: net.name().to_string(),
                    })?;
                let mut out = Vec::with_capacity(net.paths().len());
                let mut ok = true;
                for path in net.paths() {
                    let wf = res.waveform(path.sink).expect("sink captured");
                    match (t50_of(wf), slew_of(wf)) {
                        (Some(t50), Some(slew)) => out.push(PathTiming {
                            sink: path.sink,
                            delay: Seconds((t50.value() - src_t50.value()).max(0.0)),
                            slew,
                        }),
                        _ => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    obs::counter("rcsim.golden.nets").inc();
                    obs::histogram("rcsim.golden.net_seconds")
                        .observe(wall.elapsed().as_secs_f64());
                    return Ok(out);
                }
            }
            if extensions >= self.max_extensions {
                break;
            }
            extensions += 1;
            obs::counter("rcsim.golden.horizon_extensions").inc();
            sim.run(extension_steps)?;
            extension_steps *= 2;
        }
        obs::event!(
            obs::Level::Warn,
            "rcsim.golden",
            "net did not settle within extended horizon",
            net = net.name(),
            extensions = self.max_extensions,
        );
        Err(SimError::NotSettled {
            net: net.name().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcnet::{Farads, RcNetBuilder};

    fn two_sink_net() -> RcNet {
        let mut b = RcNetBuilder::new("n");
        let s = b.source("s", Farads(1e-15));
        let m = b.internal("m", Farads(4e-15));
        let near = b.sink("near", Farads(3e-15));
        let far = b.sink("far", Farads(3e-15));
        b.resistor(s, m, Ohms(100.0));
        b.resistor(m, near, Ohms(50.0));
        b.resistor(m, far, Ohms(800.0));
        b.build().unwrap()
    }

    #[test]
    fn farther_sink_has_larger_delay_and_slew() {
        let net = two_sink_net();
        let t = GoldenTimer::default()
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .unwrap();
        assert_eq!(t.len(), 2);
        let near = t.iter().find(|p| net.node(p.sink).name == "near").unwrap();
        let far = t.iter().find(|p| net.node(p.sink).name == "far").unwrap();
        assert!(far.delay > near.delay);
        assert!(far.slew > near.slew);
        assert!(near.delay.value() > 0.0);
    }

    #[test]
    fn delay_tracks_elmore_scale() {
        // Golden 50% delay should land in the same ballpark as the Elmore
        // bound for a simple ladder (between ~0.3x and ~1.2x).
        let mut b = RcNetBuilder::new("l");
        let s = b.source("s", Farads(2e-15));
        let a = b.internal("a", Farads(5e-15));
        let k = b.sink("k", Farads(5e-15));
        b.resistor(s, a, Ohms(400.0));
        b.resistor(a, k, Ohms(400.0));
        let net = b.build().unwrap();
        let timing = GoldenTimer::default()
            .time_net(&net, Seconds::from_ps(15.0), SiMode::Off)
            .unwrap();
        let bound = elmore::Moments::new(&net)
            .unwrap()
            .elmore_delay(net.paths()[0].sink)
            .value();
        let d = timing[0].delay.value();
        assert!(d > 0.2 * bound, "delay {d} vs elmore {bound}");
        assert!(d < 1.5 * bound, "delay {d} vs elmore {bound}");
    }

    #[test]
    fn si_mode_increases_delay() {
        let mut b = RcNetBuilder::new("v");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(4e-15));
        b.resistor(s, k, Ohms(600.0));
        b.coupling(k, "agg:1", Farads(8e-15));
        let net = b.build().unwrap();
        let timer = GoldenTimer::default();
        let quiet = timer
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .unwrap();
        let noisy = timer
            .time_net(
                &net,
                Seconds::from_ps(20.0),
                SiMode::WorstCase {
                    aggressor_ramp: Seconds::from_ps(20.0),
                },
            )
            .unwrap();
        assert!(noisy[0].delay > quiet[0].delay);
    }

    #[test]
    fn slower_input_gives_larger_sink_slew() {
        let net = two_sink_net();
        let timer = GoldenTimer::default();
        let fast = timer
            .time_net(&net, Seconds::from_ps(5.0), SiMode::Off)
            .unwrap();
        let slow = timer
            .time_net(&net, Seconds::from_ps(80.0), SiMode::Off)
            .unwrap();
        assert!(slow[0].slew > fast[0].slew);
    }

    #[test]
    fn fall_edge_mirrors_rise_on_linear_net() {
        // Linear network: fall timing must match rise timing exactly.
        let net = two_sink_net();
        let timer = GoldenTimer::default();
        let rise = timer
            .time_net_edge(&net, Seconds::from_ps(20.0), SiMode::Off, Edge::Rise)
            .unwrap();
        let fall = timer
            .time_net_edge(&net, Seconds::from_ps(20.0), SiMode::Off, Edge::Fall)
            .unwrap();
        for (r, f) in rise.iter().zip(&fall) {
            assert!((r.delay.value() - f.delay.value()).abs() < 1e-14);
            assert!((r.slew.value() - f.slew.value()).abs() < 1e-14);
        }
    }

    #[test]
    fn fall_edge_si_uses_rising_aggressor() {
        let mut b = RcNetBuilder::new("v");
        let s = b.source("s", Farads(1e-15));
        let k = b.sink("k", Farads(4e-15));
        b.resistor(s, k, Ohms(600.0));
        b.coupling(k, "agg:1", Farads(8e-15));
        let net = b.build().unwrap();
        let timer = GoldenTimer::default();
        let si = SiMode::WorstCase {
            aggressor_ramp: Seconds::from_ps(20.0),
        };
        let quiet = timer
            .time_net_edge(&net, Seconds::from_ps(20.0), SiMode::Off, Edge::Fall)
            .unwrap();
        let noisy = timer
            .time_net_edge(&net, Seconds::from_ps(20.0), si, Edge::Fall)
            .unwrap();
        assert!(
            noisy[0].delay > quiet[0].delay,
            "a rising aggressor must slow the falling victim"
        );
    }

    #[test]
    fn dense_oracle_solver_is_selectable() {
        let net = two_sink_net();
        let sparse = GoldenTimer::default()
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .unwrap();
        let dense = GoldenTimer::default()
            .with_solver(SolverKind::DenseLu)
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .unwrap();
        for (s, d) in sparse.iter().zip(&dense) {
            assert!((s.delay.value() - d.delay.value()).abs() < 1e-12);
            assert!((s.slew.value() - d.slew.value()).abs() < 1e-12);
        }
    }

    #[test]
    fn short_horizon_extends_and_still_measures() {
        // Force the initial horizon well short of settling so the
        // warm-restart extension path runs; the answer must match a
        // generous-horizon run (samples on the shared prefix are
        // identical and measurement happens after settling either way).
        let net = two_sink_net();
        let reference = GoldenTimer::default()
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .unwrap();
        let extended = GoldenTimer::default()
            .with_horizon_tau(0.5)
            .time_net(&net, Seconds::from_ps(20.0), SiMode::Off)
            .unwrap();
        for (r, e) in reference.iter().zip(&extended) {
            // Different step sizes → small numerical differences only.
            assert!(
                (r.delay.value() - e.delay.value()).abs() < 0.02 * r.delay.value().max(1e-15),
                "extended {:?} vs reference {:?}",
                e.delay,
                r.delay
            );
        }
    }

    #[test]
    fn rejects_bad_slew() {
        let net = two_sink_net();
        assert!(GoldenTimer::default()
            .time_net(&net, Seconds(0.0), SiMode::Off)
            .is_err());
    }
}
