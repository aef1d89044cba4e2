//! Full-design STA: build a combinational netlist with parasitic nets,
//! propagate arrival times topologically with the trained estimator as
//! the wire timer, and cross-check the endpoints against the golden
//! wire timer.
//!
//! ```text
//! cargo run --release --example design_sta
//! ```

use gnntrans::dataset::DatasetBuilder;
use gnntrans::estimator::{EstimatorConfig, WireTimingEstimator};
use gnntrans::timers::GoldenWireTimer;
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::Seconds;
use rcsim::GoldenTimer;
use sta::cells::CellLibrary;
use sta::netlist::Netlist;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lib = CellLibrary::builtin();
    let cfg = NetConfig {
        nodes_min: 5,
        nodes_max: 16,
        sinks_max: 2,
        ..Default::default()
    };
    let mut generator = NetGenerator::new(33, cfg);

    // Train the estimator.
    println!("training estimator...");
    let train_nets: Vec<_> = (0..90)
        .map(|i| generator.net(format!("t{i}"), i % 4 == 0))
        .collect();
    let mut builder = DatasetBuilder::new(4);
    let data = builder.build(&train_nets)?;
    let mut ecfg = EstimatorConfig::plan_b_small();
    ecfg.epochs = 25;
    let mut estimator = WireTimingEstimator::new(&ecfg, 13);
    estimator.train(&data)?;

    // Build a three-level netlist: PI -> 2 inverters -> NAND -> buffer -> out.
    // The PI net must fan out to both inverters, so regenerate until the
    // random topology has at least two sinks.
    let mut with_sinks = |name: &str, nontree: bool, min_sinks: usize| {
        let mut attempt = 0;
        loop {
            let net = generator.net(format!("{name}_{attempt}"), nontree);
            if net.sinks().len() >= min_sinks {
                return net;
            }
            attempt += 1;
        }
    };
    let mut nl = Netlist::new();
    let pi = nl.add_primary_input(with_sinks("pi_net", false, 2));
    let (_, a) = nl.add_gate(
        lib.cell("INV_X2").expect("builtin").clone(),
        &[(pi, 0)],
        generator.net("net_a", true),
    )?;
    let (_, b) = nl.add_gate(
        lib.cell("INV_X1").expect("builtin").clone(),
        &[(pi, 1)],
        generator.net("net_b", false),
    )?;
    let (_, c) = nl.add_gate(
        lib.cell("NAND2_X1").expect("builtin").clone(),
        &[(a, 0), (b, 0)],
        generator.net("net_c", true),
    )?;
    let (_, out) = nl.add_gate(
        lib.cell("BUF_X2").expect("builtin").clone(),
        &[(c, 0)],
        generator.net("net_out", false),
    )?;
    println!(
        "netlist: {} gates, {} nets",
        nl.gates().len(),
        nl.nets().len()
    );

    // Propagate with the estimator, then with the golden wire timer.
    let input_slew = Seconds::from_ps(20.0);
    let fast = nl.propagate(&estimator, input_slew)?;
    let golden_timer = GoldenWireTimer::new(GoldenTimer::default(), true);
    let golden = nl.propagate(&golden_timer, input_slew)?;

    println!("\nper-net worst sink arrival (estimator vs golden):");
    fn worst(t: &sta::netlist::NetTiming) -> f64 {
        t.at_sinks
            .iter()
            .map(|(a, _)| a.pico_seconds())
            .fold(0.0f64, f64::max)
    }
    for (i, (f, g)) in fast.iter().zip(&golden).enumerate() {
        let f_at = worst(f);
        let g_at = worst(g);
        println!(
            "  net {i} ({:<8}): {f_at:7.2} ps vs {g_at:7.2} ps  ({:+.2} ps)",
            nl.nets()[i].rc.name(),
            f_at - g_at
        );
    }
    let f_end = fast[out.0].at_sinks[0].0.pico_seconds();
    let g_end = golden[out.0].at_sinks[0].0.pico_seconds();
    println!("\nendpoint arrival: estimator {f_end:.2} ps, golden {g_end:.2} ps");
    Ok(())
}
