//! Quickstart: build a parasitic net, analyze it, label it with the
//! golden simulator, train a small GNNTrans estimator, and predict an
//! unseen net.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gnntrans::dataset::DatasetBuilder;
use gnntrans::estimator::{EstimatorConfig, WireTimingEstimator};
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{Farads, Ohms, RcNetBuilder, Seconds};
use rcsim::{GoldenTimer, SiMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build an RC net by hand: driver -> T-junction -> two sinks.
    let mut b = RcNetBuilder::new("demo");
    let drv = b.source("U1:Z", Farads::from_ff(0.8));
    let mid = b.internal("demo:1", Farads::from_ff(1.5));
    let near = b.sink("U2:A", Farads::from_ff(2.0));
    let far = b.sink("U3:A", Farads::from_ff(2.5));
    b.resistor(drv, mid, Ohms(40.0));
    b.resistor(mid, near, Ohms(25.0));
    b.resistor(mid, far, Ohms(90.0));
    let net = b.build()?;
    println!(
        "net `{}`: {} nodes, {} resistors, {} wire paths, tree = {}",
        net.name(),
        net.node_count(),
        net.edge_count(),
        net.paths().len(),
        net.is_tree()
    );

    // 2. Closed-form analysis: exact Elmore / D2M per path.
    let m = elmore::Moments::new(&net)?;
    for path in net.paths() {
        let i = path.sink.index();
        println!(
            "  path to {:>6}: Elmore {:6.2} ps, D2M {:6.2} ps",
            net.node(path.sink).name,
            m.elmore_delay(path.sink).pico_seconds(),
            elmore::metrics::d2m(m.m1[i], m.m2[i]).pico_seconds()
        );
    }

    // 3. Golden transient simulation (the sign-off reference).
    let timer = GoldenTimer::new(0.8, Ohms(140.0));
    for t in timer.time_net(&net, Seconds::from_ps(20.0), SiMode::Off)? {
        println!(
            "  golden  {:>6}: delay {:6.2} ps, slew {:6.2} ps",
            net.node(t.sink).name,
            t.delay.pico_seconds(),
            t.slew.pico_seconds()
        );
    }

    // 4. Train a small estimator on synthetic nets and predict an unseen
    //    one (the paper's workflow in miniature).
    println!("\ntraining estimator on 80 synthetic nets...");
    let mut generator = NetGenerator::new(7, NetConfig::default());
    let train_nets: Vec<_> = (0..80)
        .map(|i| generator.net(format!("train{i}"), i % 3 != 0))
        .collect();
    let mut builder = DatasetBuilder::new(1);
    let data = builder.build(&train_nets)?;

    let mut cfg = EstimatorConfig::plan_b_small();
    cfg.epochs = 25;
    let mut estimator = WireTimingEstimator::new(&cfg, 42);
    let report = estimator.train(&data)?;
    println!(
        "trained {} weights, final loss {:.4}",
        estimator.weight_count(),
        report.final_loss()
    );

    let probe = generator.net("probe", true);
    let ctx = builder.context_for(&probe);
    let golden = GoldenTimer::new(0.8, ctx.drive_res).time_net(
        &probe,
        ctx.input_slew,
        SiMode::Off,
    )?;
    println!(
        "\nunseen net `{}` ({} nodes, {} loops):",
        probe.name(),
        probe.node_count(),
        probe.loop_count()
    );
    for (est, gold) in estimator.predict_net(&probe, &ctx)?.iter().zip(&golden) {
        println!(
            "  sink {:>12}: predicted delay {:6.2} ps vs golden {:6.2} ps",
            probe.node(est.sink).name,
            est.delay.pico_seconds(),
            gold.delay.pico_seconds()
        );
    }
    Ok(())
}
