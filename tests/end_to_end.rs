//! End-to-end integration: generate → label → train → predict → persist,
//! across every crate boundary.

use gnntrans::dataset::DatasetBuilder;
use gnntrans::estimator::{EstimatorConfig, WireTimingEstimator};
use gnntrans::metrics::evaluate_estimator;
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::{RcNet, Seconds};
use sta::cells::CellLibrary;
use sta::path::{Stage, TimingPath};
use sta::WireTimer;

fn nets(count: usize, seed: u64) -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: 5,
        nodes_max: 18,
        ..Default::default()
    };
    let mut g = NetGenerator::new(seed, cfg);
    (0..count)
        .map(|i| g.net(format!("n{i}"), i % 3 == 0))
        .collect()
}

fn quick_config() -> EstimatorConfig {
    let mut cfg = EstimatorConfig::plan_b_small();
    cfg.hidden = 16;
    cfg.epochs = 25;
    cfg
}

#[test]
fn estimator_generalizes_to_unseen_nets() {
    let all = nets(70, 5);
    let (train, test) = all.split_at(55);
    let mut builder = DatasetBuilder::new(1);
    let data = builder.build(train).expect("train data");

    let mut est = WireTimingEstimator::new(&quick_config(), 11);
    let report = est.train(&data).expect("training");
    assert!(report.final_loss() < report.epoch_losses[0]);

    // Unseen-net accuracy must beat the predict-the-mean baseline by a
    // wide margin (full experiments reach R² > 0.9; this is a smoke
    // threshold that must survive small budgets).
    let test_samples: Vec<_> = test
        .iter()
        .map(|n| builder.sample_for(n).expect("labelled test sample"))
        .collect();
    let result = evaluate_estimator(&est, &test_samples, false).expect("evaluation");
    assert!(result.r2_delay > 0.6, "delay R² {}", result.r2_delay);
    assert!(result.r2_slew > 0.6, "slew R² {}", result.r2_slew);
    assert!(result.paths > 10);
}

#[test]
fn estimator_round_trips_through_disk() {
    let train = nets(30, 9);
    let mut builder = DatasetBuilder::new(1);
    let data = builder.build(&train).expect("train data");
    let mut est = WireTimingEstimator::new(&quick_config(), 3);
    est.train(&data).expect("training");

    let path = std::env::temp_dir().join("wire_timing_e2e_model.bin");
    est.save(&path).expect("save");
    let loaded = WireTimingEstimator::load(&path).expect("load");
    let probe = &train[0];
    let ctx = builder.context_for(probe);
    assert_eq!(
        est.predict_net(probe, &ctx).expect("original predicts"),
        loaded.predict_net(probe, &ctx).expect("loaded predicts")
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn estimator_drives_arrival_time_computation() {
    let train = nets(30, 13);
    let mut builder = DatasetBuilder::new(1);
    let data = builder.build(&train).expect("train data");
    let mut est = WireTimingEstimator::new(&quick_config(), 3);
    est.train(&data).expect("training");

    let lib = CellLibrary::builtin();
    let path = TimingPath::new(vec![
        Stage {
            cell: lib.cell("BUF_X2").expect("builtin").clone(),
            net: train[0].clone(),
            sink_path: 0,
        },
        Stage {
            cell: lib.cell("INV_X1").expect("builtin").clone(),
            net: train[1].clone(),
            sink_path: 0,
        },
    ]);
    let arrival = path
        .arrival(&est, Seconds::from_ps(20.0))
        .expect("arrival through the estimator");
    assert!(arrival.arrival.value() > 0.0);
    assert_eq!(arrival.stages.len(), 2);
    assert!(arrival.gate_total.value() > 0.0);
    // Gate delays dominate wire delays at these net sizes.
    assert!(arrival.gate_total > arrival.wire_total);
}

#[test]
fn wire_timer_trait_objects_are_interchangeable() {
    let train = nets(25, 17);
    let mut builder = DatasetBuilder::new(1);
    let data = builder.build(&train).expect("train data");
    let mut est = WireTimingEstimator::new(&quick_config(), 3);
    est.train(&data).expect("training");

    let timers: Vec<(&str, &dyn WireTimer)> = vec![
        ("estimator", &est),
        ("ideal", &sta::wire::IdealWire),
    ];
    let driver = CellLibrary::builtin().cell("BUF_X2").expect("builtin").clone();
    for (name, timer) in timers {
        for drv in [None, Some(&driver)] {
            let rows = timer
                .time_net(&train[2], Seconds::from_ps(15.0), drv)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert_eq!(rows.len(), train[2].paths().len(), "{name} rows");
            for (d, s) in rows {
                assert!(d.value() >= 0.0, "{name} delay");
                assert!(s.value() >= 0.0, "{name} slew");
            }
        }
    }
}
