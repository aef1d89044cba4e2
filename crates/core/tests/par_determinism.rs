//! The parallel-build determinism gate: a dataset built on the `par`
//! pool must be byte-identical to a serial build — same samples, same
//! fitted scalers, same packed batches — because `try_par_map` returns
//! results in input order regardless of scheduling.
//!
//! Everything runs inside one test function: `par::set_threads` is
//! process-global, so concurrent test functions flipping it would race.

use gnntrans::{Dataset, DatasetBuilder};
use netgen::nets::{NetConfig, NetGenerator};
use rcnet::RcNet;

fn nets(n: usize) -> Vec<RcNet> {
    let cfg = NetConfig {
        nodes_min: 4,
        nodes_max: 12,
        ..Default::default()
    };
    let mut g = NetGenerator::new(11, cfg);
    (0..n).map(|i| g.net(format!("d{i}"), i % 2 == 0)).collect()
}

fn bits(m: &tensor::Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn dataset_fingerprint(ds: &Dataset) -> Vec<Vec<u32>> {
    let mut fp = Vec::new();
    for s in &ds.samples {
        fp.push(bits(&s.node_feats));
        fp.push(bits(&s.targets_ps));
        for p in &s.path_feats {
            fp.push(bits(p));
        }
    }
    fp.push(bits(&ds.scalers.node.to_mat()));
    fp.push(bits(&ds.scalers.path.to_mat()));
    fp.push(bits(&ds.scalers.target.to_mat()));
    fp
}

#[test]
fn parallel_dataset_build_is_bit_identical_to_serial() {
    let nets = nets(12);

    par::set_threads(1);
    let serial = DatasetBuilder::new(7)
        .with_sim_steps(400)
        .build(&nets)
        .unwrap();

    par::set_threads(4);
    let parallel = DatasetBuilder::new(7)
        .with_sim_steps(400)
        .build(&nets)
        .unwrap();
    par::set_threads(1);

    assert_eq!(serial.samples.len(), parallel.samples.len());
    assert_eq!(
        dataset_fingerprint(&serial),
        dataset_fingerprint(&parallel),
        "parallel dataset build diverged from serial"
    );

    // The packed training batches agree bit for bit too.
    let sb = serial.batches().unwrap();
    let pb = parallel.batches().unwrap();
    assert_eq!(sb.len(), pb.len());
    for (a, b) in sb.iter().zip(&pb) {
        assert_eq!(bits(&a.x), bits(&b.x));
        assert_eq!(
            bits(a.targets.as_ref().unwrap()),
            bits(b.targets.as_ref().unwrap())
        );
    }

    // Errors surface identically as well: the lowest-index failure.
    // (An empty net list is the simplest deterministic failure.)
    par::set_threads(4);
    let empty = DatasetBuilder::new(7).build(&[]);
    par::set_threads(1);
    assert!(empty.is_err());
}
