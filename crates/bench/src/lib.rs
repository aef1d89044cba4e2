//! Shared experiment harness: roster dataset assembly, model zoo
//! training, evaluation helpers and table formatting used by the
//! `fig*`/`table*` binaries that regenerate the paper's results; and
//! the component benchmarks' harness: one flag parser ([`flags`]), one
//! report writer ([`report`]), one timing rule with its order
//! statistics ([`timing`]) and one trace reader ([`traces`]).

pub mod accuracy;
pub mod flags;
pub mod harness;
pub mod report;
pub mod tables;
pub mod timing;
pub mod traces;

pub use harness::{
    build_test_samples, build_train_dataset, eval_baseline, run_experiment, train_baselines,
    write_obs_report, ExperimentConfig,
};
pub use tables::TableWriter;
