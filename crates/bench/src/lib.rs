//! Shared experiment harness: roster dataset assembly, model zoo
//! training, evaluation helpers and table formatting used by the
//! `fig*`/`table*` binaries that regenerate the paper's results.

pub mod accuracy;
pub mod harness;
pub mod tables;
pub mod timing;

pub use harness::{
    build_test_samples, build_train_dataset, eval_baseline, run_experiment, train_baselines,
    write_obs_report, ExperimentConfig,
};
pub use tables::TableWriter;
