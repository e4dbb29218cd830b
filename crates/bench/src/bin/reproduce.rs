//! Reproduces every table and figure of the paper at one scale
//! (`--scale smoke|mid|paper`) and records each in `results/`
//! (`asteria_bench::results_path`). Each dataset is built, the experiment
//! set up and each distinct model trained once; progress goes to stderr.

use asteria::core::ModelConfig;
use asteria_bench::{results_path, tables, Dataset, Experiment, Scale, Trained};

fn main() {
    let scale = Scale::from_args();
    let record = |table: &str, text: String| {
        let path = results_path(table, scale);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        let file = path.file_name().expect("a file name").to_string_lossy();
        asteria::obs::info!("[reproduce] wrote results/{file}");
    };

    let data = Dataset::plain(scale);
    record("table1_nodes", tables::table1_nodes(&data));
    record("table2_datasets", tables::table2_datasets(&data));
    record("table3_pairs", tables::table3_pairs(&data));

    asteria::obs::info!("[reproduce] training the default model…");
    let default = Trained::new(&data, ModelConfig::default());
    record(
        "fig8_embedding_size",
        tables::fig8_embedding_size(&data, &default),
    );
    record("fig9_ablation", tables::fig9_ablation(&data, &default));
    record(
        "ablation_binarization",
        tables::ablation_binarization(&data, &default),
    );

    let exp = Experiment::setup(scale);
    record("fig6_roc", tables::fig6_roc(&exp));
    record("fig7_pairwise_auc", tables::fig7_pairwise_auc(&exp));
    record("diag_scores", tables::diag_scores(&exp));
    record("ablation_optlevel", tables::ablation_optlevel(&exp));
    record("table4_vulnsearch", tables::table4_vulnsearch(&exp));
}
