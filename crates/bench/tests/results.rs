//! The recorded Tables I–III in `results/` are what the code renders at
//! smoke scale, byte for byte: a stale record fails here. `reproduce
//! --scale smoke` rewrites them.

use asteria_bench::{results_path, tables, Dataset, Scale};

#[test]
fn smoke_tables_match_their_records() {
    let data = Dataset::plain(Scale::Smoke);
    for (table, rendered) in [
        ("table1_nodes", tables::table1_nodes(&data)),
        ("table2_datasets", tables::table2_datasets(&data)),
        ("table3_pairs", tables::table3_pairs(&data)),
    ] {
        let path = results_path(table, Scale::Smoke);
        let recorded = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert!(
            rendered == recorded,
            "{} is stale; rerun `reproduce --scale smoke`\n--- rendered:\n{rendered}",
            path.display()
        );
    }
}
