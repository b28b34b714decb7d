//! Benchmark harness regenerating every table and figure of the BlissCam
//! paper's evaluation (§VI).
//!
//! One binary per figure/table (see `src/bin/`):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig02_gflops_trend` | Fig. 2 — GPU capability vs algorithm demand |
//! | `fig03_mipi_latency` | Fig. 3 — MIPI latency vs resolution |
//! | `fig04_readout_power` | Fig. 4 — readout share of sensor power |
//! | `fig12_accuracy` | Fig. 12 — gaze error vs compression rate |
//! | `fig13_energy` | Fig. 13 — per-variant energy breakdown |
//! | `fig14_latency` | Fig. 14 — per-variant end-to-end latency |
//! | `fig15_sampling` | Fig. 15 — sampling-strategy comparison |
//! | `fig16_framerate` | Fig. 16 — frame-rate sensitivity |
//! | `fig17_process_node` | Fig. 17 — process-node sensitivity |
//! | `tab1_roi_reuse` | Tbl. I — ROI reuse window |
//! | `tab_area` | §VI-D — area estimation |
//!
//! Beyond the paper artifacts, `serve_sweep` / `fleet_sweep` sweep the
//! serving layers and `soak` runs the long-horizon durability soak (see
//! the [`soak`] module).
//!
//! Accuracy binaries accept `--quick` for a fast, smaller-workload run; the
//! default matches `ExperimentScale::standard()`.
//!
//! Criterion micro-benchmarks for the hot kernels (eventification, RLE,
//! SRAM sampling, ViT forward, systolic model, renderer) live in `benches/`.

use blisscam_core::experiments::ExperimentScale;

pub mod soak;

/// Prints a fixed-width ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("{line}");
    let header: Vec<String> = headers
        .iter()
        .zip(widths.iter())
        .map(|(h, w)| format!(" {h:<w$} "))
        .collect();
    println!("{}", header.join("|"));
    println!("{line}");
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        println!("{}", cells.join("|"));
    }
    println!("{line}");
}

/// Parses the common `--quick` flag into an [`ExperimentScale`].
pub fn scale_from_args() -> ExperimentScale {
    if std::env::args().any(|a| a == "--quick") {
        ExperimentScale::quick()
    } else {
        ExperimentScale::standard()
    }
}

/// Whether a sweep binary should run its reduced CI profile: the `--quick`
/// flag or a non-empty, non-`"0"` `BLISS_BENCH_FAST` environment variable.
pub fn fast_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("BLISS_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Resolves where a sweep binary writes the artefact `name` (a
/// `BENCH_*.json` report or a `TRACE_*.json` trace): `name` inside the
/// directory the `BLISS_BENCH_OUT` override names when set, else `name` at
/// the workspace root (nearest ancestor with a `Cargo.lock`), else the
/// current directory.
pub fn report_path(name: &str) -> std::path::PathBuf {
    report_path_under(std::env::var("BLISS_BENCH_OUT").ok().as_deref(), name)
}

/// [`report_path`] with the override directory passed in.
fn report_path_under(out_dir: Option<&str>, name: &str) -> std::path::PathBuf {
    use std::path::PathBuf;
    if let Some(dir) = out_dir.filter(|d| !d.is_empty()) {
        return PathBuf::from(dir).join(name);
    }
    let mut dir = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .or_else(|_| std::env::current_dir())
        .unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join(name);
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(name)
}

/// Formats seconds as adaptive ms/us text.
pub fn fmt_time(seconds: f64) -> String {
    if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_time_units() {
        assert_eq!(fmt_time(2e-3), "2.00 ms");
        assert_eq!(fmt_time(5e-6), "5.0 us");
    }

    #[test]
    fn override_directory_keeps_artefacts_apart() {
        let report = report_path_under(Some("out"), "BENCH_serve.json");
        let trace = report_path_under(Some("out"), "TRACE_serve.json");
        assert_eq!(report, std::path::Path::new("out/BENCH_serve.json"));
        assert_eq!(trace, std::path::Path::new("out/TRACE_serve.json"));
        // An empty override falls back to the workspace root.
        assert!(report_path_under(Some(""), "BENCH_serve.json").ends_with("BENCH_serve.json"));
    }

    #[test]
    fn print_table_does_not_panic() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }
}
