use std::io::Write;
use std::path::Path;

use crate::CellResult;

/// One row of an experiment output table — serializable for EXPERIMENTS.md
/// and downstream plotting. Compares by value (exact float equality —
/// records are deterministic, so "byte-identical" is the meaningful
/// comparison).
#[derive(Clone, Debug, PartialEq)]
pub struct CellRecord {
    /// Experiment id ("table1", "fig6", ...).
    pub experiment: String,
    /// Algorithm label — a [`commsched::Scheduler::name`] from the
    /// registry ("AC", "LP", "RS_N", "RS_NL", "GREEDY", variants...).
    pub algorithm: String,
    /// Density `d`.
    pub d: usize,
    /// Message size in bytes.
    pub msg_bytes: u32,
    /// Mean communication cost (ms).
    pub comm_ms: f64,
    /// Mean phases ("# iters"; 0 for AC).
    pub phases: f64,
    /// Mean scheduling cost under the i860 model (ms).
    pub comp_ms: f64,
    /// Samples aggregated.
    pub samples: usize,
}

impl CellRecord {
    /// Assemble a record from a measured cell.
    pub fn from_cell(
        experiment: &str,
        algorithm: &str,
        d: usize,
        msg_bytes: u32,
        cell: &CellResult,
    ) -> Self {
        CellRecord {
            experiment: experiment.to_string(),
            algorithm: algorithm.to_string(),
            d,
            msg_bytes,
            comm_ms: cell.comm_ms,
            phases: cell.phases,
            comp_ms: cell.comp_ms,
            samples: cell.samples,
        }
    }
}

/// Write records as CSV (with header).
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn write_csv(path: &Path, records: &[CellRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "experiment,algorithm,d,msg_bytes,comm_ms,phases,comp_ms,samples"
    )?;
    for r in records {
        writeln!(
            out,
            "{},{},{},{},{:.4},{:.2},{:.4},{}",
            r.experiment, r.algorithm, r.d, r.msg_bytes, r.comm_ms, r.phases, r.comp_ms, r.samples
        )?;
    }
    out.flush()
}

/// Write records as pretty JSON.
///
/// The workspace builds offline with no serde available, so the (flat,
/// fixed-schema) records are rendered by hand; [`read_json`] parses the
/// same shape back.
///
/// # Errors
///
/// I/O errors from the filesystem.
pub fn write_json(path: &Path, records: &[CellRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut json = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        json.push_str(&format!(
            "  {{\n    \"experiment\": \"{}\",\n    \"algorithm\": \"{}\",\n    \"d\": {},\n    \"msg_bytes\": {},\n    \"comm_ms\": {},\n    \"phases\": {},\n    \"comp_ms\": {},\n    \"samples\": {}\n  }}{comma}\n",
            escape_json(&r.experiment),
            escape_json(&r.algorithm),
            r.d,
            r.msg_bytes,
            r.comm_ms,
            r.phases,
            r.comp_ms,
            r.samples
        ));
    }
    json.push_str("]\n");
    std::fs::write(path, json)
}

/// Write a [`GridResult`] as pretty JSON: the axes (columns, points,
/// topologies), the execution stats (including matrix reuse), and every
/// measured cell with its stable [`crate::grid::CellId`] address.
///
/// Like [`write_json`], the shape is rendered by hand (the workspace
/// builds offline with no serde).
///
/// # Errors
///
/// I/O errors from the filesystem.
///
/// [`GridResult`]: crate::grid::GridResult
pub fn write_grid_json(
    path: &Path,
    experiment: &str,
    grid: &crate::grid::GridResult,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let stats = grid.stats();
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"experiment\": \"{}\",\n  \"samples\": {},\n",
        escape_json(experiment),
        grid.samples()
    ));
    json.push_str(&format!(
        "  \"stats\": {{\"cells\": {}, \"skipped\": {}, \"tasks\": {}, \"matrices_generated\": {}, \"matrix_requests\": {}}},\n",
        stats.cells, stats.skipped, stats.tasks, stats.matrices_generated, stats.matrix_requests
    ));
    json.push_str("  \"columns\": [");
    for (i, c) in grid.columns().iter().enumerate() {
        let comma = if i + 1 < grid.columns().len() {
            ", "
        } else {
            ""
        };
        json.push_str(&format!(
            "{{\"name\": \"{}\", \"scheme\": \"{}\"}}{comma}",
            escape_json(&c.label()),
            c.scheme().label()
        ));
    }
    json.push_str("],\n  \"points\": [");
    for (i, p) in grid.points().iter().enumerate() {
        let comma = if i + 1 < grid.points().len() {
            ", "
        } else {
            ""
        };
        json.push_str(&format!(
            "{{\"generator\": \"{}\", \"d\": {}, \"msg_bytes\": {}}}{comma}",
            escape_json(p.generator().name()),
            p.d(),
            p.msg_bytes()
        ));
    }
    json.push_str("],\n  \"topologies\": [");
    for (i, t) in grid.topologies().iter().enumerate() {
        let comma = if i + 1 < grid.topologies().len() {
            ", "
        } else {
            ""
        };
        json.push_str(&format!("\"{}\"{comma}", escape_json(t)));
    }
    json.push_str("],\n  \"cells\": [\n");
    let cells: Vec<_> = grid.cells().collect();
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"col\": {}, \"point\": {}, \"topo\": {}, \"algorithm\": \"{}\", \"d\": {}, \"msg_bytes\": {}, \"comm_ms\": {}, \"comm_ms_min\": {}, \"comm_ms_max\": {}, \"phases\": {}, \"comp_ms\": {}, \"exchange_pairs\": {}, \"samples\": {}}}{comma}\n",
            c.id.col,
            c.id.point,
            c.id.topo,
            escape_json(&c.algorithm),
            c.d,
            c.msg_bytes,
            c.result.comm_ms,
            c.result.comm_ms_min,
            c.result.comm_ms_max,
            c.result.phases,
            c.result.comp_ms,
            c.result.exchange_pairs,
            c.result.samples
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(path, json)
}

/// Write a [`GridResult`] as a Markdown document: one communication-cost
/// table per topology (workload points as rows, scheduler columns as
/// columns), plus a matrix-reuse footer.
///
/// # Errors
///
/// I/O errors from the filesystem.
///
/// [`GridResult`]: crate::grid::GridResult
pub fn write_grid_markdown(
    path: &Path,
    title: &str,
    grid: &crate::grid::GridResult,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut md = format!("# {title}\n\n");
    let _ = writeln!(
        md,
        "Mean communication cost (ms) over {} sample(s) per cell.\n",
        grid.samples()
    );
    for (ti, topo) in grid.topologies().iter().enumerate() {
        let _ = writeln!(md, "## {topo}\n");
        let mut header = String::from("| d | M (bytes) |");
        let mut rule = String::from("|---|---|");
        for c in grid.columns() {
            let _ = write!(header, " {} |", c.label());
            rule.push_str("---|");
        }
        md.push_str(&header);
        md.push('\n');
        md.push_str(&rule);
        md.push('\n');
        for (pi, p) in grid.points().iter().enumerate() {
            let _ = write!(md, "| {} | {} |", p.d(), p.msg_bytes());
            for ci in 0..grid.columns().len() {
                match grid.cell(crate::grid::CellId {
                    col: ci,
                    point: pi,
                    topo: ti,
                }) {
                    Some(cell) => {
                        let _ = write!(md, " {:.2} |", cell.result.comm_ms);
                    }
                    None => md.push_str(" — |"),
                }
            }
            md.push('\n');
        }
        md.push('\n');
    }
    let stats = grid.stats();
    let _ = writeln!(
        md,
        "_{} cells, {} tasks; {} of {} matrix requests served by reuse._",
        stats.cells,
        stats.tasks,
        stats.matrices_reused(),
        stats.matrix_requests
    );
    std::fs::write(path, md)
}

/// Read records written by [`write_json`].
///
/// # Errors
///
/// I/O errors, or [`std::io::ErrorKind::InvalidData`] if the file does not
/// have the `write_json` shape.
pub fn read_json(path: &Path) -> std::io::Result<Vec<CellRecord>> {
    let text = std::fs::read_to_string(path)?;
    parse_records(&text).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{} is not a cell-record JSON file", path.display()),
        )
    })
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Inverse of [`escape_json`] applied to one `"..."` value: strips the
/// enclosing quotes and resolves the `\"`, `\\`, `\n` escapes. `None` on
/// anything malformed.
fn unescape_json(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                _ => return None,
            }
        } else if c == '"' {
            // An unescaped quote inside the value means `inner` ended at an
            // escaped quote and we stripped the wrong delimiter.
            return None;
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Minimal parser for the exact object layout [`write_json`] emits: one
/// `"key": value` pair per line, objects separated by `},`.
fn parse_records(text: &str) -> Option<Vec<CellRecord>> {
    let trimmed = text.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return None;
    }
    let mut records = Vec::new();
    let mut fields: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for line in trimmed.lines() {
        let line = line.trim().trim_end_matches(',');
        if let Some((key, value)) = line.split_once(':') {
            let key = key.trim().trim_matches('"').to_string();
            fields.insert(key, value.trim().to_string());
        } else if line == "}" && !fields.is_empty() {
            let take = |k: &str| fields.get(k).cloned();
            records.push(CellRecord {
                experiment: unescape_json(&take("experiment")?)?,
                algorithm: unescape_json(&take("algorithm")?)?,
                d: take("d")?.parse().ok()?,
                msg_bytes: take("msg_bytes")?.parse().ok()?,
                comm_ms: take("comm_ms")?.parse().ok()?,
                phases: take("phases")?.parse().ok()?,
                comp_ms: take("comp_ms")?.parse().ok()?,
                samples: take("samples")?.parse().ok()?,
            });
            fields.clear();
        }
    }
    Some(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> CellRecord {
        CellRecord {
            experiment: "table1".into(),
            algorithm: "RS_NL".into(),
            d: 8,
            msg_bytes: 1024,
            comm_ms: 13.16,
            phases: 11.92,
            comp_ms: 13.56,
            samples: 50,
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let dir = std::env::temp_dir().join("ipsc_sched_test_csv");
        let path = dir.join("out.csv");
        write_csv(&path, &[record()]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("experiment,algorithm"));
        let row = lines.next().unwrap();
        assert!(row.contains("RS_NL"));
        assert!(row.contains("1024"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_roundtrip() {
        let dir = std::env::temp_dir().join("ipsc_sched_test_json");
        let path = dir.join("out.json");
        write_json(&path, &[record()]).unwrap();
        let parsed = read_json(&path).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].algorithm, "RS_NL");
        assert_eq!(parsed[0].msg_bytes, 1024);
        assert!((parsed[0].comm_ms - 13.16).abs() < 1e-9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn json_roundtrip_escapes_quotes_and_newlines() {
        let dir = std::env::temp_dir().join("ipsc_sched_test_json_esc");
        let path = dir.join("out.json");
        let mut rec = record();
        rec.experiment = "line1\nline2".into();
        rec.algorithm = "with \"quote\" and tail\"".into();
        write_json(&path, &[rec.clone()]).unwrap();
        let parsed = read_json(&path).unwrap();
        assert_eq!(parsed[0].experiment, rec.experiment);
        assert_eq!(parsed[0].algorithm, rec.algorithm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_json_rejects_non_record_files() {
        let dir = std::env::temp_dir().join("ipsc_sched_test_json_bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not_records.csv");
        std::fs::write(&path, "experiment,algorithm\ntable1,AC\n").unwrap();
        let err = read_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn grid_writers_emit_axes_cells_and_reuse() {
        use crate::grid::{ExperimentGrid, WorkloadPoint};
        use hypercube::Hypercube;
        use workloads::Generator;
        let grid = ExperimentGrid::new()
            .topology("hypercube(4)", Hypercube::new(4))
            .schedulers(commsched::registry::primary())
            .point(WorkloadPoint::shared(
                Generator::dregular(16, 3, 512),
                3,
                512,
                21,
            ))
            .samples(2)
            .execute()
            .unwrap();
        let dir = std::env::temp_dir().join("ipsc_sched_test_grid_report");
        let jpath = dir.join("grid.json");
        let mpath = dir.join("grid.md");
        write_grid_json(&jpath, "unit", &grid).unwrap();
        write_grid_markdown(&mpath, "Unit grid", &grid).unwrap();
        let json = std::fs::read_to_string(&jpath).unwrap();
        assert!(json.contains("\"experiment\": \"unit\""));
        assert!(json.contains("\"matrices_generated\": 2"));
        assert!(json.contains("\"algorithm\": \"RS_NL\""));
        assert!(json.contains("dregular(n=16,d=3,M=512)"));
        let md = std::fs::read_to_string(&mpath).unwrap();
        assert!(md.starts_with("# Unit grid"));
        assert!(md.contains("| RS_NL |") || md.contains(" RS_NL |"));
        assert!(md.contains("hypercube(4)"));
        assert!(md.contains("matrix requests served by reuse"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_record_list_roundtrips() {
        let dir = std::env::temp_dir().join("ipsc_sched_test_json_empty");
        let path = dir.join("out.json");
        write_json(&path, &[]).unwrap();
        assert!(read_json(&path).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
