//! Minimal CSV reader/writer for datasets.
//!
//! AutoClass C read `.db2` data files with a separate `.hd2` header; here
//! the schema plays the header's role and the data file is plain CSV with
//! a header row of attribute names. Missing values are written as `?`.
//! Discrete values are written as level names when the schema has them,
//! level indices otherwise. Fields never contain commas, so no quoting is
//! implemented (and quoted input is rejected loudly).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use crate::data::dataset::{Dataset, Value};
use crate::data::schema::{AttributeKind, Schema};

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// Underlying I/O error text.
    Io(String),
    /// Header row doesn't match the schema.
    Header(String),
    /// A data row failed to parse; includes 1-based line number.
    #[allow(missing_docs)] // field names are self-describing
    Row { line: usize, detail: String },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Header(e) => write!(f, "bad header: {e}"),
            CsvError::Row { line, detail } => write!(f, "line {line}: {detail}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e.to_string())
    }
}

/// Parse a dataset from CSV text conforming to `schema`.
pub fn read_csv<R: Read>(schema: Schema, reader: R) -> Result<Dataset, CsvError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines.next().ok_or_else(|| CsvError::Header("empty input".into()))??;
    let names: Vec<&str> = header.split(',').map(str::trim).collect();
    if names.len() != schema.len() {
        return Err(CsvError::Header(format!(
            "{} columns in header, schema has {}",
            names.len(),
            schema.len()
        )));
    }
    for (name, attr) in names.iter().zip(&schema.attributes) {
        if *name != attr.name {
            return Err(CsvError::Header(format!(
                "column {:?} where schema expects {:?}",
                name, attr.name
            )));
        }
    }

    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let lineno = i + 2; // 1-based, after header
        if line.trim().is_empty() {
            continue;
        }
        if line.contains('"') {
            return Err(CsvError::Row { line: lineno, detail: "quoted fields unsupported".into() });
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        if fields.len() != schema.len() {
            return Err(CsvError::Row {
                line: lineno,
                detail: format!("{} fields, expected {}", fields.len(), schema.len()),
            });
        }
        let mut row = Vec::with_capacity(fields.len());
        for (field, attr) in fields.iter().zip(&schema.attributes) {
            if *field == "?" {
                row.push(Value::Missing);
                continue;
            }
            match &attr.kind {
                AttributeKind::Real { .. } | AttributeKind::PositiveReal { .. } => {
                    let bad = |what: &str| CsvError::Row {
                        line: lineno,
                        detail: format!("{:?} is not {what} for column {:?}", field, attr.name),
                    };
                    let x: f64 = field.parse().map_err(|_| bad("a real"))?;
                    // `f64::parse` also accepts `inf` and `NaN`, which
                    // `Dataset::from_rows` rejects by panicking.
                    if !x.is_finite() {
                        return Err(bad("a finite real"));
                    }
                    if matches!(attr.kind, AttributeKind::PositiveReal { .. }) && x <= 0.0 {
                        return Err(bad("a positive real"));
                    }
                    row.push(Value::Real(x));
                }
                AttributeKind::Discrete { levels, names } => {
                    let idx = if let Some(names) = names {
                        names.iter().position(|n| n == field)
                    } else {
                        field.parse::<usize>().ok().filter(|&l| l < *levels)
                    };
                    match idx {
                        Some(l) => row.push(Value::Discrete(l as u32)),
                        None => {
                            return Err(CsvError::Row {
                                line: lineno,
                                detail: format!(
                                    "{:?} is not a level of column {:?}",
                                    field, attr.name
                                ),
                            })
                        }
                    }
                }
            }
        }
        rows.push(row);
    }
    Ok(Dataset::from_rows(schema, &rows))
}

/// Write a dataset as CSV (header + rows, `?` for missing).
pub fn write_csv<W: Write>(data: &Dataset, writer: W) -> Result<(), CsvError> {
    let mut w = BufWriter::new(writer);
    let schema = data.schema();
    let header: Vec<&str> = schema.attributes.iter().map(|a| a.name.as_str()).collect();
    writeln!(w, "{}", header.join(","))?;
    let view = data.full_view();
    let mut line = String::new();
    for i in 0..data.len() {
        line.clear();
        for (c, attr) in schema.attributes.iter().enumerate() {
            if c > 0 {
                line.push(',');
            }
            match &attr.kind {
                AttributeKind::Real { .. } | AttributeKind::PositiveReal { .. } => {
                    let x = view.real_column(c)[i];
                    if x.is_nan() {
                        line.push('?');
                    } else {
                        let _ = write!(line, "{x}");
                    }
                }
                AttributeKind::Discrete { names, .. } => {
                    let l = view.discrete_column(c)[i];
                    if l == crate::data::dataset::MISSING_DISCRETE {
                        line.push('?');
                    } else if let Some(names) = names {
                        line.push_str(&names[l as usize]);
                    } else {
                        let _ = write!(line, "{l}");
                    }
                }
            }
        }
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::schema::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::real("x", 0.1),
            Attribute::discrete_named("c", vec!["a".into(), "b".into()]),
        ])
    }

    #[test]
    fn round_trip() {
        let d = Dataset::from_rows(
            schema(),
            &[
                vec![Value::Real(1.5), Value::Discrete(0)],
                vec![Value::Missing, Value::Discrete(1)],
                vec![Value::Real(-2.0), Value::Missing],
            ],
        );
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("x,c\n"));
        assert!(text.contains("?,b"));
        let back = read_csv(schema(), buf.as_slice()).unwrap();
        // NaN != NaN, so compare cell by cell with missing-awareness.
        assert_eq!(back.len(), d.len());
        let (va, vb) = (d.full_view(), back.full_view());
        for i in 0..d.len() {
            let (xa, xb) = (va.real_column(0)[i], vb.real_column(0)[i]);
            assert!(xa == xb || (xa.is_nan() && xb.is_nan()), "row {i}");
            assert_eq!(va.discrete_column(1)[i], vb.discrete_column(1)[i], "row {i}");
        }
    }

    #[test]
    fn header_mismatch_is_rejected() {
        let e = read_csv(schema(), "x,wrong\n1.0,a\n".as_bytes()).unwrap_err();
        assert!(matches!(e, CsvError::Header(_)), "{e}");
    }

    #[test]
    fn bad_real_reports_line() {
        let e = read_csv(schema(), "x,c\n1.0,a\nplop,b\n".as_bytes()).unwrap_err();
        match e {
            CsvError::Row { line, detail } => {
                assert_eq!(line, 3);
                assert!(detail.contains("plop"));
            }
            other => panic!("{other}"),
        }
    }

    /// Values `f64::parse` accepts but the dataset cannot hold are row
    /// errors naming the line and column, not panics.
    fn rejected(schema: Schema, text: &str, col: &str) {
        match read_csv(schema, text.as_bytes()) {
            Err(CsvError::Row { line, detail }) => {
                assert_eq!(line, 3, "{detail}");
                assert!(detail.contains(col), "{detail}");
            }
            other => panic!("{text:?}: expected a row error, got {other:?}"),
        }
    }

    #[test]
    fn infinite_real_rejected() {
        rejected(schema(), "x,c\n1.0,a\ninf,b\n", "\"x\"");
    }

    #[test]
    fn nan_real_rejected() {
        rejected(schema(), "x,c\n1.0,a\nNaN,b\n", "\"x\"");
    }

    #[test]
    fn zero_positive_real_rejected() {
        let schema = Schema::new(vec![Attribute::positive_real("p", 0.1)]);
        rejected(schema, "p\n1.5\n0\n", "\"p\"");
    }

    #[test]
    fn negative_positive_real_rejected() {
        let schema = Schema::new(vec![Attribute::positive_real("p", 0.1)]);
        rejected(schema, "p\n1.5\n-2\n", "\"p\"");
    }

    #[test]
    fn unknown_level_rejected() {
        let e = read_csv(schema(), "x,c\n1.0,zebra\n".as_bytes()).unwrap_err();
        assert!(matches!(e, CsvError::Row { line: 2, .. }), "{e}");
    }

    #[test]
    fn unnamed_levels_parse_as_indices() {
        let schema = Schema::new(vec![Attribute::discrete("c", 3)]);
        let d = read_csv(schema, "c\n0\n2\n?\n".as_bytes()).unwrap();
        assert_eq!(d.len(), 3);
        let v = d.full_view();
        assert_eq!(v.discrete_column(0)[1], 2);
    }

    #[test]
    fn blank_lines_skipped() {
        let schema = Schema::new(vec![Attribute::real("x", 0.1)]);
        let d = read_csv(schema, "x\n1.0\n\n2.0\n".as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
    }
}
