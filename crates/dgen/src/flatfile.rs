//! dsdgen-compatible flat files: pipe-terminated fields, one row per line,
//! NULL as the empty field. These are the "generated flat files" that stand
//! in for the extraction step of ETL (paper §4.2).

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use tpcds_schema::TableDef;
use tpcds_types::{DataType, Date, Row, Value};

/// Writes rows in dsdgen's flat format: every field terminated by `|`.
/// Returns the number of bytes written.
pub fn write_rows<W: Write>(w: &mut W, rows: &[Row]) -> io::Result<u64> {
    let mut out = BufWriter::new(w);
    let mut bytes: u64 = 0;
    for row in rows {
        for v in row {
            let field = v.to_flat();
            out.write_all(field.as_bytes())?;
            out.write_all(b"|")?;
            bytes += field.len() as u64 + 1;
        }
        out.write_all(b"\n")?;
        bytes += 1;
    }
    out.flush()?;
    Ok(bytes)
}

/// Writes rows to `<dir>/<table>.dat`. Returns the number of bytes written.
pub fn write_table(dir: &Path, table: &str, rows: &[Row]) -> io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let _span = tpcds_obs::span("dgen", "write_table");
    let mut f = std::fs::File::create(dir.join(format!("{table}.dat")))?;
    let bytes = write_rows(&mut f, rows)?;
    tpcds_obs::counter("dgen", "gen.bytes", bytes as f64);
    Ok(bytes)
}

/// Parses one flat field into a typed [`Value`] according to the column's
/// declared type; empty fields are NULL.
pub fn parse_field(s: &str, dt: DataType) -> Result<Value, String> {
    if s.is_empty() {
        return Ok(Value::Null);
    }
    match dt {
        DataType::Int => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad int {s:?}: {e}")),
        DataType::Decimal => s
            .parse()
            .map(Value::Decimal)
            .map_err(|e| format!("bad decimal {s:?}: {e}")),
        DataType::Date => s
            .parse::<Date>()
            .map(Value::Date)
            .map_err(|e| format!("bad date {s:?}: {e}")),
        DataType::Str => Ok(Value::str(s)),
        DataType::Time => s
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|e| format!("bad time {s:?}: {e}")),
        DataType::Bool => Err("flat files carry no booleans".to_string()),
    }
}

/// Reads a flat file back into typed rows using the table definition.
pub fn read_rows<R: Read>(r: R, table: &TableDef) -> Result<Vec<Row>, String> {
    let reader = BufReader::new(r);
    let mut rows = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if line.is_empty() {
            continue;
        }
        let mut fields: Vec<&str> = line.split('|').collect();
        // Every field is terminated by '|', so the final split piece is the
        // empty remainder after the last terminator.
        if fields.last() == Some(&"") {
            fields.pop();
        }
        if fields.len() != table.width() {
            return Err(format!(
                "line {}: {} fields, schema {} has {}",
                lineno + 1,
                fields.len(),
                table.name,
                table.width()
            ));
        }
        let mut row = Vec::with_capacity(fields.len());
        for (f, col) in fields.iter().zip(&table.columns) {
            row.push(
                parse_field(f, col.ctype.data_type())
                    .map_err(|e| format!("line {}, column {}: {e}", lineno + 1, col.name))?,
            );
        }
        rows.push(row);
    }
    Ok(rows)
}

/// Reads `<dir>/<table>.dat`.
pub fn read_table(dir: &Path, table: &TableDef) -> Result<Vec<Row>, String> {
    let f = std::fs::File::open(dir.join(format!("{}.dat", table.name)))
        .map_err(|e| format!("open {}: {e}", table.name))?;
    read_rows(f, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::Generator;
    use tpcds_schema::Schema;

    #[test]
    fn round_trip_every_table() {
        let g = Generator::new(0.01);
        let schema = Schema::tpcds();
        for name in tpcds_schema::tables::TABLE_NAMES {
            let rows = g.generate_range(name, 0, 40);
            let mut buf = Vec::new();
            write_rows(&mut buf, &rows).unwrap();
            let table = schema.table(name).unwrap();
            let back = read_rows(buf.as_slice(), table).unwrap();
            assert_eq!(rows.len(), back.len(), "{name}");
            for (a, b) in rows.iter().zip(&back) {
                assert_eq!(a, b, "{name} row differs after round trip");
            }
        }
    }

    #[test]
    fn nulls_round_trip_as_empty_fields() {
        let mut buf = Vec::new();
        write_rows(
            &mut buf,
            &[vec![Value::Int(1), Value::Null, Value::str("x")]],
        )
        .unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1||x|\n");
    }

    #[test]
    fn field_count_mismatch_is_an_error() {
        let schema = Schema::tpcds();
        let t = schema.table("income_band").unwrap();
        let err = read_rows("1|2|\n".as_bytes(), t).unwrap_err();
        assert!(err.contains("2 fields"), "{err}");
    }

    #[test]
    fn bad_typed_field_is_an_error() {
        let schema = Schema::tpcds();
        let t = schema.table("income_band").unwrap();
        let err = read_rows("1|x|3|\n".as_bytes(), t).unwrap_err();
        assert!(err.contains("bad int"), "{err}");
    }
}
