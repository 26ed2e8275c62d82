//! Row-group segments and the streaming table builder.
//!
//! A [`ColumnTable`] is the columnar shadow of one engine table: a list of
//! fixed-size [`Segment`]s, each holding [`SEGMENT_ROWS`] rows (the last
//! may be short). Fixed segment size keeps global-row → (segment, offset)
//! arithmetic trivial and lets a morsel never straddle a segment boundary
//! (the morsel size divides the segment size).

use crate::column::Column;
use tpcds_types::{DataType, Row, Value};

/// Rows per segment. A power of two that [`crate::MORSEL_ROWS`] divides.
pub const SEGMENT_ROWS: usize = 65_536;

/// One fixed-size row group: one [`Column`] per attribute.
#[derive(Clone, Debug)]
pub struct Segment {
    /// One column per table attribute, all the same length.
    pub columns: Vec<Column>,
    /// Number of rows (== every column's length).
    pub rows: usize,
    /// Approximate heap bytes, computed once when the segment is sealed.
    pub bytes: usize,
}

impl Segment {
    /// Materializes row `i` of the segment.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// Materializes columns `cols` of row `i` (every column when `None`).
    pub fn row_of(&self, i: usize, cols: Option<&[usize]>) -> Row {
        match cols {
            None => self.row(i),
            Some(cols) => cols.iter().map(|&c| self.columns[c].value_at(i)).collect(),
        }
    }
}

/// The columnar shadow of one table.
#[derive(Clone, Debug)]
pub struct ColumnTable {
    /// Declared type of each column (drives buffer selection).
    pub dtypes: Vec<DataType>,
    /// The sealed segments, all [`SEGMENT_ROWS`] long except possibly the
    /// last.
    pub segments: Vec<Segment>,
    /// Total row count.
    pub rows: usize,
}

impl ColumnTable {
    /// Builds a shadow by scanning existing row storage.
    pub fn from_rows(dtypes: Vec<DataType>, rows: &[Row]) -> ColumnTable {
        let mut b = ColumnTableBuilder::new(dtypes);
        for r in rows {
            b.push_row(r);
        }
        b.finish()
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.dtypes.len()
    }

    /// Total approximate heap bytes across segments.
    pub fn bytes(&self) -> usize {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    /// Materializes global row `i`.
    pub fn row(&self, i: usize) -> Row {
        let seg = &self.segments[i / SEGMENT_ROWS];
        seg.row(i % SEGMENT_ROWS)
    }
}

/// Streaming builder: push rows (e.g. straight out of the data generator),
/// segments seal themselves every [`SEGMENT_ROWS`] rows.
pub struct ColumnTableBuilder {
    dtypes: Vec<DataType>,
    current: Vec<Column>,
    current_rows: usize,
    segments: Vec<Segment>,
    rows: usize,
}

impl ColumnTableBuilder {
    /// A builder for a table with the given column types.
    pub fn new(dtypes: Vec<DataType>) -> ColumnTableBuilder {
        let current = dtypes.iter().map(|t| Column::for_type(*t)).collect();
        ColumnTableBuilder {
            dtypes,
            current,
            current_rows: 0,
            segments: Vec::new(),
            rows: 0,
        }
    }

    /// Appends one row. Short rows are padded with NULL and long rows
    /// truncated, mirroring how lenient the row engine's metadata is;
    /// callers that care validate arity before pushing.
    pub fn push_row(&mut self, row: &[Value]) {
        for (i, col) in self.current.iter_mut().enumerate() {
            col.push(row.get(i).unwrap_or(&Value::Null));
        }
        self.current_rows += 1;
        self.rows += 1;
        if self.current_rows == SEGMENT_ROWS {
            self.seal();
        }
    }

    fn seal(&mut self) {
        let fresh: Vec<Column> = self.dtypes.iter().map(|t| Column::for_type(*t)).collect();
        let cols = std::mem::replace(&mut self.current, fresh);
        let bytes = cols.iter().map(|c| c.heap_bytes()).sum();
        self.segments.push(Segment {
            columns: cols,
            rows: self.current_rows,
            bytes,
        });
        self.current_rows = 0;
    }

    /// Seals the trailing partial segment and returns the finished table.
    pub fn finish(mut self) -> ColumnTable {
        if self.current_rows > 0 {
            self.seal();
        }
        ColumnTable {
            dtypes: self.dtypes,
            segments: self.segments,
            rows: self.rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Int(i as i64), Value::str(format!("s{i}"))])
            .collect()
    }

    #[test]
    fn segments_split_at_fixed_size() {
        let rows = int_rows(SEGMENT_ROWS + 17);
        let t = ColumnTable::from_rows(vec![DataType::Int, DataType::Str], &rows);
        assert_eq!(t.rows, SEGMENT_ROWS + 17);
        assert_eq!(t.segments.len(), 2);
        assert_eq!(t.segments[0].rows, SEGMENT_ROWS);
        assert_eq!(t.segments[1].rows, 17);
        assert_eq!(t.row(0), rows[0]);
        assert_eq!(t.row(SEGMENT_ROWS), rows[SEGMENT_ROWS]);
        assert_eq!(t.row(SEGMENT_ROWS + 16), rows[SEGMENT_ROWS + 16]);
        assert!(t.bytes() > 0);
    }

    #[test]
    fn short_rows_pad_with_null() {
        let mut b = ColumnTableBuilder::new(vec![DataType::Int, DataType::Int]);
        b.push_row(&[Value::Int(1)]);
        let t = b.finish();
        assert_eq!(t.row(0), vec![Value::Int(1), Value::Null]);
    }
}
