//! The typed row buffer every row function fills.
//!
//! A row function writes its row as [`Cell`]s into a [`RowBuf`] that the
//! caller reuses from row to row: integers, decimal mantissas and dates
//! as they are, strings borrowed from the static word lists or written
//! into the buffer's own text. The bulk load pushes those cells straight
//! into a segment's typed columns ([`RowBuf::push_into`]); the row API
//! (refresh sets, flat files) boxes them into a [`Row`]
//! ([`RowBuf::to_row`]). One row function serves both, so a segment holds
//! exactly the cells of the rows.

use std::fmt::Write;
use tpcds_storage::Column;
use tpcds_types::{Date, Decimal, Row, Value};

/// One cell of a generated row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cell {
    /// SQL NULL.
    Null,
    /// An integer.
    Int(i64),
    /// A decimal: its mantissa and its scale.
    Dec(i64, u8),
    /// A date.
    Date(Date),
    /// A string from a static list.
    Word(&'static str),
    /// A string written into the buffer's text: its byte range there.
    Text(u32, u32),
}

impl Cell {
    /// The integer the cell holds.
    pub fn as_int(self) -> Option<i64> {
        match self {
            Cell::Int(x) => Some(x),
            _ => None,
        }
    }

    /// The mantissa of the decimal the cell holds.
    pub fn mantissa(self) -> Option<i64> {
        match self {
            Cell::Dec(m, _) => Some(m),
            _ => None,
        }
    }
}

/// One generated row: its cells, and the text its written strings
/// occupy. Cleared and refilled for every row.
#[derive(Debug, Default)]
pub struct RowBuf {
    cells: Vec<Cell>,
    text: String,
}

impl RowBuf {
    /// Empties the buffer, keeping its allocations.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.text.clear();
    }

    /// The cells of the row.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    /// Appends cells.
    pub fn extend(&mut self, cells: impl IntoIterator<Item = Cell>) {
        self.cells.extend(cells);
    }

    /// Appends an integer.
    pub fn int(&mut self, v: i64) {
        self.push(Cell::Int(v));
    }

    /// Appends money in cents: a `decimal(7,2)` cell.
    pub fn cents(&mut self, v: i64) {
        self.push(Cell::Dec(v, 2));
    }

    /// Appends a date.
    pub fn date(&mut self, d: Date) {
        self.push(Cell::Date(d));
    }

    /// Appends a string from a static list.
    pub fn word(&mut self, s: &'static str) {
        self.push(Cell::Word(s));
    }

    /// Appends a NULL.
    pub fn null(&mut self) {
        self.push(Cell::Null);
    }

    /// Turns the last cell into NULL when `null` holds: a nullable column
    /// whose NULL is drawn after its value.
    pub fn null_last_if(&mut self, null: bool) {
        if null {
            *self.cells.last_mut().expect("a cell to null") = Cell::Null;
        }
    }

    /// Writes a string into the text with `write` and returns its cell,
    /// appending nothing: for a string drawn before the cells it follows.
    pub fn write(&mut self, write: impl FnOnce(&mut String)) -> Cell {
        let start = self.text.len() as u32;
        write(&mut self.text);
        Cell::Text(start, self.text.len() as u32)
    }

    /// Formats `args` into the text and returns its cell (see
    /// [`RowBuf::write`]).
    pub fn format(&mut self, args: std::fmt::Arguments) -> Cell {
        self.write(|text| text.write_fmt(args).expect("a String takes any text"))
    }

    /// Appends a string written into the text by `write`.
    pub fn text_with(&mut self, write: impl FnOnce(&mut String)) {
        let cell = self.write(write);
        self.push(cell);
    }

    /// Formats `args` into the text and appends its cell.
    pub fn text(&mut self, args: std::fmt::Arguments) {
        let cell = self.format(args);
        self.push(cell);
    }

    /// The string a cell holds, borrowed from the list or the text.
    pub fn str(&self, cell: Cell) -> Option<&str> {
        match cell {
            Cell::Word(s) => Some(s),
            Cell::Text(a, b) => Some(&self.text[a as usize..b as usize]),
            _ => None,
        }
    }

    /// Pushes the row into `columns`, one cell into each through its
    /// typed push: what [`Column::push`] of [`RowBuf::to_row`]'s values
    /// would store, with no [`Value`] built.
    pub fn push_into(&self, columns: &mut [Column]) {
        debug_assert_eq!(self.cells.len(), columns.len(), "one cell per column");
        for (column, &cell) in columns.iter_mut().zip(&self.cells) {
            match cell {
                Cell::Null => column.push_null(),
                Cell::Int(x) => column.push_int(x),
                Cell::Dec(m, scale) => column.push_decimal(m, scale),
                Cell::Date(d) => column.push_date(d),
                Cell::Word(_) | Cell::Text(..) => {
                    column.push_str(self.str(cell).expect("a string"))
                }
            }
        }
    }

    /// The row as values.
    pub fn to_row(&self) -> Row {
        let value = |&cell: &Cell| match cell {
            Cell::Null => Value::Null,
            Cell::Int(x) => Value::Int(x),
            Cell::Dec(m, scale) => Value::Decimal(Decimal::new(m as i128, scale)),
            Cell::Date(d) => Value::Date(d),
            Cell::Word(_) | Cell::Text(..) => Value::str(self.str(cell).expect("a string")),
        };
        self.cells.iter().map(value).collect()
    }
}
