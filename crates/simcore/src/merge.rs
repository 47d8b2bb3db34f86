//! Grid-order streamed output merging for parallel sweeps.
//!
//! Workers finish sweep cells in whatever order the scheduler dictates, but
//! result files must be **grid-order deterministic**: the bytes of a CSV or
//! JSONL artifact may depend only on the grid, never on thread timing.
//! [`OrderedMerge`] reconciles the two: each cell pushes its output chunk
//! under the cell's grid index as soon as it completes; the merge holds
//! out-of-order chunks back and appends the contiguous prefix, so the final
//! byte string equals the serial concatenation
//! `header ++ chunk[0] ++ chunk[1] ++ …` exactly — including the header row
//! and each chunk's own trailing newline (the merge inserts nothing).
//!
//! Byte-identity with the serial writers
//! ([`Table::to_csv`](crate::table::Table::to_csv), JSONL line joins) is
//! pinned by the tests below and re-checked live by the experiment drivers.

use std::collections::BTreeMap;

/// An order-restoring streamed writer: chunks pushed by grid index in any
/// order, bytes out in index order.
#[derive(Debug)]
pub struct OrderedMerge {
    /// Completed-but-not-yet-writable chunks, keyed by grid index.
    pending: BTreeMap<usize, String>,
    /// Next grid index the output is waiting on.
    next: usize,
    /// Total number of chunks the grid will produce.
    total: usize,
    /// Merged output so far (header + contiguous prefix of chunks).
    out: String,
}

impl OrderedMerge {
    /// A merge expecting `total` chunks and no header.
    pub fn new(total: usize) -> Self {
        OrderedMerge {
            pending: BTreeMap::new(),
            next: 0,
            total,
            out: String::new(),
        }
    }

    /// A merge expecting `total` chunks, starting with a header emitted
    /// verbatim (e.g. a newline-terminated CSV header line).
    pub fn with_header(total: usize, header: &str) -> Self {
        let mut m = OrderedMerge::new(total);
        m.out.push_str(header);
        m
    }

    /// Deliver the chunk for grid index `index` (each index exactly once).
    /// Chunks are emitted verbatim: a CSV/JSONL chunk must carry its own
    /// trailing newline. Empty chunks are allowed (a cell may emit no rows).
    pub fn push(&mut self, index: usize, chunk: String) {
        assert!(
            index < self.total,
            "chunk index {index} out of range ({})",
            self.total
        );
        assert!(
            index >= self.next && !self.pending.contains_key(&index),
            "duplicate chunk for index {index}"
        );
        self.pending.insert(index, chunk);
        // Drain the contiguous prefix.
        while let Some(chunk) = self.pending.remove(&self.next) {
            self.out.push_str(&chunk);
            self.next += 1;
        }
    }

    /// Number of chunks received so far (written or held back).
    pub fn received(&self) -> usize {
        self.next + self.pending.len()
    }

    /// The merged bytes. Panics unless every chunk has arrived.
    pub fn finish(self) -> String {
        assert!(
            self.next == self.total && self.pending.is_empty(),
            "merge finished early: {}/{} chunks received",
            self.next + self.pending.len(),
            self.total
        );
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::table::{Cell, Table};

    /// Out-of-order pushes produce the same bytes as in-order pushes.
    #[test]
    fn completion_order_is_irrelevant() {
        let chunks: Vec<String> = (0..20).map(|i| format!("row-{i}\n")).collect();
        let serial: String = chunks.concat();
        // A deterministic shuffle of the completion order.
        let mut order: Vec<usize> = (0..20).collect();
        let mut rng = SimRng::from_seed(99);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.index(i + 1));
        }
        let mut m = OrderedMerge::new(20);
        for &i in &order {
            m.push(i, chunks[i].clone());
        }
        assert_eq!(m.finish(), serial);
    }

    /// Satellite guarantee: the streamed CSV path is byte-identical to the
    /// existing serial writer `Table::to_csv` on a fixed grid — header row,
    /// per-row newlines and the trailing newline included.
    #[test]
    fn csv_merge_is_byte_identical_to_serial_table_writer() {
        let mut table =
            Table::new("fixed grid", &["protocol", "lambda", "value"]).float_precision(4);
        let rows: Vec<Vec<Cell>> = (0..12)
            .map(|i| {
                vec![
                    Cell::Str(format!("proto-{}", i % 3)),
                    Cell::Float(1.0 + i as f64 / 2.0),
                    Cell::Float((i as f64).sin()),
                ]
            })
            .collect();
        for r in &rows {
            table.push_row(r.clone());
        }
        let serial = table.to_csv();

        // Stream the same rows through the merge in a scrambled order.
        let mut m = OrderedMerge::with_header(rows.len(), &table.csv_header());
        let order = [7, 0, 11, 3, 2, 1, 10, 4, 6, 5, 9, 8];
        for &i in &order {
            m.push(i, table.csv_row_of(&rows[i]));
        }
        let streamed = m.finish();
        assert_eq!(streamed, serial);
        assert!(streamed.ends_with('\n'), "CSV keeps its trailing newline");
        assert!(streamed.starts_with("protocol,lambda,value\n"));
    }

    /// JSONL: headerless merge of one-line-per-cell chunks equals the
    /// serial line join, trailing newline included.
    #[test]
    fn jsonl_merge_matches_serial_join() {
        let lines: Vec<String> = (0..6)
            .map(|i| format!("{{\"cell\":{i},\"ok\":true}}\n"))
            .collect();
        let serial: String = lines.concat();
        let mut m = OrderedMerge::new(6);
        for &i in &[5usize, 1, 0, 3, 2, 4] {
            m.push(i, lines[i].clone());
        }
        assert_eq!(m.finish(), serial);
    }

    #[test]
    fn empty_chunks_and_empty_grid() {
        let mut m = OrderedMerge::with_header(2, "a,b\n");
        m.push(1, String::new());
        m.push(0, "1,2\n".to_string());
        assert_eq!(m.finish(), "a,b\n1,2\n");
        let m = OrderedMerge::with_header(0, "a,b\n");
        assert_eq!(m.finish(), "a,b\n");
    }

    #[test]
    fn received_counts_held_back_chunks() {
        let mut m = OrderedMerge::new(3);
        m.push(2, "c\n".into());
        assert_eq!(m.received(), 1);
        m.push(0, "a\n".into());
        assert_eq!(m.received(), 2);
        m.push(1, "b\n".into());
        assert_eq!(m.received(), 3);
        assert_eq!(m.finish(), "a\nb\nc\n");
    }

    #[test]
    #[should_panic(expected = "duplicate chunk")]
    fn duplicate_index_rejected() {
        let mut m = OrderedMerge::new(2);
        m.push(0, "a\n".into());
        m.push(0, "a\n".into());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_rejected() {
        let mut m = OrderedMerge::new(2);
        m.push(2, "x\n".into());
    }

    #[test]
    #[should_panic(expected = "finished early")]
    fn missing_chunk_fails_finish() {
        let mut m = OrderedMerge::new(2);
        m.push(0, "a\n".into());
        let _ = m.finish();
    }
}
