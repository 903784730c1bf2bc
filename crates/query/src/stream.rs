//! Streaming query results: the pull-based side of the result API.
//!
//! [`Session::query`](crate::Session::query) materializes every result
//! row into one `Value::Array` before returning — fine for a library
//! call, fatal for a server that must fan results out to thousands of
//! sockets. [`Session::query_stream`](crate::Session::query_stream)
//! returns a [`RowStream`] instead: a pull-based iterator over result
//! *batches*, fed by one of two sources:
//!
//! * **Driver scan** — a single-dataset block with no ORDER BY, GROUP
//!   BY, aggregates or DISTINCT pulls its dataset through the one
//!   driver scan (`vector::DriverScan`) a chunk at a time on the
//!   caller's thread — compiled kernels and columnar page skipping
//!   when the block vectorized, the row-path filters otherwise — and
//!   projects at most one output batch at a time (`BlockStream`). A
//!   block whose planner pinned the primary key (`WHERE t.id = 7`)
//!   reads only the record that key names, from the partition that owns
//!   it. The in-process evaluator runs the same scan and projection,
//!   fanned out over the dataset's partitions when it is not keyed;
//! * **Materialized** — everything else (sorts, groups, joins) runs the
//!   materializing evaluator and re-chunks the finished result, so the
//!   API is total even when laziness is impossible.
//!
//! [`RowStream::peak_resident`] reports the largest number of result
//! rows the stream ever held materialized at once — the instrument the
//! serving benchmark uses to assert that streamed queries really do
//! stay O(batch) rather than O(result).

use std::collections::VecDeque;
use std::sync::Arc;

use idea_adm::Value;

use crate::ast::{FromSource, SelectBlock};
use crate::exec::{bind_pre_lets, eval_limit, Env, ExecContext};
use crate::plan::{AccessPath, BlockPlan};
use crate::vector::{Chunk, DriverScan, ScanInput};
use crate::Result;

/// Default number of rows per [`RowStream`] batch.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// A block evaluated straight off its driver scan: survivors are
/// projected a bounded number of rows at a time, and LIMIT stops the
/// scan (rows past it are never evaluated).
pub(crate) struct BlockStream {
    scan: DriverScan,
    /// The chunk being projected and the position of its next row.
    cur: Option<(Chunk, usize)>,
    /// Rows the block's LIMIT still allows.
    remaining: Option<usize>,
}

impl BlockStream {
    /// Starts the stream, pinning the dataset's snapshots in `ctx`, or
    /// returns `None` when `block` cannot stream from one driver scan.
    /// It can when it has a single full-scan FROM item over a catalog
    /// dataset and no operation that needs the whole result before the
    /// first row (ORDER BY, GROUP BY, aggregates, DISTINCT); WHERE, LETs
    /// and LIMIT are fine. `env` is the outer environment; the block's
    /// pre-LETs bind over it.
    pub(crate) fn start(
        block: &SelectBlock,
        plan: &Arc<BlockPlan>,
        env: &Env,
        ctx: &mut ExecContext,
    ) -> Result<Option<BlockStream>> {
        let [fp] = plan.from_order.as_slice() else { return Ok(None) };
        let FromSource::Name(ds) = &block.from[fp.item_idx].source else { return Ok(None) };
        if !matches!(fp.path, AccessPath::Materialize)
            || !block.group_by.is_empty()
            || plan.has_aggregates
            || !block.order_by.is_empty()
            || block.distinct
        {
            return Ok(None);
        }
        let env = bind_pre_lets(block, env, ctx)?;
        let remaining = block.limit.as_ref().map(|l| eval_limit(l, &env, ctx)).transpose()?;
        let input = ScanInput::driver(fp, ds, &env, ctx)?;
        let scan = match plan.vec.as_ref().filter(|_| ctx.vectorize) {
            Some(vp) => DriverScan::kernels(vp.clone(), 0, false, input),
            None => {
                if ctx.vectorize {
                    ctx.note_vec_fallback(plan);
                }
                DriverScan::rows(block, plan.clone(), env, input)
            }
        };
        Ok(Some(BlockStream { scan, cur: None, remaining }))
    }

    /// Up to `max` more result rows, or `None` at the end of the stream.
    /// Never returns an empty batch.
    pub(crate) fn next_rows(
        &mut self,
        block: &SelectBlock,
        ctx: &mut ExecContext,
        max: usize,
    ) -> Result<Option<Vec<Value>>> {
        let want = self.remaining.map_or(max, |r| r.min(max));
        let mut out = Vec::new();
        while out.len() < want {
            if self.cur.is_none() {
                match self.scan.next_chunk(ctx)? {
                    Some(chunk) => self.cur = Some((chunk, 0)),
                    None => break,
                }
            }
            let (chunk, pos) = self.cur.as_mut().expect("a chunk is loaded");
            let end = *pos + (chunk.len() - *pos).min(want - out.len());
            self.scan.project(block, chunk, *pos..end, ctx, &mut out)?;
            *pos = end;
            if end == chunk.len() {
                self.cur = None;
            }
        }
        if let Some(r) = &mut self.remaining {
            *r -= out.len();
        }
        Ok((!out.is_empty()).then_some(out))
    }
}

/// What a [`Source::Driver`] stream owns: the block, the statement's
/// execution context (which pins the snapshots), and the stream itself.
struct DriverSource {
    block: Arc<SelectBlock>,
    ctx: ExecContext,
    rows: BlockStream,
}

enum Source {
    /// Fully materialized result, re-chunked for a uniform consumer API.
    Materialized(VecDeque<Value>),
    /// A block streamed off its driver scan.
    Driver(Box<DriverSource>),
}

/// A pull-based stream of query result rows, consumed in batches.
///
/// Produced by [`Session::query_stream`](crate::Session::query_stream).
/// Also an `Iterator<Item = Result<Value>>` for row-at-a-time consumers
/// (after an `Err` the iterator fuses and yields `None`).
pub struct RowStream {
    source: Source,
    batch_size: usize,
    /// Largest number of result rows ever resident at once.
    peak_resident: usize,
    /// Row-at-a-time buffer for the `Iterator` impl.
    buf: VecDeque<Value>,
    fused: bool,
}

impl std::fmt::Debug for RowStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let source = match &self.source {
            Source::Materialized(_) => "materialized",
            Source::Driver(_) => "driver scan",
        };
        f.debug_struct("RowStream")
            .field("source", &source)
            .field("batch_size", &self.batch_size)
            .field("peak_resident", &self.peak_resident)
            .finish()
    }
}

impl RowStream {
    fn new(source: Source, batch_size: usize, initial_resident: usize) -> RowStream {
        RowStream {
            source,
            batch_size: batch_size.max(1),
            peak_resident: initial_resident,
            buf: VecDeque::new(),
            fused: false,
        }
    }

    /// Wraps an already-materialized result (the peak-resident count is
    /// the full row count — nothing was streamed).
    pub(crate) fn materialized(rows: Vec<Value>, batch_size: usize) -> RowStream {
        let n = rows.len();
        RowStream::new(Source::Materialized(rows.into()), batch_size, n)
    }

    pub(crate) fn driver(
        block: Arc<SelectBlock>,
        ctx: ExecContext,
        rows: BlockStream,
        batch_size: usize,
    ) -> RowStream {
        let source = DriverSource { block, ctx, rows };
        RowStream::new(Source::Driver(Box::new(source)), batch_size, 0)
    }

    /// Whether this stream evaluates lazily (driver-scan source) as
    /// opposed to re-chunking a materialized result.
    pub fn is_streaming(&self) -> bool {
        !matches!(self.source, Source::Materialized(_))
    }

    /// The largest number of result rows this stream (and its producer)
    /// ever held materialized at one instant. For a lazy stream this is
    /// bounded by the batch size regardless of result cardinality; for a
    /// materialized fallback it equals the full result count.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// The next batch of rows, or `None` at end-of-stream.
    pub fn next_batch(&mut self) -> Result<Option<Vec<Value>>> {
        let batch = match &mut self.source {
            Source::Materialized(rows) => {
                let n = rows.len().min(self.batch_size);
                (n > 0).then(|| rows.drain(..n).collect())
            }
            Source::Driver(d) => d.rows.next_rows(&d.block, &mut d.ctx, self.batch_size)?,
        };
        if let (Some(b), true) = (&batch, self.is_streaming()) {
            self.peak_resident = self.peak_resident.max(b.len());
        }
        Ok(batch)
    }
}

impl Iterator for RowStream {
    type Item = Result<Value>;

    fn next(&mut self) -> Option<Result<Value>> {
        if self.fused {
            return None;
        }
        while self.buf.is_empty() {
            match self.next_batch() {
                Ok(Some(b)) => self.buf = b.into(),
                Ok(None) => return None,
                Err(e) => {
                    self.fused = true;
                    return Some(Err(e));
                }
            }
        }
        self.buf.pop_front().map(Ok)
    }
}
