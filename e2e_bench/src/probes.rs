//! Freshness probes: sampled records whose visibility is polled through
//! `PartitionedDataset::get` until they appear.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use idea_adm::Value;
use idea_storage::PartitionedDataset;

use crate::queries::{field, rating_ok};

/// How often pollers check probes. Each poll costs one missed lookup
/// per partition, so polling faster would take CPU from the system
/// under test.
pub const POLL: std::time::Duration = std::time::Duration::from_millis(2);

struct Probe {
    id: i64,
    /// Sequence stamped into the record, checked on the stored row.
    seq: Option<i64>,
    /// When the record was due (live) or released (drain).
    due: Instant,
}

/// Pending probes per log partition, polled oldest first.
pub struct Prober {
    ds: Arc<PartitionedDataset>,
    pending: Vec<VecDeque<Probe>>,
    /// Due-to-visible latency of every probe seen, in ms.
    pub freshness_ms: Vec<f64>,
    /// Probes whose row was found but wrong.
    pub wrong: u64,
    pub added: u64,
}

impl Prober {
    pub fn new(ds: Arc<PartitionedDataset>, partitions: usize) -> Self {
        Prober {
            ds,
            pending: (0..partitions).map(|_| VecDeque::new()).collect(),
            freshness_ms: Vec::new(),
            wrong: 0,
            added: 0,
        }
    }

    pub fn add(&mut self, partition: usize, id: i64, seq: Option<i64>, due: Instant) {
        self.pending[partition].push_back(Probe { id, seq, due });
        self.added += 1;
    }

    pub fn unseen(&self) -> u64 {
        self.pending.iter().map(|q| q.len() as u64).sum()
    }

    /// Checks each partition's oldest pending probes, oldest first,
    /// up to the first that is not visible yet: rows of one log
    /// partition become visible in log order, give or take the rows of
    /// one batch. A probe with a sequence is visible once its key holds
    /// that sequence or a later one; a later one means the record was
    /// overwritten before it was seen, and counts as wrong. Returns an
    /// error only when the store fails.
    pub fn poll(&mut self) -> Result<(), String> {
        for q in self.pending.iter_mut() {
            while let Some(p) = q.front() {
                let Some(row) = self.ds.get(&Value::Int(p.id)).map_err(|e| e.to_string())? else {
                    break;
                };
                let stamped = field(&row, "seq").and_then(Value::as_int);
                if p.seq.is_some_and(|seq| stamped.is_none_or(|got| got < seq)) {
                    break;
                }
                let seen = Instant::now();
                let p = q.pop_front().expect("front checked");
                self.freshness_ms.push(seen.duration_since(p.due).as_secs_f64() * 1e3);
                if p.seq.is_some_and(|seq| stamped != Some(seq)) || !rating_ok(&row) {
                    self.wrong += 1;
                }
            }
        }
        Ok(())
    }
}
