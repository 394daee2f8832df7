//! The connection surface the workloads drive, and the traced adapter.
//!
//! Workloads are generic over [`Conn`], so the same op loop runs against a
//! bare [`GengarClient`] (timed runs), against [`Traced`] (the traced run)
//! and against test adapters that tamper with what the client returns.

use gengar_core::error::GengarError;
use gengar_core::{ClientStats, DshmPool, GengarClient, GlobalPtr};

use crate::spans;

/// One element of a whole-object batch.
#[derive(Debug)]
pub enum Op<'b> {
    /// Read the object into `buf` (from offset 0).
    Read {
        /// Object.
        ptr: GlobalPtr,
        /// Destination, `ptr.size` long.
        buf: &'b mut [u8],
    },
    /// Write `data` over the object (from offset 0).
    Write {
        /// Object.
        ptr: GlobalPtr,
        /// Payload, `ptr.size` long.
        data: &'b [u8],
    },
}

/// A pool connection as the benchmark sees it: the scalar [`DshmPool`]
/// calls, batch submission and the client's own counters.
pub trait Conn: DshmPool {
    /// Submits `ops` as one [`gengar_core::OpBatch`]; one result per op,
    /// in order.
    ///
    /// # Errors
    ///
    /// Batch-level misuse; per-element failures land in the inner results.
    fn submit(&mut self, ops: Vec<Op<'_>>) -> Result<Vec<Result<(), GengarError>>, GengarError>;

    /// The connection's [`ClientStats`].
    fn stats(&self) -> ClientStats;
}

impl Conn for GengarClient {
    fn submit(&mut self, ops: Vec<Op<'_>>) -> Result<Vec<Result<(), GengarError>>, GengarError> {
        let mut batch = self.batch();
        for op in ops {
            batch = match op {
                Op::Read { ptr, buf } => batch.read(ptr, 0, buf),
                Op::Write { ptr, data } => batch.write(ptr, 0, data),
            };
        }
        Ok(batch.submit()?.into_results())
    }

    fn stats(&self) -> ClientStats {
        GengarClient::stats(self)
    }
}

/// Thin [`DshmPool`] adapter that opens a `pool.*` span around every call
/// into the client and tags reads and writes with the path that served
/// them, read from the [`ClientStats`] delta across the call.
pub struct Traced<'a>(pub &'a mut GengarClient);

/// Bytes of one KV index bucket: reads of exactly this size are index
/// probes, everything else is a value read.
const INDEX_READ: usize = 16;

fn read_tag(before: &ClientStats, after: &ClientStats, len: usize) -> &'static str {
    let index = len == INDEX_READ;
    if after.cache_hits > before.cache_hits {
        if index {
            "index.cache"
        } else {
            "cache"
        }
    } else if after.writeback_hits > before.writeback_hits {
        if index {
            "index.writeback"
        } else {
            "writeback"
        }
    } else if index {
        "index.nvm"
    } else {
        "nvm"
    }
}

impl DshmPool for Traced<'_> {
    fn alloc(&mut self, server: u8, size: u64) -> Result<GlobalPtr, GengarError> {
        let _s = spans::span("pool.alloc");
        self.0.alloc(server, size)
    }

    fn free(&mut self, ptr: GlobalPtr) -> Result<(), GengarError> {
        self.0.free(ptr)
    }

    fn read(&mut self, ptr: GlobalPtr, offset: u64, buf: &mut [u8]) -> Result<(), GengarError> {
        let s = spans::span("pool.read");
        let before = self.0.stats();
        let r = self.0.read(ptr, offset, buf);
        s.tag(read_tag(&before, &self.0.stats(), buf.len()));
        r
    }

    fn write(&mut self, ptr: GlobalPtr, offset: u64, data: &[u8]) -> Result<(), GengarError> {
        let s = spans::span("pool.write");
        let before = self.0.stats().staged_writes;
        let r = self.0.write(ptr, offset, data);
        s.tag(if self.0.stats().staged_writes > before {
            "staged"
        } else {
            "direct"
        });
        r
    }

    fn cas_u64(
        &mut self,
        ptr: GlobalPtr,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> Result<u64, GengarError> {
        let _s = spans::span("pool.cas");
        self.0.cas_u64(ptr, offset, expected, new)
    }

    fn servers(&self) -> Vec<u8> {
        self.0.server_ids()
    }

    fn barrier(&mut self) -> Result<(), GengarError> {
        let _s = spans::span("pool.barrier");
        self.0.drain_all()
    }
}

impl Conn for Traced<'_> {
    fn submit(&mut self, ops: Vec<Op<'_>>) -> Result<Vec<Result<(), GengarError>>, GengarError> {
        let _s = spans::span("pool.submit");
        Conn::submit(self.0, ops)
    }

    fn stats(&self) -> ClientStats {
        self.0.stats()
    }
}
