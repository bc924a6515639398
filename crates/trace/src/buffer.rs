//! Trace-once/replay-many: a flat, chunked SoA buffer of dynamic micro-ops.
//!
//! Re-running a workload generator once per consumer (the capacity sweep
//! re-executed it once per L1 size) pays the full generation cost — hash
//! tables, sort networks, graph walks — for every observation. A
//! [`TraceBuffer`] records the `(pc, op)` stream once, column-wise
//! (pc/arg/kind/aux), in fixed-capacity chunks, and replays it to any
//! number of sinks through [`TraceSink::exec_batch`]: one virtual call per
//! chunk instead of one per op, with the per-op decode loop fully
//! monomorphic. Chunks are recycled by [`TraceBuffer::clear`], so a
//! re-recorded buffer reuses its allocations.
//!
//! The in-memory encoding is an internal detail; round-tripping is
//! exhaustively tested (`MicroOp` has ~11 shapes) and replay equivalence
//! with direct streaming is proptested in `tests/buffer_props.rs`. For
//! persistence, [`TraceBuffer::spill`] serializes the chunks as
//! concatenated BDBC `TraceChunk` records (`bdb-codec`'s checksummed
//! columnar container) and [`TraceBuffer::load`] restores them — replay
//! after a spill/load round trip is byte-identical to replaying the
//! original buffer.

use crate::op::{BranchKind, IntPurpose, MicroOp};
use crate::sink::{TraceEvent, TraceSink};
use bdb_codec::{columnar, CodecError};

/// Events per chunk: 64 Ki ops ≈ 1.1 MiB of columns — large enough that
/// per-chunk dispatch cost vanishes, small enough to stay cache-friendly
/// and make chunk recycling worthwhile.
const DEFAULT_CHUNK_EVENTS: usize = 1 << 16;

// Column encoding: one kind byte per op, with `arg` carrying the address
// (loads/stores) or branch target and `aux` the access size.
const K_INT_INT_ADDR: u8 = 0;
const K_INT_FP_ADDR: u8 = 1;
const K_INT_OTHER: u8 = 2;
const K_FP: u8 = 3;
const K_LOAD: u8 = 4;
const K_STORE: u8 = 5;
/// Branches occupy `6 + branch_kind * 2 + taken` (10 codes).
const K_BRANCH_BASE: u8 = 6;

fn encode(op: MicroOp) -> (u8, u64, u8) {
    match op {
        MicroOp::Int {
            purpose: IntPurpose::IntAddr,
        } => (K_INT_INT_ADDR, 0, 0),
        MicroOp::Int {
            purpose: IntPurpose::FpAddr,
        } => (K_INT_FP_ADDR, 0, 0),
        MicroOp::Int {
            purpose: IntPurpose::Other,
        } => (K_INT_OTHER, 0, 0),
        MicroOp::Fp => (K_FP, 0, 0),
        MicroOp::Load { addr, size } => (K_LOAD, addr, size),
        MicroOp::Store { addr, size } => (K_STORE, addr, size),
        MicroOp::Branch {
            taken,
            target,
            kind,
        } => {
            let kind_code = match kind {
                BranchKind::Conditional => 0u8,
                BranchKind::Direct => 1,
                BranchKind::Indirect => 2,
                BranchKind::Call => 3,
                BranchKind::Return => 4,
            };
            (K_BRANCH_BASE + kind_code * 2 + u8::from(taken), target, 0)
        }
    }
}

fn decode(kind: u8, arg: u64, aux: u8) -> MicroOp {
    match kind {
        K_INT_INT_ADDR => MicroOp::Int {
            purpose: IntPurpose::IntAddr,
        },
        K_INT_FP_ADDR => MicroOp::Int {
            purpose: IntPurpose::FpAddr,
        },
        K_INT_OTHER => MicroOp::Int {
            purpose: IntPurpose::Other,
        },
        K_FP => MicroOp::Fp,
        K_LOAD => MicroOp::Load {
            addr: arg,
            size: aux,
        },
        K_STORE => MicroOp::Store {
            addr: arg,
            size: aux,
        },
        _ => {
            let code = kind - K_BRANCH_BASE;
            let branch_kind = match code / 2 {
                0 => BranchKind::Conditional,
                1 => BranchKind::Direct,
                2 => BranchKind::Indirect,
                3 => BranchKind::Call,
                _ => BranchKind::Return,
            };
            MicroOp::Branch {
                taken: code % 2 == 1,
                target: arg,
                kind: branch_kind,
            }
        }
    }
}

/// One fixed-capacity SoA chunk (parallel columns, equal lengths).
#[derive(Debug, Default)]
struct Chunk {
    pc: Vec<u64>,
    arg: Vec<u64>,
    kind: Vec<u8>,
    aux: Vec<u8>,
}

impl Chunk {
    fn with_capacity(events: usize) -> Self {
        Chunk {
            pc: Vec::with_capacity(events),
            arg: Vec::with_capacity(events),
            kind: Vec::with_capacity(events),
            aux: Vec::with_capacity(events),
        }
    }

    fn len(&self) -> usize {
        self.pc.len()
    }

    fn clear(&mut self) {
        self.pc.clear();
        self.arg.clear();
        self.kind.clear();
        self.aux.clear();
    }
}

/// A recorded dynamic trace: flat, chunked, structure-of-arrays.
///
/// Record by using the buffer as a [`TraceSink`] (pass it to the workload
/// in place of a `Machine`), then call [`TraceBuffer::replay_into`] any
/// number of times. [`TraceBuffer::clear`] empties the trace but keeps
/// every chunk allocation, so a reused buffer records at full speed.
///
/// ```
/// use bdb_trace::{MicroOp, MixSink, TraceBuffer, TraceSink};
///
/// let mut buffer = TraceBuffer::new();
/// buffer.exec(0, MicroOp::Fp);
/// buffer.exec(4, MicroOp::Load { addr: 64, size: 8 });
/// let mut mix = MixSink::new();
/// buffer.replay_into(&mut mix);
/// assert_eq!(mix.mix().loads, 1);
/// assert_eq!(buffer.len(), 2);
/// ```
#[derive(Debug)]
pub struct TraceBuffer {
    chunk_events: usize,
    chunks: Vec<Chunk>,
    /// Cleared chunks kept for reuse (allocation pooling within a buffer).
    spare: Vec<Chunk>,
    len: u64,
}

impl Default for TraceBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceBuffer {
    /// Creates an empty buffer with the default chunk capacity.
    pub fn new() -> Self {
        Self::with_chunk_capacity(DEFAULT_CHUNK_EVENTS)
    }

    /// Creates an empty buffer whose chunks hold `events` ops each. Small
    /// capacities exist to put chunk boundaries under test; production
    /// callers use [`TraceBuffer::new`].
    ///
    /// # Panics
    ///
    /// Panics if `events` is zero.
    pub fn with_chunk_capacity(events: usize) -> Self {
        assert!(events > 0, "chunk capacity must be positive");
        TraceBuffer {
            chunk_events: events,
            chunks: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Records `workload` into a fresh buffer and returns it.
    pub fn capture(workload: impl FnOnce(&mut dyn TraceSink)) -> Self {
        let mut buffer = Self::new();
        workload(&mut buffer);
        buffer
    }

    /// Number of recorded events.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events per chunk.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_events
    }

    /// Empties the trace while retaining every chunk allocation.
    pub fn clear(&mut self) {
        for mut chunk in self.chunks.drain(..) {
            chunk.clear();
            self.spare.push(chunk);
        }
        self.len = 0;
    }

    fn push(&mut self, pc: u64, op: MicroOp) {
        let need_chunk = self
            .chunks
            .last()
            .is_none_or(|c| c.len() >= self.chunk_events);
        if need_chunk {
            let chunk = self
                .spare
                .pop()
                .unwrap_or_else(|| Chunk::with_capacity(self.chunk_events));
            self.chunks.push(chunk);
        }
        let (kind, arg, aux) = encode(op);
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.pc.push(pc);
            chunk.arg.push(arg);
            chunk.kind.push(kind);
            chunk.aux.push(aux);
            self.len += 1;
        }
    }

    /// Replays the recorded trace into `sink`, one
    /// [`TraceSink::exec_batch`] call per chunk.
    ///
    /// [`TraceSink::finish`] is *not* called — replay composes (the same
    /// buffer feeds many sinks, or one sink sees many buffers), so the
    /// caller decides when a sink's stream ends.
    pub fn replay_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        let mut batch: Vec<TraceEvent> = Vec::with_capacity(self.chunk_events);
        for chunk in &self.chunks {
            batch.clear();
            for i in 0..chunk.len() {
                batch.push(TraceEvent {
                    pc: chunk.pc[i],
                    op: decode(chunk.kind[i], chunk.arg[i], chunk.aux[i]),
                });
            }
            sink.exec_batch(&batch);
        }
    }

    /// Iterates the recorded events in order (test/diagnostic use; the fast
    /// path is [`TraceBuffer::replay_into`]).
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.chunks.iter().flat_map(|chunk| {
            (0..chunk.len()).map(move |i| TraceEvent {
                pc: chunk.pc[i],
                op: decode(chunk.kind[i], chunk.arg[i], chunk.aux[i]),
            })
        })
    }

    /// Serializes the recorded trace as concatenated BDBC `TraceChunk`
    /// records, one per chunk. The chunk structure is preserved exactly,
    /// so `spill(load(bytes))` reproduces `bytes` and a loaded buffer
    /// replays byte-identically to the original. The per-record CRC-64
    /// makes any storage damage a clean [`load`](Self::load) error.
    pub fn spill(&self) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        for chunk in &self.chunks {
            out.extend_from_slice(&columnar::encode_trace_chunk(
                &chunk.pc,
                &chunk.arg,
                &chunk.kind,
                &chunk.aux,
            )?);
        }
        Ok(out)
    }

    /// Restores a buffer from [`spill`](Self::spill) output. The chunk
    /// capacity is taken from the largest decoded chunk (or the default
    /// for an empty trace) so further recording appends sensibly. Any
    /// mid-record truncation, bit damage, or version mismatch is a clean
    /// error — never a panic. (Truncation at an exact record boundary is
    /// indistinguishable from a shorter trace; callers needing
    /// whole-file integrity add their own outer framing, as the run
    /// journal does.)
    pub fn load(bytes: &[u8]) -> Result<TraceBuffer, CodecError> {
        let mut chunks = Vec::new();
        let mut len = 0u64;
        let mut offset = 0usize;
        while offset < bytes.len() {
            // `TraceChunk` is the only BDBC kind, so a decoded record is
            // always a chunk.
            let (_, payload, consumed) = bdb_codec::decode_record_prefix(&bytes[offset..])?;
            let columns = columnar::TraceChunkView::parse(payload)?.to_columns();
            len += columns.len() as u64;
            chunks.push(Chunk {
                pc: columns.pc,
                arg: columns.arg,
                kind: columns.kind,
                aux: columns.aux,
            });
            offset += consumed;
        }
        let chunk_events = chunks
            .iter()
            .map(Chunk::len)
            .max()
            .unwrap_or(DEFAULT_CHUNK_EVENTS)
            .max(1);
        Ok(TraceBuffer {
            chunk_events,
            chunks,
            spare: Vec::new(),
            len,
        })
    }
}

impl TraceSink for TraceBuffer {
    fn exec(&mut self, pc: u64, op: MicroOp) {
        self.push(pc, op);
    }

    fn exec_batch(&mut self, batch: &[TraceEvent]) {
        for event in batch {
            self.push(event.pc, event.op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CountingSink, MixSink};

    fn all_op_shapes() -> Vec<MicroOp> {
        let mut ops = vec![
            MicroOp::Int {
                purpose: IntPurpose::IntAddr,
            },
            MicroOp::Int {
                purpose: IntPurpose::FpAddr,
            },
            MicroOp::Int {
                purpose: IntPurpose::Other,
            },
            MicroOp::Fp,
            MicroOp::Load {
                addr: 0xDEAD_BEEF,
                size: 8,
            },
            MicroOp::Store {
                addr: u64::MAX,
                size: 1,
            },
        ];
        for kind in [
            BranchKind::Conditional,
            BranchKind::Direct,
            BranchKind::Indirect,
            BranchKind::Call,
            BranchKind::Return,
        ] {
            for taken in [false, true] {
                ops.push(MicroOp::Branch {
                    taken,
                    target: 0x4000,
                    kind,
                });
            }
        }
        ops
    }

    #[test]
    fn every_op_shape_round_trips() {
        for op in all_op_shapes() {
            let (kind, arg, aux) = encode(op);
            assert_eq!(decode(kind, arg, aux), op, "round-trip failed for {op:?}");
        }
    }

    #[test]
    fn record_then_events_preserves_order_across_chunks() {
        let ops = all_op_shapes();
        // Chunk capacity 3 forces several boundary crossings.
        let mut buffer = TraceBuffer::with_chunk_capacity(3);
        for (i, &op) in ops.iter().enumerate() {
            buffer.exec(i as u64 * 4, op);
        }
        assert_eq!(buffer.len(), ops.len() as u64);
        let replayed: Vec<TraceEvent> = buffer.events().collect();
        assert_eq!(replayed.len(), ops.len());
        for (i, (event, &op)) in replayed.iter().zip(&ops).enumerate() {
            assert_eq!(event.pc, i as u64 * 4);
            assert_eq!(event.op, op);
        }
    }

    #[test]
    fn replay_matches_direct_streaming() {
        let ops = all_op_shapes();
        let mut direct = MixSink::new();
        let mut buffer = TraceBuffer::with_chunk_capacity(4);
        for (i, &op) in ops.iter().enumerate() {
            direct.exec(i as u64 * 4, op);
            buffer.exec(i as u64 * 4, op);
        }
        let mut replayed = MixSink::new();
        buffer.replay_into(&mut replayed);
        assert_eq!(replayed.mix(), direct.mix());
    }

    #[test]
    fn chunk_boundary_cases() {
        // Empty, exactly one chunk, and chunk+1.
        for events in [0usize, 4, 5] {
            let mut buffer = TraceBuffer::with_chunk_capacity(4);
            for i in 0..events {
                buffer.exec(i as u64, MicroOp::Fp);
            }
            let mut count = CountingSink::new();
            buffer.replay_into(&mut count);
            assert_eq!(count.ops(), events as u64, "replay at {events} events");
            assert_eq!(buffer.len(), events as u64);
            assert_eq!(buffer.is_empty(), events == 0);
        }
    }

    #[test]
    fn clear_retains_capacity_and_replays_fresh_recording() {
        let mut buffer = TraceBuffer::with_chunk_capacity(2);
        for i in 0..5u64 {
            buffer.exec(i, MicroOp::Fp);
        }
        buffer.clear();
        assert!(buffer.is_empty());
        // Re-record something different; stale events must not leak.
        buffer.exec(0, MicroOp::Load { addr: 8, size: 8 });
        let mut mix = MixSink::new();
        buffer.replay_into(&mut mix);
        assert_eq!(mix.mix().loads, 1);
        assert_eq!(mix.mix().fp, 0);
        assert_eq!(buffer.len(), 1);
    }

    #[test]
    fn spill_load_round_trip_is_byte_stable_and_replay_identical() {
        let ops = all_op_shapes();
        let mut buffer = TraceBuffer::with_chunk_capacity(3);
        for (i, &op) in ops.iter().enumerate() {
            buffer.exec(i as u64 * 4, op);
        }
        let bytes = buffer.spill().unwrap();
        let loaded = TraceBuffer::load(&bytes).unwrap();
        assert_eq!(loaded.len(), buffer.len());
        // Replay equality, event for event.
        let a: Vec<TraceEvent> = buffer.events().collect();
        let b: Vec<TraceEvent> = loaded.events().collect();
        assert_eq!(a, b);
        // Chunk structure survives, so re-spilling is byte-identical.
        assert_eq!(loaded.spill().unwrap(), bytes);
        // Replay through a sink matches too.
        let (mut orig, mut resp) = (MixSink::new(), MixSink::new());
        buffer.replay_into(&mut orig);
        loaded.replay_into(&mut resp);
        assert_eq!(orig.mix(), resp.mix());
    }

    #[test]
    fn spill_of_empty_buffer_loads_empty() {
        let buffer = TraceBuffer::new();
        let bytes = buffer.spill().unwrap();
        assert!(bytes.is_empty());
        let loaded = TraceBuffer::load(&bytes).unwrap();
        assert!(loaded.is_empty());
    }

    #[test]
    fn damaged_spill_is_a_clean_error_never_a_panic() {
        let mut buffer = TraceBuffer::with_chunk_capacity(4);
        for i in 0..10u64 {
            buffer.exec(
                i * 4,
                MicroOp::Load {
                    addr: i * 64,
                    size: 8,
                },
            );
        }
        let bytes = buffer.spill().unwrap();
        // Record boundaries are the only cuts that decode (as a shorter
        // trace); truncation anywhere else fails cleanly.
        let boundaries: Vec<usize> = {
            let mut at = vec![0usize];
            let mut offset = 0;
            while offset < bytes.len() {
                let (_, _, consumed) = bdb_codec::decode_record_prefix(&bytes[offset..]).unwrap();
                offset += consumed;
                at.push(offset);
            }
            at
        };
        assert!(boundaries.len() > 2, "want several chunks under test");
        for cut in 0..bytes.len() {
            let result = TraceBuffer::load(&bytes[..cut]);
            if boundaries.contains(&cut) {
                assert!(result.is_ok(), "boundary cut {cut} is a valid prefix");
            } else {
                assert!(result.is_err(), "mid-record cut {cut} must fail");
            }
        }
        // Any single bit flip is detected.
        for bit in (0..bytes.len() * 8).step_by(7) {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(TraceBuffer::load(&bad).is_err(), "bit {bit} undetected");
        }
    }

    #[test]
    #[should_panic(expected = "chunk capacity must be positive")]
    fn zero_chunk_capacity_panics() {
        let _ = TraceBuffer::with_chunk_capacity(0);
    }
}
