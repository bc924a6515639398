//! Columnar trace-chunk records: the compression workhorse of the
//! binary format.
//!
//! A trace chunk is four parallel columns (`pc`, `arg`, `kind`, `aux`)
//! straight out of `TraceBuffer`'s structure-of-arrays layout. Program
//! counters and data addresses are strongly local, so delta + zigzag +
//! varint collapses them to ~1–2 bytes each; kind/aux bytes run in long
//! streaks, so run-length encoding collapses them further. This is where
//! the ≥10x frame-size win over canonical JSON comes from.
//!
//! ```text
//! payload := varint n-events, column(pc) column(arg) column(kind) column(aux)
//! column  := u8 column-id, u8 encoding, varint byte-len, byte-len × byte
//! ```
//!
//! Columns appear in fixed id order (0..=3), so the payload is canonical.
//! Encodings:
//!
//! * `0` plain — u64 columns as `n × 8` LE bytes, u8 columns as `n`
//!   bytes. Plain sections are read zero-copy from the borrowed payload
//!   ([`TraceChunkView`]), byte-at-a-time via `from_le_bytes`, so they
//!   are alignment-safe on a memory-mapped file.
//! * `1` delta — u64 only: zigzag varints of successive differences
//!   (first value is its own delta from 0).
//! * `2` rle — u8 only: `(varint run-length ≥ 1, u8 value)` pairs
//!   covering exactly `n` entries.
//! * `3` streams — the `arg` column only: `(varint zero-gap, zigzag
//!   varint delta)` pairs, one per **non-zero** value, in index order.
//!   The gap counts zero entries since the previous pair; positions
//!   after the last pair are zero. Each delta is against the previous
//!   non-zero value with the *same kind byte*, so the interleaved
//!   per-stream address sequences (loads, stores, branch targets) each
//!   keep their own locality instead of destroying each other's deltas.
//!   Zero args (the compute ops) cost nothing.
//! * `4` packed — u8 only: `u8 dict-len, dict-len × u8 dictionary (in
//!   first-occurrence order), ⌈n·bits/8⌉ bytes of LSB-first bit-packed
//!   dictionary indices` where `bits = ⌈log2(dict-len)⌉` (zero for a
//!   single-symbol column). Mixed kind/aux streams that defeat RLE
//!   still pack to a fraction of a byte per event.
//!
//! The encoder computes every candidate and keeps the smallest (first
//! wins ties, in the order plain, delta/rle, streams/packed), so the
//! choice is deterministic in the data.

use crate::varint::{read_varint, unzigzag, write_varint, zigzag};
use crate::{decode_record, encode_record, json, CodecError, RecordKind};

const ENC_PLAIN: u8 = 0;
const ENC_DELTA: u8 = 1;
const ENC_RLE: u8 = 2;
const ENC_STREAMS: u8 = 3;
const ENC_PACKED: u8 = 4;

/// Owned trace-chunk columns (the decode target, and the JSON
/// interchange shape).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceChunkColumns {
    /// Program counter per event.
    pub pc: Vec<u64>,
    /// Primary argument (address or operand) per event.
    pub arg: Vec<u64>,
    /// Micro-op kind code per event.
    pub kind: Vec<u8>,
    /// Auxiliary byte per event.
    pub aux: Vec<u8>,
}

impl TraceChunkColumns {
    /// Number of events in the chunk.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }
}

/// Encodes four parallel columns as a complete BDBC `TraceChunk` record.
pub fn encode_trace_chunk(
    pc: &[u64],
    arg: &[u64],
    kind: &[u8],
    aux: &[u8],
) -> Result<Vec<u8>, CodecError> {
    let n = pc.len();
    if arg.len() != n || kind.len() != n || aux.len() != n {
        return Err(CodecError::Malformed(format!(
            "column lengths diverge: pc {n}, arg {}, kind {}, aux {}",
            arg.len(),
            kind.len(),
            aux.len()
        )));
    }
    let mut payload = Vec::new();
    write_varint(n as u64, &mut payload);
    write_u64_column(0, pc, None, &mut payload);
    write_u64_column(1, arg, Some(kind), &mut payload);
    write_u8_column(2, kind, &mut payload);
    write_u8_column(3, aux, &mut payload);
    Ok(encode_record(RecordKind::TraceChunk, &payload))
}

fn write_u64_column(id: u8, values: &[u64], streams_key: Option<&[u8]>, out: &mut Vec<u8>) {
    let mut delta = Vec::new();
    let mut prev = 0u64;
    for &v in values {
        write_varint(zigzag(v.wrapping_sub(prev) as i64), &mut delta);
        prev = v;
    }
    let mut best = (ENC_DELTA, delta);
    if best.1.len() >= values.len() * 8 {
        let mut plain = Vec::with_capacity(values.len() * 8);
        for &v in values {
            plain.extend_from_slice(&v.to_le_bytes());
        }
        best = (ENC_PLAIN, plain);
    }
    if let Some(keys) = streams_key {
        let streams = encode_streams(values, keys);
        if streams.len() < best.1.len() {
            best = (ENC_STREAMS, streams);
        }
    }
    write_section(id, best.0, &best.1, out);
}

/// The `streams` candidate: one `(zero-gap, per-stream zigzag delta)`
/// pair per non-zero value, deltas keyed by the parallel kind byte.
fn encode_streams(values: &[u64], keys: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut prevs = [0u64; 256];
    let mut zeros = 0u64;
    for (&v, &k) in values.iter().zip(keys) {
        if v == 0 {
            zeros += 1;
            continue;
        }
        write_varint(zeros, &mut out);
        zeros = 0;
        let prev = prevs[usize::from(k)];
        write_varint(zigzag(v.wrapping_sub(prev) as i64), &mut out);
        prevs[usize::from(k)] = v;
    }
    out
}

fn write_u8_column(id: u8, values: &[u8], out: &mut Vec<u8>) {
    let mut rle = Vec::new();
    let mut run = values.iter().copied();
    if let Some(mut current) = run.next() {
        let mut count = 1u64;
        for b in run {
            if b == current {
                count += 1;
            } else {
                write_varint(count, &mut rle);
                rle.push(current);
                current = b;
                count = 1;
            }
        }
        write_varint(count, &mut rle);
        rle.push(current);
    }
    let mut best = if rle.len() < values.len() {
        (ENC_RLE, rle)
    } else {
        (ENC_PLAIN, values.to_vec())
    };
    let packed = encode_packed(values);
    if packed.len() < best.1.len() {
        best = (ENC_PACKED, packed);
    }
    write_section(id, best.0, &best.1, out);
}

/// The `packed` candidate: dictionary (first-occurrence order) plus
/// LSB-first bit-packed indices at `⌈log2(dict len)⌉` bits each.
fn encode_packed(values: &[u8]) -> Vec<u8> {
    let mut dict: Vec<u8> = Vec::new();
    let mut index = [0u8; 256];
    for &v in values {
        if !dict.contains(&v) {
            if dict.len() == 255 {
                // No u8 slot for a 256th symbol — and at 8 bits per
                // index the candidate can never beat plain anyway.
                return values.to_vec();
            }
            index[usize::from(v)] = dict.len() as u8;
            dict.push(v);
        }
    }
    let bits = packed_bits(dict.len());
    let mut out = vec![dict.len() as u8];
    out.extend_from_slice(&dict);
    if bits > 0 {
        let mut acc = 0u32;
        let mut filled = 0u32;
        for &v in values {
            acc |= u32::from(index[usize::from(v)]) << filled;
            filled += bits;
            while filled >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                filled -= 8;
            }
        }
        if filled > 0 {
            out.push((acc & 0xff) as u8);
        }
    }
    out
}

/// Bits per packed index for a dictionary of `len` symbols (0 when one
/// symbol covers the whole column).
fn packed_bits(len: usize) -> u32 {
    match len {
        0 | 1 => 0,
        n => (usize::BITS - (n - 1).leading_zeros()).max(1),
    }
}

fn write_section(id: u8, encoding: u8, data: &[u8], out: &mut Vec<u8>) {
    out.push(id);
    out.push(encoding);
    write_varint(data.len() as u64, out);
    out.extend_from_slice(data);
}

/// A zero-copy, alignment-safe view over a trace-chunk *payload* (the
/// container must already be unwrapped via [`crate::decode_record`]).
/// Column sections stay borrowed; iteration decodes lazily.
#[derive(Debug, Clone, Copy)]
pub struct TraceChunkView<'a> {
    n: usize,
    pc: Section<'a>,
    arg: Section<'a>,
    kind: Section<'a>,
    aux: Section<'a>,
}

#[derive(Debug, Clone, Copy)]
struct Section<'a> {
    encoding: u8,
    data: &'a [u8],
}

impl<'a> TraceChunkView<'a> {
    /// Parses and fully validates a trace-chunk payload. After `parse`
    /// succeeds, every iterator below yields exactly `len()` items.
    pub fn parse(payload: &'a [u8]) -> Result<Self, CodecError> {
        let mut pos = 0usize;
        let n64 = read_varint(payload, &mut pos)?;
        let n = usize::try_from(n64).map_err(|_| CodecError::Truncated { at: pos })?;
        let pc = read_section(payload, &mut pos, 0)?;
        let arg = read_section(payload, &mut pos, 1)?;
        let kind = read_section(payload, &mut pos, 2)?;
        let aux = read_section(payload, &mut pos, 3)?;
        if pos != payload.len() {
            return Err(CodecError::TrailingBytes { at: pos });
        }
        let view = TraceChunkView {
            n,
            pc,
            arg,
            kind,
            aux,
        };
        view.validate()?;
        Ok(view)
    }

    fn validate(&self) -> Result<(), CodecError> {
        for (name, section) in [("pc", self.pc), ("arg", self.arg)] {
            match section.encoding {
                ENC_PLAIN if section.data.len() == self.n * 8 => {}
                ENC_PLAIN => {
                    return Err(CodecError::Malformed(format!(
                        "plain {name} column holds {} bytes for {} events",
                        section.data.len(),
                        self.n
                    )))
                }
                ENC_DELTA => {
                    let mut pos = 0usize;
                    for _ in 0..self.n {
                        read_varint(section.data, &mut pos)?;
                    }
                    if pos != section.data.len() {
                        return Err(CodecError::TrailingBytes { at: pos });
                    }
                }
                ENC_STREAMS if name == "arg" => {
                    // Pairs must parse, land on strictly increasing
                    // positions inside the chunk, and consume exactly
                    // the section.
                    let mut pos = 0usize;
                    let mut covered = 0u64;
                    while pos < section.data.len() {
                        let gap = read_varint(section.data, &mut pos)?;
                        read_varint(section.data, &mut pos)?;
                        covered = covered
                            .checked_add(gap)
                            .and_then(|c| c.checked_add(1))
                            .ok_or(CodecError::Malformed(
                                "arg stream pairs overflow the chunk".to_owned(),
                            ))?;
                    }
                    if covered > self.n as u64 {
                        return Err(CodecError::Malformed(format!(
                            "arg stream pairs cover {covered} of {} events",
                            self.n
                        )));
                    }
                }
                other => {
                    return Err(CodecError::Malformed(format!(
                        "u64 column {name} has unknown encoding {other}"
                    )))
                }
            }
        }
        for (name, section) in [("kind", self.kind), ("aux", self.aux)] {
            match section.encoding {
                ENC_PLAIN if section.data.len() == self.n => {}
                ENC_PLAIN => {
                    return Err(CodecError::Malformed(format!(
                        "plain {name} column holds {} bytes for {} events",
                        section.data.len(),
                        self.n
                    )))
                }
                ENC_RLE => {
                    let mut pos = 0usize;
                    let mut covered = 0u64;
                    while pos < section.data.len() {
                        let run = read_varint(section.data, &mut pos)?;
                        if run == 0 {
                            return Err(CodecError::Malformed(format!(
                                "zero-length run in {name} column"
                            )));
                        }
                        if section.data.get(pos).is_none() {
                            return Err(CodecError::Truncated { at: pos });
                        }
                        pos += 1;
                        covered = covered.saturating_add(run);
                    }
                    if covered != self.n as u64 {
                        return Err(CodecError::Malformed(format!(
                            "{name} runs cover {covered} of {} events",
                            self.n
                        )));
                    }
                }
                ENC_PACKED => {
                    let &dict_len = section
                        .data
                        .first()
                        .ok_or(CodecError::Truncated { at: 0 })?;
                    let dict_len = usize::from(dict_len);
                    if dict_len == 0 && self.n > 0 {
                        return Err(CodecError::Malformed(format!(
                            "packed {name} column has an empty dictionary"
                        )));
                    }
                    let bits = packed_bits(dict_len) as usize;
                    let expected = 1 + dict_len + (self.n * bits).div_ceil(8);
                    if section.data.len() != expected {
                        return Err(CodecError::Malformed(format!(
                            "packed {name} column holds {} bytes where {expected} \
                             were expected",
                            section.data.len()
                        )));
                    }
                    if bits > 0 {
                        let packed = &section.data[1 + dict_len..];
                        for i in 0..self.n {
                            if usize::from(read_packed_index(packed, i, bits as u32)) >= dict_len {
                                return Err(CodecError::Malformed(format!(
                                    "packed {name} index out of dictionary range"
                                )));
                            }
                        }
                    }
                }
                other => {
                    return Err(CodecError::Malformed(format!(
                        "u8 column {name} has unknown encoding {other}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Number of events in the chunk.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Lazy iterator over the `pc` column.
    pub fn pc(&self) -> U64Column<'a> {
        U64Column::new(self.pc, self.n, None)
    }

    /// Lazy iterator over the `arg` column. A stream-encoded `arg`
    /// column is keyed by the kind column, so this iterator walks both
    /// in lockstep (still lazy, still borrowed).
    pub fn arg(&self) -> U64Column<'a> {
        let keys = (self.arg.encoding == ENC_STREAMS).then(|| U8Column::new(self.kind, self.n));
        U64Column::new(self.arg, self.n, keys)
    }

    /// Lazy iterator over the `kind` column.
    pub fn kind(&self) -> U8Column<'a> {
        U8Column::new(self.kind, self.n)
    }

    /// Lazy iterator over the `aux` column.
    pub fn aux(&self) -> U8Column<'a> {
        U8Column::new(self.aux, self.n)
    }

    /// Materializes all four columns.
    pub fn to_columns(&self) -> TraceChunkColumns {
        TraceChunkColumns {
            pc: self.pc().collect(),
            arg: self.arg().collect(),
            kind: self.kind().collect(),
            aux: self.aux().collect(),
        }
    }
}

/// Lazy decoder for one u64 column (validated at parse time, so
/// iteration is infallible).
pub struct U64Column<'a> {
    section: Section<'a>,
    pos: usize,
    acc: u64,
    remaining: usize,
    /// Stream-encoded columns only: the parallel kind column, walked in
    /// lockstep, plus one delta accumulator per stream key and the
    /// count of zeros still owed before the next stored pair (`None`
    /// once the pairs are exhausted).
    keys: Option<U8Column<'a>>,
    prevs: Vec<u64>,
    gap: Option<u64>,
}

impl<'a> U64Column<'a> {
    fn new(section: Section<'a>, n: usize, keys: Option<U8Column<'a>>) -> Self {
        let mut column = U64Column {
            section,
            pos: 0,
            acc: 0,
            remaining: n,
            keys,
            prevs: Vec::new(),
            gap: None,
        };
        if section.encoding == ENC_STREAMS {
            column.prevs = vec![0u64; 256];
            if !section.data.is_empty() {
                column.gap = read_varint(section.data, &mut column.pos).ok();
            }
        }
        column
    }
}

impl Iterator for U64Column<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.section.encoding {
            ENC_PLAIN => {
                let end = self.pos + 8;
                let chunk = self.section.data.get(self.pos..end)?;
                self.pos = end;
                let mut raw = [0u8; 8];
                raw.copy_from_slice(chunk);
                Some(u64::from_le_bytes(raw))
            }
            ENC_STREAMS => {
                let key = usize::from(self.keys.as_mut()?.next()?);
                match self.gap.as_mut() {
                    None => Some(0),
                    Some(0) => {
                        let delta = read_varint(self.section.data, &mut self.pos).ok()?;
                        let value = self.prevs[key].wrapping_add(unzigzag(delta) as u64);
                        self.prevs[key] = value;
                        self.gap = if self.pos < self.section.data.len() {
                            Some(read_varint(self.section.data, &mut self.pos).ok()?)
                        } else {
                            None
                        };
                        Some(value)
                    }
                    Some(zeros) => {
                        *zeros -= 1;
                        Some(0)
                    }
                }
            }
            _ => {
                let delta = read_varint(self.section.data, &mut self.pos).ok()?;
                self.acc = self.acc.wrapping_add(unzigzag(delta) as u64);
                Some(self.acc)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Lazy decoder for one u8 column (validated at parse time, so iteration
/// is infallible).
pub struct U8Column<'a> {
    section: Section<'a>,
    pos: usize,
    run_value: u8,
    run_left: u64,
    /// Packed columns only: the next index position in the bit stream.
    idx: usize,
    remaining: usize,
}

impl<'a> U8Column<'a> {
    fn new(section: Section<'a>, n: usize) -> Self {
        U8Column {
            section,
            pos: 0,
            run_value: 0,
            run_left: 0,
            idx: 0,
            remaining: n,
        }
    }
}

impl Iterator for U8Column<'_> {
    type Item = u8;

    fn next(&mut self) -> Option<u8> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.section.encoding {
            ENC_PLAIN => {
                let b = self.section.data.get(self.pos).copied()?;
                self.pos += 1;
                Some(b)
            }
            ENC_PACKED => {
                let data = self.section.data;
                let dict_len = usize::from(*data.first()?);
                let bits = packed_bits(dict_len);
                if bits == 0 {
                    return data.get(1).copied();
                }
                let dict = data.get(1..1 + dict_len)?;
                let packed = data.get(1 + dict_len..)?;
                let index = read_packed_index(packed, self.idx, bits);
                self.idx += 1;
                dict.get(usize::from(index)).copied()
            }
            _ => {
                if self.run_left == 0 {
                    self.run_left = read_varint(self.section.data, &mut self.pos).ok()?;
                    self.run_value = self.section.data.get(self.pos).copied()?;
                    self.pos += 1;
                }
                self.run_left -= 1;
                Some(self.run_value)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Reads the `i`-th `bits`-wide LSB-first index from a packed bit
/// stream (`bits` ≤ 8, so the window spans at most two bytes).
fn read_packed_index(packed: &[u8], i: usize, bits: u32) -> u8 {
    let bit = i * bits as usize;
    let byte = bit / 8;
    let shift = (bit % 8) as u32;
    let mut word = u32::from(packed.get(byte).copied().unwrap_or(0));
    word |= u32::from(packed.get(byte + 1).copied().unwrap_or(0)) << 8;
    ((word >> shift) & ((1u32 << bits) - 1)) as u8
}

fn read_section<'a>(
    payload: &'a [u8],
    pos: &mut usize,
    expected_id: u8,
) -> Result<Section<'a>, CodecError> {
    let &id = payload
        .get(*pos)
        .ok_or(CodecError::Truncated { at: *pos })?;
    if id != expected_id {
        return Err(CodecError::Malformed(format!(
            "column id {id} where {expected_id} was expected"
        )));
    }
    let &encoding = payload
        .get(*pos + 1)
        .ok_or(CodecError::Truncated { at: *pos + 1 })?;
    *pos += 2;
    let len = read_varint(payload, pos)?;
    let len = usize::try_from(len).map_err(|_| CodecError::Truncated { at: *pos })?;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= payload.len())
        .ok_or(CodecError::Truncated { at: *pos })?;
    let data = &payload[*pos..end];
    *pos = end;
    Ok(Section { encoding, data })
}

/// Decodes a complete BDBC `TraceChunk` record into owned columns.
pub fn decode_trace_chunk(record: &[u8]) -> Result<TraceChunkColumns, CodecError> {
    let (_, payload) = decode_record(record)?;
    Ok(TraceChunkView::parse(payload)?.to_columns())
}

/// The JSON interchange form of a trace chunk:
/// `{"n":…,"pc":[…],"arg":[…],"kind":[…],"aux":[…]}`.
pub fn trace_chunk_to_json(columns: &TraceChunkColumns) -> json::Value {
    let uints = |v: &[u64]| json::Value::Array(v.iter().map(|&x| json::Value::UInt(x)).collect());
    let bytes =
        |v: &[u8]| json::Value::Array(v.iter().map(|&x| json::Value::UInt(u64::from(x))).collect());
    json::Value::object(vec![
        ("n", json::Value::UInt(columns.len() as u64)),
        ("pc", uints(&columns.pc)),
        ("arg", uints(&columns.arg)),
        ("kind", bytes(&columns.kind)),
        ("aux", bytes(&columns.aux)),
    ])
}

/// Inverse of [`trace_chunk_to_json`], validating lengths and ranges.
pub fn trace_chunk_from_json(value: &json::Value) -> Result<TraceChunkColumns, CodecError> {
    let n = value
        .get("n")
        .and_then(json::Value::as_u64)
        .ok_or_else(|| CodecError::Malformed("trace chunk needs an `n` count".to_owned()))?;
    let u64s = |key: &str| -> Result<Vec<u64>, CodecError> {
        let items = value
            .get(key)
            .and_then(json::Value::as_array)
            .ok_or_else(|| CodecError::Malformed(format!("trace chunk needs a `{key}` array")))?;
        items
            .iter()
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| CodecError::Malformed(format!("non-integer in `{key}`")))
            })
            .collect()
    };
    let columns = TraceChunkColumns {
        pc: u64s("pc")?,
        arg: u64s("arg")?,
        kind: u64s("kind")?
            .into_iter()
            .map(|v| {
                u8::try_from(v).map_err(|_| CodecError::Malformed("kind byte > 255".to_owned()))
            })
            .collect::<Result<_, _>>()?,
        aux: u64s("aux")?
            .into_iter()
            .map(|v| {
                u8::try_from(v).map_err(|_| CodecError::Malformed("aux byte > 255".to_owned()))
            })
            .collect::<Result<_, _>>()?,
    };
    if columns.len() as u64 != n
        || columns.arg.len() != columns.len()
        || columns.kind.len() != columns.len()
        || columns.aux.len() != columns.len()
    {
        return Err(CodecError::Malformed(
            "trace chunk column lengths disagree with `n`".to_owned(),
        ));
    }
    Ok(columns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceChunkColumns {
        // Locality-shaped data: pc walks forward in small steps, args hit
        // a strided buffer, kind/aux run in streaks — like a real trace.
        let n = 1000usize;
        let mut columns = TraceChunkColumns::default();
        for i in 0..n {
            columns.pc.push(0x40_0000 + (i as u64) * 4);
            columns.arg.push(0x7f00_0000 + (i as u64) * 8);
            columns.kind.push((i / 100) as u8);
            columns.aux.push(8);
        }
        columns
    }

    fn encode(columns: &TraceChunkColumns) -> Vec<u8> {
        encode_trace_chunk(&columns.pc, &columns.arg, &columns.kind, &columns.aux).unwrap()
    }

    #[test]
    fn roundtrip_through_binary_and_json_is_lossless() {
        let columns = sample();
        let record = encode(&columns);
        assert_eq!(decode_trace_chunk(&record).unwrap(), columns);
        let via_json = trace_chunk_from_json(&trace_chunk_to_json(&columns)).unwrap();
        assert_eq!(
            encode(&via_json),
            record,
            "binary → JSON → binary must reproduce identical bytes"
        );
    }

    #[test]
    fn columnar_beats_json_by_an_order_of_magnitude() {
        let columns = sample();
        let record = encode(&columns);
        let json_len = trace_chunk_to_json(&columns).encode().len();
        assert!(
            record.len() * 10 <= json_len,
            "need ≥10x: binary {} vs JSON {json_len}",
            record.len()
        );
    }

    #[test]
    fn zero_copy_view_iterates_without_materializing() {
        let columns = sample();
        let record = encode(&columns);
        let (_, payload) = crate::decode_record(&record).unwrap();
        let view = TraceChunkView::parse(payload).unwrap();
        assert_eq!(view.len(), columns.len());
        assert!(view.pc().eq(columns.pc.iter().copied()));
        assert!(view.arg().eq(columns.arg.iter().copied()));
        assert!(view.kind().eq(columns.kind.iter().copied()));
        assert!(view.aux().eq(columns.aux.iter().copied()));
    }

    #[test]
    fn incompressible_columns_fall_back_to_plain() {
        // Pseudo-random data defeats delta and RLE; the encoder must
        // still round-trip via the plain sections.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 256usize;
        let mut columns = TraceChunkColumns::default();
        for _ in 0..n {
            columns.pc.push(next());
            columns.arg.push(next());
            columns.kind.push((next() & 0xff) as u8);
            columns.aux.push((next() & 0xff) as u8);
        }
        let record = encode(&columns);
        assert_eq!(decode_trace_chunk(&record).unwrap(), columns);
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let columns = TraceChunkColumns::default();
        let record = encode(&columns);
        assert_eq!(decode_trace_chunk(&record).unwrap(), columns);
    }

    #[test]
    fn mismatched_column_lengths_are_rejected() {
        assert!(encode_trace_chunk(&[1, 2], &[1], &[0, 0], &[0, 0]).is_err());
    }

    #[test]
    fn truncation_and_bit_flips_never_panic() {
        let record = encode(&sample());
        for cut in 0..record.len() {
            let _ = decode_trace_chunk(&record[..cut]);
        }
        for bit in (0..record.len() * 8).step_by(7) {
            let mut damaged = record.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_trace_chunk(&damaged).is_err(),
                "bit {bit} flip must be detected"
            );
        }
    }
}
