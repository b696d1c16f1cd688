//! Binary encoding of values, rows, and blocks.
//!
//! Blocks are stored *encoded* in the block store so every read pays a
//! realistic decode cost, and so the format is pinned: little-endian,
//! one tag byte per value. No external serialization framework — a
//! storage manager's on-disk format should be explicit.
//!
//! Two formats exist, distinguished by magic. The store writes every
//! block in the columnar `ADB2`; the original row-oriented `ADB1` is
//! still read (journals written before `ADB2` hold it) and is the
//! writer's fallback for row sets `ADB2` cannot lay out:
//!
//! ```text
//! block  := "ADB1" id(u32) row_count(u32) row*
//! row    := arity(u16) value*
//! value  := tag(u8) payload
//!   tag 0 = Int    payload i64 LE
//!   tag 1 = Double payload f64 bits LE
//!   tag 2 = Str    payload len(u32) + UTF-8 bytes
//!   tag 3 = Date   payload i32 LE
//!   tag 4 = Bool   payload u8
//! ```
//!
//! and `ADB2` ([`encode_block_columnar`]): a per-column directory
//! followed by contiguous per-column payloads, so a reader
//! can decode a single column — or a single row range — without
//! touching the rest of the block ([`LazyBlock`]):
//!
//! ```text
//! block     := "ADB2" id(u32) row_count(u32) col_count(u16)
//!              directory payloads
//! directory := col_count × [tag(u8) byte_len(u32)]
//! payload   := tag 0   Int    8×rows bytes, i64 LE each
//!              tag 1   Double 8×rows bytes, f64 bits LE each
//!              tag 2   Str    per cell len(u32) + UTF-8 bytes
//!              tag 3   Date   4×rows bytes, i32 LE each
//!              tag 4   Bool   1×rows bytes
//!              tag 255 Mixed  per cell ADB1 value encoding
//! ```
//!
//! A typed cell's payload is its `ADB1` value payload without the
//! tag. `Mixed` columns (heterogeneous cell types) and ragged or
//! arity-0 row sets (which fall back to whole-block `ADB1`) keep the
//! columnar writer lossless for any input [`decode_block`] accepts.

use std::sync::Arc;

use adaptdb_common::{ColumnVec, Error, Result, Row, Value, ValueType};
use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::block::Block;

/// Magic prefix of a row-oriented (`ADB1`) encoded block.
pub const BLOCK_MAGIC: &[u8; 4] = b"ADB1";

/// Magic prefix of a columnar (`ADB2`) encoded block.
pub const BLOCK_MAGIC_V2: &[u8; 4] = b"ADB2";

/// Directory tag of a heterogeneous (`Mixed`) column in `ADB2`.
const COL_TAG_MIXED: u8 = 255;

/// Append the encoding of one value: its tag, then its payload.
pub fn encode_value(buf: &mut BytesMut, v: &Value) {
    buf.put_u8(value_tag(v.value_type()));
    encode_payload(buf, v);
}

/// The tag byte of a value type, shared by `ADB1` values and `ADB2`
/// typed column directories.
fn value_tag(t: ValueType) -> u8 {
    match t {
        ValueType::Int => 0,
        ValueType::Double => 1,
        ValueType::Str => 2,
        ValueType::Date => 3,
        ValueType::Bool => 4,
    }
}

/// Append one value's payload without its tag. The payload is exactly
/// [`Value::byte_size`] bytes long.
fn encode_payload(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Int(x) => buf.put_i64_le(*x),
        Value::Double(x) => buf.put_u64_le(x.to_bits()),
        Value::Str(s) => {
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Date(d) => buf.put_i32_le(*d),
        Value::Bool(b) => buf.put_u8(*b as u8),
    }
}

/// Decode one value (tag, then payload), advancing `buf`.
pub fn decode_value(buf: &mut Bytes) -> Result<Value> {
    if buf.remaining() < 1 {
        return Err(Error::Codec("truncated value tag".into()));
    }
    let tag = buf.get_u8();
    decode_payload(tag, buf)
}

/// Decode one tagless payload of the value type `tag`, advancing `buf`
/// — an `ADB1` value after its tag, or one cell of a typed `ADB2`
/// column.
fn decode_payload(tag: u8, buf: &mut Bytes) -> Result<Value> {
    if let Some(w) = fixed_width(tag) {
        if buf.remaining() < w {
            return Err(Error::Codec(format!("truncated payload of value tag {tag}")));
        }
        let v = fixed_cell(tag, buf);
        buf.advance(w);
        return Ok(v);
    }
    if tag != 2 {
        return Err(Error::Codec(format!("unknown value tag {tag}")));
    }
    if buf.remaining() < 4 {
        return Err(Error::Codec("truncated Str length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(Error::Codec("truncated Str payload".into()));
    }
    let bytes = buf.split_to(len);
    let s = std::str::from_utf8(&bytes)
        .map_err(|e| Error::Codec(format!("invalid UTF-8 in Str: {e}")))?;
    Ok(Value::Str(s.to_string()))
}

/// Payload width of a fixed-width value tag (Int, Double, Date, Bool);
/// `None` for Str and unknown tags.
fn fixed_width(tag: u8) -> Option<usize> {
    match tag {
        0 | 1 => Some(8),
        3 => Some(4),
        4 => Some(1),
        _ => None,
    }
}

/// Decode the fixed-width payload of value tag `tag` at the front of
/// `b`, which must hold at least [`fixed_width`] bytes.
fn fixed_cell(tag: u8, b: &[u8]) -> Value {
    let word = || b[..8].try_into().expect("an 8-byte slice");
    match tag {
        0 => Value::Int(i64::from_le_bytes(word())),
        1 => Value::Double(f64::from_le_bytes(word())),
        3 => Value::Date(i32::from_le_bytes(b[..4].try_into().expect("a 4-byte slice"))),
        _ => Value::Bool(b[0] != 0),
    }
}

/// Decode one cell of an `ADB2` column with directory tag `tag`: a
/// tagless payload in a typed column, a whole `ADB1` value in a Mixed
/// one.
fn decode_cell(tag: u8, buf: &mut Bytes) -> Result<Value> {
    if tag == COL_TAG_MIXED {
        decode_value(buf)
    } else {
        decode_payload(tag, buf)
    }
}

/// Skip one cell (see [`decode_cell`]) without materializing it — how
/// the lazy reader walks variable-width payloads past unselected cells.
fn skip_cell(tag: u8, buf: &mut Bytes) -> Result<()> {
    let tag = if tag == COL_TAG_MIXED {
        if buf.remaining() < 1 {
            return Err(Error::Codec("truncated value tag".into()));
        }
        buf.get_u8()
    } else {
        tag
    };
    let len = match (fixed_width(tag), tag) {
        (Some(w), _) => w,
        (None, 2) if buf.remaining() >= 4 => buf.get_u32_le() as usize,
        (None, 2) => return Err(Error::Codec("truncated Str length".into())),
        _ => return Err(Error::Codec(format!("unknown value tag {tag}"))),
    };
    if buf.remaining() < len {
        return Err(Error::Codec("truncated value payload".into()));
    }
    buf.advance(len);
    Ok(())
}

/// Append the encoding of one row.
pub fn encode_row(buf: &mut BytesMut, row: &Row) {
    buf.put_u16_le(row.arity() as u16);
    for v in row.values() {
        encode_value(buf, v);
    }
}

/// Decode one row, advancing `buf`.
pub fn decode_row(buf: &mut Bytes) -> Result<Row> {
    if buf.remaining() < 2 {
        return Err(Error::Codec("truncated row arity".into()));
    }
    let arity = buf.get_u16_le() as usize;
    // Cap the preallocation by what the buffer can possibly hold (the
    // smallest value is 2 bytes): a corrupt arity must fail with a
    // truncation error, not allocate first.
    let mut values = Vec::with_capacity(arity.min(buf.remaining() / 2));
    for _ in 0..arity {
        values.push(decode_value(buf)?);
    }
    Ok(Row::new(values))
}

/// Encode a whole block.
pub fn encode_block(block: &Block) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + block.rows.len() * 32);
    buf.put_slice(BLOCK_MAGIC);
    buf.put_u32_le(block.id);
    buf.put_u32_le(block.rows.len() as u32);
    for row in &block.rows {
        encode_row(&mut buf, row);
    }
    buf.freeze()
}

/// Decode a whole block in either format (dispatches on magic).
pub fn decode_block(buf: Bytes) -> Result<Block> {
    if buf.remaining() >= 4 && &buf[0..4] == BLOCK_MAGIC_V2 {
        return LazyBlock::parse(buf)?.into_block();
    }
    decode_block_v1(buf)
}

/// Decode a row-oriented `ADB1` block.
fn decode_block_v1(mut buf: Bytes) -> Result<Block> {
    if buf.remaining() < 12 {
        return Err(Error::Codec("truncated block header".into()));
    }
    let magic = buf.split_to(4);
    if magic.as_ref() != BLOCK_MAGIC {
        return Err(Error::Codec("bad block magic".into()));
    }
    let id = buf.get_u32_le();
    let row_count = buf.get_u32_le() as usize;
    // The count is untrusted: cap the preallocation by the bytes that
    // are actually present (a row encodes to ≥ 2 bytes), so a
    // bit-flipped header cannot demand gigabytes before the first
    // truncation error.
    let mut rows = Vec::with_capacity(row_count.min(buf.remaining() / 2));
    for _ in 0..row_count {
        rows.push(decode_row(&mut buf)?);
    }
    if buf.has_remaining() {
        return Err(Error::Codec(format!("{} trailing bytes after block", buf.remaining())));
    }
    Ok(Block::new(id, rows))
}

/// Encode a block columnar (`ADB2`), writing each column's payload
/// straight from the rows into one buffer. Ragged row sets (mixed
/// arity) cannot be laid out column-major, and arity-0 rows carry no
/// columns to keep their count in, so both fall back to whole-block
/// `ADB1` — [`decode_block`] dispatches on magic, making the fallback
/// invisible to readers.
pub fn encode_block_columnar(block: &Block) -> Bytes {
    let rows = &block.rows;
    let arity = rows.first().map_or(0, Row::arity);
    if (arity == 0 && !rows.is_empty()) || rows.iter().any(|r| r.arity() != arity) {
        return encode_block(block);
    }
    // A cell's payload is its `byte_size`, plus a tag byte in a Mixed
    // column: reserving for all-Mixed makes the buffer one allocation.
    let cells: usize = rows.iter().flat_map(Row::values).map(|v| v.byte_size() + 1).sum();
    let mut buf = BytesMut::with_capacity(14 + arity * 5 + cells);
    buf.put_slice(BLOCK_MAGIC_V2);
    buf.put_u32_le(block.id);
    buf.put_u32_le(rows.len() as u32);
    buf.put_u16_le(arity as u16);
    // Directory entries are patched in as each column's length is known.
    let dir_at = buf.len();
    for _ in 0..arity * 5 {
        buf.put_u8(0);
    }
    for a in 0..arity {
        // Typed when every cell shares the first cell's type, else Mixed.
        let t = rows[0].values()[a].value_type();
        let typed = rows.iter().all(|r| r.values()[a].value_type() == t);
        let start = buf.len();
        for r in rows {
            if typed {
                encode_payload(&mut buf, &r.values()[a]);
            } else {
                encode_value(&mut buf, &r.values()[a]);
            }
        }
        let len = (buf.len() - start) as u32;
        let entry = dir_at + a * 5;
        buf[entry] = if typed { value_tag(t) } else { COL_TAG_MIXED };
        buf[entry + 1..entry + 5].copy_from_slice(&len.to_le_bytes());
    }
    buf.freeze()
}

/// Location of one column's payload inside a lazy block.
#[derive(Debug, Clone, Copy)]
struct ColRegion {
    tag: u8,
    start: usize,
    end: usize,
}

/// The validated column directory of an `ADB2` block: where each
/// column's payload lives, plus enough framing (total encoded length,
/// payload offset) to re-attach the directory to the same encoded bytes
/// without re-validating them.
///
/// Blocks are immutable and block ids are never reused, so a directory
/// memoized per [`adaptdb_common::GlobalBlockId`] stays valid for the
/// block's whole lifetime — multi-column access paths that re-fetch a
/// block can skip the header/directory walk entirely
/// ([`LazyBlock::parse_with_directory`]). As a cheap guard the encoded
/// length is still checked; a mismatch falls back to a full parse.
#[derive(Debug)]
pub struct ColDirectory {
    rows: usize,
    cols: Vec<ColRegion>,
    /// Byte offset where column payloads begin (header + directory).
    payload_offset: usize,
    /// Total encoded length the directory was validated against.
    encoded_len: usize,
}

/// Payload of a parsed block that has *not* (necessarily) been
/// decoded to rows yet.
///
/// `ADB1` blocks decode eagerly at parse time — the row format offers
/// no partial access, and eager decoding keeps error behavior
/// identical to the pre-columnar read path. `ADB2` blocks only
/// validate the header and column directory; individual columns
/// ([`LazyBlock::column`]) and selected row ranges
/// ([`LazyBlock::gather_range`]) decode on demand, which is what makes
/// late materialization (decode the predicate columns, then only the
/// selected rows) cheap.
#[derive(Debug, Clone)]
pub struct LazyBlock {
    id: u32,
    inner: LazyInner,
}

#[derive(Debug, Clone)]
enum LazyInner {
    /// Row-format payload, fully decoded at parse time.
    Rows(Vec<Row>),
    /// Columnar payload: validated (possibly memoized) directory over
    /// undecoded payload bytes.
    Columnar { dir: Arc<ColDirectory>, bytes: Bytes },
}

impl LazyBlock {
    /// Parse an encoded block in either format. `ADB2` headers and
    /// directories are validated here (bad magic, truncation, length
    /// mismatches, trailing bytes); `ADB1` payloads are fully decoded,
    /// so any codec error in either format still surfaces at parse
    /// time or at first column access — never silently.
    pub fn parse(buf: Bytes) -> Result<LazyBlock> {
        LazyBlock::parse_with_directory(buf, None).map(|(lazy, _)| lazy)
    }

    /// Like [`LazyBlock::parse`], but reuse a memoized [`ColDirectory`]
    /// from an earlier parse of the *same* encoded block, skipping
    /// header and directory validation. Returns the freshly validated
    /// directory when the block is columnar and `memo` was not usable
    /// (so the caller can memoize it), `None` otherwise. A stale memo
    /// (encoded length mismatch) silently falls back to a full parse —
    /// correctness never depends on the memo.
    pub fn parse_with_directory(
        buf: Bytes,
        memo: Option<&Arc<ColDirectory>>,
    ) -> Result<(LazyBlock, Option<Arc<ColDirectory>>)> {
        if buf.remaining() >= 4 && &buf[0..4] == BLOCK_MAGIC_V2 {
            if let Some(dir) = memo {
                if buf.len() == dir.encoded_len {
                    let id = u32::from_le_bytes(buf[4..8].try_into().unwrap());
                    let bytes = buf.slice(dir.payload_offset..buf.len());
                    let inner = LazyInner::Columnar { dir: Arc::clone(dir), bytes };
                    return Ok((LazyBlock { id, inner }, None));
                }
            }
            let (lazy, dir) = LazyBlock::parse_columnar(buf)?;
            return Ok((lazy, Some(dir)));
        }
        let block = decode_block_v1(buf)?;
        Ok((LazyBlock { id: block.id, inner: LazyInner::Rows(block.rows) }, None))
    }

    fn parse_columnar(mut buf: Bytes) -> Result<(LazyBlock, Arc<ColDirectory>)> {
        let encoded_len = buf.remaining();
        if buf.remaining() < 14 {
            return Err(Error::Codec("truncated columnar block header".into()));
        }
        buf.advance(4); // magic, checked by the caller
        let id = buf.get_u32_le();
        let rows = buf.get_u32_le() as usize;
        let col_count = buf.get_u16_le() as usize;
        if buf.remaining() < col_count * 5 {
            return Err(Error::Codec("truncated column directory".into()));
        }
        let mut cols = Vec::with_capacity(col_count);
        let mut offset = 0usize;
        for _ in 0..col_count {
            let tag = buf.get_u8();
            let len = buf.get_u32_le() as usize;
            // Fixed-width payloads hold exactly `rows` cells; variable-
            // width ones at least `rows` minimal cells (a Str cell's
            // 4-byte length, a Mixed cell's tag + Bool). Every decoder
            // after this parse can then trust the row count.
            let (width, exact) = match (fixed_width(tag), tag) {
                (Some(w), _) => (w, true),
                (None, 2) => (4, false),
                (None, COL_TAG_MIXED) => (2, false),
                _ => return Err(Error::Codec(format!("unknown column tag {tag}"))),
            };
            if len < width * rows || (exact && len != width * rows) {
                return Err(Error::Codec(format!(
                    "column payload length {len} does not fit {rows} rows of tag {tag}"
                )));
            }
            cols.push(ColRegion { tag, start: offset, end: offset + len });
            offset += len;
        }
        if buf.remaining() != offset {
            return Err(Error::Codec(format!(
                "column payloads occupy {} bytes, directory claims {offset}",
                buf.remaining()
            )));
        }
        let dir = Arc::new(ColDirectory {
            rows,
            cols,
            payload_offset: encoded_len - buf.remaining(),
            encoded_len,
        });
        let lazy =
            LazyBlock { id, inner: LazyInner::Columnar { dir: Arc::clone(&dir), bytes: buf } };
        Ok((lazy, dir))
    }

    /// Block id carried in the encoding.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of rows in the block (known without decoding).
    pub fn row_count(&self) -> usize {
        match &self.inner {
            LazyInner::Rows(rows) => rows.len(),
            LazyInner::Columnar { dir, .. } => dir.rows,
        }
    }

    /// Number of columns. For row payloads this is the first row's
    /// arity (0 for an empty block) — columnar callers only see
    /// uniform-arity blocks, since ragged sets encode as `ADB1` *and*
    /// decode to the `Rows` variant.
    pub fn num_columns(&self) -> usize {
        match &self.inner {
            LazyInner::Rows(rows) => rows.first().map_or(0, Row::arity),
            LazyInner::Columnar { dir, .. } => dir.cols.len(),
        }
    }

    /// Decode a single column. For columnar payloads this touches only
    /// that column's bytes; for row payloads it projects the
    /// already-decoded rows (failing on ragged arity).
    pub fn column(&self, idx: usize) -> Result<ColumnVec> {
        match &self.inner {
            LazyInner::Rows(rows) => {
                let mut values = Vec::with_capacity(rows.len());
                for r in rows {
                    if idx >= r.arity() {
                        return Err(Error::Codec(format!(
                            "column {idx} out of range for arity-{} row",
                            r.arity()
                        )));
                    }
                    values.push(r.get(idx as adaptdb_common::AttrId).clone());
                }
                Ok(ColumnVec::from_values(values))
            }
            LazyInner::Columnar { dir, bytes } => match dir.cols.get(idx) {
                Some(col) => decode_column(col.tag, dir.rows, bytes.slice(col.start..col.end)),
                None => Err(Error::Codec(format!("column {idx} out of range"))),
            },
        }
    }

    /// Materialize rows `start..end` whose bit is set in the
    /// block-wide selection `sel`, in ascending row order. Fixed-width
    /// columns seek directly to each selected cell; variable-width
    /// columns (Str, Mixed) skip-walk their payload, advancing past
    /// unselected cells without allocating.
    pub fn gather_range(
        &self,
        start: usize,
        end: usize,
        sel: &adaptdb_common::BitSet,
    ) -> Result<Vec<Row>> {
        let n = self.row_count();
        assert!(start <= end && end <= n, "gather range {start}..{end} out of {n} rows");
        assert_eq!(sel.len(), n, "selection width mismatch");
        let picked: Vec<usize> = (start..end).filter(|&i| sel.get(i)).collect();
        match &self.inner {
            LazyInner::Rows(rows) => Ok(picked.iter().map(|&i| rows[i].clone()).collect()),
            LazyInner::Columnar { dir, bytes } => {
                let cols = &dir.cols;
                let mut out: Vec<Vec<Value>> =
                    picked.iter().map(|_| Vec::with_capacity(cols.len())).collect();
                for col in cols {
                    let mut payload = bytes.slice(col.start..col.end);
                    if let Some(w) = fixed_width(col.tag) {
                        // Fixed width: seek straight to each selected cell.
                        for (j, &i) in picked.iter().enumerate() {
                            out[j].push(fixed_cell(col.tag, &payload[i * w..]));
                        }
                        continue;
                    }
                    // Variable width: walk the payload, skipping
                    // unselected cells.
                    let mut next = picked.iter().zip(0..).peekable();
                    for i in 0..end {
                        match next.peek() {
                            Some(&(&p, j)) if p == i => {
                                out[j].push(decode_cell(col.tag, &mut payload)?);
                                next.next();
                            }
                            _ => skip_cell(col.tag, &mut payload)?,
                        }
                    }
                }
                Ok(picked.into_iter().zip(out).map(|(_, values)| Row::new(values)).collect())
            }
        }
    }

    /// Decode everything to a [`Block`] — the eager path, used by
    /// consumers that need whole rows (joins, repartitioning, spill
    /// fetch-back).
    pub fn into_block(self) -> Result<Block> {
        match self.inner {
            LazyInner::Rows(rows) => Ok(Block::new(self.id, rows)),
            LazyInner::Columnar { dir, bytes } => {
                // A zero-column block still carries a row count on the
                // wire; only rows == 0 survives that round trip.
                if dir.cols.is_empty() && dir.rows != 0 {
                    return Err(Error::Codec(format!("{} rows but no columns", dir.rows)));
                }
                // Cells move straight from each column's payload into
                // their rows: no intermediate column vectors.
                let mut rows: Vec<Vec<Value>> =
                    (0..dir.rows).map(|_| Vec::with_capacity(dir.cols.len())).collect();
                for col in &dir.cols {
                    let mut payload = bytes.slice(col.start..col.end);
                    for row in rows.iter_mut() {
                        row.push(decode_cell(col.tag, &mut payload)?);
                    }
                    if payload.has_remaining() {
                        return Err(Error::Codec("trailing bytes after column".into()));
                    }
                }
                Ok(Block::new(self.id, rows.into_iter().map(Row::new).collect()))
            }
        }
    }
}

/// Decode one full column payload.
fn decode_column(tag: u8, rows: usize, mut payload: Bytes) -> Result<ColumnVec> {
    match tag {
        0 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(payload.get_i64_le());
            }
            Ok(ColumnVec::Int(v))
        }
        1 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(f64::from_bits(payload.get_u64_le()));
            }
            Ok(ColumnVec::Double(v))
        }
        3 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(payload.get_i32_le());
            }
            Ok(ColumnVec::Date(v))
        }
        4 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(payload.get_u8() != 0);
            }
            Ok(ColumnVec::Bool(v))
        }
        2 => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                if let Value::Str(s) = decode_payload(2, &mut payload)? {
                    v.push(s);
                }
            }
            if payload.has_remaining() {
                return Err(Error::Codec("trailing bytes after Str column".into()));
            }
            Ok(ColumnVec::Str(v))
        }
        COL_TAG_MIXED => {
            let mut v = Vec::with_capacity(rows);
            for _ in 0..rows {
                v.push(decode_value(&mut payload)?);
            }
            if payload.has_remaining() {
                return Err(Error::Codec("trailing bytes after Mixed column".into()));
            }
            Ok(ColumnVec::Mixed(v))
        }
        other => Err(Error::Codec(format!("unknown column tag {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptdb_common::row;

    fn round_trip(block: Block) {
        let enc = encode_block(&block);
        let dec = decode_block(enc).unwrap();
        assert_eq!(dec, block);
    }

    #[test]
    fn block_round_trip_all_types() {
        round_trip(Block::new(
            7,
            vec![
                row![1i64, 2.5, "hello", true],
                Row::new(vec![Value::Date(19000), Value::Str(String::new())]),
            ],
        ));
    }

    #[test]
    fn empty_block_round_trip() {
        round_trip(Block::new(0, vec![]));
    }

    #[test]
    fn truncation_is_detected() {
        let enc = encode_block(&Block::new(1, vec![row![42i64]]));
        for cut in 1..enc.len() {
            let res = decode_block(enc.slice(0..cut));
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_slice(b"NOPE");
        raw.put_u32_le(0);
        raw.put_u32_le(0);
        assert!(matches!(decode_block(raw.freeze()), Err(Error::Codec(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let enc = encode_block(&Block::new(1, vec![]));
        let mut raw = BytesMut::from(enc.as_ref());
        raw.put_u8(0xFF);
        assert!(decode_block(raw.freeze()).is_err());
    }

    #[test]
    fn nan_double_round_trips_bitwise() {
        let block = Block::new(2, vec![Row::new(vec![Value::Double(f64::NAN)])]);
        let dec = decode_block(encode_block(&block)).unwrap();
        match dec.rows[0].get(0) {
            Value::Double(d) => assert!(d.is_nan()),
            other => panic!("expected Double, got {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut raw = BytesMut::new();
        raw.put_u8(9);
        let mut b = raw.freeze();
        assert!(decode_value(&mut b).is_err());
    }

    fn round_trip_columnar(block: Block) {
        let enc = encode_block_columnar(&block);
        // Universal decoder accepts it regardless of which magic the
        // encoder chose (ragged sets fall back to ADB1).
        let dec = decode_block(enc.clone()).unwrap();
        assert_eq!(dec, block);
        // The lazy path agrees.
        let lazy = LazyBlock::parse(enc).unwrap();
        assert_eq!(lazy.id(), block.id);
        assert_eq!(lazy.row_count(), block.rows.len());
        assert_eq!(lazy.into_block().unwrap(), block);
    }

    #[test]
    fn columnar_round_trip_all_types() {
        round_trip_columnar(Block::new(
            9,
            vec![
                row![1i64, 2.5, "hello", true],
                Row::new(vec![
                    Value::Int(-4),
                    Value::Double(f64::NAN),
                    Value::Str(String::new()),
                    Value::Bool(false),
                ]),
            ],
        ));
    }

    #[test]
    fn columnar_round_trip_mixed_and_date() {
        // Heterogeneous column 0 → Mixed payload; column 1 stays typed.
        round_trip_columnar(Block::new(
            3,
            vec![
                Row::new(vec![Value::Int(1), Value::Date(100)]),
                Row::new(vec![Value::Str("x".into()), Value::Date(200)]),
            ],
        ));
    }

    #[test]
    fn columnar_empty_block_round_trip() {
        round_trip_columnar(Block::new(0, vec![]));
    }

    #[test]
    fn ragged_rows_fall_back_to_adb1() {
        let block = Block::new(5, vec![row![1i64], row![1i64, 2i64]]);
        let enc = encode_block_columnar(&block);
        assert_eq!(&enc[0..4], BLOCK_MAGIC, "ragged arity must use the row format");
        round_trip_columnar(block);
    }

    #[test]
    fn columnar_magic_is_adb2() {
        let enc = encode_block_columnar(&Block::new(1, vec![row![7i64]]));
        assert_eq!(&enc[0..4], BLOCK_MAGIC_V2);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Byte-exact `ADB2` pins: the encoder writes each column straight
    /// from the rows, and these are the bytes the earlier
    /// batch-building encoder produced for the same blocks — so blocks
    /// written before and after it are indistinguishable.
    #[test]
    fn columnar_encoding_matches_golden_bytes() {
        let full = Block::new(
            0x0102_0304,
            vec![
                row![-2i64, 1.5, "ab", Value::Date(19000), true, 7i64],
                row![i64::MAX, f64::NAN, "", Value::Date(-1), false, "x"],
                row![0i64, -0.0, "é", Value::Date(0), true, 2.0],
            ],
        );
        let cases = [
            (
                full,
                "41444232040302010300000006000018000000011800000002100000000\
                 30c0000000403000000ff18000000feffffffffffffffffffffffffffff7f\
                 0000000000000000000000000000f83f000000000000f87f000000000000\
                 00800200000061620000000002000000c3a9384a0000ffffffff00000000\
                 010001000700000000000000020100000078010000000000000040",
            ),
            (Block::new(5, vec![]), "4144423205000000000000000000"),
            // Ragged arity: whole-block ADB1 fallback.
            (
                Block::new(6, vec![row![1i64], row![1i64, true]]),
                "414442310600000002000000010000010000000000000002000001000000000000000401",
            ),
            // Arity 0: ADB1 keeps the row count.
            (
                Block::new(7, vec![Row::new(vec![]), Row::new(vec![])]),
                "41444231070000000200000000000000",
            ),
        ];
        for (block, golden) in cases {
            let enc = encode_block_columnar(&block);
            assert_eq!(hex(&enc), golden, "block {}", block.id);
            assert_eq!(decode_block(enc).unwrap(), block);
        }
    }

    #[test]
    fn lazy_single_column_decode() {
        let block = Block::new(
            2,
            vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5], row![3i64, "cc", 3.5]],
        );
        let lazy = LazyBlock::parse(encode_block_columnar(&block)).unwrap();
        assert_eq!(lazy.num_columns(), 3);
        assert_eq!(lazy.column(0).unwrap(), ColumnVec::Int(vec![1, 2, 3]));
        assert_eq!(
            lazy.column(1).unwrap(),
            ColumnVec::Str(vec!["aa".into(), "bb".into(), "cc".into()])
        );
        assert!(lazy.column(3).is_err());
        // The ADB1 lazy path projects decoded rows identically.
        let lazy1 = LazyBlock::parse(encode_block(&block)).unwrap();
        assert_eq!(lazy1.column(0).unwrap(), ColumnVec::Int(vec![1, 2, 3]));
        assert_eq!(lazy1.num_columns(), 3);
    }

    #[test]
    fn gather_range_materializes_selected_rows_only() {
        let rows = vec![
            row![1i64, "aa", 1.5],
            row![2i64, "bb", 2.5],
            row![3i64, "cc", 3.5],
            row![4i64, "dd", 4.5],
        ];
        let block = Block::new(2, rows.clone());
        for enc in [encode_block(&block), encode_block_columnar(&block)] {
            let lazy = LazyBlock::parse(enc).unwrap();
            let sel = adaptdb_common::BitSet::from_indices(4, &[0, 2, 3]);
            // Full range.
            assert_eq!(
                lazy.gather_range(0, 4, &sel).unwrap(),
                vec![rows[0].clone(), rows[2].clone(), rows[3].clone()]
            );
            // Sub-ranges concatenate to the same output (morsel split).
            let mut pieces = lazy.gather_range(0, 2, &sel).unwrap();
            pieces.extend(lazy.gather_range(2, 4, &sel).unwrap());
            assert_eq!(pieces, lazy.gather_range(0, 4, &sel).unwrap());
            // Empty selection.
            let none = adaptdb_common::BitSet::new(4);
            assert!(lazy.gather_range(0, 4, &none).unwrap().is_empty());
        }
    }

    #[test]
    fn memoized_directory_parse_is_equivalent() {
        let block = Block::new(2, vec![row![1i64, "aa", 1.5], row![2i64, "bb", 2.5]]);
        let enc = encode_block_columnar(&block);
        let (first, dir) = LazyBlock::parse_with_directory(enc.clone(), None).unwrap();
        let dir = dir.expect("columnar parse yields a directory");
        // Re-parse with the memo: no new directory, identical payload.
        let (second, fresh) = LazyBlock::parse_with_directory(enc, Some(&dir)).unwrap();
        assert!(fresh.is_none(), "memo hit must not re-validate");
        assert_eq!(second.id(), first.id());
        assert_eq!(second.row_count(), first.row_count());
        assert_eq!(second.column(1).unwrap(), first.column(1).unwrap());
        assert_eq!(second.into_block().unwrap(), block);
        // A stale memo (encoded length mismatch) falls back to a full parse.
        let other = encode_block_columnar(&Block::new(9, vec![row![1i64]]));
        let (lazy, fresh) = LazyBlock::parse_with_directory(other, Some(&dir)).unwrap();
        assert!(fresh.is_some());
        assert_eq!(lazy.into_block().unwrap(), Block::new(9, vec![row![1i64]]));
        // ADB1 blocks never produce (or consume) a directory.
        let (lazy1, none) =
            LazyBlock::parse_with_directory(encode_block(&block), Some(&dir)).unwrap();
        assert!(none.is_none());
        assert_eq!(lazy1.into_block().unwrap(), block);
    }

    #[test]
    fn columnar_truncation_is_detected() {
        let enc = encode_block_columnar(&Block::new(
            1,
            vec![row![42i64, "abc", 1.0], row![43i64, "de", 2.0]],
        ));
        for cut in 4..enc.len() {
            let sliced = enc.slice(0..cut);
            // Either the parse fails, or a later full decode does —
            // truncation can never produce a successful round trip.
            let ok = LazyBlock::parse(sliced).and_then(LazyBlock::into_block);
            assert!(ok.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn columnar_trailing_garbage_is_rejected() {
        let enc = encode_block_columnar(&Block::new(1, vec![row![7i64]]));
        let mut raw = BytesMut::from(enc.as_ref());
        raw.put_u8(0xFF);
        assert!(LazyBlock::parse(raw.freeze()).is_err());
    }

    #[test]
    fn columnar_fixed_width_length_mismatch_is_rejected() {
        // Hand-build a directory claiming an Int column of the wrong size.
        let mut raw = BytesMut::new();
        raw.put_slice(BLOCK_MAGIC_V2);
        raw.put_u32_le(1); // id
        raw.put_u32_le(2); // rows
        raw.put_u16_le(1); // cols
        raw.put_u8(0); // Int
        raw.put_u32_le(8); // should be 16 for 2 rows
        raw.put_u64_le(0);
        assert!(LazyBlock::parse(raw.freeze()).is_err());
    }

    use adaptdb_common::{ColumnVec, Row, Value};
}
