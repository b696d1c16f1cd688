//! Codec robustness under hostile bytes: `decode_block`,
//! `LazyBlock::parse` / `column` / `gather_range` must never panic on
//! arbitrary or bit-flipped input, and must never hand back rows from
//! a block whose header was corrupted into claiming a different shape
//! than its payload delivers — corrupt input errors, it does not
//! "succeed". Valid random blocks round-trip through the `ADB2` writer.

use adaptdb_common::{BitSet, Row, Value};
use adaptdb_storage::codec::{decode_block, encode_block, encode_block_columnar};
use adaptdb_storage::{Block, LazyBlock};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
        any::<i32>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_block(arity: usize) -> impl Strategy<Value = Block> {
    (
        any::<u32>(),
        prop::collection::vec(prop::collection::vec(arb_value(), arity).prop_map(Row::new), 0..12),
    )
        .prop_map(|(id, rows)| Block::new(id, rows))
}

/// One column of 12 cells: homogeneous in one of the `ADB2` typed
/// layouts, or heterogeneous (a `Mixed` column).
fn arb_column() -> impl Strategy<Value = Vec<Value>> {
    const N: usize = 12;
    prop_oneof![
        prop::collection::vec(any::<i64>().prop_map(Value::Int), N),
        prop::collection::vec(any::<f64>().prop_map(Value::Double), N),
        prop::collection::vec("[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str), N),
        prop::collection::vec(any::<i32>().prop_map(Value::Date), N),
        prop::collection::vec(any::<bool>().prop_map(Value::Bool), N),
        prop::collection::vec(arb_value(), N),
    ]
}

/// Drive every decode entry point over one byte string. Nothing here
/// may panic; each call either errors or returns well-formed data.
fn exercise(bytes: &[u8]) {
    let buf = bytes::Bytes::copy_from_slice(bytes);
    let _ = decode_block(buf.clone());
    if let Ok(lazy) = LazyBlock::parse(buf) {
        let n = lazy.row_count();
        let cols = lazy.num_columns();
        for c in 0..cols.min(8) {
            if let Ok(col) = lazy.column(c) {
                assert_eq!(col.len(), n, "a decoded column must match the row count");
            }
        }
        // Out-of-range column access errors, never panics.
        let _ = lazy.column(cols + 1);
        // A corrupt header can *claim* billions of rows (a block with
        // only variable-width columns defers count validation to
        // decode time). Bound what the harness itself materializes; the
        // decode calls above and below still exercise the corrupt count.
        if n <= 4096 {
            let all = BitSet::from_indices(n, &(0..n).collect::<Vec<_>>());
            if let Ok(rows) = lazy.gather_range(0, n, &all) {
                assert!(rows.len() <= n, "gather cannot invent rows");
            }
        }
        let _ = lazy.into_block();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fully arbitrary byte strings (any length, any prefix) never
    /// panic any decode path.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..256)) {
        exercise(&data);
    }

    /// Arbitrary bytes behind a valid ADB1/ADB2 magic — the adversarial
    /// case, since it reaches the format-specific parsers.
    #[test]
    fn arbitrary_payload_behind_magic_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..192),
        v2 in any::<bool>(),
    ) {
        let mut bytes = if v2 { b"ADB2".to_vec() } else { b"ADB1".to_vec() };
        bytes.extend_from_slice(&data);
        exercise(&bytes);
    }

    /// Every single-bit flip of a valid row-format encoding either
    /// still decodes (the flip hit a value payload — contents differ,
    /// shape holds) or errors. It never panics and never yields a
    /// block with more rows than the payload carries.
    #[test]
    fn bit_flipped_adb1_never_panics(block in arb_block(3), pos in any::<u64>()) {
        let enc = encode_block(&block);
        let mut garbled = enc.to_vec();
        let bit = pos as usize % (garbled.len() * 8);
        garbled[bit / 8] ^= 1 << (bit % 8);
        exercise(&garbled);
    }

    /// Same for the columnar encoding, whose directory is the most
    /// length-sensitive part of either format.
    #[test]
    fn bit_flipped_adb2_never_panics(block in arb_block(3), pos in any::<u64>()) {
        let enc = encode_block_columnar(&block);
        let mut garbled = enc.to_vec();
        let bit = pos as usize % (garbled.len() * 8);
        garbled[bit / 8] ^= 1 << (bit % 8);
        exercise(&garbled);
    }

    /// Random blocks — every column layout, empty, arity 0, ragged —
    /// round-trip through the columnar writer: `ADB2` unless the rows
    /// are ragged or have no columns, rows identical through both the
    /// eager and the lazy decoder, and each column typed exactly when
    /// its cells share one type.
    #[test]
    fn columnar_encoding_round_trips_random_blocks(
        cols in prop::collection::vec(arb_column(), 0..5),
        len in 0usize..12,
        id in any::<u32>(),
        ragged in any::<bool>(),
    ) {
        let mut rows: Vec<Row> =
            (0..len).map(|i| Row::new(cols.iter().map(|c| c[i].clone()).collect())).collect();
        if ragged && len > 1 && !cols.is_empty() {
            let last = rows.pop().unwrap();
            rows.push(Row::new(last.values()[1..].to_vec()));
        }
        let block = Block::new(id, rows);
        let arity = block.rows.first().map_or(0, Row::arity);
        let uniform = block.rows.iter().all(|r| r.arity() == arity);
        let columnar = uniform && (arity > 0 || block.rows.is_empty());

        let enc = encode_block_columnar(&block);
        prop_assert_eq!(&enc[0..4], if columnar { b"ADB2" } else { b"ADB1" });
        prop_assert_eq!(decode_block(enc.clone()).unwrap(), block.clone());
        let lazy = LazyBlock::parse(enc).unwrap();
        prop_assert_eq!(lazy.row_count(), block.rows.len());
        if columnar {
            for a in 0..arity {
                let col = lazy.column(a).unwrap();
                let cells: Vec<&Value> = block.rows.iter().map(|r| &r.values()[a]).collect();
                let t = cells[0].value_type();
                let homogeneous = cells.iter().all(|v| v.value_type() == t);
                prop_assert_eq!(col.value_type(), homogeneous.then_some(t));
                for (i, v) in cells.into_iter().enumerate() {
                    prop_assert_eq!(&col.value_at(i), v);
                }
            }
        }
        prop_assert_eq!(lazy.into_block().unwrap(), block);
    }

    /// A header corrupted into claiming a huge row count must error
    /// (and not attempt a giant allocation first): rows from a corrupt
    /// block are never returned.
    #[test]
    fn inflated_row_count_is_rejected(block in arb_block(2), claimed in 1_000_000u32..u32::MAX) {
        for enc in [encode_block(&block), encode_block_columnar(&block)] {
            let mut garbled = enc.to_vec();
            garbled[8..12].copy_from_slice(&claimed.to_le_bytes());
            let res = decode_block(bytes::Bytes::copy_from_slice(&garbled));
            prop_assert!(res.is_err(), "claimed {claimed} rows over a tiny payload must fail");
        }
    }
}
