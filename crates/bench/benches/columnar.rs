//! Criterion microbenchmarks of the columnar (`ADB2`) codec path: the
//! per-block work the morsel-driven scan actually does — parse the
//! header, decode one predicate column, gather the few surviving rows —
//! against the full-block decode a legacy row-format (`ADB1`) block
//! needs.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use adaptdb_common::rng::seeded;
use adaptdb_common::{BitSet, CmpOp, Row, Value};
use adaptdb_storage::codec::{decode_block, encode_block, encode_block_columnar, LazyBlock};
use adaptdb_storage::Block;
use rand::RngExt;

/// A lineitem-shaped block: Str columns dominate row-decode cost.
fn block(rows: usize, seed: u64) -> Block {
    let mut rng = seeded(seed);
    Block::new(
        0,
        (0..rows)
            .map(|_| {
                Row::new(vec![
                    Value::Int(rng.random_range(0..1_000_000)),
                    Value::Double(rng.random_range(0..1_000) as f64 / 7.0),
                    Value::Date(rng.random_range(0..2555)),
                    Value::Str("DELIVER IN PERSON".into()),
                    Value::Str("REG AIR".into()),
                    Value::Str("A".into()),
                ])
            })
            .collect(),
    )
}

fn bench_columnar(c: &mut Criterion) {
    let b200 = block(200, 3);
    let row_bytes = encode_block(&b200);
    let col_bytes = encode_block_columnar(&b200);

    c.bench_function("encode_block_columnar_200rows", |bch| {
        bch.iter(|| black_box(encode_block_columnar(&b200)))
    });
    // A legacy ADB1 block's per-block cost: decode everything.
    c.bench_function("row_full_decode_200rows", |bch| {
        bch.iter(|| black_box(decode_block(row_bytes.clone()).unwrap()))
    });
    // The columnar scan's per-block cost on a selective predicate:
    // parse the directory, decode the one Int predicate column,
    // evaluate, gather the handful of qualifying rows.
    c.bench_function("columnar_select_and_gather_200rows", |bch| {
        bch.iter(|| {
            let lazy = LazyBlock::parse(col_bytes.clone()).unwrap();
            let col = lazy.column(0).unwrap();
            let sel = col.eval(CmpOp::Lt, &Value::Int(10_000));
            black_box(lazy.gather_range(0, lazy.row_count(), &sel).unwrap())
        })
    });
    // Full materialization through the lazy path (worst case: nothing
    // filtered) — bounds the overhead of ADB2 over ADB1 when late
    // materialization cannot help.
    c.bench_function("columnar_full_gather_200rows", |bch| {
        bch.iter(|| {
            let lazy = LazyBlock::parse(col_bytes.clone()).unwrap();
            let all = BitSet::all_set(lazy.row_count());
            black_box(lazy.gather_range(0, lazy.row_count(), &all).unwrap())
        })
    });
}

criterion_group!(benches, bench_columnar);
criterion_main!(benches);
