//! Golden bytes: the exact encodings of one request frame, one row page and
//! one WAL record. The wire protocol and the durable log share one value
//! codec, so a change to it would silently break old peers and old logs;
//! these pins make any byte change a test failure instead.

use relstore::io::codec::put_record;
use relstore::wal::LogRecord;
use relstore::{Row, RowId, TxnId, Value};
use wire::protocol::{encode_row_page, Request, StmtRef};

/// The hex of `every_variant()` as a u16-counted value list.
macro_rules! every_variant_hex {
    () => {
        concat!(
            "0900",               // 9 values
            "00",                 // Null
            "01feffffffffffffff", // Int(-2)
            "02000000000000f87f", // Double(NaN)
            "02000000000000f0ff", // Double(-inf)
            "02000000000000f83f", // Double(1.5)
            "030300000068c3a9",   // Text("hé"): u32 length + UTF-8
            "0401",               // Bool(true)
            "0400",               // Bool(false)
            "05e803000000000000", // Timestamp(1000)
        )
    };
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One value of every variant, the non-finite doubles included.
fn every_variant() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(-2),
        Value::Double(f64::NAN),
        Value::Double(f64::NEG_INFINITY),
        Value::Double(1.5),
        Value::Text("hé".into()),
        Value::Bool(true),
        Value::Bool(false),
        Value::Timestamp(1_000),
    ]
}

#[test]
fn execute_request_bytes_are_pinned() {
    let req = Request::Execute {
        stmt: StmtRef::Sql("SELECT ?".into()),
        params: every_variant(),
        deadline_ms: Some(250),
    };
    let expected = concat!(
        "02",                         // opcode: Execute
        "000800000053454c454354203f", // StmtRef::Sql("SELECT ?")
        every_variant_hex!(),
        "01fa000000", // deadline: Some(250)
    );
    assert_eq!(hex(&req.encode()), expected);
}

#[test]
fn row_page_bytes_are_pinned() {
    let rows = vec![
        Row::new(vec![Value::Int(7), Value::Text("idle".into())]),
        Row::new(vec![]),
        Row::new(every_variant()),
    ];
    let expected = concat!(
        "05",                                       // opcode: RowPage
        "01",                                       // last
        "03000000",                                 // 3 rows
        "0200010700000000000000030400000069646c65", // [Int(7), Text("idle")]
        "0000",                                     // []
        every_variant_hex!(),
    );
    assert_eq!(hex(&encode_row_page(&rows, true)), expected);
}

#[test]
fn wal_update_record_bytes_are_pinned() {
    let record = LogRecord::Update {
        txn: TxnId(3),
        table: "jobs".into(),
        row_id: RowId(42),
        before: Row::new(vec![Value::Int(42), Value::Text("idle".into())]),
        after: Row::new(every_variant()),
    };
    let mut buf = Vec::new();
    put_record(&mut buf, &record);
    let expected = concat!(
        "08",                                       // record kind: Update
        "0300000000000000",                         // txn
        "040000006a6f6273",                         // table "jobs"
        "2a00000000000000",                         // row id
        "0200012a00000000000000030400000069646c65", // before
        every_variant_hex!(),                       // after
    );
    assert_eq!(hex(&buf), expected);
}
