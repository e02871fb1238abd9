//! The serialized form of [`Matrix`]: `{rows, cols, data}` with `data` one
//! string of 16 lowercase hex digits per element, the `to_bits()` of each
//! `f64`.  Every bit must survive a JSON round trip, and a malformed payload
//! must come back as a `DeError`, never as a panic or a wrong-sized matrix.

use nnbo_linalg::Matrix;
use serde::{DeError, Deserialize, Value};

/// A NaN whose payload is not the one `f64::NAN` carries.
const PAYLOAD_NAN: u64 = 0x7ff8_0000_dead_beef;

fn awkward_values() -> Vec<f64> {
    vec![
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::from_bits(PAYLOAD_NAN),
        f64::from_bits(0xfff0_0000_0000_0001), // signalling NaN, sign bit set
        f64::INFINITY,
        f64::NEG_INFINITY,
        std::f64::consts::PI,
        -1.0 / 3.0,
    ]
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn round_trip(m: &Matrix) -> Matrix {
    serde::from_json_str(&serde::to_json_string(m)).expect("a serialized matrix decodes")
}

fn decode(value: Value) -> Result<Matrix, DeError> {
    Matrix::from_value(&value)
}

fn matrix_value(rows: Value, cols: Value, data: Value) -> Value {
    Value::Map(vec![
        ("rows".into(), rows),
        ("cols".into(), cols),
        ("data".into(), data),
    ])
}

#[test]
fn every_bit_pattern_round_trips_through_json() {
    let values = awkward_values();
    let n = values.len();
    for (rows, cols) in [(1, n), (n, 1)] {
        let m = Matrix::from_vec(rows, cols, values.clone());
        let back = round_trip(&m);
        assert_eq!(back.shape(), (rows, cols));
        assert_eq!(bits(&back), bits(&m), "{rows}x{cols}");
    }
    let empty = round_trip(&Matrix::zeros(0, 0));
    assert_eq!(empty.shape(), (0, 0));
    for (rows, cols) in [(0, 5), (5, 0)] {
        assert_eq!(round_trip(&Matrix::zeros(rows, cols)).shape(), (rows, cols));
    }
}

#[test]
fn payload_is_lowercase_hex_of_the_bits() {
    let m = Matrix::from_vec(1, 3, vec![1.0, f64::from_bits(PAYLOAD_NAN), 5e-324]);
    assert_eq!(
        serde::to_json_string(&m),
        concat!(
            r#"{"rows":1,"cols":3,"data":""#,
            "3ff0000000000000",
            "7ff80000deadbeef",
            "0000000000000001",
            r#""}"#
        )
    );
}

#[test]
fn wrong_payload_length_is_an_error() {
    let one = "3ff0000000000000";
    for data in [
        String::new(),
        one[..15].to_string(),
        format!("{one}0"),
        one.repeat(3),
    ] {
        let v = matrix_value(Value::U64(1), Value::U64(2), Value::Str(data.clone()));
        assert!(decode(v).is_err(), "{} digits for a 1x2 matrix", data.len());
    }
    let v = matrix_value(Value::U64(0), Value::U64(3), Value::Str(one.into()));
    assert!(decode(v).is_err(), "a 0x3 matrix holds no digits");
}

#[test]
fn non_hex_and_uppercase_digits_are_errors() {
    for data in [
        "3FF0000000000000", // uppercase
        "3ff000000000000g",
        "3ff00000 0000000",
        "-ff0000000000000",
        "3ff00000000000é", // 16 bytes, one of them not ASCII
    ] {
        assert_eq!(data.len(), 16, "{data:?} is one element long");
        let v = matrix_value(Value::U64(1), Value::U64(1), Value::Str(data.into()));
        assert!(decode(v).is_err(), "{data:?}");
    }
}

#[test]
fn an_overflowing_shape_is_an_error_before_any_allocation() {
    let huge = Value::U64(u64::MAX);
    for (rows, cols) in [
        (huge.clone(), Value::U64(2)),
        (Value::U64(2), huge.clone()),
        (Value::U64(1 << 33), Value::U64(1 << 33)),
    ] {
        let v = matrix_value(rows, cols, Value::Str(String::new()));
        assert!(decode(v).is_err());
    }
    // rows*cols fits, but 16 digits per element would not.
    let v = matrix_value(
        Value::U64(1 << 61),
        Value::U64(1),
        Value::Str(String::new()),
    );
    assert!(decode(v).is_err());
}

#[test]
fn missing_fields_and_wrong_field_types_are_errors() {
    let full = matrix_value(
        Value::U64(1),
        Value::U64(1),
        Value::Str("3ff0000000000000".into()),
    );
    assert_eq!(
        decode(full.clone()).unwrap(),
        Matrix::from_vec(1, 1, vec![1.0])
    );
    let entries = full.as_map().unwrap().to_vec();
    for missing in ["rows", "cols", "data"] {
        let v = Value::Map(
            entries
                .iter()
                .filter(|(k, _)| k != missing)
                .cloned()
                .collect(),
        );
        let err = decode(v).unwrap_err();
        assert!(err.to_string().contains(missing), "{err}");
    }
    // The array-of-floats layout that the hex payload replaced.
    let v = matrix_value(
        Value::U64(1),
        Value::U64(1),
        Value::Seq(vec![Value::F64(1.0)]),
    );
    assert!(decode(v).is_err());
    for data in [Value::Null, Value::F64(1.0), Value::U64(1)] {
        assert!(decode(matrix_value(Value::U64(1), Value::U64(1), data)).is_err());
    }
    assert!(decode(Value::Seq(vec![])).is_err());
    assert!(decode(Value::Str("3ff0000000000000".into())).is_err());
}

#[test]
fn malformed_json_text_is_an_error() {
    for text in [
        r#"{"rows":1,"cols":1,"data":"3ff000000000000"}"#,
        r#"{"rows":1,"cols":1,"data":[1.0]}"#,
        r#"{"rows":-1,"cols":1,"data":""}"#,
        r#"{"rows":1,"cols":1}"#,
    ] {
        assert!(serde::from_json_str::<Matrix>(text).is_err(), "{text}");
    }
}
