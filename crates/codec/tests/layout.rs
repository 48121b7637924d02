//! The codec's byte layout, one shape at a time, as literal bytes.

use tasq_codec::{from_bytes, to_bytes, Wire};

#[derive(Debug, PartialEq, Wire)]
struct Named {
    a: u8,
    b: u32,
}

#[derive(Debug, PartialEq, Wire)]
struct Pair(u16, i8);

#[derive(Debug, PartialEq, Wire)]
struct Empty;

#[derive(Debug, PartialEq, Wire)]
enum Shape {
    Unit,
    Newtype(u8),
    Tuple(u8, u16),
    Struct { x: i32 },
}

/// `value` encodes to exactly `expected`, and `expected` decodes to it.
fn check<T: Wire + PartialEq + std::fmt::Debug>(value: T, expected: &[u8]) {
    assert_eq!(to_bytes(&value), Ok(expected.to_vec()), "{value:?} encodes");
    assert_eq!(from_bytes::<T>(expected), Ok(value), "decodes");
}

#[test]
fn structs_are_their_fields_in_order_with_no_prefix() {
    check(Named { a: 1, b: 0x0302 }, &[1, 2, 3, 0, 0]);
    check(Pair(0x0102, -1), &[2, 1, 0xff]);
    check(Empty, &[]);
}

#[test]
fn enum_variants_lead_with_a_u32_index() {
    check(Shape::Unit, &[0, 0, 0, 0]);
    check(Shape::Newtype(7), &[1, 0, 0, 0, 7]);
    check(Shape::Tuple(1, 2), &[2, 0, 0, 0, 1, 2, 0]);
    check(Shape::Struct { x: -2 }, &[3, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff]);
}

#[test]
fn options_take_a_tag_byte() {
    check(None::<u16>, &[0]);
    check(Some(5u16), &[1, 5, 0]);
}

#[test]
fn sequences_and_strings_take_a_u64_length() {
    check(vec![1u16, 2], &[2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0]);
    check(Vec::<u8>::new(), &[0, 0, 0, 0, 0, 0, 0, 0]);
    check("hé".to_string(), &[3, 0, 0, 0, 0, 0, 0, 0, b'h', 0xc3, 0xa9]);
}

#[test]
fn arrays_and_tuples_take_no_length() {
    check([1u8, 2, 3], &[1, 2, 3]);
    check((1u8, 2u16), &[1, 2, 0]);
    check(Box::new(9u8), &[9]);
}

#[test]
fn primitives_are_little_endian() {
    check(258usize, &[2, 1, 0, 0, 0, 0, 0, 0]);
    check(true, &[1]);
    check(false, &[0]);
    check(1.5f64, &[0, 0, 0, 0, 0, 0, 0xf8, 0x3f]);
    check(-2i64, &[0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
    check('λ', &[0xbb, 0x03, 0, 0]);
}
