//! Compact binary serialization for model artifacts and the scoring
//! wire.
//!
//! The paper's pipeline registers trained models in the Azure ML model
//! store as binary artifacts, and the scoring service takes plans in and
//! sends PCCs back. Both use one non-self-describing format: the
//! [`Wire`] trait of `tasq-codec`, re-exported here (fields in
//! declaration order, little-endian primitives, `u64` length prefixes
//! for sequences and strings, a `u32` index before an enum variant).
//! `#[derive(Wire)]` writes it for a struct or enum.
//!
//! Not interchange-grade: both sides must agree on the Rust type (like
//! `postcard`/`bincode` in their non-self-describing modes).

pub use tasq_codec::{from_bytes, to_bytes, CodecError, Wire};

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Wire)]
    struct Inner {
        name: String,
        values: Vec<f64>,
        flag: bool,
    }

    #[derive(Debug, PartialEq, Wire)]
    enum Kind {
        Unit,
        Tuple(u32, f64),
        Struct { x: i64 },
        Newtype(String),
    }

    #[derive(Debug, PartialEq, Wire)]
    struct Outer {
        id: u64,
        inner: Inner,
        maybe: Option<f64>,
        nothing: Option<u32>,
        kind: Kind,
        pairs: Vec<(u32, f64)>,
    }

    fn sample() -> Outer {
        Outer {
            id: 42,
            inner: Inner {
                name: "skyline".to_string(),
                values: vec![1.5, -2.25, 0.0],
                flag: true,
            },
            maybe: Some(3.5),
            nothing: None,
            kind: Kind::Tuple(7, 2.5),
            pairs: vec![(1, 10.0), (2, 20.0)],
        }
    }

    #[test]
    fn roundtrip_composite() {
        let value = sample();
        let bytes = to_bytes(&value).unwrap();
        let back: Outer = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn roundtrip_all_enum_variants() {
        for kind in [
            Kind::Unit,
            Kind::Tuple(9, -1.25),
            Kind::Struct { x: -7 },
            Kind::Newtype("hello".to_string()),
        ] {
            let bytes = to_bytes(&kind).unwrap();
            let back: Kind = from_bytes(&bytes).unwrap();
            assert_eq!(back, kind);
        }
    }

    #[test]
    fn roundtrip_primitives() {
        macro_rules! check {
            ($t:ty, $v:expr) => {{
                let v: $t = $v;
                let bytes = to_bytes(&v).unwrap();
                let back: $t = from_bytes(&bytes).unwrap();
                assert_eq!(back, v);
            }};
        }
        check!(bool, true);
        check!(u8, 255);
        check!(i16, -12345);
        check!(u32, 4_000_000_000);
        check!(i64, i64::MIN);
        check!(f64, std::f64::consts::PI);
        check!(char, 'λ');
        check!(String, "日本語".to_string());
        check!(Vec<u8>, vec![1, 2, 3]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&sample()).unwrap();
        let truncated = &bytes[..bytes.len() - 4];
        let result: Result<Outer, _> = from_bytes(truncated);
        assert!(result.is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_bytes(&42u32).unwrap();
        bytes.push(0);
        let result: Result<u32, _> = from_bytes(&bytes);
        assert_eq!(result, Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn roundtrip_workspace_types() {
        // The types the model store actually persists.
        let pcc = crate::pcc::PowerLawPcc::new(-0.7, 1234.5);
        let bytes = to_bytes(&pcc).unwrap();
        let back: crate::pcc::PowerLawPcc = from_bytes(&bytes).unwrap();
        assert_eq!(back, pcc);

        let m = tasq_ml::Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 * 0.5);
        let bytes = to_bytes(&m).unwrap();
        let back: tasq_ml::Matrix = from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn bad_bool_tag_errors() {
        let result: Result<bool, _> = from_bytes(&[7]);
        assert_eq!(result, Err(CodecError::Invalid("bool tag")));
    }
}
