//! Compact binary serialization for model artifacts.
//!
//! The paper's pipeline registers trained models in the Azure ML model
//! store as binary artifacts. This module provides the equivalent without
//! pulling a serde format crate: a minimal, non-self-describing binary
//! codec (fields in declaration order, little-endian primitives, u64
//! length prefixes for sequences/strings/maps) driven entirely by the
//! serde derive machinery. Round-trips any of this workspace's
//! `Serialize + Deserialize` types.
//!
//! Not interchange-grade: both sides must agree on the Rust type (like
//! `postcard`/`bincode` in their non-self-describing modes).

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::{ser, Serialize};
use std::fmt;

/// Initial capacity of an encoding buffer: a wire job is about 0.8 KB,
/// so a request or a response is written without growing the buffer.
const INITIAL_CAPACITY: usize = 1024;

/// Serialize a value to bytes.
///
/// `to_bytes::<T>` and `from_bytes::<T>` are monomorphised in the calling
/// crate. Every non-generic method on the serialize and deserialize path
/// below is therefore `#[inline]`: without it (the release profile has no
/// LTO), each field of a value is an out-of-line call back into this
/// crate.
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut serializer = BinSerializer { out: Vec::with_capacity(INITIAL_CAPACITY) };
    value.serialize(&mut serializer)?;
    Ok(serializer.out)
}

/// Deserialize a value from bytes.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut deserializer = BinDeserializer { input: bytes };
    let value = T::deserialize(&mut deserializer)?;
    if !deserializer.input.is_empty() {
        return Err(CodecError::TrailingBytes(deserializer.input.len()));
    }
    Ok(value)
}

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    UnexpectedEof,
    /// Extra bytes remained after deserialization.
    TrailingBytes(usize),
    /// Invalid encoding (bad bool/char/UTF-8/option tag).
    Invalid(&'static str),
    /// Error reported by serde.
    Message(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
            CodecError::Message(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

struct BinSerializer {
    out: Vec<u8>,
}

impl BinSerializer {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    #[inline]
    fn put_len(&mut self, len: usize) {
        self.put(&(len as u64).to_le_bytes());
    }
}

/// Serializer methods that append one little-endian primitive.
macro_rules! impl_ser_primitive {
    ($($method:ident($t:ty)),* $(,)?) => {$(
        #[inline]
        fn $method(self, v: $t) -> Result<(), CodecError> {
            self.put(&v.to_le_bytes());
            Ok(())
        }
    )*};
}

impl ser::Serializer for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    impl_ser_primitive!(
        serialize_i8(i8),
        serialize_i16(i16),
        serialize_i32(i32),
        serialize_i64(i64),
        serialize_u8(u8),
        serialize_u16(u16),
        serialize_u32(u32),
        serialize_u64(u64),
        serialize_f32(f32),
        serialize_f64(f64),
    );

    #[inline]
    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.put(&[v as u8]);
        Ok(())
    }
    #[inline]
    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.put(&(v as u32).to_le_bytes());
        Ok(())
    }
    #[inline]
    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.put(v.as_bytes());
        Ok(())
    }
    #[inline]
    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.put(v);
        Ok(())
    }
    #[inline]
    fn serialize_none(self) -> Result<(), CodecError> {
        self.put(&[0]);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.put(&[1]);
        value.serialize(self)
    }
    #[inline]
    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }
    #[inline]
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }
    #[inline]
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(())
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.put(&variant_index.to_le_bytes());
        value.serialize(self)
    }
    #[inline]
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Invalid("sequences require a known length"))?;
        self.put_len(len);
        Ok(self)
    }
    #[inline]
    fn serialize_tuple(self, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    #[inline]
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    #[inline]
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }
    #[inline]
    fn serialize_map(self, len: Option<usize>) -> Result<Self, CodecError> {
        let len = len.ok_or(CodecError::Invalid("maps require a known length"))?;
        self.put_len(len);
        Ok(self)
    }
    #[inline]
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, CodecError> {
        Ok(self)
    }
    #[inline]
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, CodecError> {
        self.put(&variant_index.to_le_bytes());
        Ok(self)
    }
}

macro_rules! impl_seq_like {
    ($trait:path, $method:ident) => {
        impl $trait for &mut BinSerializer {
            type Ok = ();
            type Error = CodecError;
            fn $method<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut **self)
            }
            #[inline]
            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

impl_seq_like!(ser::SerializeSeq, serialize_element);
impl_seq_like!(ser::SerializeTuple, serialize_element);
impl_seq_like!(ser::SerializeTupleStruct, serialize_field);
impl_seq_like!(ser::SerializeTupleVariant, serialize_field);

impl ser::SerializeMap for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    #[inline]
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStruct for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    #[inline]
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for &mut BinSerializer {
    type Ok = ();
    type Error = CodecError;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut **self)
    }
    #[inline]
    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct BinDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> BinDeserializer<'de> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// The next `N` bytes, for a fixed-width little-endian read.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let (head, tail) = self.input.split_first_chunk::<N>().ok_or(CodecError::UnexpectedEof)?;
        self.input = tail;
        Ok(*head)
    }

    #[inline]
    fn get_len(&mut self) -> Result<usize, CodecError> {
        Ok(u64::from_le_bytes(self.array()?) as usize)
    }

    #[inline]
    fn get_tag(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }
}

/// Deserializer methods that read one little-endian primitive.
macro_rules! impl_de_primitive {
    ($($method:ident, $visit:ident, $t:ty;)*) => {$(
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            visitor.$visit(<$t>::from_le_bytes(self.array()?))
        }
    )*};
}

impl<'de> de::Deserializer<'de> for &mut BinDeserializer<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("codec is not self-describing (deserialize_any unsupported)"))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.get_tag()? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            _ => Err(CodecError::Invalid("bool tag")),
        }
    }

    impl_de_primitive! {
        deserialize_i8, visit_i8, i8;
        deserialize_i16, visit_i16, i16;
        deserialize_i32, visit_i32, i32;
        deserialize_i64, visit_i64, i64;
        deserialize_u8, visit_u8, u8;
        deserialize_u16, visit_u16, u16;
        deserialize_u32, visit_u32, u32;
        deserialize_u64, visit_u64, u64;
        deserialize_f32, visit_f32, f32;
        deserialize_f64, visit_f64, f64;
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let code = u32::from_le_bytes(self.array()?);
        visitor.visit_char(char::from_u32(code).ok_or(CodecError::Invalid("char"))?)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        visitor.visit_str(std::str::from_utf8(bytes).map_err(|_| CodecError::Invalid("utf-8"))?)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.get_tag()? {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.get_len()?;
        visitor.visit_map(CountedAccess { de: self, remaining: len })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("identifiers are not encoded"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, CodecError> {
        Err(CodecError::Invalid("cannot skip values in a non-self-describing format"))
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for CountedAccess<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    #[inline]
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for CountedAccess<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    #[inline]
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut BinDeserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = CodecError;
    type Variant = &'a mut BinDeserializer<'de>;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), CodecError> {
        let index = u32::from_le_bytes(self.de.array()?);
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self.de))
    }
}

impl<'de> de::VariantAccess<'de> for &mut BinDeserializer<'de> {
    type Error = CodecError;

    #[inline]
    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, CodecError> {
        use serde::Deserializer;
        self.deserialize_tuple(len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        use serde::Deserializer;
        self.deserialize_tuple(fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;
    use std::collections::BTreeMap;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Inner {
        name: String,
        values: Vec<f64>,
        flag: bool,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Unit,
        Tuple(u32, f64),
        Struct { x: i64 },
        Newtype(String),
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Outer {
        id: u64,
        inner: Inner,
        maybe: Option<f64>,
        nothing: Option<u32>,
        kind: Kind,
        pairs: Vec<(u32, f64)>,
        map: BTreeMap<String, u32>,
    }

    fn sample() -> Outer {
        let mut map = BTreeMap::new();
        map.insert("alpha".to_string(), 1);
        map.insert("beta".to_string(), 2);
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
            map,
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
