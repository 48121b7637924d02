//! The workspace's one binary format: trained model artifacts, training
//! checkpoints, resume records, and the scoring service's wire requests
//! and responses.
//!
//! [`Wire`] *is* the format: a value writes itself to a byte buffer and
//! reads itself back, with nothing self-describing in between. Fields go
//! in declaration order with no struct or tuple prefix; primitives are
//! little-endian (`usize` as `u64`, `bool` as one byte, `char` as its
//! `u32` code point); `String` and `Vec` lead with a `u64` length, arrays
//! and tuples do not; `Option` leads with a `0`/`1` tag byte; an enum
//! leads with its variant index as a `u32`. `#[derive(Wire)]` writes that
//! layout for a struct or enum; both sides must agree on the Rust type
//! (like `postcard`/`bincode` in their non-self-describing modes).
//!
//! Every `encode` and `decode` here and in the derive is `#[inline]`:
//! the release profile has no LTO, so without it each field of a value
//! is an out-of-line call into the crate that defines its type.
//!
//! Decoding is safe on hostile bytes: every read is bounds-checked, a
//! length prefix never preallocates more than 4 096 elements,
//! and a bad tag, variant index, `char` or UTF-8 string is a typed
//! [`CodecError`].

use std::fmt;

pub use tasq_codec_derive::Wire;

/// Initial capacity of an encoding buffer: a wire job is about 0.8 KB,
/// so a request or a response is written without growing the buffer.
const INITIAL_CAPACITY: usize = 1024;

/// The most elements a length prefix reserves room for before they have
/// been read: a forged `u64::MAX` length costs no allocation.
const MAX_PREALLOC: usize = 4096;

/// A value with a binary encoding.
pub trait Wire: Sized {
    /// Append this value's bytes to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Read one value from the front of `input`, advancing it past the
    /// bytes read.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;
}

/// Encode a value. Encoding cannot fail; the `Result` keeps the codec's
/// signature for callers that apply `?` to it.
pub fn to_bytes<T: Wire>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(INITIAL_CAPACITY);
    value.encode(&mut out);
    Ok(out)
}

/// Decode a value that must span all of `bytes`.
pub fn from_bytes<T: Wire>(mut bytes: &[u8]) -> Result<T, CodecError> {
    let value = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(CodecError::TrailingBytes(bytes.len()));
    }
    Ok(value)
}

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    UnexpectedEof,
    /// Extra bytes remained after decoding.
    TrailingBytes(usize),
    /// Invalid encoding (bad bool/option tag, variant index, char, UTF-8,
    /// or a value that breaks its type's invariant).
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of input"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The next `N` bytes of `input`, for a fixed-width read.
#[inline]
fn array<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let (head, tail) = input.split_first_chunk::<N>().ok_or(CodecError::UnexpectedEof)?;
    *input = tail;
    Ok(*head)
}

/// A `0`/`1` tag byte; `what` names it in the error.
#[inline]
fn decode_tag(input: &mut &[u8], what: &'static str) -> Result<bool, CodecError> {
    match array::<1>(input)? {
        [0] => Ok(false),
        [1] => Ok(true),
        _ => Err(CodecError::Invalid(what)),
    }
}

macro_rules! impl_primitive {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(<$t>::from_le_bytes(array(input)?))
            }
        }
    )*};
}

impl_primitive!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        usize::try_from(u64::decode(input)?).map_err(|_| CodecError::Invalid("usize"))
    }
}

impl Wire for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        decode_tag(input, "bool tag")
    }
}

impl Wire for char {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        u32::from(*self).encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        char::from_u32(u32::decode(input)?).ok_or(CodecError::Invalid("char"))
    }
}

impl Wire for String {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        let (head, tail) = input.split_at_checked(len).ok_or(CodecError::UnexpectedEof)?;
        *input = tail;
        let text = std::str::from_utf8(head).map_err(|_| CodecError::Invalid("utf-8"))?;
        Ok(text.to_owned())
    }
}

impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(if decode_tag(input, "option tag")? { Some(T::decode(input)?) } else { None })
    }
}

impl<T: Wire> Wire for Box<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        T::decode(input).map(Box::new)
    }
}

impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        for value in self {
            value.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = usize::decode(input)?;
        let mut values = Vec::with_capacity(len.min(MAX_PREALLOC));
        for _ in 0..len {
            values.push(T::decode(input)?);
        }
        Ok(values)
    }
}

impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        for value in self {
            value.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let mut values = [T::default(); N];
        for slot in &mut values {
            *slot = T::decode(input)?;
        }
        Ok(values)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[inline]
            #[allow(non_snake_case)]
            fn encode(&self, out: &mut Vec<u8>) {
                let ($($name,)+) = self;
                $($name.encode(out);)+
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(input)?,)+))
            }
        }
    )*};
}

impl_tuple! { (A) (A, B) (A, B, C) (A, B, C, D) }
