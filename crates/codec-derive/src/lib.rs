//! `#[derive(Wire)]` for `tasq-codec`. Parses the item's token stream
//! directly (no `syn`/`quote`: the build has no crates.io access) and
//! emits an `encode` that writes every field in declaration order and a
//! `decode` that reads them back in the same order. Structs carry no
//! prefix; an enum leads with its variant index as a little-endian `u32`.
//!
//! Deliberate limits, sufficient for this workspace: no generic types,
//! no unions, no attributes of its own. An unsupported item is a
//! `compile_error!` at the derive site.

use proc_macro::{Delimiter, TokenStream, TokenTree};

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    kind: Kind,
}

fn is_punct(token: &TokenTree, ch: char) -> bool {
    matches!(token, TokenTree::Punct(p) if p.as_char() == ch)
}

fn is_ident(token: &TokenTree, text: &str) -> bool {
    matches!(token, TokenTree::Ident(id) if id.to_string() == text)
}

fn ident_text(token: Option<&TokenTree>) -> Result<String, String> {
    match token {
        Some(TokenTree::Ident(id)) => Ok(id.to_string()),
        Some(other) => Err(format!("expected an identifier, found `{other}`")),
        None => Err("expected an identifier, found the end of the item".to_string()),
    }
}

/// Advance past `#[...]` attributes and `pub`/`pub(...)` visibility.
fn skip_attrs_and_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        if i < tokens.len() && is_punct(&tokens[i], '#') {
            i += 2; // '#' then the bracketed group
        } else if i < tokens.len() && is_ident(&tokens[i], "pub") {
            i += 1;
            if let Some(TokenTree::Group(group)) = tokens.get(i) {
                if group.delimiter() == Delimiter::Parenthesis {
                    i += 1;
                }
            }
        } else {
            return i;
        }
    }
}

/// Advance past a type, stopping after the `,` that ends it (or at end
/// of input). Groups are atomic tokens, so only `<`/`>` need balancing;
/// `->` must not close an angle bracket.
fn skip_type(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle_depth = 0i32;
    let mut prev_dash = false;
    while i < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[i] {
            let ch = p.as_char();
            match ch {
                '<' => angle_depth += 1,
                '>' if !prev_dash => angle_depth -= 1,
                ',' if angle_depth == 0 => return i + 1,
                _ => {}
            }
            prev_dash = ch == '-';
        } else {
            prev_dash = false;
        }
        i += 1;
    }
    i
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        fields.push(ident_text(tokens.get(i))?);
        i += 2; // field name, ':'
        i = skip_type(&tokens, i);
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        count += 1;
        i = skip_type(&tokens, i);
    }
    count
}

fn parse_fields(token: Option<&TokenTree>) -> Result<Fields, String> {
    Ok(match token {
        Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Brace => {
            Fields::Named(parse_named_fields(group.stream())?)
        }
        Some(TokenTree::Group(group)) if group.delimiter() == Delimiter::Parenthesis => {
            Fields::Tuple(count_tuple_fields(group.stream()))
        }
        _ => Fields::Unit,
    })
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        i = skip_attrs_and_vis(&tokens, i);
        if i >= tokens.len() {
            break;
        }
        let name = ident_text(tokens.get(i))?;
        let fields = parse_fields(tokens.get(i + 1))?;
        i += if matches!(fields, Fields::Unit) { 1 } else { 2 };
        // Skip an explicit discriminant (`= expr`) up to the separator.
        while i < tokens.len() && !is_punct(&tokens[i], ',') {
            i += 1;
        }
        i += 1; // ','
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn parse_input(input: TokenStream) -> Result<Input, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let i = skip_attrs_and_vis(&tokens, 0);
    let keyword = ident_text(tokens.get(i))?;
    let name = ident_text(tokens.get(i + 1))?;
    let body = tokens.get(i + 2);
    if body.is_some_and(|t| is_punct(t, '<')) {
        return Err(format!("Wire cannot be derived for the generic type `{name}`"));
    }
    let kind = match (keyword.as_str(), body) {
        ("struct", _) => Kind::Struct(parse_fields(body)?),
        ("enum", Some(TokenTree::Group(group))) if group.delimiter() == Delimiter::Brace => {
            Kind::Enum(parse_variants(group.stream())?)
        }
        _ => return Err(format!("Wire cannot be derived for `{keyword} {name}`")),
    };
    Ok(Input { name, kind })
}

/// How one struct or variant body is written: a pattern that binds its
/// fields (by reference, through `&self`), the encode of each binding in
/// order, and a constructor that decodes each field in the same order.
struct Body {
    pattern: String,
    encode: String,
    construct: String,
}

fn body(path: &str, fields: &Fields) -> Body {
    const DECODE: &str = "::tasq_codec::Wire::decode(__input)?";
    let (bindings, pattern, construct) = match fields {
        Fields::Named(names) => {
            let inits: Vec<String> = names.iter().map(|f| format!("{f}: {DECODE}")).collect();
            let pattern = format!("{path} {{ {} }}", names.join(", "));
            (names.clone(), pattern, format!("{path} {{ {} }}", inits.join(", ")))
        }
        Fields::Tuple(arity) => {
            let binders: Vec<String> = (0..*arity).map(|j| format!("__f{j}")).collect();
            let pattern = format!("{path}({})", binders.join(", "));
            (binders, pattern, format!("{path}({})", vec![DECODE; *arity].join(", ")))
        }
        Fields::Unit => (Vec::new(), path.to_string(), path.to_string()),
    };
    let encode =
        bindings.iter().map(|b| format!("::tasq_codec::Wire::encode({b}, __out);\n")).collect();
    Body { pattern, encode, construct }
}

fn gen_wire(input: &Input) -> String {
    let name = &input.name;
    let (encode, decode) = match &input.kind {
        Kind::Struct(fields) => {
            let Body { pattern, encode, construct } = body(name, fields);
            (
                format!("let {pattern} = self;\n{encode}"),
                format!("::core::result::Result::Ok({construct})\n"),
            )
        }
        Kind::Enum(variants) => {
            let mut encode = String::from("match self {\n");
            let mut decode =
                String::from("match <u32 as ::tasq_codec::Wire>::decode(__input)? {\n");
            for (idx, variant) in variants.iter().enumerate() {
                let Body { pattern, encode: fields, construct } =
                    body(&format!("{name}::{}", variant.name), &variant.fields);
                encode.push_str(&format!(
                    "{pattern} => {{\n::tasq_codec::Wire::encode(&{idx}u32, __out);\n{fields}}}\n"
                ));
                decode.push_str(&format!("{idx}u32 => ::core::result::Result::Ok({construct}),\n"));
            }
            encode.push_str("}\n");
            decode.push_str(
                "_ => ::core::result::Result::Err(::tasq_codec::CodecError::Invalid(\"enum variant index\")),\n}\n",
            );
            (encode, decode)
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::tasq_codec::Wire for {name} {{\n\
         #[inline]\n\
         fn encode(&self, __out: &mut ::std::vec::Vec<u8>) {{\n{encode}}}\n\
         #[inline]\n\
         fn decode(__input: &mut &[u8]) -> ::core::result::Result<Self, ::tasq_codec::CodecError> {{\n{decode}}}\n\
         }}\n"
    )
}

/// Derive `tasq_codec::Wire`.
#[proc_macro_derive(Wire)]
pub fn derive_wire(input: TokenStream) -> TokenStream {
    let source = match parse_input(input) {
        Ok(parsed) => gen_wire(&parsed),
        Err(message) => format!("::core::compile_error!({message:?});"),
    };
    source.parse().unwrap_or_else(|_| {
        "::core::compile_error!(\"derive(Wire) generated code that does not parse\");"
            .parse()
            .unwrap_or_default()
    })
}
