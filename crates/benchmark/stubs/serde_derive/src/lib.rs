//! Offline stand-in for `serde_derive`: emits the marker impls of the
//! stand-in `serde`, parsing only as far as the item's name (no type in
//! this workspace that derives serde traits is generic).

use proc_macro::{TokenStream, TokenTree};

/// The identifier after the first top-level `struct`/`enum`/`union`.
fn item_name(input: TokenStream) -> String {
    let mut iter = input.into_iter();
    while let Some(tt) = iter.next() {
        if let TokenTree::Ident(id) = &tt {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" || kw == "union" {
                if let Some(TokenTree::Ident(name)) = iter.next() {
                    return name.to_string();
                }
            }
        }
    }
    panic!("serde stand-in derive: no struct/enum name found");
}

/// `#[derive(Serialize)]`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    format!("impl ::serde::Serialize for {} {{}}", item_name(input))
        .parse()
        .expect("generated impl parses")
}

/// `#[derive(Deserialize)]`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    format!("impl<'de> ::serde::Deserialize<'de> for {} {{}}", item_name(input))
        .parse()
        .expect("generated impl parses")
}
