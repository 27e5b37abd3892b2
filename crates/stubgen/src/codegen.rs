//! Rust code generation from a checked interface program.
//!
//! The generated module contains, per the stub compiler description of
//! §7.1: a `wire` declaration for every declared constructor type (which
//! supplies its external representation), client stubs (request builders
//! and reply decoders), and a server skeleton — a handler trait plus a
//! dispatcher implementing `circus::Service`.
//!
//! Two lessons from the paper shape the output:
//!
//! - **Explicit binding (§7.3)** is the only mode: every client stub
//!   takes the target troupe as a parameter (the paper's binding handle),
//!   since "the import procedure cannot maintain global state information
//!   if the client uses the different servers concurrently".
//! - **Explicit replication (§7.4)** is an option: with it, additional
//!   stubs expose the full per-member response set (the paper's
//!   generators) via the `GatherAll` collator.

use crate::ast::{Field, Program, Type};
use std::fmt::Write as _;

/// Code generation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct Options {
    /// Also generate explicit-replication stubs (§7.4).
    pub explicit_replication: bool,
}

/// Converts CamelCase/mixedCase to snake_case, guarding Rust keywords.
pub fn snake(name: &str) -> String {
    let mut out = String::new();
    let mut prev_lower = false;
    for c in name.chars() {
        if c.is_ascii_uppercase() {
            if prev_lower {
                out.push('_');
            }
            out.push(c.to_ascii_lowercase());
            prev_lower = false;
        } else {
            prev_lower = c.is_ascii_lowercase() || c.is_ascii_digit();
            out.push(c);
        }
    }
    const KEYWORDS: &[&str] = &[
        "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern",
        "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut",
        "pub", "ref", "return", "self", "static", "struct", "super", "trait", "true", "type",
        "unsafe", "use", "where", "while",
    ];
    if KEYWORDS.contains(&out.as_str()) {
        out.push('_');
    }
    out
}

/// Upper-snake for constants.
fn shout(name: &str) -> String {
    snake(name).to_ascii_uppercase()
}

/// The Rust type corresponding to a Courier type expression.
///
/// Constructor types (records, enumerations, choices) only appear at top
/// level (enforced by `check`), so this needs only the alias-like cases.
fn rust_type(ty: &Type) -> String {
    match ty {
        Type::Named(n) => n.clone(),
        Type::Boolean => "bool".into(),
        Type::Cardinal => "u16".into(),
        Type::LongCardinal => "u32".into(),
        Type::Integer => "i16".into(),
        Type::LongInteger => "i32".into(),
        Type::String_ => "String".into(),
        Type::Unspecified => "u16".into(),
        Type::Sequence(inner) => format!("Vec<{}>", rust_type(inner)),
        Type::Array(n, inner) => format!("[{}; {}]", rust_type(inner), n),
        Type::Record(_) | Type::Enumeration(_) | Type::Choice(_) => {
            unreachable!("constructors are top-level only (checked)")
        }
    }
}

fn gen_type_decl(out: &mut String, name: &str, ty: &Type) {
    match ty {
        Type::Record(fields) => declare(
            out,
            "record",
            "Clone, Debug, PartialEq",
            &format!("pub struct {name}"),
            fields
                .iter()
                .map(|f| format!("pub {}: {}", snake(&f.name), rust_type(&f.ty))),
        ),
        Type::Enumeration(items) => declare(
            out,
            "enumeration",
            "Clone, Copy, Debug, PartialEq, Eq, Hash",
            &format!("pub enum {name}"),
            items
                .iter()
                .map(|(item, value)| format!("{} = {value}", camel(item))),
        ),
        Type::Choice(arms) => declare(
            out,
            "choice",
            "Clone, Debug, PartialEq",
            &format!("pub enum {name}"),
            arms.iter()
                .map(|(arm, value, ty)| format!("{}({}) = {value}", camel(arm), rust_type(ty))),
        ),
        other => {
            let _ = writeln!(out, "pub type {name} = {};\n", rust_type(other));
        }
    }
}

/// Emits a constructor type as its `wire` declaration (`wire::record!`,
/// `wire::enumeration!` or `wire::choice!`), which lays it out on the
/// wire: `item` is the type's head, `members` its fields, items or arms.
fn declare(
    out: &mut String,
    kind: &str,
    derives: &str,
    item: &str,
    members: impl Iterator<Item = String>,
) {
    let _ = writeln!(
        out,
        "wire::{kind}! {{\n    #[derive({derives})]\n    {item} {{"
    );
    for member in members {
        let _ = writeln!(out, "        {member},");
    }
    let _ = writeln!(out, "    }}\n}}\n");
}

pub(crate) fn camel(name: &str) -> String {
    let mut out = String::new();
    let mut upper_next = true;
    for c in name.chars() {
        if c == '_' || c == '-' {
            upper_next = true;
        } else if upper_next {
            out.push(c.to_ascii_uppercase());
            upper_next = false;
        } else {
            out.push(c);
        }
    }
    out
}

/// The Rust tuple type of a procedure's results.
fn returns_type(fields: &[Field]) -> String {
    match fields.len() {
        0 => "()".into(),
        1 => rust_type(&fields[0].ty),
        _ => {
            let inner: Vec<String> = fields.iter().map(|f| rust_type(&f.ty)).collect();
            format!("({})", inner.join(", "))
        }
    }
}

/// Generates the whole Rust module source for a checked program.
pub fn generate(p: &Program, opts: Options) -> String {
    let mut out = String::new();
    let prog = &p.name;
    let has_errors = p.errors().next().is_some();
    let err_enum = format!("{prog}Error");
    let failure = format!("{prog}Failure");

    let _ = writeln!(
        out,
        "// Generated by stubgen from interface {prog} (program {}, version {}).",
        p.number, p.version
    );
    let _ = writeln!(out, "// DO NOT EDIT.");
    let _ = writeln!(out, "//");
    let _ = writeln!(
        out,
        "// Binding is explicit (§7.3): every client stub builds a request the"
    );
    let _ = writeln!(out, "// caller addresses to a troupe it imported itself.");
    let _ = writeln!(out);
    let _ = writeln!(out, "/// The Courier program number.");
    let _ = writeln!(out, "pub const PROGRAM: u32 = {};", p.number);
    let _ = writeln!(out, "/// The interface version.");
    let _ = writeln!(out, "pub const VERSION: u16 = {};\n", p.version);

    // Types.
    for (name, ty) in p.types() {
        gen_type_decl(&mut out, name, ty);
    }

    // Errors.
    if has_errors {
        let _ = writeln!(
            out,
            "/// The errors this interface may report (REPORTS clauses)."
        );
        let _ = writeln!(out, "#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]");
        let _ = writeln!(out, "pub enum {err_enum} {{");
        for (name, _) in p.errors() {
            let _ = writeln!(out, "    {},", camel(name));
        }
        let _ = writeln!(out, "}}\n");
        let _ = writeln!(out, "impl {err_enum} {{");
        let _ = writeln!(out, "    /// The declared error number.");
        let _ = writeln!(out, "    pub fn code(self) -> u16 {{");
        let _ = writeln!(out, "        match self {{");
        for (name, code) in p.errors() {
            let _ = writeln!(out, "            {err_enum}::{} => {},", camel(name), code);
        }
        let _ = writeln!(out, "        }}\n    }}\n");
        let _ = writeln!(out, "    /// Inverse of [`{err_enum}::code`].");
        let _ = writeln!(out, "    pub fn from_code(code: u16) -> Option<Self> {{");
        let _ = writeln!(out, "        match code {{");
        for (name, code) in p.errors() {
            let _ = writeln!(
                out,
                "            {} => Some({err_enum}::{}),",
                code,
                camel(name)
            );
        }
        let _ = writeln!(out, "            _ => None,");
        let _ = writeln!(out, "        }}\n    }}\n");
        let _ = writeln!(
            out,
            "    /// Encoding used on the error channel of return messages."
        );
        let _ = writeln!(out, "    pub fn wire_tag(self) -> String {{");
        let _ = writeln!(out, "        format!(\"E{{}}.{{}}\", PROGRAM, self.code())");
        let _ = writeln!(out, "    }}\n");
        let _ = writeln!(out, "    /// Inverse of [`{err_enum}::wire_tag`].");
        let _ = writeln!(
            out,
            "    pub fn from_wire_tag(tag: &str) -> Option<Self> {{"
        );
        let _ = writeln!(
            out,
            "        let rest = tag.strip_prefix(&format!(\"E{{}}.\", PROGRAM))?;"
        );
        let _ = writeln!(out, "        Self::from_code(rest.parse().ok()?)");
        let _ = writeln!(out, "    }}\n}}\n");
    }

    // Failure type for clients.
    let _ = writeln!(out, "/// Why a call through these stubs failed.");
    let _ = writeln!(out, "#[derive(Clone, Debug, PartialEq)]");
    let _ = writeln!(out, "pub enum {failure} {{");
    if has_errors {
        let _ = writeln!(
            out,
            "    /// The remote procedure reported a declared error."
        );
        let _ = writeln!(out, "    Reported({err_enum}),");
    }
    let _ = writeln!(out, "    /// The replicated call itself failed.");
    let _ = writeln!(out, "    Rpc(circus::CallError),");
    let _ = writeln!(out, "    /// The reply did not internalize as declared.");
    let _ = writeln!(out, "    Garbled,");
    let _ = writeln!(out, "}}\n");

    // Procedure numbers.
    let _ = writeln!(out, "/// Procedure numbers within this interface.");
    let _ = writeln!(out, "pub mod procs {{");
    for proc in p.procedures() {
        let _ = writeln!(out, "    /// `{}`", proc.name);
        let _ = writeln!(
            out,
            "    pub const {}: u16 = {};",
            shout(&proc.name),
            proc.number
        );
    }
    let _ = writeln!(out, "}}\n");

    // Client stubs.
    let _ = writeln!(
        out,
        "/// Client stubs: request builders and reply decoders."
    );
    let _ = writeln!(out, "pub mod client {{");
    let _ = writeln!(out, "    use super::*;\n");
    for proc in p.procedures() {
        let fn_name = snake(&proc.name);
        let params: Vec<String> = proc
            .params
            .iter()
            .map(|f| format!("{}: &{}", snake(&f.name), rust_type(&f.ty)))
            .collect();
        let rty = returns_type(&proc.returns);

        let _ = writeln!(
            out,
            "    /// Builds the `(procedure, arguments)` request for `{}`.",
            proc.name
        );
        let _ = writeln!(
            out,
            "    pub fn {fn_name}_request({}) -> (u16, Vec<u8>) {{",
            params.join(", ")
        );
        let _ = writeln!(out, "        let mut w = wire::Writer::new();");
        for f in &proc.params {
            let _ = writeln!(
                out,
                "        wire::Externalize::externalize({}, &mut w);",
                snake(&f.name)
            );
        }
        let _ = writeln!(out, "        (procs::{}, w.finish())", shout(&proc.name));
        let _ = writeln!(out, "    }}\n");

        let _ = writeln!(
            out,
            "    /// Decodes the collated reply of `{}`.",
            proc.name
        );
        let _ = writeln!(
            out,
            "    pub fn {fn_name}_result(result: Result<Vec<u8>, circus::CallError>) -> Result<{rty}, {failure}> {{"
        );
        let _ = writeln!(out, "        match result {{");
        let _ = writeln!(
            out,
            "            Ok(bytes) => decode_{fn_name}_reply(&bytes).ok_or({failure}::Garbled),"
        );
        if has_errors {
            let _ = writeln!(out, "            Err(circus::CallError::Remote(tag)) => {{");
            let _ = writeln!(
                out,
                "                match {err_enum}::from_wire_tag(&tag) {{"
            );
            let _ = writeln!(
                out,
                "                    Some(e) => Err({failure}::Reported(e)),"
            );
            let _ = writeln!(
                out,
                "                    None => Err({failure}::Rpc(circus::CallError::Remote(tag))),"
            );
            let _ = writeln!(out, "                }}");
            let _ = writeln!(out, "            }}");
        }
        let _ = writeln!(out, "            Err(e) => Err({failure}::Rpc(e)),");
        let _ = writeln!(out, "        }}\n    }}\n");

        let _ = writeln!(
            out,
            "    /// Internalizes one `{}` reply payload.",
            proc.name
        );
        let _ = writeln!(
            out,
            "    pub fn decode_{fn_name}_reply(bytes: &[u8]) -> Option<{rty}> {{"
        );
        let reader_mut = if proc.returns.is_empty() { "" } else { "mut " };
        let _ = writeln!(out, "        let {reader_mut}r = wire::Reader::new(bytes);");
        for (i, f) in proc.returns.iter().enumerate() {
            let _ = writeln!(
                out,
                "        let v{i}: {} = wire::Internalize::internalize(&mut r).ok()?;",
                rust_type(&f.ty)
            );
        }
        let _ = writeln!(out, "        r.expect_end().ok()?;");
        let tuple = match proc.returns.len() {
            0 => "()".to_string(),
            1 => "v0".to_string(),
            n => {
                let vs: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
                format!("({})", vs.join(", "))
            }
        };
        let _ = writeln!(out, "        Some({tuple})");
        let _ = writeln!(out, "    }}\n");

        if opts.explicit_replication {
            let _ = writeln!(
                out,
                "    /// Explicit replication (§7.4): decodes the full per-member"
            );
            let _ = writeln!(
                out,
                "    /// response set of `{}` from a call made with",
                proc.name
            );
            let _ = writeln!(
                out,
                "    /// `circus::gather_all_collation()`. Crashed members are `None`;"
            );
            let _ = writeln!(
                out,
                "    /// iterate the vector as the paper iterates its generator."
            );
            let _ = writeln!(
                out,
                "    pub fn {fn_name}_replies(result: Result<Vec<u8>, circus::CallError>) -> Result<Vec<Option<Result<{rty}, {failure}>>>, {failure}> {{"
            );
            let _ = writeln!(out, "        let bytes = result.map_err({failure}::Rpc)?;");
            let _ = writeln!(out, "        let gathered = circus::decode_gathered(&bytes).map_err(|_| {failure}::Garbled)?;");
            let _ = writeln!(out, "        Ok(gathered");
            let _ = writeln!(out, "            .into_iter()");
            let _ = writeln!(out, "            .map(|per_member| per_member.map(|raw| {{");
            let _ = writeln!(
                out,
                "                match circus::unwrap_reply_vote(&raw) {{"
            );
            let _ = writeln!(out, "                    Some(payload) => decode_{fn_name}_reply(&payload).ok_or({failure}::Garbled),");
            let _ = writeln!(out, "                    None => Err({failure}::Garbled),");
            let _ = writeln!(out, "                }}");
            let _ = writeln!(out, "            }}))");
            let _ = writeln!(out, "            .collect())");
            let _ = writeln!(out, "    }}\n");
        }
    }
    let _ = writeln!(out, "}}\n");

    // Server skeleton.
    let handler = format!("{prog}Handler");
    let dispatcher = format!("{prog}Dispatcher");
    let _ = writeln!(out, "/// Implement this to serve the `{prog}` interface.");
    let _ = writeln!(out, "pub trait {handler}: 'static {{");
    for proc in p.procedures() {
        let fn_name = snake(&proc.name);
        let params: Vec<String> = proc
            .params
            .iter()
            .map(|f| format!("{}: {}", snake(&f.name), rust_type(&f.ty)))
            .collect();
        let rty = returns_type(&proc.returns);
        let ret = if has_errors {
            format!("Result<{rty}, {err_enum}>")
        } else {
            rty
        };
        let _ = writeln!(out, "    /// `{}` (procedure {}).", proc.name, proc.number);
        let _ = writeln!(
            out,
            "    fn {fn_name}(&mut self, ctx: &circus::ServiceCtx{}{}) -> {ret};",
            if params.is_empty() { "" } else { ", " },
            params.join(", ")
        );
    }
    let _ = writeln!(out, "\n    /// State transfer out (§6.4.1).");
    let _ = writeln!(out, "    fn get_state(&self) -> Vec<u8> {{ Vec::new() }}");
    let _ = writeln!(out, "    /// State transfer in (§6.4.1).");
    let _ = writeln!(out, "    fn set_state(&mut self, _state: &[u8]) {{}}");
    let _ = writeln!(
        out,
        "    /// Argument collation for many-to-one calls (§4.3.2, §7.4)."
    );
    let _ = writeln!(
        out,
        "    fn arg_collation(&self, _proc: u16) -> circus::CollationPolicy {{"
    );
    let _ = writeln!(out, "        circus::CollationPolicy::Unanimous");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}\n");

    let _ = writeln!(out, "/// Adapts a [`{handler}`] to the Circus runtime.");
    let _ = writeln!(out, "pub struct {dispatcher}<H: {handler}>(pub H);\n");
    let _ = writeln!(
        out,
        "impl<H: {handler}> circus::Service for {dispatcher}<H> {{"
    );
    let _ = writeln!(
        out,
        "    fn dispatch(&mut self, ctx: &mut circus::ServiceCtx, proc: u16, args: &[u8]) -> circus::Step {{"
    );
    let any_params = p.procedures().any(|pr| !pr.params.is_empty());
    let reader_mut = if any_params { "mut " } else { "" };
    let _ = writeln!(out, "        let {reader_mut}r = wire::Reader::new(args);");
    if !any_params {
        let _ = writeln!(out, "        let _ = &r;");
    }
    let _ = writeln!(out, "        match proc {{");
    for proc in p.procedures() {
        let fn_name = snake(&proc.name);
        let _ = writeln!(out, "            procs::{} => {{", shout(&proc.name));
        for (i, f) in proc.params.iter().enumerate() {
            let _ = writeln!(
                out,
                "                let a{i}: {} = match wire::Internalize::internalize(&mut r) {{",
                rust_type(&f.ty)
            );
            let _ = writeln!(out, "                    Ok(v) => v,");
            let _ = writeln!(
                out,
                "                    Err(e) => return circus::Step::Error(format!(\"bad arguments: {{e}}\")),"
            );
            let _ = writeln!(out, "                }};");
        }
        let arg_list: Vec<String> = (0..proc.params.len()).map(|i| format!("a{i}")).collect();
        let call = format!(
            "self.0.{fn_name}(ctx{}{})",
            if arg_list.is_empty() { "" } else { ", " },
            arg_list.join(", ")
        );
        if has_errors {
            let _ = writeln!(out, "                match {call} {{");
            let _ = writeln!(
                out,
                "                    Ok(result) => circus::Step::Reply(wire::to_bytes(&result)),"
            );
            let _ = writeln!(
                out,
                "                    Err(e) => circus::Step::Error(e.wire_tag()),"
            );
            let _ = writeln!(out, "                }}");
        } else {
            let _ = writeln!(out, "                let result = {call};");
            let _ = writeln!(
                out,
                "                circus::Step::Reply(wire::to_bytes(&result))"
            );
        }
        let _ = writeln!(out, "            }}");
    }
    let _ = writeln!(
        out,
        "            other => circus::Step::Error(format!(\"no procedure {{other}} in {prog}\")),"
    );
    let _ = writeln!(out, "        }}\n    }}\n");
    let _ = writeln!(
        out,
        "    fn get_state(&self) -> Vec<u8> {{ self.0.get_state() }}\n"
    );
    let _ = writeln!(
        out,
        "    fn set_state(&mut self, state: &[u8]) {{ self.0.set_state(state) }}\n"
    );
    let _ = writeln!(
        out,
        "    fn arg_collation(&self, proc: u16) -> circus::CollationPolicy {{"
    );
    let _ = writeln!(out, "        self.0.arg_collation(proc)");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}");

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake("Register"), "register");
        assert_eq!(snake("lookupTroupeByName"), "lookup_troupe_by_name");
        assert_eq!(snake("AlreadyExists"), "already_exists");
        assert_eq!(snake("type"), "type_");
        assert_eq!(snake("HTTPServer"), "httpserver");
    }

    #[test]
    fn camel_case_conversion() {
        assert_eq!(camel("red"), "Red");
        assert_eq!(camel("already_exists"), "AlreadyExists");
        assert_eq!(camel("not-found"), "NotFound");
    }

    #[test]
    fn rust_types() {
        assert_eq!(rust_type(&Type::Boolean), "bool");
        assert_eq!(rust_type(&Type::LongCardinal), "u32");
        assert_eq!(
            rust_type(&Type::Sequence(Box::new(Type::String_))),
            "Vec<String>"
        );
        assert_eq!(
            rust_type(&Type::Array(3, Box::new(Type::Cardinal))),
            "[u16; 3]"
        );
    }

    #[test]
    fn returns_tuples() {
        let f = |name: &str, ty: Type| Field {
            name: name.into(),
            ty,
        };
        assert_eq!(returns_type(&[]), "()");
        assert_eq!(returns_type(&[f("a", Type::Cardinal)]), "u16");
        assert_eq!(
            returns_type(&[f("a", Type::Cardinal), f("b", Type::String_)]),
            "(u16, String)"
        );
    }
}
