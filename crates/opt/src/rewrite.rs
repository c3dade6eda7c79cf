//! Shared helpers for writing rewrite rules.
//!
//! A rule is a plain function over the function being optimized, with the
//! [`RewriteRule`] signature; it returns `true` when it changed the IR. The
//! helpers here cover the two common rewrite shapes (replace-with-value,
//! mutate-in-place), splat-aware constant matching, and inserting helper
//! instructions for expanding rules.
//!
//! ```
//! use lpo_ir::function::Function;
//! use lpo_ir::instruction::{BinOp, BlockId, InstId, InstKind};
//! use lpo_ir::parser::parse_function;
//! use lpo_opt::rewrite::{is_zero, replace_with};
//!
//! /// `add %x, 0` → `%x`, written against the rule signature.
//! fn add_identity(func: &mut Function, id: InstId, _b: BlockId, _p: usize) -> bool {
//!     match &func.inst(id).kind {
//!         InstKind::Binary { op: BinOp::Add, lhs, rhs, .. } if is_zero(rhs) => {
//!             let lhs = lhs.clone();
//!             replace_with(func, id, lhs)
//!         }
//!         _ => false,
//!     }
//! }
//!
//! let mut f = parse_function(
//!     "define i32 @f(i32 %x) {\n %a = add i32 %x, 0\n ret i32 %a\n}",
//! )?;
//! let block = f.entry();
//! let target = f.block(block).insts[0];
//! assert!(add_identity(&mut f, target, block, 0));
//! // The add is gone and `ret` now returns the parameter directly.
//! assert_eq!(f.instruction_count(), 0);
//! assert_eq!(f.describe_value(f.return_value().unwrap()), "%x");
//! # Ok::<(), lpo_ir::parser::ParseError>(())
//! ```

use lpo_ir::apint::ApInt;
use lpo_ir::constant::Constant;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BlockId, InstId, InstKind, Instruction, Value};
use lpo_ir::types::Type;

/// The signature every rewrite rule implements.
pub type RewriteRule = fn(&mut Function, InstId, BlockId, usize) -> bool;

/// A named rewrite rule, so pipelines and ablations can report which rules fired.
#[derive(Clone, Copy)]
pub struct NamedRule {
    /// A short identifier, e.g. `add-identity` or `patch-143636`.
    pub name: &'static str,
    /// The rule function.
    pub rule: RewriteRule,
}

impl std::fmt::Debug for NamedRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NamedRule({})", self.name)
    }
}

/// Replaces every use of `id` with `value` and erases `id` when it has no side
/// effects. Returns whether the function changed (for use as a rule tail
/// call): `false` only when `id` had no uses to replace and its side effects
/// (a division that may trap) keep it in place. A rule reporting a change
/// there would re-fire at the same position forever.
pub fn replace_with(func: &mut Function, id: InstId, value: Value) -> bool {
    let replaced = !func.is_unused(id) && value != Value::Inst(id);
    func.replace_all_uses_with(id, &value);
    let erased = !func.inst(id).kind.has_side_effects();
    if erased {
        func.erase_inst(id);
    }
    replaced || erased
}

/// Rewrites the instruction in place, keeping its name and position. Routed
/// through [`Function::set_inst_kind`] so the maintained use lists stay
/// coherent with the new operands.
pub fn mutate(func: &mut Function, id: InstId, kind: InstKind, ty: Type) -> bool {
    func.set_inst_kind(id, kind, ty);
    true
}

/// Inserts a new instruction immediately before position `pos` of `block` and
/// returns a [`Value`] referring to it. Used by expanding rules that need a
/// helper instruction (e.g. building `smax` + `umin` out of a `select`).
///
/// The generated name is derived from the arena length, which only grows
/// during a pipeline run — so identical rule-application histories produce
/// identical names regardless of *when* dead instructions are swept (the
/// rescan pipeline defers DCE to the end of an iteration, the worklist engine
/// erases eagerly; both must print byte-identical results).
pub fn insert_before(
    func: &mut Function,
    block: BlockId,
    pos: usize,
    kind: InstKind,
    ty: Type,
    name_hint: &str,
) -> Value {
    let name = format!("{name_hint}.{}", func.inst_arena_len());
    let id = func.insert_inst(block, pos, Instruction::new(kind, ty, name));
    Value::Inst(id)
}

/// Returns the scalar integer constant this operand denotes, looking through
/// splat vectors (`splat (i32 255)` and `zeroinitializer` included).
pub fn as_const_int(value: &Value) -> Option<ApInt> {
    match value {
        Value::Const(Constant::Int(v)) => Some(*v),
        Value::Const(c @ Constant::Vector(_)) => c.splat_int().copied(),
        _ => None,
    }
}

/// Returns the constant this operand denotes, if any.
pub fn as_const(value: &Value) -> Option<&Constant> {
    value.as_const()
}

/// Returns `true` if the operand is the integer constant zero (or a zero splat).
pub fn is_zero(value: &Value) -> bool {
    value.as_const().map(Constant::is_zero).unwrap_or(false)
}

/// Returns `true` if the operand is the all-ones integer constant (or splat).
pub fn is_all_ones(value: &Value) -> bool {
    value.as_const().map(Constant::is_all_ones).unwrap_or(false)
}

/// Returns `true` if the operand is the integer constant one (or splat of ones).
pub fn is_one(value: &Value) -> bool {
    value.as_const().map(Constant::is_one).unwrap_or(false)
}

/// Builds an integer constant operand of the given (possibly vector) type.
pub fn const_int_of(ty: &Type, value: i128) -> Value {
    let width = ty.scalar_type().int_width().expect("integer type");
    let scalar = Constant::int_signed(width, value);
    match ty.lanes() {
        Some(n) => Value::Const(Constant::splat(n, scalar)),
        None => Value::Const(scalar),
    }
}

/// Builds an integer constant operand of the given type from an [`ApInt`].
pub fn const_apint_of(ty: &Type, value: ApInt) -> Value {
    match ty.lanes() {
        Some(n) => Value::Const(Constant::splat(n, Constant::Int(value))),
        None => Value::Const(Constant::Int(value)),
    }
}

/// Builds the boolean constant of the given (possibly `<N x i1>`) type.
pub fn const_bool_of(ty: &Type, value: bool) -> Value {
    match ty.lanes() {
        Some(n) => Value::Const(Constant::splat(n, Constant::bool(value))),
        None => Value::Const(Constant::bool(value)),
    }
}

/// Returns `true` if two operand values are structurally identical.
pub fn same_value(a: &Value, b: &Value) -> bool {
    a == b
}

/// Returns the defining instruction of an operand, if it is an instruction result.
pub fn defining_inst<'f>(func: &'f Function, value: &Value) -> Option<(InstId, &'f InstKind)> {
    match value {
        Value::Inst(id) => Some((*id, &func.inst(*id).kind)),
        _ => None,
    }
}

/// Returns how many placed instructions use `id` (convenience wrapper).
pub fn use_count(func: &Function, id: InstId) -> usize {
    func.num_users(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::builder::FunctionBuilder;
    use lpo_ir::instruction::BinOp;

    #[test]
    fn constant_matchers_see_through_splats() {
        let splat_255 = Value::Const(Constant::splat(4, Constant::int(32, 255)));
        assert_eq!(as_const_int(&splat_255).unwrap().zext_value(), 255);
        let zero_vec = Value::Const(Constant::zero(&Type::vector(4, Type::i32())));
        assert!(is_zero(&zero_vec));
        assert_eq!(as_const_int(&zero_vec).unwrap().zext_value(), 0);
        assert!(is_all_ones(&Value::int_signed(8, -1)));
        assert!(is_one(&Value::int(8, 1)));
        assert!(as_const_int(&Value::Arg(0)).is_none());
    }

    #[test]
    fn typed_constant_builders() {
        let v = const_int_of(&Type::vector(4, Type::i8()), -1);
        assert!(is_all_ones(&v));
        let s = const_int_of(&Type::i16(), 300);
        assert_eq!(as_const_int(&s).unwrap().zext_value(), 300);
        let b = const_bool_of(&Type::vector(2, Type::i1()), true);
        assert!(b.as_const().unwrap().is_splat());
        let a = const_apint_of(&Type::i8(), ApInt::new(8, 7));
        assert_eq!(as_const_int(&a).unwrap().zext_value(), 7);
    }

    #[test]
    fn replace_and_mutate_helpers() {
        let mut b = FunctionBuilder::new("f", Type::i32());
        let x = b.add_param("x", Type::i32());
        let a = b.add(x.clone(), Value::int(32, 0));
        let c = b.mul(a.clone(), Value::int(32, 2));
        b.ret(Some(c.clone()));
        let mut f = b.build();
        let add_id = a.as_inst().unwrap();
        let mul_id = c.as_inst().unwrap();

        assert!(replace_with(&mut f, add_id, x.clone()));
        assert_eq!(f.instruction_count(), 1);

        assert!(mutate(
            &mut f,
            mul_id,
            InstKind::Binary { op: BinOp::Shl, lhs: x, rhs: Value::int(32, 1), flags: Default::default() },
            Type::i32()
        ));
        assert_eq!(f.inst(mul_id).kind.opcode_name(), "shl");
    }

    #[test]
    fn replace_with_reports_whether_the_function_changed() {
        use lpo_ir::parser::parse_function;
        use lpo_ir::printer::print_function;
        // A dead division that may trap: no use to replace, and its side
        // effects keep it in place, so nothing changes.
        let mut f = parse_function(
            "define i8 @f(i8 %x, i8 %y) {\n %d = sdiv i8 %x, %y\n ret i8 %x\n}",
        )
        .unwrap();
        let before = print_function(&f);
        let div = f.block(f.entry()).insts[0];
        assert!(!replace_with(&mut f, div, Value::int(8, 0)));
        assert_eq!(print_function(&f), before);
        assert!(f.verify_use_lists().is_ok());
        // A used division changes through its uses even though it stays.
        let mut g = parse_function(
            "define i8 @f(i8 %x, i8 %y) {\n %d = sdiv i8 %x, %y\n ret i8 %d\n}",
        )
        .unwrap();
        let div = g.block(g.entry()).insts[0];
        assert!(replace_with(&mut g, div, Value::int(8, 0)));
        assert_eq!(g.describe_value(g.return_value().unwrap()), "0");
    }

    #[test]
    fn insert_before_places_instruction() {
        let mut b = FunctionBuilder::new("f", Type::i32());
        let x = b.add_param("x", Type::i32());
        let a = b.add(x.clone(), Value::int(32, 1));
        b.ret(Some(a));
        let mut f = b.build();
        let entry = f.entry();
        let v = insert_before(
            &mut f,
            entry,
            0,
            InstKind::Binary { op: BinOp::Mul, lhs: x, rhs: Value::int(32, 3), flags: Default::default() },
            Type::i32(),
            "m",
        );
        assert!(v.as_inst().is_some());
        assert_eq!(f.block(entry).insts.len(), 3);
        assert_eq!(f.inst(f.block(entry).insts[0]).kind.opcode_name(), "mul");
    }

    #[test]
    fn misc_queries() {
        let mut b = FunctionBuilder::new("f", Type::i32());
        let x = b.add_param("x", Type::i32());
        let a = b.add(x.clone(), Value::int(32, 1));
        let c = b.mul(a.clone(), a.clone());
        b.ret(Some(c));
        let f = b.build();
        let add_id = a.as_inst().unwrap();
        assert_eq!(use_count(&f, add_id), 1);
        assert!(defining_inst(&f, &a).is_some());
        assert!(defining_inst(&f, &x).is_none());
        assert!(same_value(&a, &a.clone()));
        assert!(!same_value(&a, &x));
    }
}
