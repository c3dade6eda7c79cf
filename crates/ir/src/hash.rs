//! Structural hashing of functions for deduplication.
//!
//! Algorithm 2 of the paper deduplicates extracted instruction sequences by a
//! hash "based on the opcode and operands of each instruction". The hash here
//! is *structural*: it ignores value names and instruction ids, so two
//! sequences that differ only in naming collapse to the same digest, while any
//! difference in opcodes, flags, types, constants or dataflow shape changes it.

use crate::constant::Constant;
use crate::function::Function;
use crate::instruction::{InstId, InstKind, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A structural digest of a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64);

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

fn hash_value(func: &Function, v: &Value, numbering: &HashMap<InstId, usize>, h: &mut Fnv) {
    match v {
        Value::Arg(i) => {
            "arg".hash(h);
            i.hash(h);
            func.params[*i].ty.to_string().hash(h);
        }
        Value::Inst(id) => {
            "inst".hash(h);
            numbering.get(id).copied().unwrap_or(usize::MAX).hash(h);
        }
        Value::Const(c) => {
            "const".hash(h);
            hash_constant(c, h);
        }
    }
}

fn hash_constant(c: &Constant, h: &mut Fnv) {
    match c {
        Constant::Int(v) => {
            "int".hash(h);
            v.width().hash(h);
            v.zext_value().hash(h);
        }
        Constant::Float(k, v) => {
            "float".hash(h);
            format!("{k}").hash(h);
            v.to_bits().hash(h);
        }
        Constant::NullPtr => "null".hash(h),
        Constant::Undef(t) => {
            "undef".hash(h);
            t.to_string().hash(h);
        }
        Constant::Poison(t) => {
            "poison".hash(h);
            t.to_string().hash(h);
        }
        Constant::Vector(elems) => {
            "vector".hash(h);
            elems.len().hash(h);
            for e in elems {
                hash_constant(e, h);
            }
        }
    }
}

/// Computes the structural digest of a function.
///
/// The digest covers: the signature types; the block structure (block count
/// and per-block instruction counts, so the same instruction stream split
/// across blocks differently hashes differently); and for every placed
/// instruction in layout order its opcode, result type, flags, control-flow
/// targets (branch successors, phi incoming-block ids) and operands
/// (constants by value, instruction operands by their position in layout
/// order, arguments by index). Names never influence the digest.
///
/// Two functions with equal digests are behaviourally interchangeable —
/// modulo hash collision — which is what lets the digest key both the
/// execution engine's dedup cache and the translation validator's
/// compiled-function cache.
pub fn hash_function(func: &Function) -> Digest {
    let mut numbering = HashMap::new();
    for (pos, id) in func.iter_inst_ids().enumerate() {
        numbering.insert(id, pos);
    }
    let mut h = Fnv::new();
    func.ret_ty.to_string().hash(&mut h);
    func.params.len().hash(&mut h);
    for p in &func.params {
        p.ty.to_string().hash(&mut h);
    }
    func.blocks().len().hash(&mut h);
    for block in func.blocks() {
        block.insts.len().hash(&mut h);
    }
    for (_, inst) in func.iter_insts() {
        inst.kind.opcode_name().hash(&mut h);
        inst.ty.to_string().hash(&mut h);
        match &inst.kind {
            InstKind::Binary { flags, .. } | InstKind::Cast { flags, .. } => {
                flags.to_string().hash(&mut h);
            }
            InstKind::FBinary { fmf, .. } => fmf.to_string().hash(&mut h),
            InstKind::Alloca { ty } => ty.to_string().hash(&mut h),
            InstKind::ICmp { pred, .. } => pred.mnemonic().hash(&mut h),
            InstKind::FCmp { pred, .. } => pred.mnemonic().hash(&mut h),
            InstKind::Gep { inbounds, nuw, elem_ty, .. } => {
                inbounds.hash(&mut h);
                nuw.hash(&mut h);
                elem_ty.to_string().hash(&mut h);
            }
            InstKind::ShuffleVector { mask, .. } => mask.hash(&mut h),
            InstKind::Br { then_block, else_block, .. } => {
                then_block.0.hash(&mut h);
                else_block.map(|b| b.0).hash(&mut h);
            }
            InstKind::Phi { incoming } => {
                for (_, bb) in incoming {
                    bb.0.hash(&mut h);
                }
            }
            _ => {}
        }
        for op in inst.kind.operands() {
            hash_value(func, op, &numbering, &mut h);
        }
    }
    Digest(h.finish())
}

/// [`hash_function`] extended with everything else the printer renders:
/// the function name, parameter names, block labels, instruction result
/// names, call fast-math flags and memory alignments.
///
/// Two functions with equal named digests print the same text (modulo hash
/// collision). Memos whose results render names — a prompt prints every
/// name, a counterexample prints the source's parameter names — key on this
/// digest, so a renamed twin never replays text carrying the other
/// function's names.
pub fn hash_function_named(func: &Function) -> Digest {
    let mut h = Fnv(hash_function(func).0);
    func.name.hash(&mut h);
    for p in &func.params {
        p.name.hash(&mut h);
    }
    for block in func.blocks() {
        block.name.hash(&mut h);
    }
    for (_, inst) in func.iter_insts() {
        inst.name.hash(&mut h);
        match &inst.kind {
            InstKind::Call { fmf, .. } => fmf.to_string().hash(&mut h),
            InstKind::Load { align, .. } | InstKind::Store { align, .. } => align.hash(&mut h),
            _ => {}
        }
    }
    Digest(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::{BinOp, Value};
    use crate::parser::parse_function;
    use crate::types::Type;

    fn simple(name: &str, constant: i128, op: BinOp) -> Function {
        let mut b = FunctionBuilder::new(name, Type::i32());
        let x = b.add_param("x", Type::i32());
        let v = b.binary(op, x, Value::int_signed(32, constant));
        b.ret(Some(v));
        b.build()
    }

    #[test]
    fn names_do_not_matter() {
        let a = simple("alpha", 4, BinOp::Add);
        let b = simple("beta", 4, BinOp::Add);
        assert_eq!(hash_function(&a), hash_function(&b));
    }

    #[test]
    fn named_digests_tell_renamed_twins_apart() {
        let a = simple("alpha", 4, BinOp::Add);
        let b = simple("beta", 4, BinOp::Add);
        assert_ne!(hash_function_named(&a), hash_function_named(&b));
        assert_eq!(hash_function_named(&a), hash_function_named(&simple("alpha", 4, BinOp::Add)));
        // Every printed name counts, not just the function's.
        let x = parse_function("define i32 @f(i32 %x) {\n %r = add i32 %x, 1\n ret i32 %r\n}").unwrap();
        let y = parse_function("define i32 @f(i32 %y) {\n %r = add i32 %y, 1\n ret i32 %r\n}").unwrap();
        let s = parse_function("define i32 @f(i32 %x) {\n %s = add i32 %x, 1\n ret i32 %s\n}").unwrap();
        assert_eq!(hash_function(&x), hash_function(&y));
        assert_ne!(hash_function_named(&x), hash_function_named(&y));
        assert_ne!(hash_function_named(&x), hash_function_named(&s));
    }

    #[test]
    fn parsed_and_built_functions_agree() {
        let built = simple("f", 7, BinOp::Mul);
        let parsed = parse_function("define i32 @f(i32 %whatever) {\n %r = mul i32 %whatever, 7\n ret i32 %r\n}").unwrap();
        assert_eq!(hash_function(&built), hash_function(&parsed));
    }

    #[test]
    fn structure_changes_the_digest() {
        let base = simple("f", 4, BinOp::Add);
        assert_ne!(hash_function(&base), hash_function(&simple("f", 5, BinOp::Add)));
        assert_ne!(hash_function(&base), hash_function(&simple("f", 4, BinOp::Sub)));

        // Different flags change the digest.
        let flagged = parse_function("define i32 @f(i32 %x) {\n %r = add nsw i32 %x, 4\n ret i32 %r\n}").unwrap();
        assert_ne!(hash_function(&base), hash_function(&flagged));

        // Fast-math flags are execution-relevant (nnan turns NaN operands
        // into poison) and must change the digest.
        let plain_fadd = parse_function(
            "define double @f(double %x, double %y) {\n %r = fadd double %x, %y\n ret double %r\n}",
        )
        .unwrap();
        let nnan_fadd = parse_function(
            "define double @f(double %x, double %y) {\n %r = fadd nnan double %x, %y\n ret double %r\n}",
        )
        .unwrap();
        assert_ne!(hash_function(&plain_fadd), hash_function(&nnan_fadd));

        // The allocated type decides the allocation size (and therefore
        // which accesses are UB): it must change the digest too.
        let small_alloca = parse_function(
            "define void @f() {\n %p = alloca i8\n ret void\n}",
        )
        .unwrap();
        let big_alloca = parse_function(
            "define void @f() {\n %p = alloca i64\n ret void\n}",
        )
        .unwrap();
        assert_ne!(hash_function(&small_alloca), hash_function(&big_alloca));

        // Different argument types change the digest.
        let wide = parse_function("define i64 @f(i64 %x) {\n %r = add i64 %x, 4\n ret i64 %r\n}").unwrap();
        assert_ne!(hash_function(&base), hash_function(&wide));
    }

    #[test]
    fn dataflow_shape_matters() {
        // x+x vs x+y with an extra unused parameter shaping the same opcode list.
        let mut b = FunctionBuilder::new("f", Type::i32());
        let x = b.add_param("x", Type::i32());
        let _y = b.add_param("y", Type::i32());
        let v = b.add(x.clone(), x);
        b.ret(Some(v));
        let xx = b.build();

        let mut b = FunctionBuilder::new("f", Type::i32());
        let x = b.add_param("x", Type::i32());
        let y = b.add_param("y", Type::i32());
        let v = b.add(x, y);
        b.ret(Some(v));
        let xy = b.build();
        assert_ne!(hash_function(&xx), hash_function(&xy));
    }

    #[test]
    fn control_flow_shape_matters() {
        // Same instruction stream, opposite branch targets.
        let t1 = parse_function(
            "define i32 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  ret i32 1\n\
             b:\n  ret i32 2\n}",
        )
        .unwrap();
        let t2 = parse_function(
            "define i32 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %b, label %a\n\
             a:\n  ret i32 1\n\
             b:\n  ret i32 2\n}",
        )
        .unwrap();
        assert_ne!(hash_function(&t1), hash_function(&t2));

        // Renaming the successor blocks (same shape) keeps the digest.
        let t3 = parse_function(
            "define i32 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %x, label %y\n\
             x:\n  ret i32 1\n\
             y:\n  ret i32 2\n}",
        )
        .unwrap();
        assert_eq!(hash_function(&t1), hash_function(&t3));

        // Phi incoming-block swap changes the digest.
        let p1 = parse_function(
            "define i32 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  br label %join\n\
             b:\n  br label %join\n\
             join:\n  %r = phi i32 [ 1, %a ], [ 2, %b ]\n  ret i32 %r\n}",
        )
        .unwrap();
        let p2 = parse_function(
            "define i32 @f(i1 %c) {\n\
             entry:\n  br i1 %c, label %a, label %b\n\
             a:\n  br label %join\n\
             b:\n  br label %join\n\
             join:\n  %r = phi i32 [ 1, %b ], [ 2, %a ]\n  ret i32 %r\n}",
        )
        .unwrap();
        assert_ne!(hash_function(&p1), hash_function(&p2));
    }

    #[test]
    fn comparisons_and_vectors_hash_distinctly() {
        let f1 = parse_function(
            "define i1 @f(i32 %x) {\n %c = icmp slt i32 %x, 0\n ret i1 %c\n}",
        )
        .unwrap();
        let f2 = parse_function(
            "define i1 @f(i32 %x) {\n %c = icmp sgt i32 %x, 0\n ret i1 %c\n}",
        )
        .unwrap();
        assert_ne!(hash_function(&f1), hash_function(&f2));

        let v1 = parse_function(
            "define <4 x i32> @f(<4 x i32> %x) {\n %r = add <4 x i32> %x, splat (i32 1)\n ret <4 x i32> %r\n}",
        )
        .unwrap();
        let v2 = parse_function(
            "define <4 x i32> @f(<4 x i32> %x) {\n %r = add <4 x i32> %x, zeroinitializer\n ret <4 x i32> %r\n}",
        )
        .unwrap();
        assert_ne!(hash_function(&v1), hash_function(&v2));
    }
}
