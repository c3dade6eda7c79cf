//! Constant folding: instructions whose operands are all constants are
//! replaced by their result.

use crate::rewrite::replace_with;
use lpo_interp::eval::{fold_instruction, to_constant};
use lpo_interp::value::EvalValue;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BlockId, InstId, InstKind, Value};

/// Attempts to fold the instruction at `id` into a constant.
///
/// Memory instructions, control flow, and instructions whose evaluation would
/// be undefined behaviour (e.g. `udiv %x, 0`) are never folded.
pub fn constant_fold(func: &mut Function, id: InstId, _block: BlockId, _pos: usize) -> bool {
    let inst = func.inst(id);
    if inst.kind.touches_memory() || inst.kind.is_terminator() || matches!(inst.kind, InstKind::Phi { .. }) {
        return false;
    }
    let operands = inst.kind.operands();
    if operands.is_empty() || !operands.iter().all(|op| op.is_const()) {
        return false;
    }
    let values: Vec<EvalValue> = operands
        .iter()
        .map(|op| EvalValue::from_constant(op.as_const().expect("checked const")))
        .collect();
    let Some(result) = fold_instruction(&inst.kind, &values, &inst.ty) else {
        return false;
    };
    let Some(constant) = to_constant(&result, &inst.ty) else {
        return false;
    };
    replace_with(func, id, Value::Const(constant))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;
    use lpo_ir::printer::print_function;

    fn fold_all(text: &str) -> String {
        let mut f = parse_function(text).unwrap();
        let worklist: Vec<_> = f.iter_inst_ids().collect();
        for id in worklist {
            if f.iter_inst_ids().any(|i| i == id) {
                let entry = f.entry();
                constant_fold(&mut f, id, entry, 0);
            }
        }
        print_function(&f)
    }

    #[test]
    fn folds_arithmetic_chains() {
        let out = fold_all(
            "define i32 @f() {\n %a = add i32 2, 3\n %b = mul i32 %a, 4\n ret i32 %b\n}",
        );
        assert!(out.contains("ret i32 20"));
        assert!(!out.contains("add"));
        assert!(!out.contains("mul"));
    }

    #[test]
    fn folds_comparisons_selects_and_casts() {
        let out = fold_all(
            "define i8 @f() {\n\
             %c = icmp slt i32 -5, 0\n\
             %s = select i1 %c, i32 10, i32 20\n\
             %t = trunc i32 %s to i8\n\
             ret i8 %t\n}",
        );
        assert!(out.contains("ret i8 10"));
    }

    #[test]
    fn folds_intrinsics_and_vectors() {
        let out = fold_all(
            "define i32 @f() {\n %m = call i32 @llvm.umin.i32(i32 300, i32 255)\n ret i32 %m\n}",
        );
        assert!(out.contains("ret i32 255"));
        let out = fold_all(
            "define <2 x i8> @v() {\n %r = add <2 x i8> <i8 1, i8 2>, <i8 10, i8 20>\n ret <2 x i8> %r\n}",
        );
        assert!(out.contains("ret <2 x i8> <i8 11, i8 22>"));
    }

    #[test]
    fn does_not_fold_ub_or_memory() {
        let out = fold_all("define i32 @f() {\n %d = udiv i32 1, 0\n ret i32 %d\n}");
        assert!(out.contains("udiv"));
        // A poison, undef or zero divisor is UB whatever the dividend, never
        // a foldable poison.
        for divisor in ["poison", "undef", "0", "<i8 1, i8 poison>", "<i8 1, i8 0>"] {
            let ty = if divisor.starts_with('<') { "<2 x i8>" } else { "i8" };
            let out = fold_all(&format!(
                "define {ty} @f() {{\n %d = srem {ty} poison, {divisor}\n ret {ty} %d\n}}"
            ));
            assert!(out.contains("srem"), "{divisor}: {out}");
        }
        let out = fold_all(
            "define i32 @g(ptr %p) {\n %v = load i32, ptr %p, align 4\n ret i32 %v\n}",
        );
        assert!(out.contains("load"));
    }

    #[test]
    fn folds_flag_violations_to_poison() {
        let out = fold_all("define i8 @f() {\n %a = add nuw i8 200, 100\n ret i8 %a\n}");
        assert!(out.contains("ret i8 poison"));
    }

    #[test]
    fn leaves_non_constant_operands_alone() {
        let out = fold_all("define i32 @f(i32 %x) {\n %a = add i32 %x, 3\n ret i32 %a\n}");
        assert!(out.contains("add i32 %x, 3"));
    }
}
