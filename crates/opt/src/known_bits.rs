//! A small known-bits analysis used by InstCombine rules.
//!
//! Rules query a [`KnownBitsCtx`], which memoizes per instruction, so shared
//! def chains are walked once per function instead of once per use. The
//! recursive depth-capped [`known_bits`] query is kept as a **reference
//! oracle**: its tests pin the transfer rules, and
//! `memoized_context_is_at_least_as_precise_as_the_oracle` checks the
//! context subsumes it on fuzzed functions.

use std::cell::RefCell;
use std::collections::HashMap;

use lpo_ir::apint::ApInt;
use lpo_ir::constant::Constant;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, CastOp, InstId, InstKind, Intrinsic, Value};
use lpo_ir::types::Type;

/// Known-zero / known-one bit masks for one integer value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnownBits {
    /// Bits known to be zero.
    pub zeros: u128,
    /// Bits known to be one.
    pub ones: u128,
    /// The value's bit width.
    pub width: u32,
}

impl KnownBits {
    /// Nothing known for a value of the given width.
    pub fn unknown(width: u32) -> Self {
        Self { zeros: 0, ones: 0, width }
    }

    /// Everything known: the value is exactly `v`.
    pub fn constant(v: &ApInt) -> Self {
        let mask = mask_of(v.width());
        Self { zeros: !v.zext_value() & mask, ones: v.zext_value(), width: v.width() }
    }

    /// Returns the exact value if every bit is known.
    pub fn as_constant(&self) -> Option<ApInt> {
        if self.zeros | self.ones == mask_of(self.width) {
            Some(ApInt::new(self.width, self.ones))
        } else {
            None
        }
    }

    /// True when the sign bit is known zero.
    pub fn is_non_negative(&self) -> bool {
        self.zeros >> (self.width - 1) & 1 == 1
    }

    /// True when the sign bit is known one.
    pub fn is_negative(&self) -> bool {
        self.ones >> (self.width - 1) & 1 == 1
    }

    /// The largest value consistent with the known bits.
    pub fn umax(&self) -> u128 {
        !self.zeros & mask_of(self.width)
    }

    /// The smallest value consistent with the known bits.
    pub fn umin(&self) -> u128 {
        self.ones
    }

    /// Number of high bits known to be zero.
    pub fn leading_zeros(&self) -> u32 {
        let significant = 128 - self.width;
        (self.zeros << significant).leading_ones()
    }
}

/// All-ones mask for a value of `width` bits.
pub fn mask_of(width: u32) -> u128 {
    if width >= 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    }
}

/// Memoized per-function known-bits analysis.
///
/// Construct once per function, then query any number of values: each
/// instruction's bits are computed at most once, so a query over a def chain
/// with heavy sharing costs O(chain size) total instead of O(paths). The
/// transfer rules are a superset of the depth-capped [`known_bits`] query
/// (which remains as a reference oracle in the tests), so every bit that
/// query proves, the context proves too.
pub struct KnownBitsCtx<'f> {
    func: &'f Function,
    cache: RefCell<HashMap<u32, KnownBits>>,
}

impl<'f> KnownBitsCtx<'f> {
    /// A fresh context for `func`; nothing is computed until queried.
    pub fn new(func: &'f Function) -> Self {
        Self { func, cache: RefCell::new(HashMap::new()) }
    }

    /// Known bits of `value`, memoized per instruction.
    pub fn known_bits(&self, value: &Value) -> KnownBits {
        let ty = self.func.value_type(value);
        let width = match ty {
            Type::Int(w) => w,
            _ => return KnownBits::unknown(ty.int_width().unwrap_or(1)),
        };
        match value {
            Value::Const(Constant::Int(v)) => KnownBits::constant(v),
            Value::Const(_) | Value::Arg(_) => KnownBits::unknown(width),
            Value::Inst(id) => {
                if let Some(known) = self.cache.borrow().get(&id.0) {
                    return *known;
                }
                // Seed the cache with ⊤ before descending: a (malformed)
                // cyclic def chain then terminates at ⊤ instead of
                // recursing forever.
                self.cache.borrow_mut().insert(id.0, KnownBits::unknown(width));
                let known = self.compute(*id, width);
                self.cache.borrow_mut().insert(id.0, known);
                known
            }
        }
    }

    fn compute(&self, id: InstId, width: u32) -> KnownBits {
        let mask = mask_of(width);
        let inst = self.func.inst(id);
        match &inst.kind {
            InstKind::Binary { op, lhs, rhs, .. } => {
                let l = self.known_bits(lhs);
                let r = self.known_bits(rhs);
                match op {
                    BinOp::And => KnownBits {
                        zeros: (l.zeros | r.zeros) & mask,
                        ones: l.ones & r.ones,
                        width,
                    },
                    BinOp::Or => KnownBits {
                        zeros: l.zeros & r.zeros,
                        ones: (l.ones | r.ones) & mask,
                        width,
                    },
                    BinOp::Xor => {
                        let known = (l.zeros | l.ones) & (r.zeros | r.ones);
                        let value = (l.ones ^ r.ones) & known;
                        KnownBits { zeros: known & !value & mask, ones: value, width }
                    }
                    BinOp::Shl => match const_shift_amount(rhs, width) {
                        Some(amount) => KnownBits {
                            zeros: ((l.zeros << amount) | (mask_of(amount)) ) & mask,
                            ones: (l.ones << amount) & mask,
                            width,
                        },
                        None => KnownBits::unknown(width),
                    },
                    BinOp::LShr => match const_shift_amount(rhs, width) {
                        Some(amount) => {
                            let high = mask & !(mask >> amount);
                            KnownBits {
                                zeros: ((l.zeros & mask) >> amount) | high,
                                ones: (l.ones & mask) >> amount,
                                width,
                            }
                        }
                        None => KnownBits::unknown(width),
                    },
                    BinOp::AShr => match const_shift_amount(rhs, width) {
                        Some(amount) => {
                            let high = mask & !(mask >> amount);
                            let mut zeros = (l.zeros & mask) >> amount;
                            let mut ones = (l.ones & mask) >> amount;
                            if l.is_non_negative() {
                                zeros |= high;
                            } else if l.is_negative() {
                                ones |= high;
                            }
                            KnownBits { zeros: zeros & mask, ones: ones & mask, width }
                        }
                        None => KnownBits::unknown(width),
                    },
                    BinOp::URem => match constant_of(rhs) {
                        Some(c) if c.is_power_of_two() => KnownBits {
                            zeros: !(c.zext_value() - 1) & mask,
                            ones: 0,
                            width,
                        },
                        _ => KnownBits::unknown(width),
                    },
                    _ => KnownBits::unknown(width),
                }
            }
            InstKind::Cast { op: CastOp::ZExt, value, .. } => {
                let v = self.known_bits(value);
                let low = mask_of(v.width);
                KnownBits { zeros: (v.zeros & low) | (mask & !low), ones: v.ones & low, width }
            }
            InstKind::Cast { op: CastOp::SExt, value, .. } => {
                let v = self.known_bits(value);
                let low = mask_of(v.width);
                let high = mask & !low;
                let mut zeros = v.zeros & low;
                let mut ones = v.ones & low;
                if v.is_non_negative() {
                    zeros |= high;
                } else if v.is_negative() {
                    ones |= high;
                }
                KnownBits { zeros, ones, width }
            }
            InstKind::Cast { op: CastOp::Trunc, value, .. } => {
                let v = self.known_bits(value);
                KnownBits { zeros: v.zeros & mask, ones: v.ones & mask, width }
            }
            InstKind::Call { intrinsic: Intrinsic::Umin, args, .. } if args.len() == 2 => {
                let l = self.known_bits(&args[0]);
                let r = self.known_bits(&args[1]);
                // The result is no larger than either operand: high bits
                // known zero in either operand are known zero in the result.
                let lead = l.leading_zeros().max(r.leading_zeros());
                let zeros = if lead == 0 { 0 } else { mask & !(mask >> lead) };
                KnownBits { zeros, ones: 0, width }
            }
            InstKind::Call { intrinsic: Intrinsic::Smax, args, .. } if args.len() == 2 => {
                let l = self.known_bits(&args[0]);
                let r = self.known_bits(&args[1]);
                if l.is_non_negative() || r.is_non_negative() {
                    KnownBits { zeros: 1 << (width - 1), ones: 0, width }
                } else {
                    KnownBits::unknown(width)
                }
            }
            InstKind::Select { on_true, on_false, .. } => {
                let t = self.known_bits(on_true);
                let f = self.known_bits(on_false);
                KnownBits { zeros: t.zeros & f.zeros, ones: t.ones & f.ones, width }
            }
            _ => KnownBits::unknown(width),
        }
    }
}


/// Computes known bits for `value` inside `func`, recursing up to `depth`
/// levels through instruction operands.
///
/// Reference oracle only: production call sites use the memoized
/// [`KnownBitsCtx`], which is at least as precise (it shares this function's
/// transfer rules but walks each instruction once with no depth cap).
pub fn known_bits(func: &Function, value: &Value, depth: u32) -> KnownBits {
    let ty = func.value_type(value);
    let width = match ty.int_width() {
        Some(w) if !ty.is_vector() => w,
        _ => return KnownBits::unknown(ty.int_width().unwrap_or(1)),
    };
    if depth == 0 {
        return KnownBits::unknown(width);
    }
    match value {
        Value::Const(Constant::Int(v)) => KnownBits::constant(v),
        Value::Const(_) | Value::Arg(_) => KnownBits::unknown(width),
        Value::Inst(id) => {
            let inst = func.inst(*id);
            let mask = mask_of(width);
            match &inst.kind {
                InstKind::Binary { op, lhs, rhs, .. } => {
                    let l = known_bits(func, lhs, depth - 1);
                    let r = known_bits(func, rhs, depth - 1);
                    match op {
                        BinOp::And => KnownBits {
                            zeros: (l.zeros | r.zeros) & mask,
                            ones: l.ones & r.ones,
                            width,
                        },
                        BinOp::Or => KnownBits {
                            zeros: l.zeros & r.zeros,
                            ones: (l.ones | r.ones) & mask,
                            width,
                        },
                        BinOp::Xor => {
                            let known = (l.zeros | l.ones) & (r.zeros | r.ones);
                            let value = (l.ones ^ r.ones) & known;
                            KnownBits { zeros: known & !value & mask, ones: value, width }
                        }
                        BinOp::Shl => {
                            if let Some(amt) = const_shift_amount(rhs, width) {
                                KnownBits {
                                    zeros: ((l.zeros << amt) | (mask_of(amt.min(width))) ) & mask,
                                    ones: (l.ones << amt) & mask,
                                    width,
                                }
                            } else {
                                KnownBits::unknown(width)
                            }
                        }
                        BinOp::LShr => {
                            if let Some(amt) = const_shift_amount(rhs, width) {
                                let high_zeros = if amt == 0 {
                                    0
                                } else {
                                    (mask_of(amt) << (width - amt)) & mask
                                };
                                KnownBits {
                                    zeros: ((l.zeros >> amt) | high_zeros) & mask,
                                    ones: l.ones >> amt,
                                    width,
                                }
                            } else {
                                KnownBits::unknown(width)
                            }
                        }
                        BinOp::URem => {
                            if let Some(c) = constant_of(rhs) {
                                if c.is_power_of_two() {
                                    let bits = c.zext_value() - 1;
                                    return KnownBits { zeros: !bits & mask, ones: 0, width };
                                }
                            }
                            KnownBits::unknown(width)
                        }
                        _ => KnownBits::unknown(width),
                    }
                }
                InstKind::Cast { op: CastOp::ZExt, value, .. } => {
                    let inner = known_bits(func, value, depth - 1);
                    let inner_mask = mask_of(inner.width);
                    KnownBits {
                        zeros: (inner.zeros & inner_mask) | (mask & !inner_mask),
                        ones: inner.ones,
                        width,
                    }
                }
                InstKind::Cast { op: CastOp::Trunc, value, .. } => {
                    let inner = known_bits(func, value, depth - 1);
                    KnownBits { zeros: inner.zeros & mask, ones: inner.ones & mask, width }
                }
                InstKind::Call { intrinsic, args, .. } => match intrinsic {
                    Intrinsic::Umin => {
                        let l = known_bits(func, &args[0], depth - 1);
                        let r = known_bits(func, &args[1], depth - 1);
                        // The result is no larger than either bound, so every
                        // bit above the bound's highest possible set bit is zero.
                        let bound = l.umax().min(r.umax());
                        let significant = 128 - bound.leading_zeros();
                        let zeros = if significant >= width {
                            0
                        } else {
                            (mask << significant) & mask
                        };
                        KnownBits { zeros, ones: 0, width }
                    }
                    Intrinsic::Smax => {
                        let l = known_bits(func, &args[0], depth - 1);
                        let r = known_bits(func, &args[1], depth - 1);
                        if l.is_non_negative() || r.is_non_negative() {
                            KnownBits { zeros: 1 << (width - 1), ones: 0, width }
                        } else {
                            KnownBits::unknown(width)
                        }
                    }
                    _ => KnownBits::unknown(width),
                },
                InstKind::ICmp { .. } => KnownBits::unknown(width),
                InstKind::Select { on_true, on_false, .. } => {
                    let t = known_bits(func, on_true, depth - 1);
                    let f = known_bits(func, on_false, depth - 1);
                    KnownBits { zeros: t.zeros & f.zeros, ones: t.ones & f.ones, width }
                }
                _ => KnownBits::unknown(width),
            }
        }
    }
}

fn constant_of(value: &Value) -> Option<ApInt> {
    match value {
        Value::Const(Constant::Int(v)) => Some(*v),
        Value::Const(c) => c.splat_int().copied(),
        _ => None,
    }
}

fn const_shift_amount(value: &Value, width: u32) -> Option<u32> {
    let c = constant_of(value)?;
    let amt = c.zext_value();
    if amt < width as u128 {
        Some(amt as u32)
    } else {
        None
    }
}

/// Default recursion depth used by the InstCombine rules.
pub const DEFAULT_DEPTH: u32 = 6;

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;

    fn bits_of(text: &str, name: &str) -> KnownBits {
        let f = parse_function(text).unwrap();
        let id = f.inst_by_name(name).unwrap();
        known_bits(&f, &Value::Inst(id), DEFAULT_DEPTH)
    }

    #[test]
    fn constants_are_fully_known() {
        let k = KnownBits::constant(&ApInt::new(8, 0b1010_0001));
        assert_eq!(k.ones, 0b1010_0001);
        assert_eq!(k.zeros, 0b0101_1110);
        assert_eq!(k.as_constant().unwrap().zext_value(), 0b1010_0001);
        assert!(k.is_negative());
    }

    #[test]
    fn and_with_mask_clears_bits() {
        let k = bits_of(
            "define i8 @f(i8 %x) {\n %r = and i8 %x, 15\n ret i8 %r\n}",
            "r",
        );
        assert_eq!(k.zeros & 0xf0, 0xf0);
        assert!(k.is_non_negative());
        assert_eq!(k.umax(), 15);
        assert_eq!(k.leading_zeros(), 4);
    }

    #[test]
    fn or_sets_bits() {
        let k = bits_of(
            "define i8 @f(i8 %x) {\n %r = or i8 %x, 128\n ret i8 %r\n}",
            "r",
        );
        assert_eq!(k.ones & 0x80, 0x80);
        assert!(k.is_negative());
    }

    #[test]
    fn zext_makes_high_bits_zero() {
        let k = bits_of(
            "define i32 @f(i16 %x) {\n %r = zext i16 %x to i32\n ret i32 %r\n}",
            "r",
        );
        assert_eq!(k.zeros & 0xffff_0000, 0xffff_0000);
        assert!(k.is_non_negative());
    }

    #[test]
    fn shifts_track_zero_bits() {
        let k = bits_of(
            "define i8 @f(i8 %x) {\n %r = shl i8 %x, 4\n ret i8 %r\n}",
            "r",
        );
        assert_eq!(k.zeros & 0x0f, 0x0f);
        let k = bits_of(
            "define i8 @f(i8 %x) {\n %r = lshr i8 %x, 4\n ret i8 %r\n}",
            "r",
        );
        assert_eq!(k.zeros & 0xf0, 0xf0);
    }

    #[test]
    fn urem_by_power_of_two() {
        let k = bits_of(
            "define i32 @f(i32 %x) {\n %r = urem i32 %x, 8\n ret i32 %r\n}",
            "r",
        );
        assert_eq!(k.umax(), 7);
    }

    #[test]
    fn select_joins_both_arms() {
        let k = bits_of(
            "define i8 @f(i1 %c, i8 %x) {\n\
             %a = and i8 %x, 3\n\
             %b = and i8 %x, 12\n\
             %r = select i1 %c, i8 %a, i8 %b\n ret i8 %r\n}",
            "r",
        );
        assert_eq!(k.zeros & 0xf0, 0xf0);
        assert_eq!(k.umax(), 15);
    }

    #[test]
    fn depth_zero_and_arguments_are_unknown() {
        let f = parse_function("define i8 @f(i8 %x) {\n ret i8 %x\n}").unwrap();
        let k = known_bits(&f, &Value::Arg(0), DEFAULT_DEPTH);
        assert_eq!(k, KnownBits::unknown(8));
        let g = parse_function("define i8 @g(i8 %x) {\n %r = and i8 %x, 1\n ret i8 %r\n}").unwrap();
        let id = g.inst_by_name("r").unwrap();
        assert_eq!(known_bits(&g, &Value::Inst(id), 0), KnownBits::unknown(8));
    }

    #[test]
    fn xor_combines_known_bits() {
        let k = bits_of(
            "define i8 @f(i8 %x) {\n\
             %a = and i8 %x, 15\n\
             %r = xor i8 %a, 5\n ret i8 %r\n}",
            "r",
        );
        // High nibble known zero from the and, low nibble unknown except where
        // both sides were known.
        assert_eq!(k.zeros & 0xf0, 0xf0);
    }

    /// The memoized context must claim every bit the recursive oracle claims
    /// (it shares the transfer rules, walks without a depth cap, and memoizes
    /// shared chains), over a spread of fuzzed functions.
    #[test]
    fn memoized_context_is_at_least_as_precise_as_the_oracle() {
        for seed in 0..200u64 {
            let func = lpo_interp::fuzz::random_function(seed);
            let ctx = KnownBitsCtx::new(&func);
            for id in func.iter_inst_ids() {
                let value = Value::Inst(id);
                let oracle = known_bits(&func, &value, DEFAULT_DEPTH);
                let memoized = ctx.known_bits(&value);
                assert_eq!(memoized.width, oracle.width, "seed {seed}");
                assert_eq!(
                    memoized.zeros & oracle.zeros,
                    oracle.zeros,
                    "seed {seed}: oracle zeros lost on {value:?}"
                );
                assert_eq!(
                    memoized.ones & oracle.ones,
                    oracle.ones,
                    "seed {seed}: oracle ones lost on {value:?}"
                );
            }
        }
    }

    /// Both analyses must be *sound*: every claimed bit matches the concrete
    /// value on every evaluated input. Checked exhaustively on an i8 chain
    /// with heavy sharing (the memoized context walks it once).
    #[test]
    fn claimed_bits_are_sound_on_a_shared_chain() {
        let func = parse_function(
            "define i8 @f(i8 %x) {\n\
             %a = and i8 %x, 60\n\
             %b = lshr i8 %a, 2\n\
             %c = or i8 %b, %b\n\
             %d = xor i8 %c, %b\n\
             ret i8 %d\n}",
        )
        .unwrap();
        let ctx = KnownBitsCtx::new(&func);
        for x in 0..=255u128 {
            let a = x & 60;
            let b = a >> 2;
            let concrete = [("a", a), ("b", b), ("c", b | b), ("d", (b | b) ^ b)];
            for (name, v) in concrete {
                let id = func.inst_by_name(name).unwrap();
                for bits in [ctx.known_bits(&Value::Inst(id)), known_bits(&func, &Value::Inst(id), DEFAULT_DEPTH)] {
                    assert_eq!(bits.zeros & v, 0, "%{name} claims a zero bit set in {v:#x}");
                    assert_eq!(bits.ones & !v & 0xff, 0, "%{name} claims a one bit clear in {v:#x}");
                }
            }
        }
    }

    #[test]
    fn memoized_known_bits_match_spot_checks() {
        let func = parse_function(
            "define i8 @f(i8 %x) {\nentry:\n  %a = and i8 %x, 15\n  %b = shl i8 %a, 2\n  %c = or i8 %b, 1\n  ret i8 %c\n}",
        )
        .expect("parse");
        let ctx = KnownBitsCtx::new(&func);
        let bits = ctx.known_bits(func.return_value().expect("ret"));
        assert_eq!(bits.ones, 0b0000_0001);
        assert_eq!(bits.zeros, 0b1100_0000 | 0b0000_0010);
        // Memoized: querying twice hits the cache and agrees.
        assert_eq!(ctx.known_bits(func.return_value().expect("ret")), bits);

        // A 64-rung ladder where every rung uses the previous one twice: a
        // walk without memoization takes ~2^64 steps here. The top rung
        // queried on a fresh context must equal what one context reaches
        // when the rungs are queried bottom-up.
        let mut body = String::from("  %v0 = and i64 %x, 255\n");
        for i in 1..=64 {
            body.push_str(&format!("  %v{i} = add i64 %v{}, %v{}\n", i - 1, i - 1));
        }
        let ladder =
            parse_function(&format!("define i64 @chain(i64 %x) {{\nentry:\n{body}  ret i64 %v64\n}}"))
                .expect("parse");
        let top = KnownBitsCtx::new(&ladder).known_bits(ladder.return_value().expect("ret"));
        let bottom_up = KnownBitsCtx::new(&ladder);
        let rungs: Vec<KnownBits> = ladder
            .iter_insts()
            .filter(|(_, inst)| !inst.kind.is_terminator())
            .map(|(id, _)| bottom_up.known_bits(&Value::Inst(id)))
            .collect();
        assert_eq!(rungs.len(), 65);
        assert_eq!(rungs.last(), Some(&top));
    }
}
