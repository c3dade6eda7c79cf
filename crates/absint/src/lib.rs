//! Abstract interpretation over the straight-line scalar-int fragment.
//!
//! Two analyses live here:
//!
//! * [`KnownBits`] + [`KnownBitsCtx`] — the known-zero/known-one bit analysis
//!   used by InstCombine rules in `lpo-opt`. The context memoizes per
//!   instruction, so shared def chains are walked once per function instead
//!   of once per query (the old free-function query re-walked the whole
//!   chain under a depth cap).
//! * [`AbsValue`] + [`FunctionAnalysis`] — a product domain of known bits,
//!   an unsigned interval and a signed interval, with poison/undef may-flags,
//!   evaluated forward over the straight-line scalar-int (≤ 64-bit) fragment
//!   the plane tier supports. [`certificate`] turns a source/candidate pair
//!   of analyses into a pre-verification [`Certificate`]: `Refuted` when the
//!   two return values are provably disjoint for every input (so any concrete
//!   input is a counterexample), `Proved` when both sides provably compute
//!   the same value on every input (same singleton constant, or structurally
//!   identical return DAGs under singleton-constant folding).
//!
//! # Soundness contract
//!
//! Abstract conclusions are only ever a *pre-filter certificate* for the
//! concrete verifier: a `Refuted` certificate promises that **every** concrete
//! input refutes the candidate (the source is provably concrete and defined,
//! and the value sets never intersect), and a `Proved` certificate promises
//! the candidate's verdict equals the full concrete sweep's `Correct`. Every
//! transfer function over-approximates the plane-kernel semantics in
//! `lpo_interp::plane` — including flag-poison (`nuw`/`nsw`/`exact`/
//! `disjoint`/`nneg`), shift-amount poison, and division UB. When in doubt a
//! transfer returns ⊤ (and sets `may_poison`/`may_ub`), which can only make
//! the tier fall through to the concrete probe, never lie.
//! `tests/absint_differential.rs` fuzzes thousands of source/candidate pairs
//! and asserts no certificate ever disagrees with the concrete reference.

use std::cell::RefCell;
use std::collections::HashMap;

use lpo_ir::apint::ApInt;
use lpo_ir::constant::Constant;
use lpo_ir::flags::IntFlags;
use lpo_ir::function::Function;
use lpo_ir::instruction::{BinOp, CastOp, ICmpPred, InstId, InstKind, Intrinsic, Value};
use lpo_ir::types::Type;

/// Functions larger than this are outside the fragment. Keeps the analysis
/// linear and guarantees a straight-line evaluation never nears the
/// interpreter step limit.
const MAX_INSTS: usize = 4096;

/// Budget of instruction-pair comparisons for the return-DAG equality check.
const DAG_BUDGET: usize = 2048;

// ---------------------------------------------------------------------------
// Known bits (u128, any width): the InstCombine-facing analysis.
// ---------------------------------------------------------------------------

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
/// transfer rules are a superset of the old free-function `known_bits` query
/// in `lpo-opt` (which remains as a reference oracle in its tests), so every
/// bit the old analysis proves, the context proves too.
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
                    BinOp::Shl => match const_shift_amount(self.func, rhs, width) {
                        Some(amount) => KnownBits {
                            zeros: ((l.zeros << amount) | (mask_of(amount)) ) & mask,
                            ones: (l.ones << amount) & mask,
                            width,
                        },
                        None => KnownBits::unknown(width),
                    },
                    BinOp::LShr => match const_shift_amount(self.func, rhs, width) {
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
                    BinOp::AShr => match const_shift_amount(self.func, rhs, width) {
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
                    BinOp::URem => match constant_of(self.func, rhs) {
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

fn constant_of<'a>(func: &'a Function, value: &'a Value) -> Option<&'a ApInt> {
    match value {
        Value::Const(Constant::Int(v)) => Some(v),
        _ => {
            let _ = func;
            None
        }
    }
}

fn const_shift_amount(func: &Function, value: &Value, width: u32) -> Option<u32> {
    let amount = constant_of(func, value)?.zext_value();
    (amount < u128::from(width)).then_some(amount as u32)
}

// ---------------------------------------------------------------------------
// The TV-facing product domain (u64, widths 1..=64).
// ---------------------------------------------------------------------------

#[inline]
fn mask64(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Sign-extends the low `w` bits of `v` to an `i64`.
#[inline]
fn sx64(v: u64, w: u32) -> i64 {
    ((v << (64 - w)) as i64) >> (64 - w)
}

#[inline]
fn smin_of(w: u32) -> i64 {
    sx64(1u64 << (w - 1), w)
}

#[inline]
fn smax_of(w: u32) -> i64 {
    (mask64(w) >> 1) as i64
}

/// One value in the product domain: known bits × unsigned interval × signed
/// interval, plus may-poison / may-undef flags. Intervals are inclusive; the
/// signed bounds are sign-extended `w`-bit values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsValue {
    /// Bit width, 1..=64.
    pub width: u32,
    /// Bits known to be zero.
    pub zeros: u64,
    /// Bits known to be one.
    pub ones: u64,
    /// Smallest possible value, unsigned.
    pub umin: u64,
    /// Largest possible value, unsigned.
    pub umax: u64,
    /// Smallest possible value, signed.
    pub smin: i64,
    /// Largest possible value, signed.
    pub smax: i64,
    /// The value may be poison.
    pub may_poison: bool,
    /// The value may be undef.
    pub may_undef: bool,
}

impl AbsValue {
    /// ⊤: any concrete value of the width, neither poison nor undef.
    #[inline]
    pub fn top(width: u32) -> Self {
        Self {
            width,
            zeros: 0,
            ones: 0,
            umin: 0,
            umax: mask64(width),
            smin: smin_of(width),
            smax: smax_of(width),
            may_poison: false,
            may_undef: false,
        }
    }

    /// The singleton `v` (masked to the width).
    #[inline]
    pub fn constant(width: u32, v: u64) -> Self {
        let v = v & mask64(width);
        Self {
            width,
            zeros: !v & mask64(width),
            ones: v,
            umin: v,
            umax: v,
            smin: sx64(v, width),
            smax: sx64(v, width),
            may_poison: false,
            may_undef: false,
        }
    }

    /// Neither poison nor undef is possible.
    #[inline]
    pub fn is_concrete(&self) -> bool {
        !self.may_poison && !self.may_undef
    }

    /// The single concrete value, when exactly one is possible.
    #[inline]
    pub fn singleton(&self) -> Option<u64> {
        if self.umin == self.umax {
            Some(self.umin)
        } else if self.zeros | self.ones == mask64(self.width) {
            Some(self.ones)
        } else {
            None
        }
    }

    /// Whether the concrete value `v` is inside the abstraction.
    #[inline]
    pub fn contains(&self, v: u64) -> bool {
        let v = v & mask64(self.width);
        v & self.zeros == 0
            && self.ones & !v == 0
            && self.umin <= v
            && v <= self.umax
            && self.smin <= sx64(v, self.width)
            && sx64(v, self.width) <= self.smax
    }

    #[inline]
    fn with_flags(mut self, may_poison: bool, may_undef: bool) -> Self {
        self.may_poison |= may_poison;
        self.may_undef |= may_undef;
        self
    }

    /// Cross-tightens the three value components (each derivation is sound:
    /// it only removes values no component admits). An inconsistent product
    /// (which a sound transfer never produces) is repaired to ⊤ rather than
    /// ever being read as an empty set — a bug then loses precision, not
    /// soundness.
    #[inline]
    fn normalized(mut self) -> Self {
        let w = self.width;
        let m = mask64(w);
        let half = 1u64 << (w - 1);
        // Known bits → unsigned range.
        self.umin = self.umin.max(self.ones);
        self.umax = self.umax.min(!self.zeros & m);
        // Unsigned range → common-prefix known bits.
        let diff = self.umin ^ self.umax;
        let fixed = if diff == 0 { m } else { m & !(u64::MAX >> diff.leading_zeros()) };
        self.ones |= self.umin & fixed;
        self.zeros |= !self.umin & fixed & m;
        // Signed range → unsigned range (when the set stays in one half).
        if self.smin >= 0 {
            self.umin = self.umin.max(self.smin as u64);
            self.umax = self.umax.min(self.smax.max(0) as u64);
        } else if self.smax < 0 {
            self.umin = self.umin.max(self.smin as u64 & m);
            self.umax = self.umax.min(self.smax as u64 & m);
        }
        // Unsigned range → signed range.
        if self.umax < half {
            self.smin = self.smin.max(self.umin as i64);
            self.smax = self.smax.min(self.umax as i64);
        } else if self.umin >= half {
            self.smin = self.smin.max(sx64(self.umin, w));
            self.smax = self.smax.min(sx64(self.umax, w));
        }
        // Sign bit ↔ signed range.
        if self.smin >= 0 {
            self.zeros |= half;
        }
        if self.smax < 0 {
            self.ones |= half;
        }
        if self.zeros & half != 0 {
            self.smin = self.smin.max(0);
        }
        if self.ones & half != 0 {
            self.smax = self.smax.min(-1);
        }
        if self.zeros & self.ones != 0 || self.umin > self.umax || self.smin > self.smax {
            let (p, u) = (self.may_poison, self.may_undef);
            return AbsValue::top(w).with_flags(p, u);
        }
        self
    }

    #[inline]
    fn from_bits(width: u32, zeros: u64, ones: u64) -> Self {
        let m = mask64(width);
        AbsValue { zeros: zeros & m, ones: ones & m, ..AbsValue::top(width) }.normalized()
    }

    #[inline]
    fn from_urange(width: u32, umin: u64, umax: u64) -> Self {
        AbsValue { umin, umax, ..AbsValue::top(width) }.normalized()
    }

    #[inline]
    fn from_srange(width: u32, smin: i64, smax: i64) -> Self {
        AbsValue { smin, smax, ..AbsValue::top(width) }.normalized()
    }
}

/// Least upper bound of two abstractions of the same width.
pub fn join(a: &AbsValue, b: &AbsValue) -> AbsValue {
    AbsValue {
        width: a.width,
        zeros: a.zeros & b.zeros,
        ones: a.ones & b.ones,
        umin: a.umin.min(b.umin),
        umax: a.umax.max(b.umax),
        smin: a.smin.min(b.smin),
        smax: a.smax.max(b.smax),
        may_poison: a.may_poison | b.may_poison,
        may_undef: a.may_undef | b.may_undef,
    }
    .normalized()
}

/// True when no concrete value can be in both abstractions: a known-bits
/// conflict, or disjoint unsigned or signed intervals.
pub fn disjoint(a: &AbsValue, b: &AbsValue) -> bool {
    a.width == b.width
        && (a.ones & b.zeros != 0
            || a.zeros & b.ones != 0
            || a.umax < b.umin
            || b.umax < a.umin
            || a.smax < b.smin
            || b.smax < a.smin)
}

// ---------------------------------------------------------------------------
// Transfer functions. Each mirrors (over-approximates) the corresponding
// plane kernel in `lpo_interp::plane`, including flag-poison and UB.
// ---------------------------------------------------------------------------

/// The number of low bits known (zero or one) in both operands: the low bits
/// of `x op y` for op ∈ {add, sub, mul} depend only on the low bits of the
/// operands, so that many result bits are exact.
#[inline]
fn known_low_run(a: &AbsValue, b: &AbsValue) -> u32 {
    let known = (a.zeros | a.ones) & (b.zeros | b.ones);
    (!known).trailing_zeros()
}

#[inline]
fn bits_from_low_run(w: u32, a: &AbsValue, b: &AbsValue, exact_low: u64) -> (u64, u64) {
    let run = known_low_run(a, b).min(w);
    if run == 0 {
        return (0, 0);
    }
    let low = mask64(run);
    (!exact_low & low, exact_low & low)
}

#[inline]
fn signed_fits(w: u32, v: i128) -> bool {
    i128::from(smin_of(w)) <= v && v <= i128::from(smax_of(w))
}

fn binary_transfer(op: BinOp, flags: IntFlags, a: &AbsValue, b: &AbsValue, may_ub: &mut bool) -> AbsValue {
    let w = a.width;
    let m = mask64(w);
    // Division UB is decided on the raw lane values in the plane kernels, so
    // an unknown or possibly-poisonous divisor has to be assumed trapping.
    if op.is_division() {
        let smin_pat = smin_of(w) as u64 & m;
        let unsafe_divisor = !b.is_concrete()
            || !a.is_concrete()
            || b.contains(0)
            || (matches!(op, BinOp::SDiv | BinOp::SRem) && a.contains(smin_pat) && b.contains(m));
        if unsafe_divisor {
            *may_ub = true;
        }
    }
    if !a.is_concrete() || !b.is_concrete() {
        // A poisonous operand forces the result conservative: value ⊤, the
        // operand flags OR-combined, plus any flag- or shift-poison the op
        // itself could add.
        let own_poison = !flags.is_empty() || op.is_shift();
        return AbsValue::top(w)
            .with_flags(a.may_poison | b.may_poison | own_poison, a.may_undef | b.may_undef);
    }
    let mut r = match op {
        BinOp::Add => {
            let (uo, us) = (u128::from(a.umin) + u128::from(b.umin), u128::from(a.umax) + u128::from(b.umax));
            let (so, ss) = (i128::from(a.smin) + i128::from(b.smin), i128::from(a.smax) + i128::from(b.smax));
            let mut r = AbsValue::top(w);
            if us <= u128::from(m) {
                r.umin = uo as u64;
                r.umax = us as u64;
            }
            if signed_fits(w, so) && signed_fits(w, ss) {
                r.smin = so as i64;
                r.smax = ss as i64;
            }
            let (z, o) = bits_from_low_run(w, a, b, a.ones.wrapping_add(b.ones));
            r.zeros = z;
            r.ones = o;
            let mut r = r.normalized();
            if flags.nuw && us > u128::from(m) {
                r.may_poison = true;
            }
            if flags.nsw && !(signed_fits(w, so) && signed_fits(w, ss)) {
                r.may_poison = true;
            }
            r
        }
        BinOp::Sub => {
            let mut r = AbsValue::top(w);
            if a.umin >= b.umax {
                r.umin = a.umin - b.umax;
                r.umax = a.umax - b.umin;
            }
            let (so, ss) = (i128::from(a.smin) - i128::from(b.smax), i128::from(a.smax) - i128::from(b.smin));
            if signed_fits(w, so) && signed_fits(w, ss) {
                r.smin = so as i64;
                r.smax = ss as i64;
            }
            let (z, o) = bits_from_low_run(w, a, b, a.ones.wrapping_sub(b.ones));
            r.zeros = z;
            r.ones = o;
            let mut r = r.normalized();
            if flags.nuw && a.umin < b.umax {
                r.may_poison = true;
            }
            if flags.nsw && !(signed_fits(w, so) && signed_fits(w, ss)) {
                r.may_poison = true;
            }
            r
        }
        BinOp::Mul => {
            let uhi = u128::from(a.umax) * u128::from(b.umax);
            let corners = [
                i128::from(a.smin) * i128::from(b.smin),
                i128::from(a.smin) * i128::from(b.smax),
                i128::from(a.smax) * i128::from(b.smin),
                i128::from(a.smax) * i128::from(b.smax),
            ];
            let sfit = corners.iter().all(|&c| signed_fits(w, c));
            let mut r = AbsValue::top(w);
            if uhi <= u128::from(m) {
                r.umin = (u128::from(a.umin) * u128::from(b.umin)) as u64;
                r.umax = uhi as u64;
            }
            if sfit {
                r.smin = *corners.iter().min().unwrap() as i64;
                r.smax = *corners.iter().max().unwrap() as i64;
            }
            let (mut z, o) = bits_from_low_run(w, a, b, a.ones.wrapping_mul(b.ones));
            // Trailing zeros add under multiplication.
            let tz = (a.zeros.trailing_ones() + b.zeros.trailing_ones()).min(w);
            z |= mask64(tz);
            r.zeros = z & !o;
            r.ones = o;
            let mut r = r.normalized();
            if flags.nuw && uhi > u128::from(m) {
                r.may_poison = true;
            }
            if flags.nsw && !sfit {
                r.may_poison = true;
            }
            r
        }
        BinOp::UDiv => {
            let lo = a.umin / b.umax.max(1);
            let hi = a.umax / b.umin.max(1);
            let mut r = AbsValue::from_urange(w, lo, hi);
            if flags.exact && !exact_division_is_safe(a, b) {
                r.may_poison = true;
            }
            r
        }
        BinOp::SDiv => {
            let mut r = if b.smin > 0 || b.smax < 0 {
                let mut lo = i64::MAX;
                let mut hi = i64::MIN;
                let mut fits = true;
                for x in [a.smin, a.smax] {
                    for y in [b.smin, b.smax] {
                        let q = i128::from(x) / i128::from(y);
                        fits &= signed_fits(w, q);
                        lo = lo.min(q.clamp(i64::MIN.into(), i64::MAX.into()) as i64);
                        hi = hi.max(q.clamp(i64::MIN.into(), i64::MAX.into()) as i64);
                    }
                }
                if fits { AbsValue::from_srange(w, lo, hi) } else { AbsValue::top(w) }
            } else {
                AbsValue::top(w)
            };
            if flags.exact && !exact_division_is_safe(a, b) {
                r.may_poison = true;
            }
            r
        }
        BinOp::URem => {
            if let Some(c) = b.singleton().filter(|&c| c.is_power_of_two()) {
                AbsValue::from_bits(w, !(c - 1), 0)
            } else {
                AbsValue::from_urange(w, 0, a.umax.min(b.umax.saturating_sub(1)))
            }
        }
        BinOp::SRem => {
            // |x srem y| < |y| and the sign follows the dividend. The
            // magnitude bound |y| - 1 must be computed before clamping to
            // i64: a divisor of SMIN has magnitude 2^63, whose remainders
            // reach i64::MAX — clamping first would lose that last value.
            let bmag = i128::from(b.smin)
                .unsigned_abs()
                .max(i128::from(b.smax).unsigned_abs());
            let mag = bmag.saturating_sub(1).min(u128::from(u64::MAX >> 1)) as i64;
            let lo = if a.smin >= 0 { 0 } else { -mag };
            let hi = if a.smax < 0 { 0 } else { mag.min(a.smax.max(0)) };
            AbsValue::from_srange(w, lo.max(a.smin.min(0)), hi)
        }
        BinOp::Shl => {
            let mut r = if let Some(k) = b.singleton().filter(|&k| k < u64::from(w)) {
                let k = k as u32;
                let mut r = AbsValue::from_bits(w, (a.zeros << k) | mask64(k), a.ones << k);
                if u128::from(a.umax) << k <= u128::from(m) {
                    r.umin = r.umin.max(a.umin << k);
                    r.umax = r.umax.min(a.umax << k);
                    r = r.normalized();
                }
                r
            } else {
                // Unknown amount: at least b.umin low bits become zero.
                let low = mask64(b.umin.min(u64::from(w)) as u32);
                AbsValue::from_bits(w, low, 0)
            };
            if b.umax >= u64::from(w) {
                r.may_poison = true;
            }
            if flags.nuw && !(b.umax < u64::from(w) && u128::from(a.umax) << b.umax <= u128::from(m)) {
                r.may_poison = true;
            }
            if flags.nsw {
                let safe = b.umax < u64::from(w)
                    && signed_fits(w, i128::from(a.smin) << b.umax)
                    && signed_fits(w, i128::from(a.smax) << b.umax);
                if !safe {
                    r.may_poison = true;
                }
            }
            r
        }
        BinOp::LShr => {
            let k1 = b.umin.min(63) as u32;
            let k2 = b.umax.min(63) as u32;
            let mut r = AbsValue::from_urange(w, a.umin >> k2, a.umax >> k1);
            if let Some(k) = b.singleton().filter(|&k| k < u64::from(w)) {
                let k = k as u32;
                let high = m & !(m >> k);
                r = AbsValue {
                    zeros: r.zeros | ((a.zeros & m) >> k) | high,
                    ones: r.ones | ((a.ones & m) >> k),
                    ..r
                }
                .normalized();
            }
            if b.umax >= u64::from(w) {
                r.may_poison = true;
            }
            if flags.exact && !exact_shift_is_safe(a, b) {
                r.may_poison = true;
            }
            r
        }
        BinOp::AShr => {
            let mut lo = i64::MAX;
            let mut hi = i64::MIN;
            for x in [a.smin, a.smax] {
                for k in [b.umin.min(63) as u32, b.umax.min(63) as u32] {
                    lo = lo.min(x >> k);
                    hi = hi.max(x >> k);
                }
            }
            let mut r = AbsValue::from_srange(w, lo, hi);
            if let Some(k) = b.singleton().filter(|&k| k < u64::from(w)) {
                let k = k as u32;
                let high = m & !(m >> k);
                let mut zeros = r.zeros | ((a.zeros & m) >> k);
                let mut ones = r.ones | ((a.ones & m) >> k);
                let half = 1u64 << (w - 1);
                if a.zeros & half != 0 {
                    zeros |= high;
                } else if a.ones & half != 0 {
                    ones |= high;
                }
                r = AbsValue { zeros: zeros & m, ones: ones & m, ..r }.normalized();
            }
            if b.umax >= u64::from(w) {
                r.may_poison = true;
            }
            if flags.exact && !exact_shift_is_safe(a, b) {
                r.may_poison = true;
            }
            r
        }
        BinOp::And => AbsValue {
            zeros: (a.zeros | b.zeros) & m,
            ones: a.ones & b.ones,
            umax: a.umax.min(b.umax),
            ..AbsValue::top(w)
        }
        .normalized(),
        BinOp::Or => {
            let mut r = AbsValue {
                zeros: a.zeros & b.zeros,
                ones: (a.ones | b.ones) & m,
                umin: a.umin.max(b.umin),
                ..AbsValue::top(w)
            }
            .normalized();
            if flags.disjoint && (!a.zeros & m) & (!b.zeros & m) != 0 {
                r.may_poison = true;
            }
            r
        }
        BinOp::Xor => {
            let known = (a.zeros | a.ones) & (b.zeros | b.ones);
            let value = (a.ones ^ b.ones) & known;
            AbsValue::from_bits(w, known & !value, value)
        }
    };
    r.may_poison |= a.may_poison | b.may_poison;
    r.may_undef |= a.may_undef | b.may_undef;
    r
}

/// `exact` division never drops a remainder: provable for a divisor of one,
/// or a power-of-two divisor whose low bits are known zero in the dividend.
fn exact_division_is_safe(a: &AbsValue, b: &AbsValue) -> bool {
    match b.singleton() {
        Some(1) => true,
        Some(c) if c.is_power_of_two() => a.zeros & (c - 1) == c - 1,
        _ => false,
    }
}

/// `exact` right-shift never drops a one bit: provable when every possible
/// shift amount only shifts out known-zero bits.
fn exact_shift_is_safe(a: &AbsValue, b: &AbsValue) -> bool {
    match b.singleton() {
        Some(k) if k < u64::from(a.width) => a.zeros & mask64(k as u32) == mask64(k as u32),
        _ => false,
    }
}

fn icmp_transfer(pred: ICmpPred, a: &AbsValue, b: &AbsValue) -> AbsValue {
    if !a.is_concrete() || !b.is_concrete() {
        return AbsValue::top(1).with_flags(a.may_poison | b.may_poison, a.may_undef | b.may_undef);
    }
    let both_singleton_eq = match (a.singleton(), b.singleton()) {
        (Some(x), Some(y)) => x == y,
        _ => false,
    };
    // (may be true, may be false); each side is an over-approximation.
    let (can_t, can_f) = match pred {
        ICmpPred::Eq => (!disjoint(a, b), !both_singleton_eq),
        ICmpPred::Ne => (!both_singleton_eq, !disjoint(a, b)),
        ICmpPred::Ult => (a.umin < b.umax, a.umax >= b.umin),
        ICmpPred::Ule => (a.umin <= b.umax, a.umax > b.umin),
        ICmpPred::Ugt => (a.umax > b.umin, a.umin <= b.umax),
        ICmpPred::Uge => (a.umax >= b.umin, a.umin < b.umax),
        ICmpPred::Slt => (a.smin < b.smax, a.smax >= b.smin),
        ICmpPred::Sle => (a.smin <= b.smax, a.smax > b.smin),
        ICmpPred::Sgt => (a.smax > b.smin, a.smin <= b.smax),
        ICmpPred::Sge => (a.smax >= b.smin, a.smin < b.smax),
    };
    match (can_t, can_f) {
        (true, false) => AbsValue::constant(1, 1),
        (false, true) => AbsValue::constant(1, 0),
        _ => AbsValue::top(1),
    }
}

fn select_transfer(cond: &AbsValue, t: &AbsValue, f: &AbsValue) -> AbsValue {
    if cond.is_concrete() {
        if let Some(c) = cond.singleton() {
            return if c != 0 { *t } else { *f };
        }
    }
    join(t, f).with_flags(cond.may_poison, cond.may_undef)
}

fn cast_transfer(op: CastOp, flags: IntFlags, a: &AbsValue, to: u32) -> Option<AbsValue> {
    let from = a.width;
    let mut r = match op {
        CastOp::Trunc if to <= from => {
            if !a.is_concrete() {
                AbsValue::top(to)
            } else {
                let mut r = AbsValue::from_bits(to, a.zeros, a.ones);
                if a.umax <= mask64(to) {
                    r.umin = r.umin.max(a.umin);
                    r.umax = r.umax.min(a.umax);
                    r = r.normalized();
                }
                if flags.nuw && a.umax > mask64(to) {
                    r.may_poison = true;
                }
                if flags.nsw && !(a.smin >= smin_of(to) && a.smax <= smax_of(to)) {
                    r.may_poison = true;
                }
                r
            }
        }
        CastOp::ZExt if to >= from => {
            if !a.is_concrete() {
                let mut r = AbsValue::from_urange(to, 0, mask64(from));
                if flags.nneg {
                    r.may_poison = true;
                }
                r
            } else {
                let mut r = AbsValue {
                    zeros: a.zeros | (mask64(to) & !mask64(from)),
                    ones: a.ones,
                    umin: a.umin,
                    umax: a.umax,
                    ..AbsValue::top(to)
                }
                .normalized();
                if flags.nneg && a.smin < 0 {
                    r.may_poison = true;
                }
                r
            }
        }
        CastOp::SExt if to >= from => {
            if !a.is_concrete() {
                AbsValue::from_srange(to, smin_of(from), smax_of(from))
            } else {
                let high = mask64(to) & !mask64(from);
                let half = 1u64 << (from - 1);
                let mut zeros = a.zeros;
                let mut ones = a.ones;
                if a.zeros & half != 0 {
                    zeros |= high;
                } else if a.ones & half != 0 {
                    ones |= high;
                }
                AbsValue {
                    zeros: zeros & mask64(to),
                    ones: ones & mask64(to),
                    smin: a.smin,
                    smax: a.smax,
                    ..AbsValue::top(to)
                }
                .normalized()
            }
        }
        _ => return None,
    };
    r.may_poison |= a.may_poison;
    r.may_undef |= a.may_undef;
    Some(r)
}

/// `freeze` in this interpreter maps poison and undef to zero, so the result
/// is the operand's value or zero — and never poison or undef itself.
fn freeze_transfer(a: &AbsValue) -> AbsValue {
    if a.is_concrete() {
        return *a;
    }
    let mut v = *a;
    v.may_poison = false;
    v.may_undef = false;
    join(&v, &AbsValue::constant(a.width, 0))
}

/// `width - bit_length(v)`: leading zeros of a `w`-bit value.
fn lzw(v: u64, w: u32) -> u64 {
    u64::from(w) - u64::from(64 - v.leading_zeros()).min(u64::from(w))
}

fn intrinsic_transfer(intrinsic: Intrinsic, args: &[AbsValue], poison_flag: bool) -> Option<AbsValue> {
    let a = args.first()?;
    let w = a.width;
    let m = mask64(w);
    let may_poison = args.iter().any(|v| v.may_poison);
    let may_undef = args.iter().any(|v| v.may_undef);
    if args.iter().any(|v| !v.is_concrete()) {
        let own = poison_flag && matches!(intrinsic, Intrinsic::Abs | Intrinsic::Ctlz | Intrinsic::Cttz);
        return Some(AbsValue::top(w).with_flags(may_poison | own, may_undef));
    }
    let r = match intrinsic {
        Intrinsic::Umin => {
            let b = args.get(1)?;
            AbsValue::from_urange(w, a.umin.min(b.umin), a.umax.min(b.umax))
        }
        Intrinsic::Umax => {
            let b = args.get(1)?;
            AbsValue::from_urange(w, a.umin.max(b.umin), a.umax.max(b.umax))
        }
        Intrinsic::Smin => {
            let b = args.get(1)?;
            AbsValue::from_srange(w, a.smin.min(b.smin), a.smax.min(b.smax))
        }
        Intrinsic::Smax => {
            let b = args.get(1)?;
            AbsValue::from_srange(w, a.smin.max(b.smin), a.smax.max(b.smax))
        }
        Intrinsic::UaddSat => {
            let b = args.get(1)?;
            let sat = |x: u64, y: u64| (u128::from(x) + u128::from(y)).min(u128::from(m)) as u64;
            AbsValue::from_urange(w, sat(a.umin, b.umin), sat(a.umax, b.umax))
        }
        Intrinsic::SaddSat => {
            let b = args.get(1)?;
            let sat = |x: i64, y: i64| {
                (i128::from(x) + i128::from(y)).clamp(i128::from(smin_of(w)), i128::from(smax_of(w))) as i64
            };
            AbsValue::from_srange(w, sat(a.smin, b.smin), sat(a.smax, b.smax))
        }
        Intrinsic::UsubSat => {
            let b = args.get(1)?;
            AbsValue::from_urange(w, a.umin.saturating_sub(b.umax), a.umax.saturating_sub(b.umin))
        }
        Intrinsic::SsubSat => {
            let b = args.get(1)?;
            let sat = |x: i64, y: i64| {
                (i128::from(x) - i128::from(y)).clamp(i128::from(smin_of(w)), i128::from(smax_of(w))) as i64
            };
            AbsValue::from_srange(w, sat(a.smin, b.smax), sat(a.smax, b.smin))
        }
        Intrinsic::Abs => {
            let smin_pat = smin_of(w) as u64 & m;
            let mut r = if a.smin > smin_of(w) || !a.contains(smin_pat) {
                let lo = if a.smin >= 0 {
                    a.smin
                } else if a.smax < 0 {
                    -a.smax
                } else {
                    0
                };
                let hi = a.smax.max(0).max(a.smin.checked_neg().unwrap_or(i64::MAX));
                AbsValue::from_srange(w, lo, hi.min(smax_of(w)))
            } else {
                // INT_MIN may wrap back to INT_MIN without the flag.
                AbsValue::top(w)
            };
            if poison_flag && a.contains(smin_pat) {
                r.may_poison = true;
            }
            r
        }
        Intrinsic::Ctpop => {
            AbsValue::from_urange(w, u64::from(a.ones.count_ones()), u64::from(w - (a.zeros & m).count_ones()))
        }
        Intrinsic::Ctlz => {
            let mut r = AbsValue::from_urange(w, lzw(a.umax, w), lzw(a.umin, w));
            if poison_flag && a.contains(0) {
                r.may_poison = true;
            }
            r
        }
        Intrinsic::Cttz => {
            let hi = if a.ones != 0 {
                u64::from(a.ones.trailing_zeros()).min(u64::from(w))
            } else {
                u64::from(w)
            };
            let lo = u64::from(a.zeros.trailing_ones()).min(hi);
            let mut r = AbsValue::from_urange(w, lo, hi.max(if a.contains(0) { u64::from(w) } else { 0 }));
            if poison_flag && a.contains(0) {
                r.may_poison = true;
            }
            r
        }
        Intrinsic::Bswap => {
            if w % 8 != 0 {
                return None;
            }
            let swap = |v: u64| v.swap_bytes() >> (64 - w);
            AbsValue::from_bits(w, swap(a.zeros & m), swap(a.ones))
        }
        Intrinsic::Bitreverse => {
            let rev = |v: u64| v.reverse_bits() >> (64 - w);
            AbsValue::from_bits(w, rev(a.zeros & m), rev(a.ones))
        }
        Intrinsic::Fshl | Intrinsic::Fshr => {
            let b = args.get(1)?;
            let c = args.get(2)?;
            match c.singleton() {
                Some(amt) => {
                    let k = (amt % u64::from(w)) as u32;
                    if k == 0 {
                        if matches!(intrinsic, Intrinsic::Fshl) {
                            *a
                        } else {
                            *b
                        }
                    } else {
                        let (hz, ho, lz, lo_bits, sh) = if matches!(intrinsic, Intrinsic::Fshl) {
                            (a.zeros, a.ones, b.zeros, b.ones, k)
                        } else {
                            (a.zeros, a.ones, b.zeros, b.ones, w - k)
                        };
                        let zeros = ((hz << sh) | ((lz & m) >> (w - sh))) & m;
                        let ones = ((ho << sh) | ((lo_bits & m) >> (w - sh))) & m;
                        AbsValue::from_bits(w, zeros, ones)
                    }
                }
                None => AbsValue::top(w),
            }
        }
        _ => return None,
    };
    Some(r.with_flags(may_poison, may_undef))
}

// ---------------------------------------------------------------------------
// Whole-function forward analysis over the straight-line fragment.
// ---------------------------------------------------------------------------

/// Forward analysis of one function in the straight-line scalar-int
/// (≤ 64-bit) fragment. Reusable: [`FunctionAnalysis::run`] clears and
/// refills the same buffers, so a per-candidate analysis in a hot loop is
/// allocation-free after warm-up.
#[derive(Clone, Debug, Default)]
pub struct FunctionAnalysis {
    // The per-instruction abstractions live in an epoch-stamped buffer: a
    // slot holds a value from the *current* run iff its stamp equals
    // `epoch`. Bumping the epoch invalidates every slot in O(1), which keeps
    // the per-candidate hot loop free of the O(arena) clear-and-refill
    // memset a plain `Vec<Option<AbsValue>>` would need.
    values: Vec<AbsValue>,
    stamps: Vec<u32>,
    epoch: u32,
    ret: Option<AbsValue>,
    ret_value: Option<Value>,
    may_ub: bool,
}

impl FunctionAnalysis {
    /// Analyzes `func`; `None` when it is outside the fragment.
    pub fn analyze(func: &Function) -> Option<Self> {
        let mut analysis = Self::default();
        analysis.run(func).then_some(analysis)
    }

    /// (Re)runs the analysis over `func`, reusing buffers. Returns `false`
    /// (with cleared state) when the function is outside the fragment:
    /// multiple blocks, non-integer or > 64-bit types, unsupported opcodes,
    /// or no integer return.
    pub fn run(&mut self, func: &Function) -> bool {
        // A fresh epoch invalidates every stamped slot; on the (theoretical)
        // u32 wrap the stamps are cleared so an ancient slot can never alias
        // the new epoch.
        self.epoch = match self.epoch.checked_add(1) {
            Some(epoch) => epoch,
            None => {
                self.stamps.fill(0);
                1
            }
        };
        self.ret = None;
        self.ret_value = None;
        self.may_ub = false;
        // Single block, so the block's own length is the placed-instruction
        // total — no extra counting walk.
        if func.blocks().len() != 1 || func.blocks()[0].insts.len() > MAX_INSTS {
            return false;
        }
        if func.params.iter().any(|p| int_width_64(&p.ty).is_none()) {
            return false;
        }
        if int_width_64(&func.ret_ty).is_none() {
            return false;
        }
        let arena_len = func.inst_arena_len();
        if self.stamps.len() < arena_len {
            self.stamps.resize(arena_len, 0);
            self.values.resize(arena_len, AbsValue::top(1));
        }
        for (id, inst) in func.iter_insts() {
            match &inst.kind {
                InstKind::Ret { value: Some(value) } => {
                    let Some(abs) = self.operand(func, value) else { return false };
                    self.ret = Some(abs);
                    self.ret_value = Some(value.clone());
                }
                InstKind::Ret { value: None } | InstKind::Br { .. } | InstKind::Unreachable => {
                    return false;
                }
                kind => {
                    let Some(w) = int_width_64(&inst.ty) else { return false };
                    let Some(abs) = self.transfer(func, kind, w) else { return false };
                    let slot = id.0 as usize;
                    self.values[slot] = abs;
                    self.stamps[slot] = self.epoch;
                }
            }
        }
        self.ret.is_some()
    }

    /// The abstraction of the returned value.
    pub fn ret_abs(&self) -> Option<&AbsValue> {
        self.ret.as_ref()
    }

    /// Whether any instruction may hit immediate UB (straight-line code
    /// executes every instruction, so a trapping dead instruction counts).
    pub fn may_ub(&self) -> bool {
        self.may_ub
    }

    /// The abstraction computed for one instruction.
    pub fn value_of(&self, id: InstId) -> Option<&AbsValue> {
        let slot = id.0 as usize;
        (self.stamps.get(slot) == Some(&self.epoch)).then(|| &self.values[slot])
    }

    /// The returned value is provably a concrete (never poison/undef) value
    /// and no instruction can trap.
    pub fn provably_concrete(&self) -> bool {
        !self.may_ub && self.ret.as_ref().is_some_and(|r| r.is_concrete())
    }

    fn operand(&self, func: &Function, value: &Value) -> Option<AbsValue> {
        match value {
            Value::Arg(index) => {
                let w = int_width_64(&func.params.get(*index)?.ty)?;
                Some(AbsValue::top(w))
            }
            Value::Inst(id) => {
                let slot = id.0 as usize;
                if *self.stamps.get(slot)? != self.epoch {
                    return None;
                }
                Some(self.values[slot])
            }
            Value::Const(Constant::Int(v)) if v.width() <= 64 => {
                Some(AbsValue::constant(v.width(), v.zext_value() as u64))
            }
            Value::Const(Constant::Undef(ty)) => {
                Some(AbsValue::top(int_width_64(ty)?).with_flags(false, true))
            }
            Value::Const(Constant::Poison(ty)) => {
                Some(AbsValue::top(int_width_64(ty)?).with_flags(true, false))
            }
            _ => None,
        }
    }

    fn typed_operand(&self, func: &Function, value: &Value, w: u32) -> Option<AbsValue> {
        let abs = self.operand(func, value)?;
        (abs.width == w).then_some(abs)
    }

    fn transfer(&mut self, func: &Function, kind: &InstKind, w: u32) -> Option<AbsValue> {
        match kind {
            InstKind::Binary { op, lhs, rhs, flags } => {
                let a = self.typed_operand(func, lhs, w)?;
                let b = self.typed_operand(func, rhs, w)?;
                let mut may_ub = false;
                let r = binary_transfer(*op, *flags, &a, &b, &mut may_ub);
                self.may_ub |= may_ub;
                Some(r)
            }
            InstKind::ICmp { pred, lhs, rhs } => {
                if w != 1 {
                    return None;
                }
                let a = self.operand(func, lhs)?;
                let b = self.operand(func, rhs)?;
                (a.width == b.width).then(|| icmp_transfer(*pred, &a, &b))
            }
            InstKind::Select { cond, on_true, on_false } => {
                let c = self.typed_operand(func, cond, 1)?;
                let t = self.typed_operand(func, on_true, w)?;
                let f = self.typed_operand(func, on_false, w)?;
                Some(select_transfer(&c, &t, &f))
            }
            InstKind::Cast { op, value, flags } => {
                let a = self.operand(func, value)?;
                cast_transfer(*op, *flags, &a, w)
            }
            InstKind::Call { intrinsic, args, .. } => {
                if !intrinsic.is_integer() {
                    return None;
                }
                match intrinsic {
                    Intrinsic::Abs | Intrinsic::Ctlz | Intrinsic::Cttz => {
                        if args.len() != 2 {
                            return None;
                        }
                        let a = self.typed_operand(func, &args[0], w)?;
                        let flag = self.typed_operand(func, &args[1], 1)?;
                        intrinsic_transfer(*intrinsic, &[a], flag.contains(1) || !flag.is_concrete())
                    }
                    Intrinsic::Fshl | Intrinsic::Fshr => {
                        if args.len() != 3 {
                            return None;
                        }
                        let a = self.typed_operand(func, &args[0], w)?;
                        let b = self.typed_operand(func, &args[1], w)?;
                        let c = self.typed_operand(func, &args[2], w)?;
                        intrinsic_transfer(*intrinsic, &[a, b, c], false)
                    }
                    _ => {
                        if args.len() != 2 {
                            return None;
                        }
                        let a = self.typed_operand(func, &args[0], w)?;
                        let b = self.typed_operand(func, &args[1], w)?;
                        intrinsic_transfer(*intrinsic, &[a, b], false)
                    }
                }
            }
            InstKind::Freeze { value } => {
                let a = self.typed_operand(func, value, w)?;
                Some(freeze_transfer(&a))
            }
            _ => None,
        }
    }
}

#[inline]
fn int_width_64(ty: &Type) -> Option<u32> {
    match ty {
        Type::Int(w) if *w >= 1 && *w <= 64 => Some(*w),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Pre-verification certificates.
// ---------------------------------------------------------------------------

/// A pre-verification certificate for a source/candidate pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// Both sides provably compute the same concrete value on every input:
    /// the concrete sweep's `Correct` verdict is guaranteed.
    Proved,
    /// The source provably returns a concrete, defined value on every input
    /// and the two return-value sets never intersect: every concrete input
    /// is a counterexample.
    Refuted,
}

/// Tries to prove or refute `tgt` as a refinement of `src` from the two
/// analyses alone. `None` means the abstraction is inconclusive and the
/// concrete tier must decide. The caller is responsible for having checked
/// that the two functions share a signature.
pub fn certificate(
    src: &Function,
    src_abs: &FunctionAnalysis,
    tgt: &Function,
    tgt_abs: &FunctionAnalysis,
) -> Option<Certificate> {
    let (src_ret, tgt_ret) = (src_abs.ret_abs()?, tgt_abs.ret_abs()?);
    let src_concrete = src_abs.provably_concrete();
    // Refute: the source is concrete and defined everywhere, and no value can
    // be in both return sets — so the candidate either returns a different
    // concrete value, or poison/undef/UB, on *every* input.
    if src_concrete && disjoint(src_ret, tgt_ret) {
        return Some(Certificate::Refuted);
    }
    // Prove, form 1: both sides are defined everywhere and fold to the same
    // singleton constant.
    if src_concrete
        && !tgt_abs.may_ub()
        && tgt_ret.is_concrete()
        && src_ret.singleton().is_some()
        && src_ret.singleton() == tgt_ret.singleton()
        && src_ret.width == tgt_ret.width
    {
        return Some(Certificate::Proved);
    }
    // Prove, form 2: no instruction on either side can trap, and the return
    // DAGs are structurally identical under singleton-constant folding — the
    // two sides then compute bit-identical outcomes (including poison and
    // undef, which the deterministic interpreter reproduces identically for
    // identical DAGs).
    if !src_abs.may_ub() && !tgt_abs.may_ub() {
        let (sv, tv) = (src_abs.ret_value.as_ref()?, tgt_abs.ret_value.as_ref()?);
        let mut eq = DagEq {
            src,
            src_abs,
            tgt,
            tgt_abs,
            memo: HashMap::new(),
            budget: DAG_BUDGET,
        };
        if eq.values_equal(sv, tv) {
            return Some(Certificate::Proved);
        }
    }
    None
}

struct DagEq<'a> {
    src: &'a Function,
    src_abs: &'a FunctionAnalysis,
    tgt: &'a Function,
    tgt_abs: &'a FunctionAnalysis,
    memo: HashMap<(u32, u32), bool>,
    budget: usize,
}

impl DagEq<'_> {
    /// The value folds to a provably-concrete singleton constant.
    fn fold(func: &Function, abs: &FunctionAnalysis, value: &Value) -> Option<(u32, u64)> {
        let _ = func;
        match value {
            Value::Const(Constant::Int(v)) if v.width() <= 64 => {
                Some((v.width(), v.zext_value() as u64))
            }
            Value::Inst(id) => {
                let a = abs.value_of(*id)?;
                if a.is_concrete() {
                    a.singleton().map(|s| (a.width, s))
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn values_equal(&mut self, sv: &Value, tv: &Value) -> bool {
        let sf = Self::fold(self.src, self.src_abs, sv);
        let tf = Self::fold(self.tgt, self.tgt_abs, tv);
        if let (Some(a), Some(b)) = (sf, tf) {
            return a == b;
        }
        match (sv, tv) {
            (Value::Arg(i), Value::Arg(j)) => {
                i == j
                    && self.src.params.get(*i).map(|p| &p.ty) == self.tgt.params.get(*j).map(|p| &p.ty)
            }
            (Value::Const(a), Value::Const(b)) => a == b,
            (Value::Inst(s), Value::Inst(t)) => self.insts_equal(*s, *t),
            _ => false,
        }
    }

    fn insts_equal(&mut self, s: InstId, t: InstId) -> bool {
        if let Some(&r) = self.memo.get(&(s.0, t.0)) {
            return r;
        }
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        let si = self.src.inst(s);
        let ti = self.tgt.inst(t);
        let r = si.ty == ti.ty
            && match (&si.kind, &ti.kind) {
                (
                    InstKind::Binary { op: o1, lhs: l1, rhs: r1, flags: f1 },
                    InstKind::Binary { op: o2, lhs: l2, rhs: r2, flags: f2 },
                ) => {
                    o1 == o2
                        && f1 == f2
                        && (self.values_equal(l1, l2) && self.values_equal(r1, r2)
                            || o1.is_commutative()
                                && self.values_equal(l1, r2)
                                && self.values_equal(r1, l2))
                }
                (
                    InstKind::ICmp { pred: p1, lhs: l1, rhs: r1 },
                    InstKind::ICmp { pred: p2, lhs: l2, rhs: r2 },
                ) => {
                    p1 == p2 && self.values_equal(l1, l2) && self.values_equal(r1, r2)
                        || *p2 == p1.swapped()
                            && self.values_equal(l1, r2)
                            && self.values_equal(r1, l2)
                }
                (
                    InstKind::Select { cond: c1, on_true: t1, on_false: f1 },
                    InstKind::Select { cond: c2, on_true: t2, on_false: f2 },
                ) => {
                    self.values_equal(c1, c2)
                        && self.values_equal(t1, t2)
                        && self.values_equal(f1, f2)
                }
                (
                    InstKind::Cast { op: o1, value: v1, flags: f1 },
                    InstKind::Cast { op: o2, value: v2, flags: f2 },
                ) => o1 == o2 && f1 == f2 && self.values_equal(v1, v2),
                (
                    InstKind::Call { intrinsic: i1, args: a1, .. },
                    InstKind::Call { intrinsic: i2, args: a2, .. },
                ) => {
                    i1 == i2
                        && a1.len() == a2.len()
                        && a1.iter().zip(a2.iter()).all(|(x, y)| self.values_equal(x, y))
                }
                (InstKind::Freeze { value: v1 }, InstKind::Freeze { value: v2 }) => {
                    self.values_equal(v1, v2)
                }
                _ => false,
            };
        self.memo.insert((s.0, t.0), r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;

    fn analyze(text: &str) -> FunctionAnalysis {
        let func = parse_function(text).expect("parse");
        FunctionAnalysis::analyze(&func).expect("fragment")
    }

    fn cert(src: &str, tgt: &str) -> Option<Certificate> {
        let src = parse_function(src).expect("parse src");
        let tgt = parse_function(tgt).expect("parse tgt");
        let src_abs = FunctionAnalysis::analyze(&src).expect("src fragment");
        let tgt_abs = FunctionAnalysis::analyze(&tgt).expect("tgt fragment");
        certificate(&src, &src_abs, &tgt, &tgt_abs)
    }

    enum Concrete {
        Value(u64),
        Poison,
        Ub,
    }

    /// Exhaustively checks a binary transfer over all i4×i4 operand pairs:
    /// every concrete result must be inside the abstraction, for every
    /// operand abstraction drawn from a small set of shapes.
    fn check_binary_exhaustive(op: BinOp, eval: impl Fn(u64, u64) -> Concrete) {
        let w = 4;
        let shapes = [
            AbsValue::top(w),
            AbsValue::from_urange(w, 2, 9),
            AbsValue::from_srange(w, -3, 3),
            AbsValue::from_bits(w, 0b0001, 0b0100),
            AbsValue::constant(w, 5),
        ];
        for a_shape in &shapes {
            for b_shape in &shapes {
                let mut may_ub = false;
                let r = binary_transfer(op, IntFlags::none(), a_shape, b_shape, &mut may_ub);
                for x in 0..16u64 {
                    for y in 0..16u64 {
                        if !a_shape.contains(x) || !b_shape.contains(y) {
                            continue;
                        }
                        match eval(x, y) {
                            Concrete::Value(v) => assert!(
                                r.contains(v) || r.may_poison,
                                "{op:?}: {x} op {y} = {v} escapes {r:?} (a={a_shape:?}, b={b_shape:?})"
                            ),
                            Concrete::Poison => assert!(
                                r.may_poison,
                                "{op:?}: {x} op {y} is poison but not may_poison"
                            ),
                            Concrete::Ub => assert!(may_ub, "{op:?}: {x} op {y} traps but no may_ub"),
                        }
                    }
                }
            }
        }
    }

    fn sx4(v: u64) -> i64 {
        sx64(v, 4)
    }

    #[test]
    fn binary_transfers_are_sound_over_i4() {
        let m = 15u64;
        check_binary_exhaustive(BinOp::Add, |x, y| Concrete::Value((x + y) & m));
        check_binary_exhaustive(BinOp::Sub, |x, y| Concrete::Value(x.wrapping_sub(y) & m));
        check_binary_exhaustive(BinOp::Mul, |x, y| Concrete::Value((x * y) & m));
        check_binary_exhaustive(BinOp::And, |x, y| Concrete::Value(x & y));
        check_binary_exhaustive(BinOp::Or, |x, y| Concrete::Value(x | y));
        check_binary_exhaustive(BinOp::Xor, |x, y| Concrete::Value(x ^ y));
        check_binary_exhaustive(BinOp::UDiv, |x, y| {
            x.checked_div(y).map_or(Concrete::Ub, Concrete::Value)
        });
        check_binary_exhaustive(BinOp::URem, |x, y| {
            if y == 0 { Concrete::Ub } else { Concrete::Value(x % y) }
        });
        check_binary_exhaustive(BinOp::SDiv, |x, y| {
            if y == 0 || (sx4(x) == -8 && sx4(y) == -1) {
                Concrete::Ub
            } else {
                Concrete::Value(((sx4(x) / sx4(y)) as u64) & m)
            }
        });
        check_binary_exhaustive(BinOp::SRem, |x, y| {
            if y == 0 || (sx4(x) == -8 && sx4(y) == -1) {
                Concrete::Ub
            } else {
                Concrete::Value(((sx4(x) % sx4(y)) as u64) & m)
            }
        });
        // Shift amounts >= width produce poison, not UB.
        check_binary_exhaustive(BinOp::Shl, |x, y| {
            if y < 4 { Concrete::Value((x << y) & m) } else { Concrete::Poison }
        });
        check_binary_exhaustive(BinOp::LShr, |x, y| {
            if y < 4 { Concrete::Value(x >> y) } else { Concrete::Poison }
        });
        check_binary_exhaustive(BinOp::AShr, |x, y| {
            if y < 4 { Concrete::Value(((sx4(x) >> y) as u64) & m) } else { Concrete::Poison }
        });
    }

    #[test]
    fn flag_poison_is_over_approximated() {
        // nuw add of two ⊤ i8 values can overflow.
        let a = AbsValue::top(8);
        let mut may_ub = false;
        let r = binary_transfer(BinOp::Add, IntFlags::nuw(), &a, &a, &mut may_ub);
        assert!(r.may_poison);
        // ...but provably-small operands cannot.
        let small = AbsValue::from_urange(8, 0, 100);
        let r = binary_transfer(BinOp::Add, IntFlags::nuw(), &small, &small, &mut may_ub);
        assert!(!r.may_poison);
    }

    #[test]
    fn division_ub_is_over_approximated() {
        let a = AbsValue::top(8);
        let mut may_ub = false;
        binary_transfer(BinOp::UDiv, IntFlags::none(), &a, &a, &mut may_ub);
        assert!(may_ub, "unknown divisor must be assumed trapping");
        let mut may_ub = false;
        let nonzero = AbsValue::from_urange(8, 3, 7);
        binary_transfer(BinOp::UDiv, IntFlags::none(), &a, &nonzero, &mut may_ub);
        assert!(!may_ub, "a provably nonzero divisor cannot trap");
        let mut may_ub = false;
        binary_transfer(BinOp::SDiv, IntFlags::none(), &a, &nonzero, &mut may_ub);
        assert!(!may_ub, "sdiv by [3,7] excludes both zero and -1: {nonzero:?}");
        let mut may_ub = false;
        let minus_one = AbsValue::constant(8, 0xff);
        binary_transfer(BinOp::SDiv, IntFlags::none(), &a, &minus_one, &mut may_ub);
        assert!(may_ub, "sdiv INT_MIN / -1 must be assumed trapping");
    }

    #[test]
    fn constant_chains_fold_to_singletons() {
        let abs = analyze(
            "define i8 @f(i8 %x) {\nentry:\n  %a = add i8 3, 4\n  %b = mul i8 %a, 2\n  ret i8 %b\n}",
        );
        assert_eq!(abs.ret_abs().and_then(|r| r.singleton()), Some(14));
        assert!(abs.provably_concrete());
    }

    #[test]
    fn masked_bits_refute_disjoint_pairs() {
        // src pins bit 0 to zero, tgt pins it to one: provably disjoint.
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = and i8 %x, -2\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = or i8 %x, 1\n  ret i8 %r\n}";
        assert_eq!(cert(src, tgt), Some(Certificate::Refuted));
    }

    #[test]
    fn renamed_and_commuted_twins_are_proved() {
        let src = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %r = add i8 %x, %y\n  ret i8 %r\n}";
        let renamed = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %t = add i8 %x, %y\n  ret i8 %t\n}";
        let commuted = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %t = add i8 %y, %x\n  ret i8 %t\n}";
        assert_eq!(cert(src, renamed), Some(Certificate::Proved));
        assert_eq!(cert(src, commuted), Some(Certificate::Proved));
    }

    #[test]
    fn constant_folding_is_proved_against_the_literal() {
        let src = "define i8 @f(i8 %x) {\nentry:\n  %a = add i8 3, 4\n  ret i8 %a\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  ret i8 7\n}";
        assert_eq!(cert(src, tgt), Some(Certificate::Proved));
    }

    #[test]
    fn inconclusive_pairs_get_no_certificate() {
        let src = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 1\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x) {\nentry:\n  %r = add i8 %x, 2\n  ret i8 %r\n}";
        assert_eq!(cert(src, tgt), None);
    }

    #[test]
    fn possible_ub_blocks_proofs() {
        // Identical DAGs, but a division that can trap: no proof, because a
        // `Proved` tier skips the sweep that would compare UB behaviour.
        let text = "define i8 @f(i8 %x) {\nentry:\n  %r = udiv i8 7, %x\n  ret i8 %r\n}";
        assert_eq!(cert(text, text), None);
    }

    #[test]
    fn more_poisonous_twins_are_not_proved() {
        let src = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %r = add i8 %x, %y\n  ret i8 %r\n}";
        let tgt = "define i8 @f(i8 %x, i8 %y) {\nentry:\n  %r = add nuw i8 %x, %y\n  ret i8 %r\n}";
        assert_eq!(cert(src, tgt), None);
    }

    #[test]
    fn fragment_gate_rejects_unsupported_shapes() {
        let vector = "define <2 x i8> @f(<2 x i8> %x) {\nentry:\n  ret <2 x i8> %x\n}";
        if let Ok(func) = parse_function(vector) {
            assert!(FunctionAnalysis::analyze(&func).is_none());
        }
        let wide = "define i128 @f(i128 %x) {\nentry:\n  ret i128 %x\n}";
        let func = parse_function(wide).expect("parse");
        assert!(FunctionAnalysis::analyze(&func).is_none());
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

    #[test]
    fn select_and_icmp_fold_decided_branches() {
        let abs = analyze(
            "define i8 @f(i8 %x) {\nentry:\n  %m = and i8 %x, 7\n  %c = icmp ult i8 %m, 16\n  %r = select i1 %c, i8 1, i8 2\n  ret i8 %r\n}",
        );
        assert_eq!(abs.ret_abs().and_then(|r| r.singleton()), Some(1));
    }

    #[test]
    fn normalize_repairs_instead_of_claiming_empty_sets() {
        let broken = AbsValue {
            width: 8,
            zeros: 1,
            ones: 1,
            umin: 9,
            umax: 3,
            smin: 5,
            smax: -5,
            may_poison: true,
            may_undef: false,
        }
        .normalized();
        assert_eq!(broken.umin, 0);
        assert_eq!(broken.umax, 255);
        assert!(broken.may_poison);
    }
}
