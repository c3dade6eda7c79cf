//! Test-input generation for refinement checking.
//!
//! The checker evaluates the source and target functions on a set of concrete
//! inputs. For small integer signatures the set is *exhaustive* (every
//! possible argument combination), which makes the check a proof over that
//! domain; for larger signatures it combines corner values with seeded random
//! samples — the same engineering trade-off bounded translation validators
//! make, scaled to the tiny functions the LPO pipeline works with.
//!
//! The *order* of the generated inputs matters to the staged checker (see
//! [`crate::refine`]): its probe phase runs only the leading
//! `TvConfig::probe_inputs` inputs, so the front of the list should be the
//! most refutation-dense. Exhaustive sets lead with the small patterns
//! (0, 1, 2, …) and sampled sets lead with the corner-value diagonal
//! (zero/one/all-ones/signed extremes) — exactly the inputs that kill
//! almost every wrong candidate — before the random tail.
//!
//! # Layout
//!
//! The verifier holds a source's inputs as an [`InputSet`], in one of two
//! layouts chosen by the signature alone:
//!
//! * **Columns** — every parameter is a scalar `iN` with `N <= 64`. Each
//!   parameter is one lane-contiguous `u64` column of canonical
//!   (zero-extended) values, which is exactly the parameter-plane layout
//!   the plane evaluator computes on, so a sweep copies columns instead of
//!   repacking [`EvalValue`]s. Exhaustive sets are computed arithmetically
//!   (lane `i`, parameter `j` holds `(i >> Σ widths[..j]) & mask`, the
//!   low-bits-first order of the enumeration); sampled sets are the rows
//!   [`generate_inputs`] draws, transposed, so the RNG order is unchanged.
//!   Such inputs never carry memory.
//! * **Rows** — everything else (pointers, floats, vectors, wider
//!   integers) keeps one [`TestInput`] per lane.
//!
//! Either way [`InputSet::input`] yields lane `i` exactly as
//! `generate_inputs(..)[i]`, so the few lanes that need a [`TestInput`] —
//! the probe window, suspect or refuting lanes, the serial sweep of
//! non-plane candidates — materialize one on demand.
//!
//! # Sharing
//!
//! A set depends only on the parameter types and the [`InputConfig`], so
//! a batch of sources that repeats signatures can draw every set from one
//! [`InputCache`] instead of generating it per source.

use crate::buffers;
use lpo_interp::memory::{Allocation, Memory};
use lpo_interp::value::{EvalValue, PtrValue};
use lpo_ir::apint::ApInt;
use lpo_ir::function::Function;
use lpo_ir::types::Type;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Size of the allocation bound to each pointer argument.
pub const PTR_ALLOC_SIZE: usize = 64;

/// One concrete input: argument values plus the initial memory they refer to.
#[derive(Clone, Debug)]
pub struct TestInput {
    /// One value per function parameter.
    pub args: Vec<EvalValue>,
    /// The initial memory (holds the allocations pointer arguments point into).
    pub memory: Memory,
}

/// Configuration of the input generator.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InputConfig {
    /// If the total number of integer input bits is at most this, enumerate
    /// the entire input space.
    pub exhaustive_bits: u32,
    /// Number of random samples when the space is too large to enumerate.
    pub random_samples: usize,
    /// RNG seed, so verification verdicts are reproducible.
    pub seed: u64,
}

impl Default for InputConfig {
    fn default() -> Self {
        Self { exhaustive_bits: 16, random_samples: 192, seed: 0x1b0_5eed }
    }
}

/// Generates the test inputs for a function signature.
///
/// Pointer parameters are each bound to a fresh [`PTR_ALLOC_SIZE`]-byte
/// allocation whose contents vary across inputs.
pub fn generate_inputs(func: &Function, config: &InputConfig) -> Vec<TestInput> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    if let Some(inputs) = try_exhaustive(func, config) {
        return inputs;
    }
    let mut inputs = Vec::new();
    // Corner-value cross products are capped to avoid explosion: we take the
    // "diagonal plus corners-of-first-two-args" pattern.
    let corner_sets: Vec<Vec<EvalValue>> =
        func.params.iter().map(|p| corner_values(&p.ty)).collect();
    let max_corners = corner_sets.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_corners {
        let args: Vec<EvalValue> = corner_sets
            .iter()
            .map(|set| set[i % set.len()].clone())
            .collect();
        inputs.push(bind_memory(func, args, &mut rng, i as u64));
    }
    if corner_sets.len() >= 2 {
        for i in 0..corner_sets[0].len().min(6) {
            for j in 0..corner_sets[1].len().min(6) {
                let mut args = vec![corner_sets[0][i].clone(), corner_sets[1][j].clone()];
                for set in &corner_sets[2..] {
                    args.push(set[(i + j) % set.len()].clone());
                }
                inputs.push(bind_memory(func, args, &mut rng, (i * 31 + j) as u64));
            }
        }
    }
    for k in 0..config.random_samples {
        let args: Vec<EvalValue> =
            func.params.iter().map(|p| random_value(&p.ty, &mut rng)).collect();
        inputs.push(bind_memory(func, args, &mut rng, k as u64));
    }
    inputs
}

/// The number of inputs [`generate_inputs`] produces for `func`, computed
/// without materializing (or evaluating) anything. The execution engine uses
/// this to estimate a case's Stage-3 shard count before verification runs;
/// it is pinned equal to `generate_inputs(func, config).len()` by a test.
pub fn input_count(func: &Function, config: &InputConfig) -> usize {
    if let Some(bits) = exhaustive_bits(func, config) {
        return 1usize << bits;
    }
    let corner_lens: Vec<usize> = func.params.iter().map(|p| corner_values(&p.ty).len()).collect();
    let mut count = corner_lens.iter().copied().max().unwrap_or(0);
    if corner_lens.len() >= 2 {
        count += corner_lens[0].min(6) * corner_lens[1].min(6);
    }
    count + config.random_samples
}

/// A source's test inputs in the layout its signature allows (see the
/// module docs): `u64` columns for all-scalar-integer signatures, one
/// [`TestInput`] per lane otherwise. Lane `i` is always
/// `generate_inputs(func, config)[i]`.
#[derive(Clone, Debug)]
pub struct InputSet {
    layout: Layout,
    exhaustive: bool,
}

#[derive(Clone, Debug)]
enum Layout {
    /// One column per parameter, `lanes` values each; every lane's
    /// initial memory is `empty`.
    Columns {
        widths: Vec<u32>,
        lanes: usize,
        columns: Vec<Vec<u64>>,
        empty: Memory,
    },
    Rows(Vec<TestInput>),
}

impl Drop for InputSet {
    /// The columns go back to the pool of spare lane buffers
    /// (`crates/tv/src/buffers.rs`) for the next case's inputs.
    fn drop(&mut self) {
        if let Layout::Columns { columns, .. } = &mut self.layout {
            columns.drain(..).for_each(buffers::give);
        }
    }
}

impl InputSet {
    /// Generates the inputs for `func`'s signature: the same lanes, in the
    /// same order, as [`generate_inputs`].
    pub fn generate(func: &Function, config: &InputConfig) -> InputSet {
        let exhaustive_bits = exhaustive_bits(func, config);
        let exhaustive = exhaustive_bits.is_some();
        let widths: Option<Vec<u32>> = func
            .params
            .iter()
            .map(|p| match p.ty {
                Type::Int(w) if w <= 64 => Some(w),
                _ => None,
            })
            .collect();
        let Some(widths) = widths else {
            return InputSet { layout: Layout::Rows(generate_inputs(func, config)), exhaustive };
        };
        let (lanes, columns) = match exhaustive_bits {
            Some(bits) => {
                let lanes = 1usize << bits;
                let mut shift = 0;
                let columns = widths
                    .iter()
                    .map(|&w| {
                        let mut column = buffers::take(lanes);
                        column.extend((0..lanes).map(|i| (i as u64 >> shift) & mask(w)));
                        shift += w;
                        column
                    })
                    .collect();
                (lanes, columns)
            }
            None => {
                let rows = generate_inputs(func, config);
                let columns = (0..widths.len())
                    .map(|j| {
                        rows.iter()
                            .map(|row| match &row.args[j] {
                                EvalValue::Int(v) => v.zext_value() as u64,
                                other => unreachable!("scalar-int parameter sampled as {other:?}"),
                            })
                            .collect()
                    })
                    .collect();
                (rows.len(), columns)
            }
        };
        InputSet {
            layout: Layout::Columns { widths, lanes, columns, empty: Memory::new() },
            exhaustive,
        }
    }

    /// How many inputs the set holds.
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Columns { lanes, .. } => *lanes,
            Layout::Rows(rows) => rows.len(),
        }
    }

    /// Whether the set holds no inputs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the inputs enumerate the whole input space.
    pub fn exhaustive(&self) -> bool {
        self.exhaustive
    }

    /// Input `index` as a [`TestInput`]: borrowed from the rows, or built
    /// from the columns (no memory, one `EvalValue::Int` per parameter).
    pub fn input(&self, index: usize) -> Cow<'_, TestInput> {
        match &self.layout {
            Layout::Rows(rows) => Cow::Borrowed(&rows[index]),
            Layout::Columns { widths, columns, .. } => Cow::Owned(TestInput {
                args: widths
                    .iter()
                    .zip(columns)
                    .map(|(&w, c)| EvalValue::Int(ApInt::new(w, c[index] as u128)))
                    .collect(),
                memory: Memory::new(),
            }),
        }
    }

    /// Input `index`'s initial memory, without materializing the input.
    pub(crate) fn memory(&self, index: usize) -> &Memory {
        match &self.layout {
            Layout::Rows(rows) => &rows[index].memory,
            Layout::Columns { empty, .. } => empty,
        }
    }

    /// The parameter columns — `columns()[j][i]` is input `i`'s canonical
    /// value of parameter `j` — or `None` for a row set.
    pub fn columns(&self) -> Option<&[Vec<u64>]> {
        match &self.layout {
            Layout::Columns { columns, .. } => Some(columns),
            Layout::Rows(_) => None,
        }
    }

    /// Inputs `range` of every column, ready for
    /// [`PlanePlan::evaluate_columns`](lpo_interp::plane::PlanePlan::evaluate_columns);
    /// `None` for a row set.
    pub(crate) fn column_window(&self, range: Range<usize>) -> Option<Vec<&[u64]>> {
        self.columns().map(|columns| columns.iter().map(|c| &c[range.clone()]).collect())
    }

    /// Whether no input carries an allocation — true by construction for
    /// columns.
    pub(crate) fn allocation_free(&self) -> bool {
        match &self.layout {
            Layout::Columns { .. } => true,
            Layout::Rows(rows) => rows.iter().all(|input| input.memory.allocation_count() == 0),
        }
    }
}

/// Input sets keyed by (parameter types, [`InputConfig`]): every source of
/// one signature under one configuration shares one [`Arc<InputSet>`],
/// generated on first sight.
///
/// A set is a pure function of its key, so sharing changes no lane. The
/// cache is `Send + Sync` and never evicts: give it the lifetime of one
/// batch of sources, whose signatures are bounded, not of a process that
/// serves arbitrary ones.
#[derive(Debug, Default)]
pub struct InputCache {
    sets: Mutex<HashMap<SignatureKey, Arc<InputSet>>>,
}

/// What an input set depends on: the parameter types and the generator's
/// configuration.
type SignatureKey = (Vec<Type>, InputConfig);

impl InputCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The input set of `func`'s signature under `config`, equal lane for
    /// lane to [`InputSet::generate`]. Generation runs outside the lock;
    /// when two threads race on a key, both get the set stored first.
    pub fn get(&self, func: &Function, config: &InputConfig) -> Arc<InputSet> {
        let key: SignatureKey = (func.params.iter().map(|p| p.ty.clone()).collect(), config.clone());
        if let Some(set) = self.sets.lock().expect("input cache poisoned").get(&key) {
            return set.clone();
        }
        let set = Arc::new(InputSet::generate(func, config));
        self.sets.lock().expect("input cache poisoned").entry(key).or_insert(set).clone()
    }
}

/// All-ones mask of the low `w` bits (`w <= 64`).
fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Total input bits when the signature is exhaustively enumerable within
/// `config.exhaustive_bits`, else `None`.
fn exhaustive_bits(func: &Function, config: &InputConfig) -> Option<u32> {
    let mut total_bits: u32 = 0;
    for p in &func.params {
        match &p.ty {
            Type::Int(w) => total_bits += w,
            Type::Vector(n, elem) => match elem.as_ref() {
                Type::Int(w) => total_bits += n * w,
                _ => return None,
            },
            _ => return None,
        }
        if total_bits > config.exhaustive_bits {
            return None;
        }
    }
    Some(total_bits)
}

fn try_exhaustive(func: &Function, config: &InputConfig) -> Option<Vec<TestInput>> {
    let total_bits = exhaustive_bits(func, config)?;
    let count: u128 = 1u128 << total_bits;
    let mut inputs = Vec::with_capacity(count as usize);
    for pattern in 0..count {
        let mut remaining = pattern;
        let mut args = Vec::with_capacity(func.params.len());
        for p in &func.params {
            let (value, rest) = decode_arg(&p.ty, remaining);
            remaining = rest;
            args.push(value);
        }
        inputs.push(TestInput { args, memory: Memory::new() });
    }
    Some(inputs)
}

fn decode_arg(ty: &Type, bits: u128) -> (EvalValue, u128) {
    match ty {
        Type::Int(w) => (EvalValue::Int(ApInt::new(*w, bits)), bits >> w),
        Type::Vector(n, elem) => {
            let w = elem.int_width().expect("checked in try_exhaustive");
            let mut rest = bits;
            let mut lanes = Vec::with_capacity(*n as usize);
            for _ in 0..*n {
                lanes.push(EvalValue::Int(ApInt::new(w, rest)));
                rest >>= w;
            }
            (EvalValue::Vector(lanes), rest)
        }
        _ => unreachable!("non-integer argument in exhaustive mode"),
    }
}

/// The corner values we always test for a given scalar/vector type.
pub fn corner_values(ty: &Type) -> Vec<EvalValue> {
    match ty {
        Type::Int(w) => {
            let mut vals = vec![
                ApInt::zero(*w),
                ApInt::one(*w),
                ApInt::all_ones(*w),
                ApInt::signed_min(*w),
                ApInt::signed_max(*w),
                ApInt::new(*w, 2),
                ApInt::from_i128(*w, -2),
            ];
            if *w >= 8 {
                vals.push(ApInt::new(*w, 16));
                vals.push(ApInt::new(*w, 255));
                vals.push(ApInt::new(*w, 0xaa));
            }
            vals.dedup();
            vals.into_iter().map(EvalValue::Int).collect()
        }
        Type::Float(k) => [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 255.5]
            .iter()
            .map(|v| EvalValue::Float(*k, *v))
            .collect(),
        Type::Ptr => vec![EvalValue::Ptr(PtrValue { alloc: usize::MAX, offset: 0 })],
        Type::Vector(n, elem) => {
            let scalars = corner_values(elem);
            let mut out = Vec::new();
            for (i, _) in scalars.iter().enumerate() {
                let lanes: Vec<EvalValue> = (0..*n as usize)
                    .map(|lane| scalars[(i + lane) % scalars.len()].clone())
                    .collect();
                out.push(EvalValue::Vector(lanes));
            }
            out
        }
        Type::Void => vec![],
    }
}

/// A seeded random value of the given type.
pub fn random_value(ty: &Type, rng: &mut StdRng) -> EvalValue {
    match ty {
        Type::Int(w) => {
            let raw: u128 = ((rng.gen::<u64>() as u128) << 64) | rng.gen::<u64>() as u128;
            EvalValue::Int(ApInt::new(*w, raw))
        }
        Type::Float(k) => {
            let choice: u8 = rng.gen_range(0..10);
            let v = match choice {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => 0.0,
                _ => (rng.gen::<f64>() - 0.5) * 1000.0,
            };
            EvalValue::Float(*k, v)
        }
        Type::Ptr => EvalValue::Ptr(PtrValue { alloc: usize::MAX, offset: 0 }),
        Type::Vector(n, elem) => {
            EvalValue::Vector((0..*n).map(|_| random_value(elem, rng)).collect())
        }
        Type::Void => EvalValue::Undef,
    }
}

/// Binds every pointer argument to a fresh allocation with varied contents.
fn bind_memory(func: &Function, mut args: Vec<EvalValue>, rng: &mut StdRng, salt: u64) -> TestInput {
    let mut memory = Memory::new();
    for (i, p) in func.params.iter().enumerate() {
        if p.ty.is_ptr() {
            let mut bytes = vec![0u8; PTR_ALLOC_SIZE];
            match salt % 4 {
                0 => {}
                1 => bytes.iter_mut().for_each(|b| *b = 0xff),
                2 => bytes.iter_mut().enumerate().for_each(|(j, b)| *b = j as u8),
                _ => bytes.iter_mut().for_each(|b| *b = rng.gen()),
            }
            let alloc = memory.allocate(Allocation::with_bytes(bytes));
            args[i] = EvalValue::Ptr(PtrValue { alloc, offset: 0 });
        }
    }
    TestInput { args, memory }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpo_ir::parser::parse_function;
    use lpo_ir::printer;

    #[test]
    fn small_signatures_are_exhaustive() {
        let f = parse_function("define i8 @f(i8 %x) {\n ret i8 %x\n}").unwrap();
        let inputs = generate_inputs(&f, &InputConfig::default());
        assert_eq!(inputs.len(), 256);
        let f2 = parse_function("define i8 @f(i8 %x, i8 %y) {\n ret i8 %x\n}").unwrap();
        let inputs2 = generate_inputs(&f2, &InputConfig::default());
        assert_eq!(inputs2.len(), 65536);
    }

    #[test]
    fn large_signatures_are_sampled() {
        let f = parse_function("define i32 @f(i32 %x, i32 %y) {\n ret i32 %x\n}").unwrap();
        let config = InputConfig::default();
        let inputs = generate_inputs(&f, &config);
        assert!(inputs.len() > config.random_samples);
        assert!(inputs.len() < 5000);
        // Corner values are present: find x == INT_MIN.
        assert!(inputs.iter().any(|i| {
            matches!(&i.args[0], EvalValue::Int(v) if *v == ApInt::signed_min(32))
        }));
    }

    #[test]
    fn pointer_args_get_allocations() {
        let f = parse_function("define i32 @f(ptr %p) {\n %v = load i32, ptr %p, align 4\n ret i32 %v\n}").unwrap();
        let inputs = generate_inputs(&f, &InputConfig::default());
        assert!(!inputs.is_empty());
        for input in &inputs {
            let ptr = input.args[0].as_ptr().expect("pointer arg");
            assert_eq!(input.memory.allocation(ptr.alloc).unwrap().size(), PTR_ALLOC_SIZE);
        }
        // Contents vary across inputs.
        let first = inputs[0].memory.allocation(0).unwrap().bytes().to_vec();
        assert!(inputs.iter().any(|i| i.memory.allocation(0).unwrap().bytes() != &first[..]));
    }

    #[test]
    fn deterministic_given_same_seed() {
        let f = parse_function("define i32 @f(i32 %x) {\n ret i32 %x\n}").unwrap();
        let a = generate_inputs(&f, &InputConfig::default());
        let b = generate_inputs(&f, &InputConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.args, y.args);
        }
    }

    #[test]
    fn vector_exhaustive_when_small() {
        let f = parse_function("define <4 x i2> @f(<4 x i2> %x) {\n ret <4 x i2> %x\n}").unwrap();
        let inputs = generate_inputs(&f, &InputConfig::default());
        assert_eq!(inputs.len(), 256); // 4 lanes × 2 bits = 8 bits
    }

    /// Signatures covering both layouts: scalar ints of every width class
    /// (i1 to i64, one to four params, none), and the row shapes (floats,
    /// pointers, vectors, i128, mixed).
    const SIGNATURES: [&str; 17] = [
        "define i8 @f(i8 %x) {\n ret i8 %x\n}",
        "define i8 @f(i8 %x, i8 %y) {\n ret i8 %x\n}",
        "define i32 @f(i32 %x) {\n ret i32 %x\n}",
        "define i32 @f(i32 %x, i32 %y) {\n ret i32 %x\n}",
        "define i64 @f(i64 %x, i64 %y, i64 %z) {\n ret i64 %x\n}",
        "define i1 @f(double %x) {\n %r = fcmp oeq double %x, 1.0\n ret i1 %r\n}",
        "define i32 @f(ptr %p) {\n %v = load i32, ptr %p, align 4\n ret i32 %v\n}",
        "define <4 x i2> @f(<4 x i2> %x) {\n ret <4 x i2> %x\n}",
        "define <4 x i8> @f(<4 x i8> %x, i32 %y) {\n ret <4 x i8> %x\n}",
        "define i1 @f(i1 %x) {\n ret i1 %x\n}",
        "define i1 @f(i1 %a, i1 %b, i1 %c, i1 %d) {\n ret i1 %a\n}",
        "define i64 @f(i64 %x) {\n ret i64 %x\n}",
        "define i8 @f(i4 %a, i1 %b, i3 %c) {\n ret i8 0\n}",
        "define i8 @f(i8 %a, i1 %b, i16 %c, i64 %d) {\n ret i8 %a\n}",
        "define i128 @f(i128 %x) {\n ret i128 %x\n}",
        "define i8 @f(i8 %x, ptr %p) {\n ret i8 %x\n}",
        "define i8 @f() {\n ret i8 0\n}",
    ];

    /// Both input configurations every signature is checked under.
    fn configs() -> [InputConfig; 2] {
        [InputConfig::default(), InputConfig { exhaustive_bits: 10, random_samples: 48, seed: 1 }]
    }

    #[test]
    fn input_count_matches_generate_inputs() {
        for text in SIGNATURES {
            let f = parse_function(text).unwrap();
            for config in configs() {
                assert_eq!(
                    input_count(&f, &config),
                    generate_inputs(&f, &config).len(),
                    "input_count diverged for {text}"
                );
            }
        }
    }

    /// Argument lists compared bit for bit (`NaN` equals itself, `-0.0`
    /// differs from `0.0`), which `PartialEq` on floats would not give.
    fn args_text(args: &[EvalValue]) -> String {
        format!("{args:?}")
    }

    /// Asserts that `set` reproduces `generate_inputs` lane for lane, and
    /// is in columns exactly for all-`iN<=64` signatures.
    fn assert_set_matches_rows(set: &InputSet, f: &Function, config: &InputConfig, what: &str) {
        let rows = generate_inputs(f, config);
        assert_eq!(set.len(), rows.len(), "{what}: lane count");
        assert_eq!(set.exhaustive(), exhaustive_bits(f, config).is_some(), "{what}: exhaustive");
        let scalar_ints = f.params.iter().all(|p| matches!(p.ty, Type::Int(w) if w <= 64));
        assert_eq!(set.columns().is_some(), scalar_ints, "{what}: layout");
        assert_eq!(set.allocation_free(), rows.iter().all(|r| r.memory.allocation_count() == 0));
        for (i, row) in rows.iter().enumerate() {
            let lane = set.input(i);
            assert_eq!(args_text(&lane.args), args_text(&row.args), "{what}: args of lane {i}");
            assert_eq!(
                lane.memory.allocation_count(),
                row.memory.allocation_count(),
                "{what}: allocations of lane {i}"
            );
        }
        if let Some(columns) = set.columns() {
            for (j, column) in columns.iter().enumerate() {
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(
                        EvalValue::int(f.params[j].ty.int_width().unwrap(), column[i] as u128),
                        row.args[j],
                        "{what}: column {j} lane {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn input_set_matches_generate_inputs() {
        for text in SIGNATURES {
            let f = parse_function(text).unwrap();
            for config in configs() {
                assert_set_matches_rows(&InputSet::generate(&f, &config), &f, &config, text);
            }
        }
    }

    #[test]
    fn input_set_matches_generate_inputs_on_fuzz_signatures() {
        for seed in crate::fuzz_seeds::seed_block(200, 0x1a9c_0f5e, "input-set") {
            let f = lpo_interp::fuzz::random_function(seed);
            // Thresholds on both sides of each signature's bit total, so the
            // block covers exhaustive and sampled sets alike.
            let config = InputConfig {
                exhaustive_bits: (seed % 13) as u32,
                random_samples: 8 + (seed % 24) as usize,
                seed,
            };
            let what = format!("fuzz seed {seed:#x}");
            assert_set_matches_rows(&InputSet::generate(&f, &config), &f, &config, &what);
        }
    }

    /// A function with `f`'s parameters and nothing else: another source of
    /// the same signature.
    fn twin_of(f: &Function) -> Function {
        let mut twin = Function::new("twin", Type::Void);
        twin.params = f.params.clone();
        twin
    }

    /// An `InputCache` hands out, for the fixed and fuzz signatures (both
    /// layouts, pointer parameters, exhaustive and sampled sets), sets equal
    /// lane for lane to `InputSet::generate`; functions of one signature
    /// share one `Arc`, also when two threads ask at once; different
    /// configurations never share a set.
    #[test]
    fn input_set_cache_matches_generate_and_shares_per_signature() {
        let cache = InputCache::new();
        let mut functions: Vec<(Function, [InputConfig; 3])> = SIGNATURES
            .iter()
            .map(|text| {
                let [a, b] = configs();
                let reseeded = InputConfig { seed: b.seed + 1, ..b.clone() };
                (parse_function(text).unwrap(), [a, b, reseeded])
            })
            .collect();
        for seed in crate::fuzz_seeds::seed_block(60, 0x1a9c_ca5e, "input-set-cache") {
            let config = InputConfig {
                exhaustive_bits: (seed % 13) as u32,
                random_samples: 8 + (seed % 24) as usize,
                seed,
            };
            let other = InputConfig { exhaustive_bits: config.exhaustive_bits + 1, ..config.clone() };
            let reseeded = InputConfig { seed: seed ^ 1, ..config.clone() };
            functions.push((lpo_interp::fuzz::random_function(seed), [config, other, reseeded]));
        }
        for (f, configs) in &functions {
            let what = printer::print_function(f);
            let sets: Vec<Arc<InputSet>> = configs.iter().map(|config| cache.get(f, config)).collect();
            for (set, config) in sets.iter().zip(configs) {
                assert_set_matches_rows(set, f, config, &what);
                assert_eq!(set.columns(), InputSet::generate(f, config).columns(), "{what}");
                assert!(Arc::ptr_eq(set, &cache.get(&twin_of(f), config)), "{what}: one signature, one set");
            }
            for (i, j) in [(0, 1), (0, 2), (1, 2)] {
                assert!(!Arc::ptr_eq(&sets[i], &sets[j]), "{what}: configs {i} and {j} share a set");
            }
        }
        let f = parse_function(SIGNATURES[1]).unwrap();
        let racing = InputCache::new();
        let [a, b] = std::thread::scope(|scope| {
            [(); 2].map(|_| scope.spawn(|| racing.get(&f, &InputConfig::default()))).map(|h| h.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b), "racing threads get the set stored first");
    }

    #[test]
    fn corner_values_cover_float_specials() {
        let corners = corner_values(&Type::double());
        assert!(corners.iter().any(|v| matches!(v, EvalValue::Float(_, x) if x.is_nan())));
        assert!(corners.iter().any(|v| matches!(v, EvalValue::Float(_, x) if x.is_infinite())));
        let int_corners = corner_values(&Type::i8());
        assert!(int_corners.contains(&EvalValue::int(8, 0x80)));
        assert!(int_corners.contains(&EvalValue::int(8, 0x7f)));
    }
}
