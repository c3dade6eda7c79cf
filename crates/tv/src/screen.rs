//! Input 0, and a search's latest counterexamples, of a whole row of
//! `op a, b` candidates in a few plane steps.
//!
//! An enumerative search tries every `op a, b` over a fixed set of operand
//! planes, and most candidates are refuted on the very first input. Where
//! [`SourceCache::tape_refutes`] runs one candidate at a time, a
//! [`RowScreen`] loads input 0 of every operand pair into a two-column
//! [`PlaneTape`] — lane `k` holds pair `k`'s operands — so one `binary` step
//! per op evaluates input 0 of every pair through the same kernels, and the
//! case's dense table decides each lane.
//!
//! Most candidates input 0 passes are refuted by an input that refuted an
//! earlier candidate of the same search, as in CEGIS. So the pairs input 0
//! passes go through a second step, on a second two-column tape holding
//! their operands at each of the search's counterexample inputs. A pair the
//! row refutes on any input is refuted; a pair it passes, or does not
//! screen, goes on to `tape_refutes`.

use crate::refine::SourceCache;
use lpo_interp::compiled::EvalArena;
use lpo_interp::plane::{PlaneLanes, PlaneTape};
use lpo_ir::flags::IntFlags;
use lpo_ir::instruction::BinOp;
use lpo_ir::types::Type;

/// The cell of a pair the row does not screen.
const UNSCREENED: u32 = u32::MAX;

/// Whether a lane holds a concrete value: neither UB nor poison nor undef.
fn concrete(lanes: &PlaneLanes, lane: usize) -> bool {
    !lanes.is_ub(lane) && !lanes.is_poison(lane) && !lanes.is_undef(lane)
}

/// Input 0 of every `(a, b)` pair of one operand set, one pair per lane of
/// a row tape, screened one `op` at a time — then, for the pairs input 0
/// passes, the inputs of a counterexample list.
///
/// A pair is screened when both operands are `width`-bit planes whose lane
/// 0 is a concrete value and the plane the candidates follow (the *base*,
/// the search tape's last plane) is not UB on lane 0: the row's lanes start
/// UB-free and hold only concrete columns, so an unscreened pair is one the
/// row cannot represent. By the same rule, a screened pair is tried on a
/// counterexample input only where the base is not UB and both operands
/// are concrete. A screened pair's verdict on each input it is tried on is
/// exactly the one [`SourceCache::tape_refutes`] reaches on that input for
/// the same candidate pushed onto the search tape.
///
/// The buffers are kept across [`load`](Self::load)s, so a screen reused
/// across bases and searches allocates only to grow.
#[derive(Debug, Default)]
pub struct RowScreen {
    /// Input 0 of each lane's left operand.
    a: Vec<u64>,
    /// Input 0 of each lane's right operand.
    b: Vec<u64>,
    /// Each lane's left and right operand plane on the search tape.
    planes: Vec<(u32, u32)>,
    /// Per `(operand, leaf)` cell, row-major, its lane or [`UNSCREENED`].
    cells: Vec<u32>,
    leaves: usize,
    width: u32,
    /// The search tape's last plane when the row was loaded.
    base: usize,
    tape: PlaneTape,
    /// Per lane, whether the last screened op is refuted on input 0 or a
    /// counterexample input.
    refuted: Vec<bool>,
    /// The counterexample step's left and right operand columns.
    cex_a: Vec<u64>,
    cex_b: Vec<u64>,
    /// Per lane of the counterexample step, the row lane and the input it
    /// holds.
    cex_lanes: Vec<(u32, usize)>,
    cex_tape: PlaneTape,
}

impl RowScreen {
    /// Loads the row of every pair `(operands[i], leaves[j])`, each a plane
    /// of `tape` (`None` for an operand with no plane), for candidates of
    /// `width` bits, a plane width (`1..=64`), pushed right after `tape`'s
    /// last plane. Every plane of `tape` must be evaluated on every lane.
    pub fn load(
        &mut self,
        tape: &PlaneTape,
        operands: &[Option<usize>],
        leaves: &[Option<usize>],
        width: u32,
    ) {
        self.a.clear();
        self.b.clear();
        self.planes.clear();
        self.cells.clear();
        self.refuted.clear();
        self.leaves = leaves.len();
        self.width = width;
        self.base = tape.len().wrapping_sub(1);
        // The row's lanes start UB-free, so nothing that follows a plane UB
        // on input 0 is screened.
        let screenable = tape.lanes() > 0 && !tape.is_empty() && !tape.view(self.base).is_ub(0);
        let input0 = |plane: Option<usize>| {
            let plane = plane.filter(|&p| screenable && tape.width(p) == width)?;
            let lanes = tape.view(plane);
            concrete(&lanes, 0).then(|| (plane as u32, lanes.raw(0)))
        };
        let leaf_values: Vec<Option<(u32, u64)>> = leaves.iter().map(|&p| input0(p)).collect();
        for &operand in operands {
            let a = input0(operand);
            for &b in &leaf_values {
                let cell = match (a, b) {
                    (Some((pa, a)), Some((pb, b))) => {
                        self.a.push(a);
                        self.b.push(b);
                        self.planes.push((pa, pb));
                        (self.a.len() - 1) as u32
                    }
                    _ => UNSCREENED,
                };
                self.cells.push(cell);
            }
        }
        let loaded = self.tape.load_columns(&[width, width], &[&self.a, &self.b]);
        assert!(loaded, "lane 0 of a {width}-bit plane is a canonical {width}-bit value");
    }

    /// Evaluates `op a, b` on every lane and decides each against input 0 of
    /// `case` with its dense table; then evaluates it on every pair input 0
    /// passes at each of `counterexamples`, inputs of `case` whose operand
    /// values are read off `tape`: the search tape the row was
    /// [`load`](Self::load)ed from, its planes up to the base unchanged.
    /// Screens nothing — every pair then reads as not refuted — when the
    /// case has no dense table, or does not return a `width`-bit integer.
    pub fn screen(
        &mut self,
        case: &SourceCache,
        op: BinOp,
        tape: &PlaneTape,
        counterexamples: &[usize],
        arena: &mut EvalArena,
    ) {
        self.refuted.clear();
        self.cex_a.clear();
        self.cex_b.clear();
        self.cex_lanes.clear();
        let Some(table) = case.dense_table() else { return };
        if self.a.is_empty() || case.source().ret_ty != Type::Int(self.width) {
            return;
        }
        self.tape.truncate(2);
        let plane = self.tape.binary(op, IntFlags::none(), 0, 1);
        self.tape.run(plane, 0..self.a.len());
        let lanes = self.tape.view(plane);
        self.refuted.extend((0..self.a.len()).map(|lane| case.lane_refutes(table, 0, &lanes, lane, arena)));

        // The second step: each pair input 0 passes, at each counterexample
        // input where the base is not UB and both operands are concrete.
        let base = tape.view(self.base);
        let inputs = counterexamples.iter().copied().filter(|&k| !base.is_ub(k));
        for (lane, &(pa, pb)) in self.planes.iter().enumerate().filter(|&(lane, _)| !self.refuted[lane]) {
            let (a, b) = (tape.view(pa as usize), tape.view(pb as usize));
            for k in inputs.clone().filter(|&k| concrete(&a, k) && concrete(&b, k)) {
                self.cex_a.push(a.raw(k));
                self.cex_b.push(b.raw(k));
                self.cex_lanes.push((lane as u32, k));
            }
        }
        if self.cex_lanes.is_empty() {
            return;
        }
        let width = self.width;
        let loaded = self.cex_tape.load_columns(&[width, width], &[&self.cex_a, &self.cex_b]);
        assert!(loaded, "a concrete lane of a {width}-bit plane is a canonical {width}-bit value");
        let plane = self.cex_tape.binary(op, IntFlags::none(), 0, 1);
        self.cex_tape.run(plane, 0..self.cex_lanes.len());
        let lanes = self.cex_tape.view(plane);
        for (i, &(lane, k)) in self.cex_lanes.iter().enumerate() {
            if case.lane_refutes(table, k, &lanes, i, arena) {
                self.refuted[lane as usize] = true;
            }
        }
    }

    /// Whether the last [`screen`](Self::screen)ed op over
    /// `(operands[operand], leaves[leaf])` is refuted on input 0 or a
    /// counterexample input; `false` for a pair the row does not screen.
    pub fn refuted(&self, operand: usize, leaf: usize) -> bool {
        match self.cells[operand * self.leaves + leaf] {
            UNSCREENED => false,
            lane => self.refuted.get(lane as usize).copied().unwrap_or(false),
        }
    }

    /// Whether the pair `(operands[operand], leaves[leaf])` is on the row.
    #[cfg(test)]
    fn screens(&self, operand: usize, leaf: usize) -> bool {
        self.cells[operand * self.leaves + leaf] != UNSCREENED
    }

    /// The counterexample inputs the last [`screen`](Self::screen) tried
    /// the pair `(operands[operand], leaves[leaf])` on.
    #[cfg(test)]
    fn tried_inputs(&self, operand: usize, leaf: usize) -> Vec<usize> {
        let cell = self.cells[operand * self.leaves + leaf];
        self.cex_lanes.iter().filter(|&&(lane, _)| lane == cell).map(|&(_, k)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{InputConfig, InputSet};
    use crate::refine::{evaluate_source, refutation, SourceOutcome, TvConfig};
    use lpo_interp::compiled::CompiledFunction;
    use lpo_interp::memory::Memory;
    use lpo_interp::value::EvalValue;
    use lpo_ir::apint::ApInt;
    use lpo_ir::function::Function;
    use lpo_ir::parser::parse_function;
    use lpo_ir::printer;

    /// How input 0's arguments enter the tape.
    #[derive(Clone, Copy, Debug)]
    enum Taint {
        None,
        Poison,
        Undef,
    }

    /// The per-candidate answer on input 0: `op a, b` pushed onto `tape`,
    /// run on lane 0 and compared, materialized, against input 0's source
    /// outcome evaluated by the compiled source.
    fn lane0_refutes(tape: &mut PlaneTape, op: BinOp, a: usize, b: usize, src_out: &SourceOutcome) -> bool {
        let len = tape.len();
        let plane = tape.binary(op, IntFlags::none(), a, b);
        tape.run(plane, 0..1);
        let tgt_out = tape.view(plane).value(0).map(|v| (Some(v), Memory::new()));
        tape.truncate(len);
        refutation(&Memory::new(), src_out, &tgt_out).is_some()
    }

    /// Over plane-eligible sources and bases whose input-0 lane is
    /// concrete, poison, undef or UB, the row verdict of every `op a, b`
    /// equals the per-candidate lane-0 check, and a pair the row leaves
    /// unscreened is one it cannot represent.
    #[test]
    fn tape_window_row_screen_matches_per_candidate_lane_0() {
        let hand = [
            "define i8 @none() {\n %r = add i8 7, 3\n ret i8 %r\n}",
            "define i1 @two(i1 %x, i1 %y) {\n %r = and i1 %x, %y\n ret i1 %r\n}",
            "define i8 @mul(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}",
            "define i4 @divides(i4 %x, i4 %y) {\n %d = udiv i4 %x, %y\n %r = mul i4 %d, %y\n ret i4 %r\n}",
            "define i64 @wide(i64 %x, i8 %y) {\n %z = zext i8 %y to i64\n %r = sub i64 %x, %z\n ret i64 %r\n}",
            "define i8 @traps(i8 %x) {\n %r = sdiv i8 %x, 0\n ret i8 %r\n}",
        ];
        let mut sources: Vec<(Function, InputConfig)> =
            hand.iter().map(|text| (parse_function(text).unwrap(), InputConfig::default())).collect();
        let shape = lpo_interp::fuzz::FuzzConfig { max_params: 2, max_insts: 4 };
        let count = if cfg!(debug_assertions) { 40 } else { 200 };
        for seed in crate::fuzz_seeds::seed_block(count, 0x5c7e_e11a, "row-screen") {
            let inputs =
                InputConfig { exhaustive_bits: (seed % 11) as u32, random_samples: 4 + (seed % 20) as usize, seed };
            sources.push((lpo_interp::fuzz::random_function_with(seed, &shape), inputs));
        }
        let mut arena = EvalArena::new();
        let mut row = RowScreen::default();
        let (mut eligible, mut refuted, mut passed, mut unscreened) = (0, 0, 0, 0);
        for (i, (src, inputs)) in sources.iter().enumerate() {
            let case = SourceCache::new(src, TvConfig { inputs: inputs.clone(), ..TvConfig::default() });
            if case.plane_tape(&mut arena).is_none() {
                assert!(i >= hand.len(), "hand source {i} must be plane-eligible");
                continue;
            }
            eligible += 1;
            let width = src.ret_ty.int_width().expect("plane-eligible sources return an integer");
            let input0 = InputSet::generate(src, inputs).input(0).into_owned();
            let src_out = evaluate_source(&CompiledFunction::compile(src), &input0, &mut arena);
            let widths: Vec<u32> = src.params.iter().map(|p| p.ty.int_width().unwrap()).collect();
            for taint in [Taint::None, Taint::Poison, Taint::Undef] {
                let args: Vec<EvalValue> = input0
                    .args
                    .iter()
                    .enumerate()
                    .map(|(j, v)| match (taint, j) {
                        (Taint::Poison, 0) => EvalValue::Poison,
                        (Taint::Undef, 0) => EvalValue::Undef,
                        _ => v.clone(),
                    })
                    .collect();
                let mut tape = PlaneTape::new(&widths, &[&args]).expect("input 0 fits the tape");
                let mut leaves: Vec<Option<usize>> = (0..widths.len()).map(Some).collect();
                let constant = |tape: &mut PlaneTape, c: u128| tape.constant(&ApInt::new(width, c)).unwrap();
                for c in [0, 1, 5, width as u128, u128::MAX] {
                    leaves.push(Some(constant(&mut tape, c)));
                }
                let first = leaves.iter().flatten().copied().find(|&p| tape.width(p) == width).unwrap();
                let [zero, one, _, shift, _] = [0, 1, 2, 3, 4].map(|k| leaves[widths.len() + k].unwrap());
                // Base chains: none, a concrete (or tainted) step, a poison
                // step (`shl 1, width`) and a trapping step (`udiv a, 0`).
                let chains: [&[(BinOp, usize, usize)]; 4] = [
                    &[],
                    &[(BinOp::Add, first, one)],
                    &[(BinOp::Add, first, one), (BinOp::Shl, one, shift)],
                    &[(BinOp::UDiv, first, zero), (BinOp::Xor, first, one)],
                ];
                let fixed = tape.len();
                for chain in chains {
                    tape.truncate(fixed);
                    let mut operands = leaves.clone();
                    for &(op, a, b) in chain {
                        let plane = tape.binary(op, IntFlags::none(), a, b);
                        tape.run(plane, 0..1);
                        operands.push(Some(plane));
                    }
                    let last = tape.len() - 1;
                    let prefix_ub = tape.view(last).is_ub(0);
                    row.load(&tape, &operands, &leaves, width);
                    for op in BinOp::ALL {
                        row.screen(&case, op, &tape, &[], &mut arena);
                        for (ai, a) in operands.iter().enumerate() {
                            for (bi, b) in leaves.iter().enumerate() {
                                let (a, b) = (a.unwrap(), b.unwrap());
                                let concrete = |p: usize| {
                                    let lanes = tape.view(p);
                                    !lanes.is_poison(0) && !lanes.is_undef(0)
                                };
                                let fits = tape.width(a) == width && tape.width(b) == width;
                                if !row.screens(ai, bi) {
                                    assert!(!fits || prefix_ub || !concrete(a) || !concrete(b));
                                    unscreened += 1;
                                    continue;
                                }
                                assert!(fits && !prefix_ub && concrete(a) && concrete(b));
                                let want = lane0_refutes(&mut tape, op, a, b, &src_out);
                                assert_eq!(
                                    row.refuted(ai, bi),
                                    want,
                                    "{op:?} operand {ai} leaf {bi}, taint {taint:?}, chain {chain:?}, source\n{}",
                                    printer::print_function(src)
                                );
                                if want {
                                    refuted += 1;
                                } else {
                                    passed += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        eprintln!("row screen: {eligible} eligible cases, {refuted} refuted, {passed} passed, {unscreened} unscreened");
        assert!(refuted > 0 && passed > 0 && unscreened > 0);
    }

    /// The candidate `op a, b` pushed onto `tape` and run on lane `k` alone,
    /// compared, materialized, against input `k`'s source outcome.
    fn lane_k_refutes(tape: &mut PlaneTape, op: BinOp, a: usize, b: usize, k: usize, src_out: &SourceOutcome) -> bool {
        let len = tape.len();
        let plane = tape.binary(op, IntFlags::none(), a, b);
        tape.run(plane, k..k + 1);
        let tgt_out = tape.view(plane).value(k).map(|v| (Some(v), Memory::new()));
        tape.truncate(len);
        refutation(&Memory::new(), src_out, &tgt_out).is_some()
    }

    /// Over random plane-eligible sources, frontier bases that are UB or
    /// poison on some inputs, and random counterexample lists, a screened
    /// pair is tried on exactly the listed inputs where the base is not UB
    /// and both operands are concrete (none once input 0 refutes it); it is
    /// refuted exactly when input 0 or one of those inputs refutes the
    /// candidate checked alone and materialized; and a pair the row refutes
    /// is one `tape_refutes` refutes too.
    #[test]
    fn tape_window_row_counterexamples_match_per_candidate_inputs() {
        let hand = [
            "define i8 @mul(i8 %x) {\n %r = mul i8 %x, 2\n ret i8 %r\n}",
            "define i4 @divides(i4 %x, i4 %y) {\n %d = udiv i4 %x, %y\n %r = mul i4 %d, %y\n ret i4 %r\n}",
            "define i64 @wide(i64 %x, i8 %y) {\n %z = zext i8 %y to i64\n %r = sub i64 %x, %z\n ret i64 %r\n}",
        ];
        let mut sources: Vec<(Function, InputConfig, u64)> = hand
            .iter()
            .enumerate()
            .map(|(i, text)| (parse_function(text).unwrap(), InputConfig::default(), i as u64))
            .collect();
        let shape = lpo_interp::fuzz::FuzzConfig { max_params: 2, max_insts: 4 };
        let count = if cfg!(debug_assertions) { 30 } else { 200 };
        for seed in crate::fuzz_seeds::seed_block(count, 0xce9a_1a9e, "row-counterexamples") {
            let inputs =
                InputConfig { exhaustive_bits: (seed % 11) as u32, random_samples: 4 + (seed % 20) as usize, seed };
            sources.push((lpo_interp::fuzz::random_function_with(seed, &shape), inputs, seed));
        }
        let mut arena = EvalArena::new();
        let mut row = RowScreen::default();
        let (mut eligible, mut by_counterexample, mut passed, mut left_out) = (0, 0, 0, 0);
        for (i, (src, inputs, seed)) in sources.iter().enumerate() {
            let case = SourceCache::new(src, TvConfig { inputs: inputs.clone(), ..TvConfig::default() });
            let Some(mut tape) = case.plane_tape(&mut arena) else {
                assert!(i >= hand.len(), "hand source {i} must be plane-eligible");
                continue;
            };
            eligible += 1;
            let lanes = tape.lanes();
            let width = src.ret_ty.int_width().expect("plane-eligible sources return an integer");
            let set = InputSet::generate(src, inputs);
            let compiled = CompiledFunction::compile(src);
            let src_outs: Vec<SourceOutcome> =
                (0..lanes).map(|k| evaluate_source(&compiled, &set.input(k), &mut arena)).collect();
            let mut leaves: Vec<Option<usize>> = (0..src.params.len()).map(Some).collect();
            for c in [0, 1, 5, width as u128, u128::MAX] {
                leaves.push(tape.constant(&ApInt::new(width, c)));
            }
            let first = leaves.iter().flatten().copied().find(|&p| tape.width(p) == width).unwrap();
            let one = leaves[src.params.len() + 1].unwrap();
            // Base chains: none, concrete, poison where `first >= width`, UB
            // where `first == 0` (input 0 included), and UB where
            // `first == 1` (input 0 excluded, so the row is loaded).
            let fixed = tape.len();
            let chains: [&[(BinOp, usize, usize)]; 5] = [
                &[],
                &[(BinOp::Add, first, one)],
                &[(BinOp::Shl, one, first)],
                &[(BinOp::UDiv, one, first), (BinOp::Xor, first, one)],
                &[(BinOp::Sub, first, one), (BinOp::UDiv, one, fixed)],
            ];
            let mut state = *seed ^ 0x9e37_79b9_7f4a_7c15;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for chain in chains {
                tape.truncate(fixed);
                let mut operands = leaves.clone();
                for &(op, a, b) in chain {
                    let plane = tape.binary(op, IntFlags::none(), a, b);
                    tape.run(plane, 0..lanes);
                    operands.push(Some(plane));
                }
                let base = tape.len() - 1;
                let concrete_at = |tape: &PlaneTape, p: usize, k: usize| concrete(&tape.view(p), k);
                // Random distinct inputs past 0, plus the first input where
                // the base is UB and the first where an operand is not
                // concrete, so the left-out rules are always exercised.
                let mut counterexamples: Vec<usize> = Vec::new();
                let mut list = |k: usize| {
                    if k > 0 && !counterexamples.contains(&k) {
                        counterexamples.push(k);
                    }
                };
                if lanes > 1 {
                    for _ in 0..next() % 6 {
                        list(1 + (next() as usize) % (lanes - 1));
                    }
                }
                if let Some(k) = (1..lanes).find(|&k| tape.view(base).is_ub(k)) {
                    list(k);
                }
                if let Some(k) = (1..lanes).find(|&k| operands.iter().flatten().any(|&p| !concrete_at(&tape, p, k))) {
                    list(k);
                }
                row.load(&tape, &operands, &leaves, width);
                for op in BinOp::ALL {
                    row.screen(&case, op, &tape, &counterexamples, &mut arena);
                    for (ai, a) in operands.iter().enumerate() {
                        for (bi, b) in leaves.iter().enumerate() {
                            if !row.screens(ai, bi) {
                                continue;
                            }
                            let (a, b) = (a.unwrap(), b.unwrap());
                            let context = || {
                                let src = printer::print_function(src);
                                format!("{op:?} operand {ai} leaf {bi}, chain {chain:?}, inputs {counterexamples:?}, source\n{src}")
                            };
                            let input0 = lane_k_refutes(&mut tape, op, a, b, 0, &src_outs[0]);
                            let screenable: Vec<usize> = counterexamples
                                .iter()
                                .copied()
                                .filter(|&k| !tape.view(base).is_ub(k) && concrete_at(&tape, a, k) && concrete_at(&tape, b, k))
                                .collect();
                            let tried = row.tried_inputs(ai, bi);
                            let want_tried = if input0 { Vec::new() } else { screenable.clone() };
                            assert_eq!(tried, want_tried, "{}", context());
                            left_out += counterexamples.len() - screenable.len();
                            let by_listed =
                                screenable.iter().any(|&k| lane_k_refutes(&mut tape, op, a, b, k, &src_outs[k]));
                            assert_eq!(row.refuted(ai, bi), input0 || by_listed, "{}", context());
                            if row.refuted(ai, bi) {
                                let plane = tape.binary(op, IntFlags::none(), a, b);
                                let refuting = case.tape_refutes(&mut tape, plane, &mut arena);
                                tape.truncate(base + 1);
                                assert!(refuting.is_some(), "{}", context());
                            } else {
                                passed += 1;
                            }
                            by_counterexample += usize::from(!input0 && by_listed);
                        }
                    }
                }
            }
        }
        eprintln!(
            "row counterexamples: {eligible} eligible cases, {by_counterexample} refuted past input 0, {passed} passed, {left_out} listed inputs left out"
        );
        assert!(by_counterexample > 0 && passed > 0 && left_out > 0);
    }
}
