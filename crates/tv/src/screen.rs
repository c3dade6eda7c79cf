//! Input 0 of a whole row of `op a, b` candidates in one plane step.
//!
//! An enumerative search tries every `op a, b` over a fixed set of operand
//! planes, and most candidates are refuted on the very first input. Where
//! [`SourceCache::tape_refutes`] runs one candidate at a time, a
//! [`RowScreen`] loads input 0 of every operand pair into a two-column
//! [`PlaneTape`] — lane `k` holds pair `k`'s operands — so one `binary` step
//! per op evaluates input 0 of every pair through the same kernels, and the
//! case's dense table decides each lane. A pair the row refutes is refuted;
//! a pair it passes, or does not screen, goes on to `tape_refutes`.

use crate::refine::SourceCache;
use lpo_interp::compiled::EvalArena;
use lpo_interp::plane::PlaneTape;
use lpo_ir::flags::IntFlags;
use lpo_ir::instruction::BinOp;
use lpo_ir::types::Type;

/// The cell of a pair the row does not screen.
const UNSCREENED: u32 = u32::MAX;

/// Input 0 of every `(a, b)` pair of one operand set, one pair per lane of
/// a row tape, screened one `op` at a time.
///
/// A pair is screened when both operands are `width`-bit planes whose lane
/// 0 is a concrete value and the plane the candidates follow is not UB on
/// lane 0: the row's lanes start UB-free and hold only concrete columns,
/// so an unscreened pair is one the row cannot represent. A screened
/// pair's verdict is exactly the one [`SourceCache::tape_refutes`] reaches
/// on input 0 for the same candidate pushed onto the source tape.
///
/// The buffers are kept across [`load`](Self::load)s, so a screen reused
/// across bases and searches allocates only to grow.
#[derive(Debug, Default)]
pub struct RowScreen {
    /// Input 0 of each lane's left operand.
    a: Vec<u64>,
    /// Input 0 of each lane's right operand.
    b: Vec<u64>,
    /// Per `(operand, leaf)` cell, row-major, its lane or [`UNSCREENED`].
    cells: Vec<u32>,
    leaves: usize,
    width: u32,
    tape: PlaneTape,
    /// Per lane, whether the last screened op is refuted on input 0.
    refuted: Vec<bool>,
}

impl RowScreen {
    /// Loads the row of every pair `(operands[i], leaves[j])`, each a plane
    /// of `tape` (`None` for an operand with no plane), for candidates of
    /// `width` bits, a plane width (`1..=64`), pushed right after `tape`'s
    /// last plane.
    pub fn load(
        &mut self,
        tape: &PlaneTape,
        operands: &[Option<usize>],
        leaves: &[Option<usize>],
        width: u32,
    ) {
        self.a.clear();
        self.b.clear();
        self.cells.clear();
        self.refuted.clear();
        self.leaves = leaves.len();
        self.width = width;
        // The row's lanes start UB-free, so nothing that follows a plane UB
        // on input 0 is screened.
        let screenable = tape.lanes() > 0 && !tape.is_empty() && !tape.view(tape.len() - 1).is_ub(0);
        let input0 = |plane: Option<usize>| {
            let plane = plane.filter(|&p| screenable && tape.width(p) == width)?;
            let lanes = tape.view(plane);
            (!lanes.is_ub(0) && !lanes.is_poison(0) && !lanes.is_undef(0)).then(|| lanes.raw(0))
        };
        let leaf_values: Vec<Option<u64>> = leaves.iter().map(|&p| input0(p)).collect();
        for &operand in operands {
            let a = input0(operand);
            for &b in &leaf_values {
                let cell = match (a, b) {
                    (Some(a), Some(b)) => {
                        self.a.push(a);
                        self.b.push(b);
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
    /// `case` with its dense table. Screens nothing — every pair then reads
    /// as not refuted — when the case has no dense table, or does not
    /// return a `width`-bit integer.
    pub fn screen(&mut self, case: &SourceCache, op: BinOp, arena: &mut EvalArena) {
        self.refuted.clear();
        let Some(table) = case.dense_table() else { return };
        if self.a.is_empty() || case.source().ret_ty != Type::Int(self.width) {
            return;
        }
        self.tape.truncate(2);
        let plane = self.tape.binary(op, IntFlags::none(), 0, 1);
        self.tape.run(plane, 0..self.a.len());
        let lanes = self.tape.view(plane);
        self.refuted.extend((0..self.a.len()).map(|lane| case.lane_refutes(table, 0, &lanes, lane, arena)));
    }

    /// Whether the last [`screen`](Self::screen)ed op over
    /// `(operands[operand], leaves[leaf])` is refuted on input 0; `false`
    /// for a pair the row does not screen.
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
                        row.screen(&case, op, &mut arena);
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
}
