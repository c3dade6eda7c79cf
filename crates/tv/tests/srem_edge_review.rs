use lpo_ir::parser::parse_function;
use lpo_tv::prelude::{verify_refinement, verify_refinement_reference, TvConfig, Verdict};

#[test]
fn srem_int_min_divisor_is_sound() {
    // srem(i64 MAX, i64 MIN) = i64 MAX (q = 0, r = dividend): no overflow,
    // no UB, so the candidate refines a source returning that constant.
    let tgt = parse_function(
        "define i64 @t() {\nentry:\n  %r = srem i64 9223372036854775807, -9223372036854775808\n  ret i64 %r\n}",
    )
    .expect("parse tgt");
    let src = parse_function("define i64 @s() {\nentry:\n  ret i64 9223372036854775807\n}")
        .expect("parse src");

    let staged = verify_refinement(&src, &tgt);
    assert_eq!(staged, Verdict::Correct { inputs_checked: 1, exhaustive: true });
    assert_eq!(staged, verify_refinement_reference(&src, &tgt, &TvConfig::default()));

    // A source returning anything else is refuted, so the check above is not
    // vacuous.
    let off_by_one = parse_function("define i64 @s() {\nentry:\n  ret i64 9223372036854775806\n}")
        .expect("parse off-by-one src");
    assert!(matches!(verify_refinement(&off_by_one, &tgt), Verdict::Incorrect(_)));
}
