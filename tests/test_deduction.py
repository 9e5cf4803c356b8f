from __future__ import annotations

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (binary_signature, certify, check_rule, derive_steps,
                      forged_verdicts, make_equation, make_term,
                      raises_exactly, satisfies, unary_signature)
from gen import gen_deduction, gen_equation, gen_expression
from termcat import deduction, kernel, subst
from termcat.arrows import apply_arrow, one_stage_arrow
from termcat.category import Comp, Gen, Id, Proj, TupleArrow, arrows_equal
from termcat.deduction import (RULE_NAMES, Abstraction, Concretion, Copy,
                               Hypothesis, LevelledDeduction, LevelStep,
                               Reflexivity, Step, Substitutivity, Symmetry,
                               Transitivity, compile_to_factorization,
                               conclude, equation_constraint,
                               identity_factorization,
                               lemma_table, normal_form_violations,
                               normalize_deduction, paste_factorizations,
                               product_factorizations)
from termcat.dsl import build_proof, parse_spec
from termcat.errors import INTERNED, DeductionError, TermcatError
from termcat.kernel import (CiteHyp, ComposeRight, EqConstraint, Factorization,
                            Refl, Sym, Trans, verify_factorization,
                            verify_lemmas, verify_levelled)
from termcat.models import enumerate_models
from termcat.signature import Variable, validate_signature
from termcat.subst import subst_expr
from termcat.terms import App


def _setup():
    sig = binary_signature()
    s = sig.sort_named["s"]
    x, y = Variable(s, 1), Variable(s, 2)
    m, c = sig.operation_named["m"], sig.operation_named["c"]
    comm = make_equation(App(m, (x, y)), App(m, (y, x)),
                         (x, y))
    lunit = make_equation(App(m, (App(c, ()), x)), x, (x,))
    return sig, s, x, y, m, c, comm, lunit


# --- check_rule ------------------------------------------------------------------


def test_reflexivity_coding():
    sig, s, x, y, m, c, comm, lunit = _setup()
    t = make_term(App(m, (x, y)), (x, y), s)
    eq = make_equation(t.expr, t.expr, t.vars)
    step = check_rule(sig, (), Reflexivity(t), eq)
    assert step.hyp == ()
    assert step.verif[0] == (Refl(one_stage_arrow(t.expr, t.vars)),)
    assert arrows_equal(step.claim[0].left, step.claim[0].right)


def test_reflexivity_rejects_wrong_conclusion():
    # the producer codes the step `derive` drew; a conclusion forged after
    # the coding is what the kernel refuses, on both routes
    sig, s, x, y, m, c, comm, lunit = _setup()
    t = make_term(x, (x,), s)
    wrong = make_equation(x, x, (x, y))
    steps = derive_steps(sig, [(Reflexivity(t), ())], [])
    default, levelled = forged_verdicts(sig, steps, [], 0, wrong)
    assert default.trace == ("lemma 0: derived constraint differs from the "
                             "statement",)
    assert levelled.trace == ("claim 0: derived constraint differs from the "
                              "claim",)
    assert not verify_factorization(
        check_rule(sig, (), Reflexivity(t), wrong)).ok


def test_symmetry_coding():
    sig, s, x, y, m, c, comm, lunit = _setup()
    flipped = make_equation(comm.right, comm.left, comm.vars)
    step = check_rule(sig, (comm,), Symmetry(), flipped)
    assert step.verif[0] == (CiteHyp(0), Sym(0))
    assert step.claim[0] == EqConstraint(step.hyp[0].right, step.hyp[0].left)


def test_transitivity_coding_and_middle_check():
    sig, s, x, y, m, c, comm, lunit = _setup()
    flipped = make_equation(comm.right, comm.left, comm.vars)
    concl = make_equation(comm.left, comm.left, comm.vars)
    step = check_rule(sig, (comm, flipped), Transitivity(), concl)
    assert step.verif[0] == (CiteHyp(0), CiteHyp(1), Trans(0, 1))

    other = make_equation(x, y, (x, y))
    sym_other = make_equation(y, x, (x, y))
    with raises_exactly(DeductionError, "premises do not share a middle "
                        "term: m(x2:s, x1:s) vs x2:s"):
        check_rule(sig, (comm, sym_other), Transitivity(),
                   make_equation(comm.left, x, (x, y)))
    del other


def test_concretion_coding():
    sig, s, x, y, m, c, comm, lunit = _setup()
    z = Variable(s, 3)
    wide = make_equation(comm.left, comm.right, (x, y, z))
    narrow = make_equation(comm.left, comm.right, (x, y))
    step = check_rule(sig, (wide,), Concretion(z), narrow)
    assert isinstance(step.verif[0][1], ComposeRight)
    got = verify_factorization(step)
    assert got.ok


def test_concretion_requires_inhabited_sort():
    sig = validate_signature(["s", "t"], [("f", ["s"], "s"),
                                          ("c", [], "s")])
    s, t = sig.sorts
    x, z = Variable(s, 1), Variable(t, 1)
    eq = make_equation(x, x, (x, z))
    concl = make_equation(x, x, (x,))
    with raises_exactly(DeductionError, "sort t is empty; no closed filler "
                        "exists"):
        check_rule(sig, (eq,), Concretion(z), concl)


def test_concretion_rejects_occurring_variable():
    sig, s, x, y, m, c, comm, lunit = _setup()
    # the narrowed equation cannot even be formed once x occurs in a side
    with raises_exactly(TermcatError, "equation omits variables occurring "
                        "in its sides: x1:s"):
        make_equation(comm.left, comm.right, (y,))
    # and a conclusion that fails to drop the variable is rejected
    with raises_exactly(DeductionError, "x1:s occurs in the equation and "
                        "cannot be removed"):
        check_rule(sig, (comm,), Concretion(x), comm)


def test_abstraction_coding_and_x_in_v_rejection():
    sig, s, x, y, m, c, comm, lunit = _setup()
    z = Variable(s, 3)
    grown = make_equation(comm.left, comm.right, (x, y, z))
    step = check_rule(sig, (comm,), Abstraction(z), grown)
    assert verify_factorization(step).ok
    with raises_exactly(DeductionError, "x1:s already occurs among the "
                        "premise variables"):
        check_rule(sig, (comm,), Abstraction(x), grown)


def test_substitutivity_coding_structure():
    sig, s, x, y, m, c, comm, lunit = _setup()
    ce = App(c, ())
    refl_c = make_equation(ce, ce, ())
    concl = make_equation(subst_expr(lunit.left, x, ce),
                          subst_expr(lunit.right, x, ce), ())
    step = check_rule(sig, (lunit, refl_c), Substitutivity(x), concl)
    kinds = [type(k).__name__ for k in step.verif[0]]
    # the pair of substitution arrows is assembled by tuple congruence
    # before anything composes with it
    cong_at = kinds.index("TupleCong")
    assert cong_at < len(kinds) - 1
    assert kinds[-1] == "Trans"
    assert verify_factorization(step).ok


def test_substitutivity_rejects_wrong_sort():
    sig, s, x, y, m, c, comm, lunit = _setup()
    sig2 = validate_signature(["a", "b"], [("f", ["a"], "b")])
    a = Variable(sig2.sort_named["a"], 1)
    prem2 = make_equation(a, a, (a,))
    with raises_exactly(DeductionError, "second premise has sort a, but "
                        "x1:s requires s"):
        check_rule(sig, (lunit, prem2), Substitutivity(x),
                   make_equation(lunit.left, lunit.right, lunit.vars))


def test_rule_coded_claim_is_the_conclusion_diagram():
    sig, s, x, y, m, c, comm, lunit = _setup()
    flipped = make_equation(comm.right, comm.left, comm.vars)
    step = check_rule(sig, (comm,), Symmetry(), flipped)
    assert step.claim[0] == equation_constraint(flipped)


# --- whole deductions ----------------------------------------------------------


def test_single_hypothesis_deduction():
    sig, s, x, y, m, c, comm, lunit = _setup()
    cert = certify(sig, (Step(comm, Hypothesis(0), ()),), [comm])
    assert cert.hyp == (equation_constraint(comm),)
    assert cert.claim == cert.hyp
    assert cert.verif == ((CiteHyp(0),),)
    assert verify_factorization(cert).ok


def test_unknown_hypothesis_index():
    sig, s, x, y, m, c, comm, lunit = _setup()
    with raises_exactly(DeductionError,
                        "no hypothesis with index 3") as failure:
        derive_steps(sig, [(Hypothesis(3), ())], [comm])
    assert failure.value.step == 0


def test_sym_sym_chain_certificate():
    sig, s, x, y, m, c, comm, lunit = _setup()
    flipped = make_equation(comm.right, comm.left, comm.vars)
    steps = (Step(comm, Hypothesis(0), ()), Step(flipped, Symmetry(), (0,)),
             Step(comm, Symmetry(), (1,)))
    cert = certify(sig, steps, [comm])
    swaps = [k for k in cert.verif[0] if isinstance(k, Sym)]
    assert len(swaps) == 2
    assert verify_factorization(cert).ok
    assert cert.claim == (equation_constraint(comm),)


def test_three_level_subst_then_trans():
    sig, s, x, y, m, c, comm, lunit = _setup()
    ce = App(c, ())
    mid = make_equation(subst_expr(lunit.left, x, ce), ce, ())
    steps = (
        Step(lunit, Hypothesis(0), ()),
        Step(make_equation(ce, ce, ()), Reflexivity(make_term(ce, (), s)),
             ()),
        Step(mid, Substitutivity(x), (0, 1)),
        Step(make_equation(mid.right, mid.left, ()), Symmetry(), (2,)),
        Step(make_equation(mid.left, mid.left, ()), Transitivity(), (2, 3)))
    cert = certify(sig, steps, [lunit])
    assert verify_factorization(cert).ok
    want = equation_constraint(steps[-1].equation)
    assert len(cert.claim) == 1
    assert arrows_equal(cert.claim[0].left, want.left)
    assert arrows_equal(cert.claim[0].right, want.right)


def test_certificate_compiles_each_equation_once(monkeypatch):
    sig, s, x, y, m, c, comm, lunit = _setup()
    calls = []
    real = deduction.equation_constraint

    def counting(eq):
        calls.append(eq)
        return real(eq)

    monkeypatch.setattr(deduction, "equation_constraint", counting)
    # a0 = hyp lunit ; b0 = sym a0 ; c1 = trans a0 b0 ;
    # c2 = trans c1 c1 ; c3 = trans c2 c2 ; c4 = trans c3 c3
    steps = [
        Step(lunit, Hypothesis(0), ()),
        Step(make_equation(lunit.right, lunit.left, lunit.vars), Symmetry(),
             (0,)),
        Step(make_equation(lunit.left, lunit.left, lunit.vars),
             Transitivity(), (0, 1))]
    for k in range(2, 5):
        steps.append(Step(steps[k].equation, Transitivity(), (k, k)))
    ld = normalize_deduction(steps)
    cert = compile_to_factorization(ld, lemma_table(sig, steps), [lunit])
    distinct = {lunit} | {st.equation for level in ld.levels
                          for st in level}
    assert len(distinct) == 3
    assert len(calls) == len(distinct)
    assert verify_factorization(cert).ok


# --- the levelled normal form --------------------------------------------------------


def test_single_node_is_one_level():
    sig, s, x, y, m, c, comm, lunit = _setup()
    ld = normalize_deduction((Step(comm, Hypothesis(0), ()),))
    assert len(ld.levels) == 1
    assert normal_form_violations(ld) == []


def test_premise_at_two_depths_gets_copies_and_duplicates():
    sig, s, x, y, m, c, comm, lunit = _setup()
    steps = (
        Step(comm, Hypothesis(0), ()),
        Step(make_equation(comm.right, comm.left, comm.vars), Symmetry(),
             (0,)),
        Step(make_equation(comm.left, comm.left, comm.vars), Transitivity(),
             (0, 1)))
    ld = normalize_deduction(steps)
    assert normal_form_violations(ld) == []
    # the hypothesis is used twice, so level 0 holds two copies of it
    assert len(ld.levels[0]) == 2
    assert all(isinstance(st.rule, Hypothesis) for st in ld.levels[0])
    # the shallower use is padded with a copy step
    rules = [type(st.rule) for level in ld.levels for st in level]
    assert Copy in rules
    # each entry records the step it stands for or carries down
    assert [[st.step for st in level] for level in ld.levels] == [
        [0, 0], [0, 1], [2]]


def test_normal_form_violation_detection():
    sig, s, x, y, m, c, comm, lunit = _setup()
    bad = LevelledDeduction((
        (LevelStep(comm, Hypothesis(0), (), 0),),
        (LevelStep(comm, Copy(), (0,), 0), LevelStep(comm, Copy(), (0,), 0)),
    ))
    problems = normal_form_violations(bad)
    assert any("consumed 2" in p for p in problems)
    assert any("last level" in p for p in problems)


def test_copy_padding_is_the_identity_certificate():
    sig, s, x, y, m, c, comm, lunit = _setup()
    lemmas = lemma_table(sig, derive_steps(sig, [(Hypothesis(0), ())],
                                           [comm]))
    padded = LevelledDeduction((
        (LevelStep(comm, Hypothesis(0), (), 0),),
        (LevelStep(comm, Copy(), (0,), 0),),
        (LevelStep(comm, Copy(), (0,), 0),),
    ))
    cert = compile_to_factorization(padded, lemmas, [comm])
    assert cert.claim == (equation_constraint(comm),)
    assert cert.verif == ((CiteHyp(0),),)
    assert verify_factorization(cert).ok
    # a copy that changes its equation is refused
    flipped = make_equation(comm.right, comm.left, comm.vars)
    forged = LevelledDeduction((
        (LevelStep(comm, Hypothesis(0), (), 0),),
        (LevelStep(flipped, Copy(), (0,), 0),),
    ))
    with raises_exactly(DeductionError, "copy must repeat its premise "
                        "unchanged"):
        compile_to_factorization(forged, lemmas, [comm])
    # copy is not a rule of the logic
    with raises_exactly(DeductionError, "unknown rule Copy()"):
        check_rule(sig, (comm,), Copy(), comm)


def test_normalized_random_trees_satisfy_nf(seed=61):
    rng = random.Random(seed)
    sig = unary_signature()
    hyps = [gen_equation(rng, sig, depth=2) for _ in range(3)]
    for _ in range(60):
        steps = gen_deduction(rng, sig, hyps, rng.randint(0, 4))
        ld = normalize_deduction(steps)
        assert normal_form_violations(ld) == []
        assert ld.levels[-1][-1].equation == steps[-1].equation


def test_one_level_compile_equals_rule_coding():
    sig, s, x, y, m, c, comm, lunit = _setup()
    steps = (Step(comm, Hypothesis(0), ()),)
    ld = normalize_deduction(steps)
    cert = compile_to_factorization(ld, lemma_table(sig, steps), [comm])
    assert cert.hyp == (equation_constraint(comm),)
    assert cert.claim == (equation_constraint(comm),)
    assert cert.verif == ((CiteHyp(0),),)


def test_invalid_tree_fails_on_both_routes():
    sig, s, x, y, m, c, comm, lunit = _setup()
    z = Variable(s, 3)
    ce = App(c, ())
    refl_c = make_equation(ce, ce, ())
    flipped = make_equation(comm.right, comm.left, comm.vars)
    wide = make_equation(comm.left, comm.right, (x, y, z))
    # each rule with premises that meet its side conditions and a
    # conclusion it does not draw; a hypothesis step cites lunit
    cases = [
        (Hypothesis(0), (), comm),
        (Reflexivity(make_term(comm.left, comm.vars, s)), (), comm),
        (Symmetry(), (comm,), comm),
        (Transitivity(), (comm, flipped), comm),
        (Concretion(z), (wide,), wide),
        (Abstraction(z), (comm,), comm),
        (Substitutivity(x), (lunit, refl_c), lunit),
    ]
    for rule, premises, wrong in cases:
        # the step is derived and coded, then its conclusion is forged:
        # invalid everywhere, for the rule's one-claim certificate and on
        # both routes of the whole deduction
        hyps = list(premises) or [lunit]
        assert not verify_factorization(
            check_rule(sig, premises, rule, wrong, hyps)).ok
        k = len(premises)
        steps = derive_steps(sig, [(Hypothesis(i), ()) for i in range(k)]
                             + [(rule, range(k))], hyps)
        assert steps[-1].equation != wrong
        default, levelled = forged_verdicts(sig, steps, hyps, k, wrong)
        assert default.trace == (f"lemma {k}: derived constraint differs "
                                 "from the statement",)
        assert default.rejected == k
        assert levelled.trace == ("claim 0: derived constraint differs from "
                                  "the claim",)


def test_conclude_agrees_with_the_generated_trees():
    # tests/gen.py derives each rule's conclusion on its own and meets
    # every side condition; `conclude` must check them all, refuse none and
    # draw the same conclusion from the premises of every step
    tally = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def agree(seed):
        rng = random.Random(seed)
        sig = rng.choice([unary_signature(), binary_signature(), _TWO_SORTS])
        hyps = [gen_equation(rng, sig, depth=2)
                for _ in range(rng.randint(0, 3))]
        steps = gen_deduction(rng, sig, hyps, rng.randint(1, 5))
        for s in steps:
            drawn = conclude(sig, s.rule,
                             [steps[i].equation for i in s.premises], hyps)
            assert drawn == s.equation
            if isinstance(s.rule, Hypothesis):
                assert drawn is hyps[s.rule.index]
            tally[type(s.rule)] += 1
        tally["deductions"] += 1

    agree()
    assert tally.pop("deductions") >= 200
    assert set(tally) == set(RULE_NAMES) - {Copy}, tally


# --- certificate algebra --------------------------------------------------------------


def _rule_cert(sig, eq):
    return certify(sig, (Step(eq, Hypothesis(0), ()),), [eq])


def test_paste_with_identity_is_neutral():
    sig, s, x, y, m, c, comm, lunit = _setup()
    cert = _rule_cert(sig, comm)
    ident = identity_factorization(cert.claim)
    pasted = paste_factorizations(cert, ident)
    assert pasted.hyp == cert.hyp
    assert pasted.claim == cert.claim
    assert verify_factorization(pasted).ok


def test_paste_interface_mismatch():
    sig, s, x, y, m, c, comm, lunit = _setup()
    cert = _rule_cert(sig, comm)
    other = _rule_cert(sig, lunit)
    with raises_exactly(DeductionError, "cannot paste: 1 derived "
                        "constraints vs 1 assumed, or a constraint pair "
                        "differs"):
        paste_factorizations(cert, other)


def test_two_symmetries_paste_to_identity_content():
    sig, s, x, y, m, c, comm, lunit = _setup()
    flipped = make_equation(comm.right, comm.left, comm.vars)
    s1 = check_rule(sig, (comm,), Symmetry(), flipped)
    s2 = check_rule(sig, (flipped,), Symmetry(), comm)
    pasted = paste_factorizations(s1, s2)
    assert verify_factorization(pasted).ok
    assert pasted.hyp == (equation_constraint(comm),)
    assert pasted.claim == (equation_constraint(comm),)


def test_product_of_factorizations():
    sig, s, x, y, m, c, comm, lunit = _setup()
    empty = product_factorizations([])
    assert empty.hyp == () and empty.claim == ()
    one = _rule_cert(sig, comm)
    assert product_factorizations([one]).claim == one.claim
    two = product_factorizations([one, _rule_cert(sig, lunit)])
    assert len(two.claim) == 2
    assert verify_factorization(two).ok


def test_product_of_two_reflexivities():
    sig, s, x, y, m, c, comm, lunit = _setup()
    t = make_term(x, (x,), s)
    eq = make_equation(x, x, (x,))
    r = check_rule(sig, (), Reflexivity(t), eq)
    both = product_factorizations([r, r])
    assert len(both.claim) == 2 and both.hyp == ()
    assert verify_factorization(both).ok


# --- verification -----------------------------------------------------------------


def test_forged_certificate_fails_with_trace():
    sig, s, x, y, m, c, comm, lunit = _setup()
    cert = _rule_cert(sig, comm)
    wrong = equation_constraint(lunit)
    forged = Factorization(cert.hyp, (wrong,), cert.wksp, cert.verif)
    result = verify_factorization(forged)
    assert not result.ok
    assert any("differs from the claim" in line for line in result.trace)


def test_forged_middle_term_fails():
    sig, s, x, y, m, c, comm, lunit = _setup()
    # both constraints are parallel, but the middle terms differ
    other = make_equation(App(m, (x, x)), x, (x, y))
    c1 = equation_constraint(comm)
    c2 = equation_constraint(other)
    proof = (CiteHyp(0), CiteHyp(1), Trans(0, 1))
    bad = Factorization((c1, c2), (EqConstraint(c1.left, c2.right),),
                        (), (proof,))
    result = verify_factorization(bad)
    assert not result.ok
    assert any("middle" in line for line in result.trace)


def test_empty_claim_certificate_is_vacuously_valid():
    cert = Factorization((), (), (), ())
    assert verify_factorization(cert).ok


# --- soundness against the finite-model oracle ------------------------------------------


def test_deduction_soundness_sample(seed=67):
    rng = random.Random(seed)
    sig = unary_signature()
    hyps = [gen_equation(rng, sig, depth=2) for _ in range(2)]
    all_models = list(enumerate_models(sig, 3))
    for _ in range(8):
        steps = gen_deduction(rng, sig, hyps, rng.randint(1, 3))
        certify(sig, steps, hyps)  # must accept
        for model in all_models:
            if all(satisfies(model, h) for h in hyps):
                assert satisfies(model, steps[-1].equation)


# --- lemma tables ------------------------------------------------------------------


def _exit_codes(sig, steps, hyps) -> tuple[int, int]:
    """What `check-proof`, by default and with `--levelled`, exits with on
    `steps`, coded as they are."""
    lemmas = lemma_table(sig, steps)
    return _exit_code(verify_lemmas(hyps, lemmas, steps[-1].equation)), \
        _exit_code(verify_levelled(hyps, compile_to_factorization(
            normalize_deduction(steps), lemmas, hyps), steps[-1].equation))


def _exit_code(verdict) -> int:
    """1 for a refusal, a `DeductionError` or a failed kernel result, and
    0 for a kernel result that holds."""
    return 1 if isinstance(verdict, DeductionError) or not verdict.ok else 0


def _mutant_exit_codes(rng, sig, hyps, steps) -> tuple[int, int]:
    """Both routes' exit codes on `steps` with one step's hypothesis index
    or rule changed and the proof derived again, as the front end builds a
    changed .msl text (a refusal exits 1 on both), or with the conclusion
    forged after the coding."""
    k = rng.randrange(len(steps))
    target = steps[k]
    kind = rng.choice(["conclusion", "hypothesis", "rule"])
    if kind == "hypothesis" and isinstance(target.rule, Hypothesis):
        rule = Hypothesis(
            rng.choice([-1, len(hyps), (target.rule.index + 1) % len(hyps)]))
    elif kind == "rule" and len(target.premises) == 1:
        x = rng.choice(target.equation.vars or (Variable(sig.sorts[0], 7),))
        rule = rng.choice([Symmetry(), Concretion(x), Abstraction(x)])
    else:
        verdicts = forged_verdicts(sig, steps, hyps, k,
                                   gen_equation(rng, sig, depth=2))
        return tuple(map(_exit_code, verdicts))
    rules = [(s.rule, s.premises) for s in steps]
    rules[k] = (rule, target.premises)
    try:
        mutant = derive_steps(sig, rules, hyps)
    except DeductionError:
        return 1, 1
    return _exit_codes(sig, mutant, hyps)


def test_both_routes_give_the_same_exit_code():
    tally = {0: 0, 1: 0}

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def agree(seed):
        rng = random.Random(seed)
        sig = rng.choice([unary_signature(), binary_signature()])
        hyps = [gen_equation(rng, sig, depth=2)
                for _ in range(rng.randint(1, 2))]
        steps = gen_deduction(rng, sig, hyps, rng.randint(1, 4))
        assert _exit_codes(sig, steps, hyps) == (0, 0)
        default, levelled = _mutant_exit_codes(rng, sig, hyps, steps)
        assert default == levelled
        tally[default] += 1

    agree()
    assert tally[1] >= 100, tally


def test_a_step_cites_only_earlier_steps():
    sig, s, x, y, m, c, comm, lunit = _setup()
    # step 1 cites itself, a later step, or a step counted from the end
    for cites in ((1,), (2,), (-1,)):
        with raises_exactly(DeductionError,
                            "a step may cite only earlier steps") as failure:
            derive_steps(sig, [(Hypothesis(0), ()), (Symmetry(), cites),
                               (Symmetry(), (1,))], [comm])
        assert failure.value.step == 1
    steps = derive_steps(sig, [(Hypothesis(0), ()), (Symmetry(), (0,)),
                               (Symmetry(), (1,))], [comm])
    assert [x.cites for x in lemma_table(sig, steps)] == [(), (0,), (1,)]


def test_lemma_table_of_a_chain_is_linear():
    # a 100-step trans chain: one lemma per step, each a few kernel steps
    steps = ["a = hyp lunit ;", "r = refl [x:s] x ;", "c0 = trans a r ;"]
    steps += [f"c{k} = trans c{k - 1} r ;" for k in range(1, 100)]
    sf = parse_spec("sort s\nop m : s s -> s\nop e : -> s\n"
                    "eq lunit [x:s] : m(e, x) = x\n"
                    "proof chain from lunit {\n" + "\n".join(steps) + "\n}\n")
    built, hyps = build_proof(sf, sf.proofs["chain"])
    lemmas = lemma_table(sf.signature, built)
    assert verify_lemmas(hyps, lemmas, built[-1].equation).ok
    assert len(lemmas) == len(steps) == 102
    assert max(len(x.proof) for x in lemmas) <= 4
    # every trans step cites the chain so far and the one reflexivity
    assert [x.cites for x in lemmas[3:]] == [(k, 1) for k in range(2, 101)]


# --- what the producer compiles ----------------------------------------------------

_TWO_SORTS = validate_signature(["s", "t"], [
    ("m", ["s", "s"], "s"), ("f", ["s"], "s"), ("g", ["t"], "s"),
    ("c", [], "s"), ("k", ["s"], "t"), ("d", [], "t")])


def _rebuilt(e):
    """A structurally equal copy of `e`, built anew: new variables, and
    applications that intern to the nodes of `e`."""
    if isinstance(e, Variable):
        return Variable(e.sort, e.num)
    return App(e.op, tuple(_rebuilt(a) for a in e.args))


def _near(rng, e):
    """`e` with one subexpression replaced by a fresh one of its sort."""
    if isinstance(e, Variable) or not e.args or rng.random() < 0.3:
        return gen_expression(rng, _TWO_SORTS, e.sort, 1, max_var=2)
    i = rng.randrange(len(e.args))
    return App(e.op, e.args[:i] + (_near(rng, e.args[i]),) + e.args[i + 1:])


def test_middle_term_check_agrees_with_arrow_equality():
    # transitivity compares the middle terms as syntax; over one variable
    # tuple that must say exactly what equality of their arrows says
    s, t = _TWO_SORTS.sorts
    vs = tuple(Variable(srt, n) for srt in (s, t) for n in (1, 2))
    tally = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           how=st.sampled_from(["copy", "near", "fresh"]))
    def agree(seed, how):
        rng = random.Random(seed)
        sort = rng.choice((s, t))
        a = gen_expression(rng, _TWO_SORTS, sort, rng.randint(0, 4), 2)
        b = (_rebuilt(a) if how == "copy" else _near(rng, a) if how == "near"
             else gen_expression(rng, _TWO_SORTS, sort, rng.randint(0, 4), 2))
        # an application is interned, so an equal one is the same node
        assert (a is b) == (isinstance(a, App) and a == b)
        if how == "copy":
            assert a == b
        p1, p2 = make_equation(a, a, vs), make_equation(b, b, vs)
        same = arrows_equal(equation_constraint(p1).right,
                            equation_constraint(p2).left)
        try:
            check_rule(_TWO_SORTS, (p1, p2), Transitivity(),
                       make_equation(a, b, vs))
            mismatch = False
        except DeductionError as exc:
            assert str(exc) == \
                f"premises do not share a middle term: {a} vs {b}"
            mismatch = True
        assert mismatch is not same
        tally[how, same] += 1

    agree()
    assert sum(tally.values()) >= 300
    assert tally["copy", True] >= 50, tally
    assert tally["near", True] >= 10 and tally["near", False] >= 50, tally
    assert tally["fresh", False] >= 50, tally


_LUNIT = "sort s\nop m : s s -> s\nop e : -> s\neq lunit [x:s] : m(e, x) = x\n"
# calls of `one_stage_arrow` in the producer, per step: the term of a
# reflexivity; the replacement over the conclusion's variables and the first
# premise's right side of a substitutivity; the closed filler of the
# variable a concretion drops; none for any other rule
PRODUCER_COMPILES = {Reflexivity: 1, Substitutivity: 2, Concretion: 1}
# (steps of a proof from lunit, calls of `one_stage_arrow` in the producer
# and of the kernel's own compiler: two per lemma, the one hypothesis and the
# goal, as before the producer stopped compiling statements)
COMPILE_COUNTS = {
    "hyp-sym-trans-chain": (
        ["a = hyp lunit ;", "b = sym a ;", "c0 = trans a b ;"]
        + [f"c{k} = trans c{k - 1} c0 ;" for k in range(1, 100)], 0, 208),
    "dag-k12": (
        ["a = hyp lunit ;", "b = sym a ;", "c0 = trans a b ;"]
        + [f"c{k} = trans c{k - 1} c{k - 1} ;" for k in range(1, 13)],
        0, 34),
    "all-six-rules": (
        ["a = hyp lunit ;", "r = refl [y:s] m(y, y) ;", "b = subst a x r ;",
         "c = sym b ;", "d = trans b c ;", "g = abs d z : s ;",
         "h = conc g z ;", "r0 = refl e ;", "k = subst h y r0 ;"], 7, 22),
}


@pytest.mark.parametrize("steps, in_producer, in_kernel",
                         COMPILE_COUNTS.values(), ids=COMPILE_COUNTS.keys())
def test_producer_compiles_only_what_its_steps_carry(steps, in_producer,
                                                     in_kernel, monkeypatch):
    sf = parse_spec(_LUNIT + "proof p from lunit {\n" + "\n".join(steps)
                    + "\n}\n")
    built, hyps = build_proof(sf, sf.proofs["p"])
    calls = []

    def counting(real):
        def compiled(e, vs, *memo):
            calls.append(e)
            return real(e, vs, *memo)
        return compiled

    # wherever the producer reads its compiler
    for module in (deduction, subst):
        monkeypatch.setattr(module, "one_stage_arrow",
                            counting(one_stage_arrow))
    lemmas = lemma_table(sf.signature, built)
    assert len(lemmas) == len(steps)
    assert len(calls) == in_producer == sum(
        PRODUCER_COMPILES.get(type(s.rule), 0) for s in built)
    calls.clear()
    monkeypatch.setattr(kernel, "_compile", counting(kernel._compile))
    assert verify_lemmas(hyps, lemmas, built[-1].equation).ok
    assert len(calls) == in_kernel


def test_producer_cost_follows_the_shared_term():
    # each step substitutes the last conclusion into itself, so the k-th
    # conclusion is 2^k deep with one shared node per level, and its
    # unfolding has 2^(2^k) leaves.  The producer's one-stage arrows are
    # built once per node, so building and coding the proof stay within a
    # bound, and the arrow nodes they leave grow with the DAG (the
    # three-stage codings left 131,746 at k = 5, after 2.9 s on a 2-core
    # machine).  The kernel's replay still follows the unfolding, so this
    # test does not replay the chain (ROADMAP item 4).
    k = 10
    sf = parse_spec(_doubling_chain(k))
    before = _arrow_keys()
    start = time.perf_counter()
    steps, _ = build_proof(sf, sf.proofs["p"])
    lemmas = lemma_table(sf.signature, steps)
    seconds = time.perf_counter() - start
    assert len(lemmas) == k + 1 and seconds < 2.0
    assert len(_arrow_keys() - before) <= 2 * 2 ** k


def test_apply_stage_cost_follows_the_shared_term():
    # the same chain's conclusion: apply_arrow builds six arrow nodes for
    # each distinct application, the 2^k levels of m(a, a) (a composite, a
    # tuple, and a projection and its composite per argument), plus the
    # identity and the generator; the recursive stage followed the
    # 2^(2^k) leaves of the unfolding
    k = 10
    sf = parse_spec(_doubling_chain(k))
    steps, _ = build_proof(sf, sf.proofs["p"])
    side = steps[-1].equation.left
    before = _arrow_keys()
    start = time.perf_counter()
    stage = apply_arrow(side)
    seconds = time.perf_counter() - start
    assert seconds < 2.0
    assert len(_arrow_keys() - before) <= 6 * 2 ** k + 2
    levels = 0
    while isinstance(stage, Comp):
        first, second = stage.before.parts
        assert first.after is second.after
        stage, levels = first.after, levels + 1
    assert levels == 2 ** k and stage is Id(stage.src)


def _doubling_chain(k: int) -> str:
    """A proof whose k-th step substitutes the last conclusion into itself,
    from `m(x, x) = m(x, x)`."""
    return ("sort s\nop m : s s -> s\neq h [x:s] : m(x, x) = m(x, x)\n"
            "proof p from h {\n  a0 = hyp h ;\n"
            + "".join(f"  a{i} = subst a{i - 1} x a{i - 1} ;\n"
                      for i in range(1, k + 1)) + "}\n")


def _arrow_keys() -> set:
    kinds = (Id, Proj, Gen, TupleArrow, Comp)
    return {key for key in INTERNED if key[0] in kinds}
