"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

from __future__ import annotations

import json
import random
import time

from fixtures import bang, binary_signature, check_rule, eval_arrow, \
    find_separating_model, make_equation, make_term, points, \
    running_signature, satisfies, subst_signature, type_list, type_set, \
    unary_signature, v
from gen import (gen_deduction, gen_equation, gen_expression, gen_signature,
                 gen_subst_instance, gen_term)
from termcat.arrows import (Comp, GenApp, Id, Path, Prod, Proj, TERMINAL,
                            TupleArrow, arrows_equal, normalize, term_arrow)
from termcat.deduction import (Abstraction, Concretion, Reflexivity,
                               Substitutivity, Symmetry, Transitivity,
                               compile_to_factorization,
                               equation_constraint,
                               identity_factorization, lemma_table,
                               normal_form_violations, normalize_deduction,
                               paste_factorizations, product_factorizations)
from termcat.errors import DeductionError
from termcat.kernel import verify_factorization
from termcat.models import enumerate_models
from termcat.signature import Variable, validate_signature
from termcat.subst import subst_arrow_direct, subst_expr, subst_term
from termcat.terms import App, var_list, var_set


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{label}]: {verdict}{tail}")
    assert ok, f"criterion {number} failed: {detail}"


# --- 1: golden values from the worked examples -----------------------------------


def test_criterion_1_golden_worked_examples():
    t0 = time.time()

    sig = running_signature()
    f, g = sig.operation("f"), sig.operation("g")
    e = App(f, (v(sig, 1, 1),
                App(g, (v(sig, 1, 2), v(sig, 1, 1))),
                v(sig, 2, 1)))
    ok = var_list(e) == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 1, 1),
                         v(sig, 2, 1)) \
        and var_set(e) == (v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1)) \
        and [s.name for s in type_list(e)] == ["s1", "s1", "s1", "s2"] \
        and [s.name for s in type_set(e)] == ["s1", "s2"]

    t = make_term(e, {v(sig, 1, 1), v(sig, 1, 2), v(sig, 2, 1),
                      v(sig, 4, 3)}, sig.sort("s5"))
    from termcat.arrows import occurrence_arrow
    d_norm = normalize(occurrence_arrow(t.expr, t.vars)).body
    ok = ok and d_norm.parts == (Path((1,)), Path((2,)), Path((1,)),
                                 Path((3,)))

    wsig = subst_signature()
    h = wsig.operation("h")
    u = App(h, (v(wsig, 2, 1), v(wsig, 3, 2)))
    W = (v(wsig, 1, 1), v(wsig, 2, 1), v(wsig, 2, 2), v(wsig, 2, 3),
         v(wsig, 3, 1), v(wsig, 3, 2), v(wsig, 3, 3))
    over_w = normalize(term_arrow(u, W)).body
    union = (v(wsig, 1, 1), v(wsig, 1, 2), v(wsig, 1, 3), v(wsig, 2, 1),
             v(wsig, 2, 2), v(wsig, 2, 3), v(wsig, 3, 1), v(wsig, 3, 2),
             v(wsig, 3, 3), v(wsig, 4, 3))
    over_union = normalize(term_arrow(u, union)).body
    ok = ok and over_w == GenApp(h, (Path((2,)), Path((6,)))) \
        and over_union == GenApp(h, (Path((4,)), Path((8,))))

    csig = validate_signature(["s"], [("c", [], "s")])
    from termcat.arrows import apply_arrow
    q = apply_arrow(App(csig.operation("c"), ()))
    ok = ok and q.src == TERMINAL and isinstance(q, Comp) \
        and q.before == bang(TERMINAL) \
        and normalize(q).body == GenApp(csig.operation("c"), ())

    elapsed = time.time() - t0
    _report(1, "golden worked-example values", ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


# --- 2: substitution equivalence at scale -------------------------------------------


def test_criterion_2_substitution_equivalence():
    rng = random.Random(20260811)
    count = 10_000
    t0 = time.time()
    signatures = [gen_signature(rng, max_sorts=4, max_ops=5, max_arity=3)
                  for _ in range(50)]
    bad = 0
    for i in range(count):
        sig = signatures[i % len(signatures)]
        inst = gen_subst_instance(rng, sig, depth=4)
        rec = subst_term(inst)
        if not arrows_equal(term_arrow(rec.expr, rec.vars),
                            subst_arrow_direct(inst)):
            bad += 1
    elapsed = time.time() - t0
    _report(2, "substitution equivalence", bad == 0 and elapsed < 60.0,
            f"{count} instances, {bad} failures, {elapsed:.1f}s")


# --- 3: normalization soundness against finite models ---------------------------------


def _disguise(a, rng):
    """A syntactically different arrow with the same normal form."""
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.3:
            a = Comp(a, Id(a.src))
        elif roll < 0.55:
            a = Comp(Id(a.dst), a)
        elif roll < 0.8:
            i = rng.randint(1, 3)
            parts = [Id(a.src)] * 3
            parts[i - 1] = a
            t = TupleArrow(a.src, tuple(parts))
            a = Comp(Proj(t.dst, i), t)
        elif isinstance(a.dst, Prod) and a.dst.factors:
            a = TupleArrow(a.src, tuple(
                Comp(Proj(a.dst, i), a)
                for i in range(1, len(a.dst.factors) + 1)))
        else:
            a = Comp(a, Id(a.src))
    return a


def _bounded_term(rng, sig, max_vars=4, need_vars=False):
    while True:
        t = gen_term(rng, sig, depth=3, extra_vars=1)
        if len(t.vars) <= max_vars and (t.vars or not need_vars):
            return t


def test_criterion_3_normalization_vs_semantics():
    rng = random.Random(31337)
    sigs = [binary_signature(), unary_signature()]

    equal_pairs = 1_000
    t0 = time.time()
    for k in range(equal_pairs):
        sig = sigs[k % len(sigs)]
        t = _bounded_term(rng, sig)
        a = term_arrow(t.expr, t.vars)
        b = _disguise(a, rng)
        assert normalize(a) == normalize(b)
        src = a.src
        for model in enumerate_models(sig, 2):
            for pt in points(model, src):
                if eval_arrow(model, a, pt) != eval_arrow(model, b, pt):
                    _report(3, "normalization soundness", False,
                            "equal normal forms disagree in a model")

    unequal_pairs = 1_000
    separated = 0
    for k in range(unequal_pairs):
        while True:
            sig = rng.choice(sigs)
            t1 = _bounded_term(rng, sig, need_vars=True)
            e2 = gen_expression(rng, sig, t1.sort, 3)
            if not set(var_set(e2)) <= set(t1.vars):
                continue
            a, b = term_arrow(t1.expr, t1.vars), term_arrow(e2, t1.vars)
            if normalize(a) != normalize(b):
                break
        if find_separating_model(sig, a, b, a.src, 3, rng,
                                 attempts=500) is not None:
            separated += 1
        else:
            print(f"  shortfall: no separating model found for pair {k} "
                  "(logged, not failed)")
    rate = separated / unequal_pairs
    elapsed = time.time() - t0
    _report(3, "normalization soundness vs semantics", rate >= 0.95,
            f"{equal_pairs} equal pairs agree; separation rate "
            f"{rate:.3f}, {elapsed:.1f}s")


# --- 4: rule soundness ------------------------------------------------------------


def _valid_instance(rng, sig, witnesses, rule_name):
    """(premises, rule, conclusion) with every side condition satisfied."""
    if rule_name == "refl":
        t = gen_term(rng, sig, depth=2, extra_vars=1)
        return (), Reflexivity(t), make_equation(t.expr, t.expr, t.vars)
    if rule_name == "sym":
        p = gen_equation(rng, sig, depth=2)
        return (p,), Symmetry(), make_equation(p.right, p.left, p.vars)
    if rule_name == "trans":
        p1 = gen_equation(rng, sig, depth=2)
        e3 = gen_expression(rng, sig, p1.sort, 2)
        if not set(var_set(e3)) <= set(p1.vars):
            return _valid_instance(rng, sig, witnesses, rule_name)
        p2 = make_equation(p1.right, e3, p1.vars)
        return (p1, p2), Transitivity(), \
            make_equation(p1.left, e3, p1.vars)
    if rule_name == "conc":
        p = gen_equation(rng, sig, depth=2, extra_vars=0)
        spare = Variable(rng.choice([s for s in sig.sorts
                                     if s in witnesses]), 8)
        wide = make_equation(p.left, p.right, p.vars + (spare,))
        return (wide,), Concretion(spare), p if p.vars != wide.vars else \
            make_equation(p.left, p.right, p.vars)
    if rule_name == "abs":
        p = gen_equation(rng, sig, depth=2)
        x = Variable(rng.choice(sig.sorts), 9)
        if x in p.vars:
            return _valid_instance(rng, sig, witnesses, rule_name)
        from termcat.signature import ordered_vars
        return (p,), Abstraction(x), \
            make_equation(p.left, p.right, ordered_vars(p.vars + (x,)))
    # substitutivity
    p1 = gen_equation(rng, sig, depth=2)
    if not p1.vars:
        return _valid_instance(rng, sig, witnesses, rule_name)
    x = rng.choice(p1.vars)
    u = gen_expression(rng, sig, x.sort, 2)
    u2 = gen_expression(rng, sig, x.sort, 2)
    p2 = make_equation(u, u2, var_set(u) + var_set(u2))
    from termcat.signature import ordered_vars
    kept = tuple(w for w in p1.vars if w != x)
    concl = make_equation(subst_expr(p1.left, x, u),
                          subst_expr(p1.right, x, u2),
                          ordered_vars(kept + p2.vars))
    return (p1, p2), Substitutivity(x), concl


def test_criterion_4_rule_soundness():
    rng = random.Random(424242)
    sig = unary_signature()
    from termcat.terms import inhabited_sorts
    witnesses = inhabited_sorts(sig)
    all_models = list(enumerate_models(sig, 3))
    t0 = time.time()
    per_rule = 50
    checked = 0
    for rule_name in ("refl", "sym", "trans", "conc", "abs", "subst"):
        for _ in range(per_rule):
            premises, rule, conclusion = _valid_instance(rng, sig,
                                                         witnesses,
                                                         rule_name)
            step = check_rule(sig, premises, rule, conclusion)
            assert verify_factorization(step).ok
            for model in all_models:
                if all(satisfies(model, p) for p in premises):
                    if not satisfies(model, conclusion):
                        _report(4, "rule soundness", False,
                                f"{rule_name} conclusion fails in a model "
                                "of its premises")
            checked += 1

    # seeded invalid instances
    s = sig.sort("s")
    x, y = Variable(s, 1), Variable(s, 2)
    fx = App(sig.operation("f"), (x,))
    fy = App(sig.operation("f"), (y,))
    e1 = make_equation(fx, x, (x, y))
    e2 = make_equation(fy, y, (x, y))  # middle differs from e1.right
    rejected = 0
    try:
        check_rule(sig, (e1, e2), Transitivity(),
                   make_equation(fx, y, (x, y)))
    except DeductionError as exc:
        rejected += str(exc) == \
            f"premises do not share a middle term: {x} vs {fy}"
    sig2 = validate_signature(["s", "t"], [("f", ["s"], "s"),
                                           ("c", [], "s")])
    xs = Variable(sig2.sort("s"), 1)
    zt = Variable(sig2.sort("t"), 1)
    wide = make_equation(xs, xs, (xs, zt))
    try:
        check_rule(sig2, (wide,), Concretion(zt),
                   make_equation(xs, xs, (xs,)))
    except DeductionError as exc:
        rejected += str(exc) == "sort t is empty; no closed filler exists"
    try:
        check_rule(sig, (e1,), Abstraction(x),
                   make_equation(e1.left, e1.right, e1.vars))
    except DeductionError as exc:
        rejected += str(exc) == \
            f"{x} already occurs among the premise variables"
    elapsed = time.time() - t0
    _report(4, "rule soundness", checked == 6 * per_rule and rejected == 3,
            f"{checked} valid instances, {rejected}/3 seeded invalid "
            f"rejected, {elapsed:.1f}s")


# --- 5: normal form and compilation round trip -------------------------------------


def test_criterion_5_normal_form_round_trip():
    rng = random.Random(55555)
    t0 = time.time()
    count = 500
    sigs = [unary_signature(), binary_signature()]
    for k in range(count):
        sig = sigs[k % len(sigs)]
        hyps = [gen_equation(rng, sig, depth=2) for _ in range(3)]
        steps = gen_deduction(rng, sig, hyps, rng.randint(0, 5))
        while len(normalize_deduction(steps).levels) - 1 > 5:
            steps = gen_deduction(rng, sig, hyps, rng.randint(0, 5))
        direct = (equation_constraint(steps[-1].equation),)
        ld = normalize_deduction(steps)
        violations = normal_form_violations(ld)
        if violations:
            _report(5, "normal-form round trip", False,
                    f"NF violated: {violations}")
        compiled = compile_to_factorization(
            ld, lemma_table(sig, steps), hyps)
        if not verify_factorization(compiled).ok:
            _report(5, "normal-form round trip", False,
                    "compiled certificate failed verification")
        same = len(direct) == len(compiled.claim) and all(
            arrows_equal(a.left, b.left) and arrows_equal(a.right, b.right)
            for a, b in zip(direct, compiled.claim))
        if not same:
            _report(5, "normal-form round trip", False,
                    "claim differs from the conclusion's constraint")
    elapsed = time.time() - t0
    _report(5, "normal-form and compilation round trip", True,
            f"{count} deductions, {elapsed:.1f}s")


# --- 6: certificate algebra ---------------------------------------------------------


def _random_chain_certs(rng, sig, hyps):
    """Three certificates whose interfaces line up for pasting."""
    eqs = [rng.choice(hyps)]
    certs = []
    for _ in range(3):
        eq = eqs[-1]
        flipped = make_equation(eq.right, eq.left, eq.vars)
        step = check_rule(sig, (eq,), Symmetry(), flipped)
        certs.append(step)
        eqs.append(flipped)
    return certs


def test_criterion_6_certificate_algebra():
    rng = random.Random(66666)
    sig = binary_signature()
    hyps = [gen_equation(rng, sig, depth=2) for _ in range(4)]
    t0 = time.time()
    rounds = 200
    for _ in range(rounds):
        f1, f2, f3 = _random_chain_certs(rng, sig, hyps)

        # paste: identity is a unit on both sides
        left_unit = paste_factorizations(identity_factorization(f1.hyp), f1)
        right_unit = paste_factorizations(f1,
                                          identity_factorization(f1.claim))
        for cert in (left_unit, right_unit):
            assert cert.hyp == f1.hyp and cert.claim == f1.claim
            assert verify_factorization(cert).ok

        # paste: associative up to verify-equivalence
        lhs = paste_factorizations(paste_factorizations(f1, f2), f3)
        rhs = paste_factorizations(f1, paste_factorizations(f2, f3))
        assert lhs.hyp == rhs.hyp and lhs.claim == rhs.claim
        assert verify_factorization(lhs).ok and verify_factorization(rhs).ok

        # product: empty certificate is the unit, and it associates
        unit = product_factorizations([])
        assert product_factorizations([unit, f1]).claim == f1.claim
        assert product_factorizations([f1, unit]).hyp == f1.hyp
        p_lhs = product_factorizations(
            [product_factorizations([f1, f2]), f3])
        p_rhs = product_factorizations(
            [f1, product_factorizations([f2, f3])])
        assert p_lhs.hyp == p_rhs.hyp and p_lhs.claim == p_rhs.claim
        assert p_lhs.verif == p_rhs.verif
        assert verify_factorization(p_lhs).ok
    elapsed = time.time() - t0
    _report(6, "certificate algebra", True,
            f"{rounds} random chains, {elapsed:.1f}s")


# --- 7: CLI determinism ---------------------------------------------------------------


def test_criterion_7_cli_determinism(capsys):
    from test_cli import ALL_COMMANDS
    from termcat.cli import run
    t0 = time.time()
    for argv in ALL_COMMANDS:
        outputs = []
        for _ in range(2):
            run(argv + ["--json"])
            outputs.append(capsys.readouterr().out)
        if outputs[0] != outputs[1]:
            with capsys.disabled():
                _report(7, "CLI determinism", False,
                        f"output differs for {' '.join(argv)}")
        json.loads(outputs[0])
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(7, "CLI determinism",
                True, f"{len(ALL_COMMANDS)} commands run twice, "
                f"{elapsed:.1f}s")
