from __future__ import annotations

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import certify, derive_steps, print_spec, raises_exactly
from termcat import dsl
from termcat.cli import run
from termcat.deduction import (Hypothesis, Transitivity, normalize_deduction,
                               verify_factorization)
from termcat.dsl import (EOF, _bind_bracket, _elaborate, _Fault, _positions,
                         _scan, _sort_of, build_proof, parse_spec)
from termcat.errors import DeductionError, DslError
from termcat.signature import Variable, validate_signature

GOOD = """\
# demo file
sort s t
op m : s s -> s
op e : -> s
op lift : s -> t

term t1 [x:s, y:s] : m(x, m(y, x))
eq comm [x:s, y:s] : m(x, y) = m(y, x)
eq lunit [x:s] : m(e, x) = x

proof flip from comm {
  a = hyp comm ;
  b = sym a ;
}
"""


def test_parse_good_file():
    sf = parse_spec(GOOD)
    assert [s.name for s in sf.signature.sorts] == ["s", "t"]
    assert set(sf.terms) == {"t1"}
    assert set(sf.equations) == {"comm", "lunit"}
    assert [p.name for p in sf.proofs.values()] == ["flip"]


def test_round_trip_print_parse():
    sf = parse_spec(GOOD)
    assert parse_spec(print_spec(sf)) == sf
    # printing is a fixpoint on the canonical form
    assert print_spec(parse_spec(print_spec(sf))) == print_spec(sf)


def test_parse_is_deterministic():
    assert parse_spec(GOOD) == parse_spec(GOOD)


def test_variable_numbering_follows_bracket_order():
    sf = parse_spec("""\
sort a b
op f : b a a -> a
eq E [y:b, x:a, z:a] : f(y, x, z) = f(y, z, x)
""")
    eq = sf.equations["E"]
    a, b = sf.signature.sorts
    # x and z are the first and second a-variables, y the first b-variable
    assert eq.vars == (Variable(a, 1), Variable(a, 2), Variable(b, 1))


def _located_tokens(text: str) -> list[tuple[str, int, int]]:
    scanned, tokens = _scan(text)
    return [(tok, *place) for tok, place in
            zip(tokens, _positions(scanned, tokens, range(len(tokens))))]


def test_tokens_golden():
    # every token kind, a comment, the \r\n, \f and \u2028 line breaks,
    # and the \xa0, \u3000 and \x1f blanks, which split tokens as a space
    # does
    text = ("sort s  # a comment ( \u00e9\r\n"
            "op m :\xa0s\u3000->\x1fs\f"
            "eq [x:s, _y1] ( ) { } ; =\u2028"
            "\tend")
    assert _located_tokens(text) == [  # (text, line, col)
        ("sort", 1, 1), ("s", 1, 6), ("\n", 1, 9),
        ("op", 2, 1), ("m", 2, 4), (":", 2, 6), ("s", 2, 8), ("->", 2, 10),
        ("s", 2, 13), ("\n", 2, 14),
        ("eq", 3, 1), ("[", 3, 4), ("x", 3, 5), (":", 3, 6), ("s", 3, 7),
        (",", 3, 8), ("_y1", 3, 10), ("]", 3, 13), ("(", 3, 15),
        (")", 3, 17), ("{", 3, 19), ("}", 3, 21), (";", 3, 23),
        ("=", 3, 25), ("\n", 3, 26),
        ("end", 4, 2), ("\n", 4, 5),
        (EOF, 5, 1)]


def test_unexpected_character_location():
    with raises_exactly(DslError,
                        "2:6: unexpected character '\u00e9'") as exc:
        _scan("sort s\n  op \u00e9")
    assert (exc.value.line, exc.value.col) == (2, 6)


@pytest.mark.parametrize("text, message", [
    ("sort s\nop m : s s -> s\n\nsort s\n",
     "4:6: sort 's' declared twice"),
    ("sort s\nop c : -> s\nop m : s s -> s\n# four\n\nop c : -> s\n",
     "6:1: operation 'c' declared twice"),
    ("sort s\nop m : s s -> s\nop f : q -> s\n",
     "3:1: operation 'f' mentions unknown sort 'q'"),
], ids=["repeated-sort", "repeated-op", "unknown-sort-in-op"])
def test_signature_error_location(text, message):
    with raises_exactly(DslError, message):
        parse_spec(text)


def test_syntax_error_location():
    with raises_exactly(DslError,
                        "2:13: expected NAME, found 'NEWLINE'") as exc:
        parse_spec("sort s\nop f : s -> \n")
    assert exc.value.line == 2


def test_unknown_equation_in_proof():
    text = GOOD + "\nproof bad from nowhere {\n  a = hyp nowhere ;\n}\n"
    with raises_exactly(DslError, "16:1: proof 'bad' cites undefined "
                        "equation 'nowhere'"):
        parse_spec(text)


def test_hyp_outside_from_list():
    text = GOOD.replace("a = hyp comm ;", "a = hyp lunit ;")
    with raises_exactly(DslError, "12:3: step cites 'lunit', which is not "
                        "among the proof's hypotheses"):
        parse_spec(text)


def test_unknown_step_reference():
    text = GOOD.replace("b = sym a ;", "b = sym zzz ;")
    with raises_exactly(DslError, "13:3: step references unknown step 'zzz'"):
        parse_spec(text)


def test_unknown_sort_in_bracket():
    with raises_exactly(DslError, "3:1: unknown sort 'q'"):
        parse_spec("sort s\nop m : s s -> s\neq E [x:q] : x = x\n")


def test_unknown_sort_in_eq_bracket_reports_its_line():
    text = "sort s\nop c : -> s\n\n# four\neq bad [x:q] : c = c\n"
    with raises_exactly(DslError, "5:1: unknown sort 'q'"):
        parse_spec(text)


def test_duplicate_term_reports_the_second_declaration():
    text = "sort s\nop c : -> s\nterm t : c\n  term t : c\n"
    with raises_exactly(DslError, "4:3: term 't' declared twice") as exc:
        parse_spec(text)
    assert (exc.value.line, exc.value.col) == (4, 3)


def test_arity_error_is_input_error():
    with raises_exactly(DslError, "3:14: m expects 2 arguments, got 1"):
        parse_spec("sort s\nop m : s s -> s\neq E [x:s] : m(x) = x\n")


def test_build_proof_and_check():
    sf = parse_spec(GOOD)
    steps, hyps = build_proof(sf, sf.proofs["flip"])
    assert list(hyps) == [sf.equations["comm"]]
    cert = certify(sf.signature, steps, hyps)
    assert verify_factorization(cert).ok


def test_build_proof_side_condition_failure():
    # `trans b a` could not even form its conclusion, since comm's right
    # side mentions a variable outside lunit's set; `conclude` checks the
    # variable sets first and refuses the step with transitivity's message
    text = GOOD + """
proof broken from comm lunit {
  a = hyp comm ;
  b = hyp lunit ;
  c = trans b a ;
}
"""
    sf = parse_spec(text)
    with raises_exactly(DeductionError, "transitivity premises must share "
                        "the variable set") as failure:
        build_proof(sf, sf.proofs["broken"])
    assert failure.value.step == 2


def test_buildable_but_invalid_tree_rejected_at_check():
    # `trans a b` would form a conclusion, but the premises have different
    # variable sets: build_proof refuses the .msl step, and `derive` refuses
    # the same step derived by hand
    text = GOOD + """
proof broken2 from comm lunit {
  a = hyp comm ;
  b = hyp lunit ;
  c = trans a b ;
}
"""
    sf = parse_spec(text)
    why = "transitivity premises must share the variable set"
    with raises_exactly(DeductionError, why) as failure:
        build_proof(sf, sf.proofs["broken2"])
    assert failure.value.step == 2
    comm, lunit = sf.equations["comm"], sf.equations["lunit"]
    with raises_exactly(DeductionError, why) as failure:
        derive_steps(sf.signature, [(Hypothesis(0), ()), (Hypothesis(1), ()),
                                    (Transitivity(), (0, 1))], [comm, lunit])
    assert failure.value.step == 2


def test_abs_binds_fresh_variable_and_conc_removes_it():
    text = GOOD + """
proof widen from comm {
  a = hyp comm ;
  b = abs a w : s ;
  c = conc b w ;
}
"""
    sf = parse_spec(text)
    steps, hyps = build_proof(sf, sf.proofs["widen"])
    assert steps[-1].equation == sf.equations["comm"]
    assert verify_factorization(
        certify(sf.signature, steps, hyps)).ok


def test_subst_step_through_dsl():
    text = GOOD + """
proof plug from lunit {
  a = hyp lunit ;
  r = refl e ;
  b = subst a x r ;
}
"""
    sf = parse_spec(text)
    steps, hyps = build_proof(sf, sf.proofs["plug"])
    assert str(steps[-1].equation.left) == "m(e, e)"
    assert str(steps[-1].equation.right) == "e"
    assert steps[-1].equation.vars == ()
    ld = normalize_deduction(steps)
    assert len(ld.levels) == 2


def test_refl_with_bracket():
    text = GOOD + """
proof r from {
  a = refl [x:s] m(x, x) ;
}
"""
    # 'from' with an empty hypothesis list
    sf = parse_spec(text)
    steps, hyps = build_proof(sf, sf.proofs["r"])
    assert list(hyps) == []
    assert str(steps[-1].equation.left) == "m(x1:s, x1:s)"


def test_ambiguous_merged_name_rejected():
    # after the substitution step, `x` names an s-variable via E1 and a
    # t-variable via E2; a later reference through the merged environment
    # must be refused
    text = """\
sort s t
op m : s s -> s
op f : t -> s
eq E1 [x:s, y:s] : m(x, y) = m(y, x)
eq E2 [x:t] : f(x) = f(x)
proof P from E1 E2 {
  a = hyp E1 ;
  b = hyp E2 ;
  u = subst a y b ;
  w = conc u x ;
}
"""
    sf = parse_spec(text)
    with raises_exactly(DslError,
                        "10:3: variable name 'x' is ambiguous here"):
        build_proof(sf, sf.proofs["P"])


NO_RECURSION = {"dsl": 30, "kernel": 8, "deduction": 13, "terms": 8,
                "signature": 7, "sketch": 6, "errors": 8, "models": 10,
                "subst": 8, "cli": 30, "arrows": 17}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "termcat"


def test_no_recursion_covers_every_module():
    # every module that defines a function is scanned, so a new module
    # cannot escape the check below
    defining = {p.stem for p in PACKAGE.glob("*.py")
                if any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for n in ast.walk(ast.parse(p.read_text("utf-8"))))}
    assert defining == set(NO_RECURSION)


@pytest.mark.parametrize("module, at_least", NO_RECURSION.items(),
                         ids=NO_RECURSION.keys())
def test_no_function_recurses(module, at_least):
    # a call cycle among a module's functions and methods, direct or
    # through others, would put a depth limit on the input: the front end's
    # on what it parses, the kernel's on the statements it compiles.  The
    # floor on the function count keeps the check from passing on a module
    # it cannot read.  It sees only calls by name: recursion through
    # `str()` or an f-string, as in a `__str__` that formats its children,
    # escapes it, and test_no_command_recurses in tests/test_cli.py catches
    # it at run time
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    defs = [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    names = {d.name for d in defs}
    imported = {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                for a in n.names}
    calls: dict[str, set[str]] = {name: set() for name in names}
    for d in defs:
        for node in ast.walk(d):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Attribute) and (
                        isinstance(f.value, ast.Call)
                        and getattr(f.value.func, "id", None) == "super"
                        or getattr(f.value, "id", None) in imported
                        or getattr(f.value, "id", None) == "object"):
                    continue  # a base class's method, or an imported one
                # a method call may reach any method of that name
                callee = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if callee in names:
                    calls[d.name].add(callee)
    assert len(names) >= at_least
    for start in names:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            assert name != start, f"{start} can call itself"
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])


def test_a_valid_proof_is_checked_without_locating_its_steps(monkeypatch,
                                                             capsys,
                                                             tmp_path):
    # a step's line:column is worked out only when an error names it
    located = []

    def counting(text, tokens, indices):
        located.extend(indices)
        return _positions(text, tokens, indices)

    monkeypatch.setattr(dsl, "_positions", counting)
    monoid = str(Path(__file__).resolve().parent.parent / "corpus"
                 / "monoid.msl")
    for flags in ([], ["--json"], ["--levelled"]):
        assert run(["check-proof", *flags, monoid]) == 0
    assert located == []
    capsys.readouterr()
    text = GOOD + ("proof bad from comm {\n  a = hyp comm ;\n"
                   "  b = trans a a ;\n}\n")
    sf = parse_spec(text)
    # build_proof marks the failing step; only the CLI locates it
    with raises_exactly(DeductionError, "premises do not share a middle "
                        "term: m(x2:s, x1:s) vs m(x1:s, x2:s)") as failure:
        build_proof(sf, sf.proofs["bad"])
    assert failure.value.step == 1 and located == []
    f = tmp_path / "bad.msl"
    f.write_text(text)
    assert run(["check-proof", "--proof", "bad", str(f)]) == 1
    assert capsys.readouterr().out.startswith(
        "proof bad: INVALID (17:3: step 'b': premises do not share")
    assert len(located) == 1


def test_terms_and_equations_are_built_once_in_declaration_order():
    sf = parse_spec(GOOD + "term t0 : e\n")
    assert list(sf.terms) == ["t1", "t0"]
    assert list(sf.equations) == ["comm", "lunit"]
    assert sf.terms["t1"] is sf.terms["t1"]
    assert str(sf.terms["t0"]) == "(e | {} : s)"
    assert "t2" not in sf.terms and len(sf.equations) == 2
    with pytest.raises(KeyError):
        sf.equations["t1"]


def test_a_proof_builds_only_the_hypotheses_it_reads(tmp_path, monkeypatch,
                                                    capsys):
    # `flip` cites lunit but never uses it: the lemma table does not read
    # it, while the levelled certificate holds every hypothesis
    f = tmp_path / "flip.msl"
    f.write_text(GOOD.replace("from comm", "from comm lunit"))
    built = []
    equation = dsl._equation
    monkeypatch.setattr(dsl, "_equation",
                        lambda *args: built.append(args[3].name)
                        or equation(*args))
    for flags, names in (([], ["comm"]), (["--levelled"], ["comm", "lunit"])):
        built.clear()
        assert run(["check-proof", *flags, str(f)]) == 0
        assert built == names
    assert "hypotheses: 2" in capsys.readouterr().out


_SORTS = ("s", "t", "u")


@st.composite
def _signature_and_form(draw):
    """A random signature, a bracket over it, and an expression's prefix
    form, as the parser writes it, over the bracket's names, the
    operations and one unknown name.  Most names have the sort their place
    wants and most calls the right argument count, so well-formed forms
    are common, constants written `c()` among them; the rest hold unknown
    names, wrong arities, operations written bare and sort clashes."""
    sorts = _SORTS[:draw(st.integers(1, 3))]
    ops = draw(st.lists(st.tuples(st.lists(st.sampled_from(sorts),
                                           max_size=3),
                                  st.sampled_from(sorts)),
                        min_size=1, max_size=5))
    # `p` takes every sort, so a name of the wrong sort has a place to clash
    sig = validate_signature(sorts, [("p", sorts, sorts[0])] + [
        (f"o{i}", tuple(ins), out) for i, (ins, out) in enumerate(ops)])
    bracket = tuple((f"x{i}", sort) for i, sort in
                    enumerate(draw(st.lists(st.sampled_from(sorts),
                                            max_size=3))))
    names, _ = _bind_bracket(sig, bracket, 0)
    made = {name: (tuple(i.name for i in op.inputs), op.output.name)
            for name, op in sig.operation_named.items()}
    made.update((name, ((), sort)) for name, sort in bracket)
    raw, todo, budget = [], [draw(st.sampled_from(sorts))], 12
    while todo:
        want = todo.pop()
        fits = sorted(n for n, (_, out) in made.items() if out == want)
        if budget > 0 and draw(st.booleans()):  # grow the form
            fits = [n for n in fits if made[n][0]] or fits
        if fits and draw(st.integers(0, 3)) < 3:
            name = draw(st.sampled_from(fits))
        else:
            name = draw(st.sampled_from(sorted(
                n for n, (_, out) in made.items() if out != want) + ["nope"]))
        inputs = made.get(name, ((), want))[0]
        if name in names or not inputs and draw(st.booleans()):
            argc = -1
        else:
            argc = len(inputs)
            if budget <= 0 or draw(st.integers(0, 5)) == 5:
                argc = draw(st.integers(-1, 2 if budget > 0 else 0))
        raw.append((name, argc))
        budget -= max(argc, 0)
        args = list(inputs[:argc]) if argc > 0 else []
        args += [draw(st.sampled_from(sorts))
                 for _ in range(max(argc, 0) - len(args))]
        todo.extend(reversed(args))
    return sig, names, tuple(raw)


def _same_verdict(sig, names, raw):
    try:
        built = _elaborate(sig, names, raw, 0, 0)
    except _Fault:
        assert _sort_of(sig, names, raw) is None
        return None
    assert _sort_of(sig, names, raw) is built.sort
    return built.sort.name


@settings(max_examples=400, deadline=None)
@given(_signature_and_form())
def test_sort_of_fails_exactly_where_elaboration_raises(case):
    _same_verdict(*case)


@pytest.mark.parametrize("text, sort", [
    ("m(x, m(e, x))", "s"), ("lift(e())", "t"), ("y", "t"), ("nope", None),
    ("m(x)", None), ("e(x)", None), ("m(x, y)", None), ("lift", None),
    ("x(e)", None), ("m(e, lift(x))", None), ("lift(m(x, lift))", None),
])
def test_sort_of_on_each_kind_of_fault(text, sort):
    sf = parse_spec(GOOD)
    names, _ = _bind_bracket(sf.signature, (("x", "s"), ("y", "t")), 0)
    raw, _ = dsl._expr(_scan(text)[1], 0)
    assert _same_verdict(sf.signature, names, raw) == sort
