"""Property tests over generated `.msl` text.

Five properties: `parse_spec` returns or raises `TermcatError`; every
command of `cli.run` returns 0, 1 or 2 and raises nothing; a file that
parses prints to text that parses back to an equal file;
`dsl.end_position` counts lines and columns as the scanner does; and the
scanner, which splits on blanks, gives the tokens or the error that one
`findall` of the token grammar gives.  The texts are
random characters over the token set, soups of keywords and punctuation,
mostly well-formed generated files, and the corpus files, each possibly
mutated by deleting or inserting a slice.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import print_spec, raises_exactly
from termcat import dsl
from termcat.cli import run
from termcat.dsl import EOF, _scan, end_position, parse_spec
from termcat.errors import DslError, TermcatError

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_TEXTS = [p.read_text(encoding="utf-8")
                for p in sorted(CORPUS.glob("*.msl"))]

# every token character, the line breaks str.splitlines honours and one
# character outside the token set
ALPHABET = ("sortpqeymx_19 ()[]{}:,;=->#\t"
            "\n\r\f\v\x1c\x1d\x1e\x85\u2028\u2029\u00e9")
# every ASCII character, every blank and line break, and one letter outside
# ASCII
SCAN_ALPHABET = "".join(c for c in map(chr, range(sys.maxunicode + 1))
                        if c.isascii() or c.isspace()) + "\u00e9"
SORTS = ["s", "t", "u"]
OPS = ["m", "e", "f", "g"]
VARS = ["x", "y", "z"]
WORDS = (["sort", "op", "term", "eq", "proof", "from", "hyp", "refl", "sym",
          "trans", "conc", "abs", "subst", "t0", "e0", "p0", "a", "b"]
         + SORTS + OPS + VARS
         + ["(", ")", "[", "]", "{", "}", ":", ",", ";", "=", "->", "\n"])

PROPERTY = settings(max_examples=250, deadline=None, derandomize=True)


def _expr(draw, ops, env, sort, depth):
    """An expression of `sort`; a missing variable of that sort is added to
    the bracket `env`, and once the names run out a stray name is used."""
    choices = [v for v, s in env if s == sort] + \
        [op for op in ops if op[2] == sort and (depth > 0 or not op[1])]
    if not choices:
        free = [v for v in VARS if v not in dict(env)]
        if not free:
            return draw(st.sampled_from(VARS + OPS))
        env.append((free[0], sort))
        return free[0]
    pick = draw(st.sampled_from(choices))
    if isinstance(pick, str):
        return pick
    name, inputs, _ = pick
    if not inputs:
        return name
    args = ", ".join(_expr(draw, ops, env, s, depth - 1) for s in inputs)
    return f"{name}({args})"


@st.composite
def spec_texts(draw):
    sorts = draw(st.lists(st.sampled_from(SORTS), min_size=1, max_size=3,
                          unique=True))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(OPS),
                  st.lists(st.sampled_from(sorts), max_size=2),
                  st.sampled_from(sorts)),
        max_size=4, unique_by=lambda op: op[0]))
    lines = ["sort " + " ".join(sorts)]
    lines += [f"op {n} : {' '.join(i)}{' ' if i else ''}-> {o}"
              for n, i, o in ops]

    def bracket():
        return draw(st.lists(st.tuples(st.sampled_from(VARS),
                                       st.sampled_from(sorts)),
                             max_size=2, unique_by=lambda v: v[0]))

    def render(env):
        return "[" + ", ".join(f"{v}:{s}" for v, s in env) + "]"

    for i in range(draw(st.integers(1, 2))):
        env = bracket()
        e = _expr(draw, ops, env, draw(st.sampled_from(sorts)), 3)
        lines.append(f"term t{i} {render(env)} : {e}")
    eqs = []
    for i in range(draw(st.integers(1, 2))):
        env = bracket()
        sort = draw(st.sampled_from(sorts))
        left = _expr(draw, ops, env, sort, 2)
        right = _expr(draw, ops, env, sort, 2)
        lines.append(f"eq e{i} {render(env)} : {left} = {right}")
        eqs.append(f"e{i}")
    if eqs and draw(st.booleans()):
        lines.append(f"proof p0 from {' '.join(eqs)} {{")
        steps = [f"a0 = hyp {eqs[0]}"]
        for k in range(1, draw(st.integers(1, 5))):
            prev = [f"a{j}" for j in range(k)]
            one, two = draw(st.sampled_from(prev)), draw(st.sampled_from(prev))
            var, sort = draw(st.sampled_from(VARS)), draw(st.sampled_from(sorts))
            env = bracket()
            refl = _expr(draw, ops, env, sort, 2)
            body = draw(st.sampled_from([
                f"hyp {draw(st.sampled_from(eqs))}", f"sym {one}",
                f"trans {one} {two}", f"conc {one} {var}",
                f"abs {one} {var} : {sort}", f"subst {one} {var} {two}",
                f"refl {render(env)} {refl}"]))
            steps.append(f"a{k} = {body}")
        lines += [f"  {s} ;" for s in steps] + ["}"]
    return "\n".join(lines) + "\n"


@st.composite
def mutated(draw, texts, alphabet=ALPHABET):
    text = draw(texts)
    if draw(st.booleans()):
        return text
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(st.text(alphabet, max_size=4)) + text[j:]


TEXTS = st.one_of(
    st.text(ALPHABET, max_size=60),
    st.lists(st.sampled_from(WORDS), max_size=40).map(" ".join),
    mutated(spec_texts()),
    mutated(st.sampled_from(CORPUS_TEXTS)),
)


@PROPERTY
@given(st.one_of(TEXTS, st.text(max_size=40)))
def test_parse_returns_or_raises_termcat_error(text):
    try:
        parse_spec(text)
    except TermcatError:
        pass


@PROPERTY
@given(TEXTS)
def test_print_then_parse_is_the_identity(text):
    try:
        sf = parse_spec(text)
    except TermcatError:
        return
    assert parse_spec(print_spec(sf)) == sf


# names the generated files and the corpus declare
TERMS = st.sampled_from(["t0", "t1", "double", "fb"])
EQUATIONS = st.sampled_from(["e0", "e1", "comm", "projl"])
PROOFS = st.sampled_from(["p0", "unit_square", "fetch"])


def _argv(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, str) else p
                       for p in parts))


COMMANDS = st.one_of(
    _argv("sketch"),
    _argv("compile", "--term", TERMS),
    _argv("check-eq", "--equation", EQUATIONS),
    _argv("subst", "--term", TERMS, "--var", st.sampled_from(VARS + ["x1:s"]),
          "--with", TERMS),
    _argv("check-proof"),
    _argv("check-proof", "--proof", PROOFS),
    _argv("normalize-proof", "--proof", PROOFS),
    # carriers of one element keep the model search to one model
    _argv("oracle", "--max-size", "1", "--equation", EQUATIONS),
)


@PROPERTY
@given(text=TEXTS, argv=COMMANDS, as_json=st.booleans())
def test_cli_exit_code_is_0_1_or_2(tmp_path_factory, text, argv, as_json):
    f = tmp_path_factory.getbasetemp() / "fuzz.msl"
    f.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv) + (["--json"] if as_json else []) + [str(f)])
    assert code in (0, 1, 2)


@PROPERTY
@given(st.text(ALPHABET.translate(str.maketrans("", "", "#->19\u00e9")),
               max_size=60))
def test_end_position_is_where_the_scanner_reports(prefix):
    # with no comment and no stray character in `prefix`, the scanner's
    # first error is the `$` after it, at the position end_position gives
    line, col = end_position(prefix)
    with raises_exactly(DslError,
                        f"{line}:{col}: unexpected character '$'") as exc:
        _scan(prefix + "$")
    assert (exc.value.line, exc.value.col) == (line, col)


def _findall_scan(text: str) -> tuple[str, list[str]]:
    """The scan as one `findall` of `dsl._TOKEN_RE`, which gives "" for a
    stray character: the reference the scanner must agree with."""
    if dsl._OTHER_BREAKS.search(text):
        lines = text.splitlines()
        text = "\n".join(lines) + "\n" if lines else ""
    elif text and text[-1] != "\n":
        text += "\n"
    text = dsl._COMMENT_RE.sub("", text)
    tokens = dsl._TOKEN_RE.findall(text)
    if EOF in tokens:
        (line, col), = dsl._positions(text, tokens, (tokens.index(EOF),))
        char = text.split("\n")[line - 1][col - 1]
        raise DslError(f"unexpected character {char!r}", line, col)
    return text, tokens + [EOF]


SCAN_TEXTS = st.one_of(
    st.text(SCAN_ALPHABET, max_size=60),
    st.lists(st.sampled_from(WORDS) | st.text(SCAN_ALPHABET, min_size=1,
                                              max_size=2),
             max_size=30).map("".join),
    mutated(st.sampled_from(CORPUS_TEXTS), SCAN_ALPHABET),
    TEXTS,
)


@settings(PROPERTY, max_examples=1000)
@given(SCAN_TEXTS)
def test_scanner_agrees_with_findall(text):
    # the same text and tokens, or the same error at the same place
    def outcome(scan):
        try:
            return scan(text)
        except DslError as exc:
            return str(exc)
    assert outcome(_scan) == outcome(_findall_scan)
