"""The one-pass regex lexer against the character-walking lexer it replaced.

``reference_tokenize`` below is the former :func:`repro.frontend.lexer.tokenize`,
kept verbatim with its frozen-dataclass ``Token``.  The new lexer must give
the same tokens (kind, text, line, column), the same first error in strict
mode and the same error list in recovery mode, on both comment
configurations.

There is one intended difference.  The reference starts and continues an
integer on :meth:`str.isdigit`, which also accepts characters such as
``²`` that ``int()`` rejects, so ``X = ²`` crashed the parser with a bare
``ValueError``.  The new lexer reads integers as runs of
:meth:`str.isdecimal` characters, and any other digit is an unexpected
character.  ``fixed_tokenize`` is the reference with exactly that change
(``isdigit()`` -> ``isdecimal()``); the property tests compare against it,
and a separate test checks that it agrees with the verbatim reference on
every text without such a digit.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.corpus.generator import STYLES, generate_program
from repro.frontend import c as c_frontend
from repro.frontend import fortran as fortran_frontend
from repro.frontend import parse_c, parse_fortran
from repro.frontend.errors import ParseError, ParseErrorGroup
from repro.frontend.lexer import tokenize
from repro.lint import lint_source

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

# -- the reference: the former lexer, verbatim ------------------------------

INT = "INT"
IDENT = "IDENT"
OP = "OP"
NEWLINE = "NEWLINE"
EOF = "EOF"

_MULTI_CHAR_OPS = ("<=", ">=", "==", "!=", "+=", "-=", "++", "--", "&&", "||")
_SINGLE_CHAR_OPS = "+-*/(),=:;<>[]{}&"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


def reference_tokenize(
    source: str,
    comment_chars: str = "!",
    c_comments: bool = False,
    errors: list[ParseError] | None = None,
) -> list[Token]:
    """Tokenize source text into a flat token list with NEWLINE separators.

    ``comment_chars`` start a to-end-of-line comment anywhere on a line.
    With ``c_comments`` the sequences ``//`` and ``/* ... */`` are comments.
    An unexpected character raises :class:`ParseError` — unless ``errors``
    is given, in which case the error is appended there, the character is
    skipped, and lexing continues (recovery mode).
    """
    tokens: list[Token] = []
    line_no = 0
    in_block_comment = False
    for raw_line in source.splitlines():
        line_no += 1
        pos = 0
        emitted = False
        length = len(raw_line)
        while pos < length:
            if in_block_comment:
                end = raw_line.find("*/", pos)
                if end < 0:
                    pos = length
                    continue
                in_block_comment = False
                pos = end + 2
                continue
            ch = raw_line[pos]
            if ch in " \t":
                pos += 1
                continue
            if ch in comment_chars:
                break
            if c_comments and raw_line.startswith("//", pos):
                break
            if c_comments and raw_line.startswith("/*", pos):
                in_block_comment = True
                pos += 2
                continue
            start = pos
            if ch.isdigit():
                while pos < length and raw_line[pos].isdigit():
                    pos += 1
                tokens.append(Token(INT, raw_line[start:pos], line_no, start + 1))
                emitted = True
                continue
            if ch.isalpha() or ch == "_":
                while pos < length and (raw_line[pos].isalnum() or raw_line[pos] == "_"):
                    pos += 1
                tokens.append(Token(IDENT, raw_line[start:pos], line_no, start + 1))
                emitted = True
                continue
            matched = next(
                (op for op in _MULTI_CHAR_OPS if raw_line.startswith(op, pos)), None
            )
            if matched:
                tokens.append(Token(OP, matched, line_no, pos + 1))
                pos += len(matched)
                emitted = True
                continue
            if ch in _SINGLE_CHAR_OPS:
                tokens.append(Token(OP, ch, line_no, pos + 1))
                pos += 1
                emitted = True
                continue
            error = ParseError(f"unexpected character {ch!r}", line_no, pos + 1)
            if errors is None:
                raise error
            errors.append(error)
            pos += 1
        if emitted:
            tokens.append(Token(NEWLINE, "\n", line_no, length + 1))
    tokens.append(Token(EOF, "", line_no + 1, 1))
    return tokens


# -- the reference with the one intended change ------------------------------


def _with_decimal_integers():
    source = inspect.getsource(reference_tokenize)
    assert source.count("isdigit()") == 2
    namespace = dict(globals())
    exec(source.replace("isdigit()", "isdecimal()"), namespace)
    return namespace["reference_tokenize"]


fixed_tokenize = _with_decimal_integers()

CONFIGURATIONS = [("!", False), ("", True)]  # FORTRAN, C


def outcome(lexer, text, comment_chars, c_comments, recover):
    """Tokens as plain tuples plus errors as (message, line, column); in
    strict mode a raised error is the whole outcome."""
    errors = [] if recover else None
    try:
        tokens = lexer(
            text, comment_chars=comment_chars, c_comments=c_comments, errors=errors
        )
    except ParseError as error:
        return "raised", (error.message, error.line, error.column)
    return (
        [(t.kind, t.text, t.line, t.column) for t in tokens],
        [(e.message, e.line, e.column) for e in errors or ()],
    )


def has_non_decimal_digit(text: str) -> bool:
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


# The lexer's own alphabet, the line breaks str.splitlines knows, comment
# markers, and characters on the edges of the letter and digit classes
# (superscript, Roman numeral, accented letter, Arabic-Indic digit, CJK
# numeral, vulgar fraction, no-break space).
PIECES = (
    list("aZ_09 \t!/*+-=<>&|();:,[]{}.$'\"`@")
    + ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    + ["/*", "*/", "//", "!=", "<=", "++", "&&", "||", "DO", "IF", "END"]
    + ["²", "Ⅻ", "é", "٣", "一", "½", "\xa0"]
)
texts = st.lists(
    st.one_of(st.sampled_from(PIECES), st.characters()), max_size=40
).map("".join)


@pytest.mark.parametrize("comment_chars,c_comments", CONFIGURATIONS)
@given(text=texts)
@settings(max_examples=300)
def test_tokens_and_errors_match_the_reference(text, comment_chars, c_comments):
    for recover in (False, True):
        assert outcome(tokenize, text, comment_chars, c_comments, recover) == (
            outcome(fixed_tokenize, text, comment_chars, c_comments, recover)
        )


@pytest.mark.parametrize("comment_chars,c_comments", CONFIGURATIONS)
@given(text=texts)
@settings(max_examples=150)
def test_decimal_integers_are_the_only_change(text, comment_chars, c_comments):
    assume(not has_non_decimal_digit(text))
    for recover in (False, True):
        assert outcome(fixed_tokenize, text, comment_chars, c_comments, recover) == (
            outcome(reference_tokenize, text, comment_chars, c_comments, recover)
        )


@lru_cache(maxsize=1)
def class_representatives() -> list[str]:
    """Every code point below U+0800, plus the first and last eight code
    points of each combination of the character classes the lexers read."""
    classes: dict[tuple, list[str]] = {}
    for code in range(0x110000):
        ch = chr(code)
        key = (
            ch.isalpha(), ch.isdecimal(), ch.isdigit(), ch.isnumeric(),
            ch.isalnum(), ch.isspace(), ch.isprintable(),
        )
        classes.setdefault(key, []).append(ch)
    chosen = {chr(code) for code in range(0x800)}
    for members in classes.values():
        chosen.update(members[:8] + members[-8:])
    return sorted(chosen)


@pytest.mark.parametrize("comment_chars,c_comments", CONFIGURATIONS)
def test_character_classes_match_the_reference(comment_chars, c_comments):
    """Each character alone, after a letter and after a digit, one per line."""
    text = "\n".join(f"{ch} a{ch} 1{ch}" for ch in class_representatives())
    assert outcome(tokenize, text, comment_chars, c_comments, True) == outcome(
        fixed_tokenize, text, comment_chars, c_comments, True
    )


def test_the_intended_difference():
    assert [t.text for t in reference_tokenize("X = ²\n")][2] == "²"
    with pytest.raises(ParseError) as info:
        tokenize("X = ²\n")
    assert (info.value.message, info.value.line, info.value.column) == (
        "unexpected character '²'",
        1,
        5,
    )


# -- whole programs parse the same through either lexer --------------------


def corpus_inputs() -> dict[str, str]:
    inputs = {
        path.name: path.read_text()
        for pattern in ("*.f", "*.c")
        for path in sorted(EXAMPLES.glob(pattern))
    }
    for seed in range(7):
        for style in STYLES:
            program = generate_program(
                f"{style}{seed}", lines=150, linearized_nests=12, seed=seed,
                styles=(style,),
            )
            inputs[f"{program.name}.f"] = program.source
        program = generate_program(
            f"mixed{seed}", lines=150, linearized_nests=12, seed=seed
        )
        inputs[f"{program.name}.f"] = program.source
    return inputs


def statements(stmts):
    for stmt in stmts:
        yield stmt
        for attr in ("body", "then_body", "else_body"):
            yield from statements(getattr(stmt, attr, ()))


def dump(program) -> str:
    """The program's repr plus every statement's and routine's span (spans
    are left out of the IR's repr)."""
    bodies = [program.body] + [sub.body for sub in program.subroutines.values()]
    spans = [
        (type(stmt).__name__, stmt.span)
        for body in bodies
        for stmt in statements(body)
    ]
    spans += [(name, sub.span) for name, sub in program.subroutines.items()]
    return f"{program!r}\n{spans!r}"


def parse(name: str, text: str) -> str:
    if name.endswith(".c"):
        program, info = parse_c(text)
        return f"{dump(program)}\n{info!r}"
    return dump(parse_fortran(text))


@pytest.mark.parametrize("name,text", sorted(corpus_inputs().items()))
def test_programs_parse_the_same_through_the_reference(name, text, monkeypatch):
    parsed = parse(name, text)
    monkeypatch.setattr(fortran_frontend, "tokenize", reference_tokenize)
    monkeypatch.setattr(c_frontend, "tokenize", reference_tokenize)
    assert parsed == parse(name, text)


# -- superscript digits are syntax errors, not crashes ------------------------


class TestNonDecimalDigits:
    def test_fortran(self):
        with pytest.raises(ParseError) as info:
            parse_fortran("X = ²\n")
        assert str(info.value) == "unexpected character '²' at line 1, column 5"

    def test_fortran_recovers(self):
        with pytest.raises(ParseErrorGroup) as info:
            parse_fortran("X = ²\nY = 1\nZ = 1²\n", recover=True)
        assert [(e.message, e.line, e.column) for e in info.value.errors] == [
            ("unexpected character '²'", 1, 5),
            ("unexpected token '\\n'", 1, 6),
            ("unexpected character '²'", 3, 6),
        ]
        assert [str(s) for s in info.value.program.body] == ["Y = 1", "Z = 1"]

    def test_c(self):
        with pytest.raises(ParseError) as info:
            parse_c("int x;\nx = ³;\n")
        assert str(info.value) == "unexpected character '³' at line 2, column 5"

    def test_c_recovers(self):
        with pytest.raises(ParseErrorGroup) as info:
            parse_c("int x;\nx = ³;\nx = 2;\n", recover=True)
        assert [(e.message, e.line) for e in info.value.errors] == [
            ("unexpected character '³'", 2),
            ("unexpected token ';'", 2),
        ]

    def test_lint_reports_dl001(self):
        report = lint_source("X = ²\n")
        dl001 = [d.message for d in report.diagnostics if d.code == "DL001"]
        assert dl001 == [
            "unexpected character '²' at line 1, column 5",
            "unexpected token '\\n' at line 1, column 6",
        ]

    def test_identifiers_keep_their_classes(self):
        # A letter continues over any alphanumeric character, so ² and Ⅻ
        # stay inside an identifier; neither can start one.
        assert [t.text for t in tokenize("x² = yⅫ\n")][:3] == ["x²", "=", "yⅫ"]
        errors = []
        tokens = tokenize("Ⅻa = ²1\n", errors=errors)
        assert [(t.kind, t.text) for t in tokens][:3] == [
            (IDENT, "a"), (OP, "="), (INT, "1"),
        ]
        assert [e.message for e in errors] == [
            "unexpected character 'Ⅻ'",
            "unexpected character '²'",
        ]
