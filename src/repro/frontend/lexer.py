"""The lexer shared by the FORTRAN and C frontends.

:func:`tokenize` turns the whole source into one flat token list in a
single pass of one compiled regular expression (one per comment
configuration), so its cost follows the length of the text.  Lines are the
lines of :meth:`str.splitlines`: ``\\r\\n``, ``\\r``, ``\\x0b``, ``\\x0c``,
``\\u2028`` and the other Unicode line boundaries each end one.  Every line
that produced a token ends in a ``NEWLINE`` token and the list ends in one
``EOF`` token.  Identifiers start with a letter (:meth:`str.isalpha`) or
``_`` and go on over :meth:`str.isalnum` characters and ``_``; integers are
runs of decimal digits (:meth:`str.isdecimal`).

:class:`TokenStream` is the parsers' cursor over that list.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ParseError

#: Token kinds.
INT = "INT"
IDENT = "IDENT"
OP = "OP"
NEWLINE = "NEWLINE"
EOF = "EOF"

_MULTI_CHAR_OPS = ("<=", ">=", "==", "!=", "+=", "-=", "++", "--", "&&", "||")
_SINGLE_CHAR_OPS = "+-*/(),=:;<>[]{}&"

#: The characters :meth:`str.splitlines` ends a line at (``\r\n`` is one).
_LINE_BREAK_CHARS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile("\r\n|[" + _LINE_BREAK_CHARS + "]")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})"


_new_token = tuple.__new__

# The groups of the master pattern, in pattern order: the token kind each
# one yields, or the name of what the tokenizer does with it.
_GROUPS = (IDENT, INT, "comment", "block", OP, "break", "word", "other")
_KIND_OF_GROUP = (None,) + tuple(
    g if g in (INT, IDENT, OP) else None for g in _GROUPS
)
_G_COMMENT, _G_BLOCK, _G_BREAK, _G_WORD = (
    _GROUPS.index(g) + 1 for g in ("comment", "block", "break", "word")
)

_PATTERNS: dict[tuple[str, bool], re.Pattern] = {}


def _master_pattern(comment_chars: str, c_comments: bool) -> re.Pattern:
    """One pattern matching, after any blanks, one of :data:`_GROUPS`.

    Identifiers and integers start with a word character and comments with
    a character that is not one, so their order does not matter (the most
    frequent goes first).  Comments come before operators: ``!`` starts a
    FORTRAN comment even in ``!=``, and ``//`` and ``/*`` win over ``/``.
    A run of word characters that starts with neither an ASCII letter nor
    a decimal digit is a ``word``, classified one character at a time; any
    other character but a blank is unexpected.  (The blanks before it are
    never given back to it: no other alternative starts with one.)
    """
    key = (comment_chars, c_comments)
    pattern = _PATTERNS.get(key)
    if pattern is not None:
        return pattern
    for ch in comment_chars:
        if ch.isalnum() or ch in "_ \t" + _LINE_BREAK_CHARS:
            raise ValueError(f"{ch!r} cannot start a comment")
    starts = [re.escape(ch) for ch in comment_chars]
    block = "(?!)"  # matches nothing
    if c_comments:
        starts.append("//")
        block = r"/\*[\s\S]*?(?:\*/|\Z)"
    comment = "(?!)"
    if starts:
        comment = "(?:" + "|".join(starts) + ")[^" + _LINE_BREAK_CHARS + "]*"
    ops = "|".join(re.escape(op) for op in _MULTI_CHAR_OPS)
    single = "[" + re.escape(_SINGLE_CHAR_OPS) + "]"
    pattern = re.compile(
        rf"[ \t]*(?:([A-Za-z_]\w*)|(\d+)|({comment})|({block})|({ops}|{single})|"
        f"(\r\n|[{_LINE_BREAK_CHARS}])|"
        r"(\w+)|([^ \t]))"
    )
    assert pattern.groups == len(_GROUPS)
    _PATTERNS[key] = pattern
    return pattern


def tokenize(
    source: str,
    comment_chars: str = "!",
    c_comments: bool = False,
    errors: list[ParseError] | None = None,
) -> list[Token]:
    """Tokenize source text into a flat token list with NEWLINE separators.

    ``comment_chars`` start a to-end-of-line comment anywhere on a line;
    they must not be word characters, blanks or line breaks.  With
    ``c_comments`` the sequences ``//`` and ``/* ... */`` are comments.
    An unexpected character raises :class:`ParseError` — unless ``errors``
    is given, in which case the error is appended there, the character is
    skipped, and lexing continues (recovery mode).
    """
    tokens: list[Token] = []
    append = tokens.append
    kind_of = _KIND_OF_GROUP
    line_no = 1
    base = -1  # offset of the current line's start, minus one
    emitted = False
    for match in _master_pattern(comment_chars, c_comments).finditer(source):
        group = match.lastindex
        kind = kind_of[group]
        if kind is not None:
            append(
                _new_token(
                    Token, (kind, match[group], line_no, match.start(group) - base)
                )
            )
            emitted = True
        elif group == _G_BREAK:
            if emitted:
                append(
                    _new_token(
                        Token, (NEWLINE, "\n", line_no, match.start(group) - base)
                    )
                )
                emitted = False
            line_no += 1
            base = match.end() - 1
        elif group == _G_BLOCK:
            inside = _LINE_BREAK.finditer(source, match.start(group), match.end())
            for brk in inside:
                if emitted:
                    append(
                        _new_token(Token, (NEWLINE, "\n", line_no, brk.start() - base))
                    )
                    emitted = False
                line_no += 1
                base = brk.end() - 1
        elif group == _G_WORD:
            column = match.start(group) - base
            if _split_word(match[group], line_no, column, tokens, errors):
                emitted = True
        elif group != _G_COMMENT:  # an unexpected character
            _unexpected(match[group], line_no, match.start(group) - base, errors)
    if base + 1 < len(source):  # a last line without a line break
        if emitted:
            append(_new_token(Token, (NEWLINE, "\n", line_no, len(source) - base)))
        line_no += 1
    append(_new_token(Token, (EOF, "", line_no, 1)))
    return tokens


def _split_word(
    word: str,
    line: int,
    column: int,
    tokens: list[Token],
    errors: list[ParseError] | None,
) -> bool:
    """Tokenize a run of word characters that starts with neither an ASCII
    letter nor a decimal digit; True when it produced a token.  A letter or
    ``_`` starts an identifier that takes the rest of the run; a character
    that is a digit or numeric but not decimal (``²``, ``Ⅻ``) is
    unexpected."""
    pos = 0
    emitted = False
    while pos < len(word):
        ch = word[pos]
        if ch.isalpha() or ch == "_":
            tokens.append(Token(IDENT, word[pos:], line, column + pos))
            return True
        if ch.isdecimal():
            end = pos + 1
            while end < len(word) and word[end].isdecimal():
                end += 1
            tokens.append(Token(INT, word[pos:end], line, column + pos))
            emitted = True
            pos = end
            continue
        _unexpected(ch, line, column + pos, errors)
        pos += 1
    return emitted


def _unexpected(
    ch: str, line: int, column: int, errors: list[ParseError] | None
) -> None:
    error = ParseError(f"unexpected character {ch!r}", line, column)
    if errors is None:
        raise error
    errors.append(error)


#: EOF copies past the end of a stream's list, so that ``peek(offset)``
#: for ``offset <= _LOOKAHEAD`` is a plain list index.
_LOOKAHEAD = 2


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers.

    The list ends in an EOF token; the cursor never moves past it.
    """

    __slots__ = ("_tokens", "_pos")

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens + tokens[-1:] * _LOOKAHEAD
        self._pos = 0

    def position(self) -> int:
        """Current cursor index (for progress checks during recovery)."""
        return self._pos

    def peek(self, offset: int = 0) -> Token:
        try:
            return self._tokens[self._pos + offset]
        except IndexError:  # far past EOF
            return self._tokens[-1]

    def next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != EOF:
            self._pos += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self._tokens[self._pos]
        return token.kind == kind and (text is None or token.text == text)

    def at_keyword(self, word: str) -> bool:
        token = self._tokens[self._pos]
        return token.kind == IDENT and token.text.upper() == word.upper()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        token = self._tokens[self._pos]
        if token.kind != kind or (text is not None and token.text != text):
            return None
        if kind != EOF:
            self._pos += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self._tokens[self._pos]
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}", token.line, token.column
            )
        if kind != EOF:
            self._pos += 1
        return token

    def skip_newlines(self) -> None:
        while self._tokens[self._pos].kind == NEWLINE:
            self._pos += 1

    def expect_end_of_line(self) -> None:
        kind = self._tokens[self._pos].kind
        if kind == NEWLINE:
            self._pos += 1
        elif kind != EOF:
            self.expect(NEWLINE)

    def at_eof(self) -> bool:
        return self._tokens[self._pos].kind == EOF
