"""Lexer for the Verilog-2001 subset used throughout the library.

The lexer converts raw source text into a flat, EOF-terminated token stream.
It understands:

* line (``//``) and block (``/* */``) comments,
* sized and unsized numeric literals (``8'hFF``, ``4'b10_10``, ``42``),
* identifiers and the keyword subset,
* multi- and single-character operators,
* string literals (used only in rare ``$display`` style statements).

Anything outside this set raises :class:`repro.hdl.errors.LexerError` with a
precise source position, which keeps failures debuggable when the Trojan
generator and the parser disagree about the accepted subset.

:func:`tokenize` is the front-end's entry point.  It takes every token text
from one ``findall`` and returns a :class:`TokenStream` of parallel text and
kind lists, building no per-token object and no line or column on valid
input.  :class:`Lexer`, the character-at-a-time scanner, is the golden
reference: the equivalence tests compare against it, and ``tokenize`` hands
it any input that may be an error, so each :class:`LexerError` keeps its
historical message and position.
"""

from __future__ import annotations

import re
import string
from operator import itemgetter
from typing import Iterator, List, Optional

from .errors import LexerError
from .tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    PUNCTUATION,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenType,
)


class Lexer:
    """Tokenize Verilog source text."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low level helpers -------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        consumed = self.source[self.pos : self.pos + count]
        for char in consumed:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return consumed

    def _error(self, message: str) -> LexerError:
        return LexerError(message, self.line, self.column)

    # -- token scanners ----------------------------------------------------
    def _skip_whitespace_and_comments(self) -> None:
        while self.pos < len(self.source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (
                    self._peek() == "*" and self._peek(1) == "/"
                ):
                    self._advance()
                if self.pos >= len(self.source):
                    raise self._error("Unterminated block comment")
                self._advance(2)
            else:
                return

    def _scan_identifier(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        text = self.source[start : self.pos]
        token_type = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENTIFIER
        return Token(token_type, text, line, column)

    def _scan_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        # Optional decimal size prefix.
        while self.pos < len(self.source) and (self._peek().isdigit() or self._peek() == "_"):
            self._advance()
        if self._peek() == "'":
            self._advance()
            if self._peek() in "sS":
                self._advance()
            base = self._peek().lower()
            if base not in "bodh":
                raise self._error(f"Invalid numeric base {base!r}")
            self._advance()
            digits_start = self.pos
            while self.pos < len(self.source) and (
                self._peek().isalnum() or self._peek() in "_xXzZ?"
            ):
                self._advance()
            if self.pos == digits_start:
                raise self._error("Numeric literal missing digits after base")
        text = self.source[start : self.pos]
        return Token(TokenType.NUMBER, text, line, column)

    def _scan_string(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        start = self.pos
        while self.pos < len(self.source) and self._peek() != '"':
            if self._peek() == "\n":
                raise self._error("Unterminated string literal")
            self._advance()
        if self.pos >= len(self.source):
            raise self._error("Unterminated string literal")
        text = self.source[start : self.pos]
        self._advance()  # closing quote
        return Token(TokenType.STRING, text, line, column)

    def _scan_operator_or_punctuation(self) -> Token:
        line, column = self.line, self.column
        for op in MULTI_CHAR_OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenType.OPERATOR, op, line, column)
        char = self._peek()
        if char in PUNCTUATION:
            self._advance()
            return Token(TokenType.PUNCTUATION, char, line, column)
        if char in SINGLE_CHAR_OPERATORS:
            self._advance()
            return Token(TokenType.OPERATOR, char, line, column)
        raise self._error(f"Unexpected character {char!r}")

    # -- public API ----------------------------------------------------------
    def tokenize(self) -> List[Token]:
        """Scan the entire source and return the token list (EOF-terminated)."""
        tokens: List[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.source):
                break
            char = self._peek()
            if char.isalpha() or char in "_$":
                tokens.append(self._scan_identifier())
            elif char.isdigit() or (char == "'" and self._peek(1).lower() in "sbodh"):
                tokens.append(self._scan_number())
            elif char == '"':
                tokens.append(self._scan_string())
            else:
                tokens.append(self._scan_operator_or_punctuation())
        tokens.append(Token(TokenType.EOF, "", self.line, self.column))
        return tokens


# ---------------------------------------------------------------------------
# Token arrays
# ---------------------------------------------------------------------------

#: One match per skipped run or token.  Group 1 holds a token's text and is
#: empty for whitespace and comments, so ``findall`` yields the token texts
#: once the empty strings are dropped.  The token alternatives mirror the
#: golden scanner's dispatch: numeric literals, identifiers and keywords,
#: strings, multi-character operators (longest first), then single-character
#: operators and punctuation.  The final ``.`` takes any other character on
#: its own, so every position is consumed.  Whitespace and comments are an
#: alternative of their own rather than a ``(?:SKIP)*`` prefix of each token:
#: a prefix lets the engine backtrack into a trailing comment and lex part of
#: it (``endmod//le`` would gain an ``e`` token).
_TOKEN_PATTERN = re.compile(
    r"[ \t\r\n]+|//[^\n]*|/\*.*?\*/"
    r"|((?:[0-9][0-9_]*)?'[sS]?[bBoOdDhH][A-Za-z0-9_?]+|[0-9][0-9_]*"
    r"|[A-Za-z_$][A-Za-z0-9_$]*"
    r'|"[^"\n]*"'
    r"|" + "|".join(re.escape(op) for op in MULTI_CHAR_OPERATORS)
    + r"|[" + re.escape(SINGLE_CHAR_OPERATORS + PUNCTUATION) + r"]"
    r"|.)",
    re.DOTALL,
)

#: A token's kind follows from its first character ...
_KIND_OF_FIRST = {
    char: kind
    for chars, kind in (
        (string.ascii_letters + "_$", TokenType.IDENTIFIER),
        (string.digits + "'", TokenType.NUMBER),
        ('"', TokenType.STRING),
        (SINGLE_CHAR_OPERATORS, TokenType.OPERATOR),
        (PUNCTUATION, TokenType.PUNCTUATION),
    )
    for char in chars
}
#: ... unless its whole text says otherwise: keywords, and a quote that starts
#: no literal, whose ``None`` sends the source to the golden scanner's error.
_KIND_OF_TEXT = {**dict.fromkeys(KEYWORDS, TokenType.KEYWORD), "'": None, '"': None}


class TokenStream:
    """An EOF-terminated token stream held as two parallel lists.

    ``values[i]`` is token ``i``'s text (a string literal's without its
    quotes) and ``kinds[i]`` its :class:`TokenType`; the parser reads these
    lists directly.  Line and column are needed only for error messages, so
    :class:`Token` objects are built on first request, from the token start
    offsets of a second pass over the source.  Under ``len()``, indexing,
    iteration and ``==`` the stream behaves as the equal ``List[Token]``
    that ``Lexer(source).tokenize()`` returns.
    """

    __slots__ = ("values", "kinds", "_source", "_tokens")

    def __init__(self, values: List[str], kinds: List[TokenType], source: str) -> None:
        self.values = values
        self.kinds = kinds
        self._source = source
        self._tokens: Optional[List[Token]] = None

    @classmethod
    def from_tokens(cls, tokens: List[Token]) -> "TokenStream":
        """Wrap an EOF-terminated ``Token`` list, such as the golden scanner's."""
        stream = cls([t.value for t in tokens], [t.type for t in tokens], "")
        stream._tokens = list(tokens)
        return stream

    def tokens(self) -> List[Token]:
        """The stream as ``Token`` objects with 1-based line and column."""
        if self._tokens is None:
            source = self._source
            starts = [m.start() for m in _TOKEN_PATTERN.finditer(source) if m.lastindex]
            starts.append(len(source))  # EOF sits just past the last character
            tokens: List[Token] = []
            line, line_start, scanned = 1, 0, 0
            for kind, value, start in zip(self.kinds, self.values, starts):
                newlines = source.count("\n", scanned, start)
                if newlines:
                    line += newlines
                    line_start = source.rindex("\n", scanned, start) + 1
                scanned = start
                tokens.append(Token(kind, value, line, start - line_start + 1))
            self._tokens = tokens
        return self._tokens

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        return self.tokens()[index]

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TokenStream):
            other = other.tokens()
        return self.tokens() == other


def tokenize(source: str) -> TokenStream:
    """Tokenize ``source`` into an EOF-terminated :class:`TokenStream`.

    The token texts come from one ``findall``; kinds follow from each
    text's first character.  The stream equals ``Lexer(source).tokenize()``.
    Three inputs go to the golden scanner instead, so a
    :class:`LexerError` keeps its historical message and position: a
    character that starts no token, a quote that starts no literal, and a
    source whose last ``/*`` has no ``*/`` after it (a comment that may be
    unterminated).
    """
    comment = source.rfind("/*")
    if comment >= 0 and source.find("*/", comment + 2) < 0:
        return TokenStream.from_tokens(Lexer(source).tokenize())
    values = list(filter(None, _TOKEN_PATTERN.findall(source)))
    kinds = list(
        map(_KIND_OF_TEXT.get, values, map(_KIND_OF_FIRST.get, map(itemgetter(0), values)))
    )
    if None in kinds:
        return TokenStream.from_tokens(Lexer(source).tokenize())
    if '"' in source:
        for index, kind in enumerate(kinds):
            if kind is TokenType.STRING:
                values[index] = values[index][1:-1]
    values.append("")
    kinds.append(TokenType.EOF)
    return TokenStream(values, kinds, source)
