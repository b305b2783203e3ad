"""Token definitions for the Verilog subset lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenType(Enum):
    """Token categories produced by :class:`repro.hdl.lexer.Lexer`."""

    KEYWORD = auto()
    IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    EOF = auto()


class Token(NamedTuple):
    """A single lexical token with its source position (1-based).

    The scan path's :class:`repro.hdl.lexer.TokenStream` builds these only
    on request (tests, error positions); the golden
    :class:`repro.hdl.lexer.Lexer` builds one per token.  A ``NamedTuple``
    rather than a frozen dataclass: the C-level tuple constructor is
    several times faster while staying immutable and field-for-field
    comparable.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"


#: Keywords recognised by the subset grammar.  Anything else that looks like
#: an identifier is treated as a plain identifier.
KEYWORDS = frozenset(
    {
        "module",
        "endmodule",
        "input",
        "output",
        "inout",
        "wire",
        "reg",
        "integer",
        "parameter",
        "localparam",
        "assign",
        "always",
        "initial",
        "begin",
        "end",
        "if",
        "else",
        "case",
        "casez",
        "casex",
        "endcase",
        "default",
        "posedge",
        "negedge",
        "or",
        "for",
        "signed",
    }
)

#: Multi-character operators, longest first so the lexer can greedily match.
MULTI_CHAR_OPERATORS = (
    "<<<",
    ">>>",
    "===",
    "!==",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "~&",
    "~|",
    "~^",
    "^~",
    "**",
)

#: Single-character operators.
SINGLE_CHAR_OPERATORS = "+-*/%&|^~!<>?=:"

#: Punctuation characters that delimit structure.
PUNCTUATION = "()[]{};,.#@"
