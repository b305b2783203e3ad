"""Unit tests for the Verilog lexer."""

from __future__ import annotations

import random

import pytest

from repro.hdl import Lexer, LexerError, ParseError, Parser, tokenize
from repro.hdl.lexer import TokenStream
from repro.hdl.tokens import TokenType


def _values(source: str):
    return [t.value for t in tokenize(source) if t.type is not TokenType.EOF]


class TestBasicTokens:
    def test_keywords_and_identifiers(self) -> None:
        tokens = tokenize("module foo; endmodule")
        kinds = [(t.type, t.value) for t in tokens[:-1]]
        assert kinds[0] == (TokenType.KEYWORD, "module")
        assert kinds[1] == (TokenType.IDENTIFIER, "foo")
        assert kinds[3] == (TokenType.KEYWORD, "endmodule")

    def test_eof_terminates_stream(self) -> None:
        assert tokenize("")[-1].type is TokenType.EOF
        assert tokenize("wire x;")[-1].type is TokenType.EOF

    def test_identifier_with_dollar_and_underscore(self) -> None:
        values = _values("$display _sig core$net")
        assert values == ["$display", "_sig", "core$net"]

    def test_simple_decimal_number(self) -> None:
        tokens = tokenize("42")
        assert tokens[0].type is TokenType.NUMBER and tokens[0].value == "42"

    def test_sized_hex_number(self) -> None:
        tokens = tokenize("8'hFF")
        assert tokens[0].value == "8'hFF"

    def test_sized_binary_with_underscores(self) -> None:
        tokens = tokenize("4'b10_10")
        assert tokens[0].value == "4'b10_10"

    def test_signed_literal(self) -> None:
        assert tokenize("8'sd5")[0].type is TokenType.NUMBER

    def test_string_literal(self) -> None:
        tokens = tokenize('"hello world"')
        assert tokens[0].type is TokenType.STRING and tokens[0].value == "hello world"


class TestOperators:
    @pytest.mark.parametrize(
        "op", ["<=", ">=", "==", "!=", "&&", "||", "<<", ">>", "===", "!==", "<<<", ">>>"]
    )
    def test_multi_character_operators(self, op: str) -> None:
        tokens = tokenize(f"a {op} b")
        assert tokens[1].value == op and tokens[1].type is TokenType.OPERATOR

    def test_greedy_matching(self) -> None:
        # "<<<" must lex as one token, not "<<" then "<".
        assert _values("a <<< b") == ["a", "<<<", "b"]

    def test_single_char_operators_and_punctuation(self) -> None:
        values = _values("assign y = (a & b) | ~c;")
        assert values == ["assign", "y", "=", "(", "a", "&", "b", ")", "|", "~", "c", ";"]

    def test_reduction_operator_split(self) -> None:
        # ~& is a distinct token (reduction NAND).
        assert "~&" in _values("assign y = ~&a;")


class TestCommentsAndWhitespace:
    def test_line_comments_ignored(self) -> None:
        assert _values("wire x; // a comment\nwire y;") == ["wire", "x", ";", "wire", "y", ";"]

    def test_block_comments_ignored(self) -> None:
        assert _values("wire /* hidden */ x;") == ["wire", "x", ";"]

    def test_multiline_block_comment(self) -> None:
        assert _values("/* line1\nline2\n*/ reg r;") == ["reg", "r", ";"]

    def test_unterminated_block_comment_raises(self) -> None:
        with pytest.raises(LexerError, match="Unterminated block comment"):
            tokenize("wire x; /* never closed")

    def test_unterminated_string_raises(self) -> None:
        with pytest.raises(LexerError, match="Unterminated string"):
            tokenize('"no closing quote')


class TestPositionsAndErrors:
    def test_line_and_column_tracking(self) -> None:
        tokens = tokenize("wire a;\n  reg b;")
        reg_token = next(t for t in tokens if t.value == "reg")
        assert reg_token.line == 2
        assert reg_token.column == 3

    def test_unexpected_character_raises_with_position(self) -> None:
        with pytest.raises(LexerError) as excinfo:
            tokenize("wire a;\nwire `b;")
        assert excinfo.value.line == 2

    def test_invalid_base_raises(self) -> None:
        with pytest.raises(LexerError, match="Invalid numeric base"):
            tokenize("8'q12")

    def test_missing_digits_after_base_raises(self) -> None:
        with pytest.raises(LexerError, match="missing digits"):
            tokenize("8'h ;")

    def test_lexer_object_reusable_state(self) -> None:
        lexer = Lexer("wire x;")
        first = lexer.tokenize()
        assert [t.value for t in first[:-1]] == ["wire", "x", ";"]


#: Fragments the mutation fuzz inserts or substitutes: comment and literal
#: delimiters (each a golden-scanner fallback on its own), a backtick, stray
#: operators, and whitespace or comments that leave the tokens unchanged.
_FRAGMENTS = (
    "'", '"', "`", "/*", "*/", "//", "/* c */", "// c\n", "\n", " ",
    "8'h", "'b1", '"s"', "(", ")", ";", "?", "**", "$",
)


def _mutate(rng: random.Random, source: str) -> str:
    """One to three seeded inserts, deletes or replacements of ``source``."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(source) + 1)
        edit = rng.random()
        if edit < 0.5:
            source = source[:at] + rng.choice(_FRAGMENTS) + source[at:]
        elif edit < 0.75:
            source = source[:at] + source[at + rng.randint(1, 4):]
        else:
            source = source[:at] + rng.choice(_FRAGMENTS) + source[at + 1:]
    return source


def _parse_outcome(stream: TokenStream):
    """The parsed AST, or the ``ParseError`` text (message, line and column)."""
    try:
        return Parser(stream).parse()
    except ParseError as exc:
        return str(exc)


class TestFastScannerEquivalence:
    """The token-array ``tokenize`` must match the golden ``Lexer`` exactly."""

    def test_identical_token_stream_on_generated_suite(self) -> None:
        from repro.trojan import SuiteConfig, TrojanDataset

        suite = TrojanDataset.generate(
            SuiteConfig(n_trojan_free=6, n_trojan_infected=3, seed=19)
        )
        for benchmark in suite.benchmarks:
            assert tokenize(benchmark.source) == Lexer(benchmark.source).tokenize()

    def test_identical_token_stream_on_fixture(self, sample_verilog) -> None:
        assert tokenize(sample_verilog) == Lexer(sample_verilog).tokenize()

    @pytest.mark.parametrize(
        "source",
        [
            "module m; /* unterminated",
            '"unterminated string',
            "a = 8'h;",
            "y = 4'd3; z = 'b101; q = 16'shFF_F?;",
            's = "hi"; // c\n/* multi\nline */ module',
            "b = a / 2; c = a /* x */ * 2;",
            "endmod//le\n",
            "x /* y */",
            "a /* b */ /* c */\n",
            "a // tail /*",
            "'",
            '"',
            "`",
            "",
            "// only\n/* comments */ // here\n",
        ],
    )
    def test_edge_cases_match_golden(self, source: str) -> None:
        try:
            expected = Lexer(source).tokenize()
            expected_error = None
        except LexerError as exc:
            expected, expected_error = None, str(exc)
        try:
            observed = tokenize(source)
            observed_error = None
        except LexerError as exc:
            observed, observed_error = None, str(exc)
        assert observed == expected
        assert observed_error == expected_error

    @pytest.mark.parametrize(
        "source",
        ["module m; /** unterminated", "a = b; /*** x", "c = d /**e"],
    )
    def test_unterminated_double_star_comment_matches_golden(self, source: str) -> None:
        with pytest.raises(LexerError, match="Unterminated block comment"):
            Lexer(source).tokenize()
        with pytest.raises(LexerError, match="Unterminated block comment"):
            tokenize(source)

    def test_mutated_designs_match_golden(self, small_dataset) -> None:
        sources = [benchmark.source for benchmark in small_dataset.benchmarks]
        rng = random.Random(23)
        outcomes = {"parsed": 0, "ParseError": 0, "LexerError": 0}
        for _ in range(1000):
            source = _mutate(rng, rng.choice(sources))
            try:
                golden = Lexer(source).tokenize()
            except LexerError as exc:
                with pytest.raises(LexerError) as caught:
                    tokenize(source)
                assert str(caught.value) == str(exc)
                outcomes["LexerError"] += 1
                continue
            stream = tokenize(source)
            assert stream == golden
            outcome = _parse_outcome(stream)
            assert outcome == _parse_outcome(TokenStream.from_tokens(golden))
            outcomes["ParseError" if isinstance(outcome, str) else "parsed"] += 1
        # Every outcome class is exercised, so no path goes untested.
        assert min(outcomes.values()) >= 50, outcomes
