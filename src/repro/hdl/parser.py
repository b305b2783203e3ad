"""Recursive-descent parser for the Verilog subset.

The grammar intentionally covers the constructs the synthetic Trust-Hub-style
benchmarks (``repro.trojan``) emit and that real RTL Trojan benchmarks rely
on: module headers, port/net/parameter declarations, continuous assigns,
always blocks with if/case/for statements, blocking and non-blocking
assignments, rich expressions, and module instantiations.

The parser reads the parallel text and kind lists of a
:class:`repro.hdl.lexer.TokenStream` by index.  Anything else raises
:class:`repro.hdl.errors.ParseError` with the offending source position; only
then are the stream's line and column computed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import ast_nodes as ast
from .errors import ParseError
from .lexer import TokenStream, tokenize
from .tokens import TokenType

# Binary operator precedence, higher binds tighter.  The ternary operator is
# handled separately above this table.  EOF's text is "", which is in neither
# table, so lookups by text need no EOF check.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "~^": 4,
    "^~": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "===": 6,
    "!==": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "<<<": 8,
    ">>>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
    "**": 11,
}

_UNARY_OPERATORS = {"!", "~", "-", "+", "&", "|", "^", "~&", "~|", "~^"}


class Parser:
    """Parse a token stream into a :class:`repro.hdl.ast_nodes.SourceFile`.

    The cursor ``pos`` never moves past the final EOF token: every consuming
    step first matches a non-empty text or a non-EOF kind, and EOF's text is
    empty.  So ``values[pos]`` is always in range.
    """

    def __init__(self, tokens: TokenStream) -> None:
        self.tokens = tokens
        self.values = tokens.values
        self.kinds = tokens.kinds
        self.pos = 0

    # -- token stream helpers ---------------------------------------------
    def _advance(self) -> str:
        """Consume the current token, which the caller has checked, and return its text."""
        value = self.values[self.pos]
        self.pos += 1
        return value

    def _check(self, value: str) -> bool:
        return self.values[self.pos] == value

    def _accept(self, value: str) -> bool:
        if self.values[self.pos] == value:
            self.pos += 1
            return True
        return False

    def _expect(self, value: str) -> None:
        found = self.values[self.pos]
        if found != value:
            raise self._error(f"Expected {value!r} but found {found!r}")
        self.pos += 1

    def _expect_identifier(self) -> str:
        if self.kinds[self.pos] is not TokenType.IDENTIFIER:
            raise self._error(f"Expected identifier but found {self.values[self.pos]!r}")
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self.tokens[self.pos]
        return ParseError(message, token.line, token.column)

    # -- top level ----------------------------------------------------------
    def parse(self) -> ast.SourceFile:
        modules: List[ast.Module] = []
        while self.kinds[self.pos] is not TokenType.EOF:
            if self._check("module"):
                modules.append(self._parse_module())
            else:
                raise self._error(
                    f"Expected 'module' at top level, found {self.values[self.pos]!r}"
                )
        return ast.SourceFile(modules=modules)

    def _parse_module(self) -> ast.Module:
        self._expect("module")
        name = self._expect_identifier()
        ports: List[str] = []
        items: List[ast.Node] = []
        if self._accept("#"):
            # parameter port list: #(parameter A = 1, ...)
            self._expect("(")
            while not self._check(")"):
                self._accept("parameter")
                param_name = self._expect_identifier()
                self._expect("=")
                value = self._parse_expression()
                items.append(ast.ParameterDeclaration(name=param_name, value=value))
                if not self._accept(","):
                    break
            self._expect(")")
        if self._accept("("):
            while not self._check(")"):
                header_items, header_ports = self._parse_port_list_entry()
                items.extend(header_items)
                ports.extend(header_ports)
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        while not self._check("endmodule"):
            if self.kinds[self.pos] is TokenType.EOF:
                raise self._error(f"Unterminated module {name!r}")
            items.extend(self._parse_module_item())
        self._expect("endmodule")
        return ast.Module(name=name, ports=ports, items=items)

    def _parse_port_list_entry(self) -> Tuple[List[ast.Node], List[str]]:
        """Parse one entry of the module header port list.

        Supports both the Verilog-1995 style (bare identifiers, directions
        declared in the body) and the ANSI-2001 style (direction inline).
        """
        if self.values[self.pos] in ("input", "output", "inout"):
            direction = self._advance()
            is_reg = self._accept("reg")
            if not is_reg:
                self._accept("wire")
            is_signed = self._accept("signed")
            port_range = self._parse_optional_range()
            name = self._expect_identifier()
            decl = ast.PortDeclaration(
                direction=direction,
                names=[name],
                range=port_range,
                is_reg=is_reg,
                is_signed=is_signed,
            )
            return [decl], [name]
        name = self._expect_identifier()
        return [], [name]

    # -- module items ---------------------------------------------------------
    def _parse_module_item(self) -> List[ast.Node]:
        value = self.values[self.pos]
        if value in ("input", "output", "inout"):
            return [self._parse_port_declaration()]
        if value in ("wire", "reg", "integer"):
            return [self._parse_net_declaration()]
        if value in ("parameter", "localparam"):
            return self._parse_parameter_declaration()
        if value == "assign":
            return [self._parse_continuous_assign()]
        if value == "always":
            return [self._parse_always()]
        if value == "initial":
            self._advance()
            return [ast.Initial(body=self._parse_statement())]
        if self.kinds[self.pos] is TokenType.IDENTIFIER:
            return [self._parse_instantiation()]
        raise self._error(f"Unexpected token {value!r} in module body")

    def _parse_optional_range(self) -> Optional[ast.Range]:
        if not self._accept("["):
            return None
        msb = self._parse_expression()
        self._expect(":")
        lsb = self._parse_expression()
        self._expect("]")
        return ast.Range(msb=msb, lsb=lsb)

    def _parse_name_list(self) -> List[str]:
        names = [self._expect_identifier()]
        while self._accept(","):
            names.append(self._expect_identifier())
        return names

    def _parse_port_declaration(self) -> ast.PortDeclaration:
        direction = self._advance()
        is_reg = self._accept("reg")
        if not is_reg:
            self._accept("wire")
        is_signed = self._accept("signed")
        port_range = self._parse_optional_range()
        names = self._parse_name_list()
        self._expect(";")
        return ast.PortDeclaration(
            direction=direction,
            names=names,
            range=port_range,
            is_reg=is_reg,
            is_signed=is_signed,
        )

    def _parse_net_declaration(self) -> ast.NetDeclaration:
        net_type = self._advance()
        is_signed = self._accept("signed")
        net_range = self._parse_optional_range()
        names = [self._expect_identifier()]
        # Optional initialisation (``reg [3:0] x = 0``) is parsed and dropped;
        # it does not affect detection features.
        if self._accept("="):
            self._parse_expression()
        while self._accept(","):
            names.append(self._expect_identifier())
            if self._accept("="):
                self._parse_expression()
        self._expect(";")
        return ast.NetDeclaration(
            net_type=net_type, names=names, range=net_range, is_signed=is_signed
        )

    def _parse_parameter_declaration(self) -> List[ast.Node]:
        keyword = self._advance()
        local = keyword == "localparam"
        self._parse_optional_range()
        declarations: List[ast.Node] = []
        while True:
            name = self._expect_identifier()
            self._expect("=")
            value = self._parse_expression()
            declarations.append(ast.ParameterDeclaration(name=name, value=value, local=local))
            if not self._accept(","):
                break
        self._expect(";")
        return declarations

    def _parse_continuous_assign(self) -> ast.ContinuousAssign:
        self._expect("assign")
        target = self._parse_primary()
        self._expect("=")
        value = self._parse_expression()
        self._expect(";")
        return ast.ContinuousAssign(target=target, value=value)

    def _parse_always(self) -> ast.Always:
        self._expect("always")
        self._expect("@")
        sensitivity: List[ast.SensitivityItem] = []
        is_star = False
        if self._accept("*"):
            is_star = True
        else:
            self._expect("(")
            if self._accept("*"):
                is_star = True
            else:
                sensitivity.append(self._parse_sensitivity_item())
                while self._accept("or") or self._accept(","):
                    sensitivity.append(self._parse_sensitivity_item())
            self._expect(")")
        body = self._parse_statement()
        return ast.Always(sensitivity=sensitivity, body=body, is_star=is_star)

    def _parse_sensitivity_item(self) -> ast.SensitivityItem:
        edge = None
        if self._check("posedge") or self._check("negedge"):
            edge = self._advance()
        signal = self._parse_expression()
        return ast.SensitivityItem(signal=signal, edge=edge)

    def _parse_instantiation(self) -> ast.Instantiation:
        module_name = self._expect_identifier()
        parameter_overrides: List[Tuple[str, ast.Node]] = []
        if self._accept("#"):
            self._expect("(")
            while not self._check(")"):
                if self._accept("."):
                    pname = self._expect_identifier()
                    self._expect("(")
                    parameter_overrides.append((pname, self._parse_expression()))
                    self._expect(")")
                else:
                    parameter_overrides.append(("", self._parse_expression()))
                if not self._accept(","):
                    break
            self._expect(")")
        instance_name = self._expect_identifier()
        self._expect("(")
        connections: List[ast.PortConnection] = []
        position = 0
        while not self._check(")"):
            if self._accept("."):
                port = self._expect_identifier()
                self._expect("(")
                expr = None if self._check(")") else self._parse_expression()
                self._expect(")")
                connections.append(ast.PortConnection(port=port, expr=expr))
            else:
                expr = self._parse_expression()
                connections.append(ast.PortConnection(port=f"__pos{position}", expr=expr))
                position += 1
            if not self._accept(","):
                break
        self._expect(")")
        self._expect(";")
        return ast.Instantiation(
            module_name=module_name,
            instance_name=instance_name,
            connections=connections,
            parameter_overrides=parameter_overrides,
        )

    # -- statements -----------------------------------------------------------
    def _parse_statement(self) -> ast.Node:
        value = self.values[self.pos]
        if value == "begin":
            return self._parse_block()
        if value == "if":
            return self._parse_if()
        if value in ("case", "casez", "casex"):
            return self._parse_case()
        if value == "for":
            return self._parse_for()
        if value.startswith("$"):
            return self._parse_system_task()
        return self._parse_procedural_assignment()

    def _parse_block(self) -> ast.Block:
        self._expect("begin")
        # Optional block label ``begin : name``.
        if self._accept(":"):
            self._expect_identifier()
        statements: List[ast.Node] = []
        while not self._check("end"):
            if self.kinds[self.pos] is TokenType.EOF:
                raise self._error("Unterminated begin/end block")
            statements.append(self._parse_statement())
        self._expect("end")
        return ast.Block(statements=statements)

    def _parse_if(self) -> ast.If:
        self._expect("if")
        self._expect("(")
        condition = self._parse_expression()
        self._expect(")")
        then_branch = self._parse_statement()
        else_branch = None
        if self._accept("else"):
            else_branch = self._parse_statement()
        return ast.If(condition=condition, then_branch=then_branch, else_branch=else_branch)

    def _parse_case(self) -> ast.Case:
        variant = self._advance()
        self._expect("(")
        subject = self._parse_expression()
        self._expect(")")
        items: List[ast.CaseItem] = []
        while not self._check("endcase"):
            if self.kinds[self.pos] is TokenType.EOF:
                raise self._error("Unterminated case statement")
            if self._accept("default"):
                self._accept(":")
                items.append(ast.CaseItem(labels=[], body=self._parse_statement()))
                continue
            labels = [self._parse_expression()]
            while self._accept(","):
                labels.append(self._parse_expression())
            self._expect(":")
            items.append(ast.CaseItem(labels=labels, body=self._parse_statement()))
        self._expect("endcase")
        return ast.Case(subject=subject, items=items, variant=variant)

    def _parse_for(self) -> ast.ForLoop:
        self._expect("for")
        self._expect("(")
        init = self._parse_assignment_expression()
        self._expect(";")
        condition = self._parse_expression()
        self._expect(";")
        step = self._parse_assignment_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.ForLoop(init=init, condition=condition, step=step, body=body)

    def _parse_system_task(self) -> ast.SystemTaskCall:
        name = self._advance()
        args: List[ast.Node] = []
        if self._accept("("):
            while not self._check(")"):
                if self.kinds[self.pos] is TokenType.STRING:
                    args.append(ast.StringLiteral(value=self._advance()))
                else:
                    args.append(self._parse_expression())
                if not self._accept(","):
                    break
            self._expect(")")
        self._expect(";")
        return ast.SystemTaskCall(name=name, args=args)

    def _parse_assignment_expression(self) -> ast.Node:
        """An assignment without the trailing semicolon (for-loop init/step)."""
        target = self._parse_primary()
        self._expect("=")
        value = self._parse_expression()
        return ast.BlockingAssign(target=target, value=value)

    def _parse_procedural_assignment(self) -> ast.Node:
        target = self._parse_primary()
        if self._accept("<="):
            value = self._parse_expression()
            self._expect(";")
            return ast.NonBlockingAssign(target=target, value=value)
        if self._accept("="):
            value = self._parse_expression()
            self._expect(";")
            return ast.BlockingAssign(target=target, value=value)
        raise self._error("Expected '=' or '<=' in procedural assignment")

    # -- expressions ------------------------------------------------------------
    def _parse_expression(self) -> ast.Node:
        # The ternary level lives here rather than in a helper of its own:
        # each nested parenthesis costs one Python frame fewer, which keeps
        # the recursion limit further away.
        condition = self._parse_binary(1)
        if self._accept("?"):
            if_true = self._parse_expression()
            self._expect(":")
            if_false = self._parse_expression()
            return ast.Ternary(condition=condition, if_true=if_true, if_false=if_false)
        return condition

    def _parse_binary(self, min_precedence: int) -> ast.Node:
        left = self._parse_unary()
        values = self.values
        while True:
            op = values[self.pos]
            precedence = _BINARY_PRECEDENCE.get(op)
            if precedence is None or precedence < min_precedence:
                return left
            self.pos += 1
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(op=op, left=left, right=right)

    def _parse_unary(self) -> ast.Node:
        pos = self.pos
        op = self.values[pos]
        if op in _UNARY_OPERATORS and self.kinds[pos] is TokenType.OPERATOR:
            self.pos = pos + 1
            operand = self._parse_unary()
            return ast.UnaryOp(op=op, operand=operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Node:
        pos = self.pos
        kind = self.kinds[pos]
        value = self.values[pos]
        if kind is TokenType.IDENTIFIER:
            self.pos = pos + 1
            if value.startswith("$") or self.values[pos + 1] == "(":
                if self._accept("("):
                    args: List[ast.Node] = []
                    while not self._check(")"):
                        args.append(self._parse_expression())
                        if not self._accept(","):
                            break
                    self._expect(")")
                    return ast.FunctionCall(name=value, args=args)
                return ast.FunctionCall(name=value, args=[])
            return self._parse_select_suffix(ast.Identifier(name=value))
        if kind is TokenType.NUMBER:
            self.pos = pos + 1
            return ast.Number.parse(value)
        if kind is TokenType.STRING:
            self.pos = pos + 1
            return ast.StringLiteral(value=value)
        if value == "(":
            self.pos = pos + 1
            expr = self._parse_expression()
            self._expect(")")
            return self._parse_select_suffix(expr)
        if value == "{":
            return self._parse_concat_or_replicate()
        raise self._error(f"Unexpected token {value!r} in expression")

    def _parse_select_suffix(self, base: ast.Node) -> ast.Node:
        while self._accept("["):
            first = self._parse_expression()
            if self._accept(":"):
                second = self._parse_expression()
                self._expect("]")
                base = ast.PartSelect(base=base, msb=first, lsb=second)
            else:
                self._expect("]")
                base = ast.BitSelect(base=base, index=first)
        return base

    def _parse_concat_or_replicate(self) -> ast.Node:
        self._expect("{")
        first = self._parse_expression()
        if self._check("{"):
            # Replication: {count{value}}
            self._expect("{")
            value = self._parse_expression()
            while self._accept(","):
                value = ast.Concat(parts=[value, self._parse_expression()])
            self._expect("}")
            self._expect("}")
            return ast.Replicate(count=first, value=value)
        parts = [first]
        while self._accept(","):
            parts.append(self._parse_expression())
        self._expect("}")
        if len(parts) == 1:
            return parts[0]
        return ast.Concat(parts=parts)


def parse_source(source: str) -> ast.SourceFile:
    """Parse Verilog source text into a :class:`SourceFile`."""
    return Parser(tokenize(source)).parse()


def parse_module(source: str, name: Optional[str] = None) -> ast.Module:
    """Parse source text and return one module (the first, or by name)."""
    return parse_source(source).module(name)
