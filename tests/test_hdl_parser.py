"""Unit tests for the Verilog parser and AST construction."""

from __future__ import annotations

import pytest

from repro.hdl import ParseError, ast, parse_module, parse_source
from repro.hdl.visitor import collect


class TestModuleStructure:
    def test_module_name_and_ports(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        assert module.name == "ctrl_unit"
        assert module.ports == ["clk", "rst", "start", "mode", "data_in", "done", "result"]

    def test_port_declarations(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        directions = {}
        for decl in module.port_declarations():
            for name in decl.names:
                directions[name] = decl.direction
        assert directions["clk"] == "input"
        assert directions["result"] == "output"
        assert directions["data_in"] == "input"

    def test_output_reg_flag(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        result_decl = next(d for d in module.port_declarations() if "result" in d.names)
        assert result_decl.is_reg

    def test_port_widths(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        widths = {name: d.width() for d in module.port_declarations() for name in d.names}
        assert widths["data_in"] == 8
        assert widths["mode"] == 2
        assert widths["clk"] == 1

    def test_net_declarations(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        nets = {name: d for d in module.net_declarations() for name in d.names}
        assert nets["state"].net_type == "reg"
        assert nets["timeout"].net_type == "wire"
        assert nets["count"].width() == 4

    def test_parameters(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        params = {p.name: p for p in module.parameters()}
        assert set(params) == {"IDLE", "RUN"}
        assert params["RUN"].local is True
        assert params["IDLE"].local is False

    def test_always_blocks(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        always = module.always_blocks()
        assert len(always) == 2
        assert sum(1 for a in always if a.is_sequential) == 1
        assert sum(1 for a in always if a.is_star) == 1

    def test_continuous_assigns(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        targets = [a.target.name for a in module.continuous_assigns()]
        assert targets == ["timeout", "done"]

    def test_multiple_modules_in_source(self) -> None:
        source = "module a (); endmodule\nmodule b (); endmodule\n"
        parsed = parse_source(source)
        assert [m.name for m in parsed.modules] == ["a", "b"]
        assert parsed.module("b").name == "b"
        with pytest.raises(KeyError):
            parsed.module("c")

    def test_ansi_style_header(self) -> None:
        module = parse_module(
            "module ansi (input wire clk, input [3:0] data, output reg [3:0] q);\n"
            "  always @(posedge clk) q <= data;\nendmodule\n"
        )
        assert module.ports == ["clk", "data", "q"]
        q_decl = next(d for d in module.port_declarations() if "q" in d.names)
        assert q_decl.is_reg and q_decl.width() == 4

    def test_parameterised_header(self) -> None:
        module = parse_module(
            "module p #(parameter WIDTH = 8) (input [WIDTH-1:0] d, output [WIDTH-1:0] q);\n"
            "  assign q = d;\nendmodule\n"
        )
        assert [p.name for p in module.parameters()] == ["WIDTH"]

    def test_instantiation(self) -> None:
        module = parse_module(
            "module top (input clk, output y);\n"
            "  wire w;\n"
            "  sub #(.W(4)) u_sub (.clk(clk), .out(w));\n"
            "  assign y = w;\nendmodule\n"
        )
        inst = module.instantiations()[0]
        assert inst.module_name == "sub"
        assert inst.instance_name == "u_sub"
        assert [c.port for c in inst.connections] == ["clk", "out"]
        assert inst.parameter_overrides[0][0] == "W"


class TestStatements:
    def test_case_statement(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        cases = collect(module, ast.Case)
        assert len(cases) == 1
        assert len(cases[0].items) == 4
        assert cases[0].items[-1].is_default

    def test_if_else_nesting(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        ifs = collect(module, ast.If)
        assert len(ifs) >= 3

    def test_nonblocking_vs_blocking(self, sample_verilog) -> None:
        module = parse_module(sample_verilog)
        assert len(collect(module, ast.NonBlockingAssign)) >= 4
        # The always @(*) block uses blocking assignments.
        assert len(collect(module, ast.BlockingAssign)) == 4

    def test_for_loop(self) -> None:
        module = parse_module(
            "module loops (input clk, output reg [7:0] q);\n"
            "  integer i;\n"
            "  always @(posedge clk)\n"
            "    begin\n"
            "      for (i = 0; i < 8; i = i + 1)\n"
            "        q[i] <= 1'b0;\n"
            "    end\nendmodule\n"
        )
        loops = collect(module, ast.ForLoop)
        assert len(loops) == 1
        assert isinstance(loops[0].init, ast.BlockingAssign)

    def test_system_task(self) -> None:
        module = parse_module(
            'module t (input clk);\n  initial\n    $display("hello", 42);\nendmodule\n'
        )
        tasks = collect(module, ast.SystemTaskCall)
        assert tasks[0].name == "$display"
        assert len(tasks[0].args) == 2

    def test_sensitivity_list_edges(self) -> None:
        module = parse_module(
            "module s (input clk, input rst_n, output reg q);\n"
            "  always @(posedge clk or negedge rst_n)\n"
            "    if (!rst_n) q <= 1'b0; else q <= 1'b1;\nendmodule\n"
        )
        always = module.always_blocks()[0]
        assert [item.edge for item in always.sensitivity] == ["posedge", "negedge"]


class TestExpressions:
    @staticmethod
    def _rhs(expr_text: str) -> ast.Node:
        module = parse_module(
            f"module e (input [7:0] a, input [7:0] b, input c, output [7:0] y);\n"
            f"  assign y = {expr_text};\nendmodule\n"
        )
        return module.continuous_assigns()[0].value

    def test_precedence_mul_over_add(self) -> None:
        expr = self._rhs("a + b * a")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, ast.BinaryOp) and expr.right.op == "*"

    def test_precedence_comparison_over_logical(self) -> None:
        expr = self._rhs("a == b && c")
        assert expr.op == "&&"
        assert isinstance(expr.left, ast.BinaryOp) and expr.left.op == "=="

    def test_ternary(self) -> None:
        expr = self._rhs("c ? a : b")
        assert isinstance(expr, ast.Ternary)

    def test_nested_ternary(self) -> None:
        expr = self._rhs("c ? a : c ? b : a")
        assert isinstance(expr, ast.Ternary)
        assert isinstance(expr.if_false, ast.Ternary)

    def test_concat_and_replicate(self) -> None:
        concat = self._rhs("{a[3:0], b[3:0]}")
        assert isinstance(concat, ast.Concat) and len(concat.parts) == 2
        replicate = self._rhs("{4{c}}")
        assert isinstance(replicate, ast.Replicate)

    def test_bit_and_part_select(self) -> None:
        bit = self._rhs("a[3]")
        assert isinstance(bit, ast.BitSelect)
        part = self._rhs("a[7:4]")
        assert isinstance(part, ast.PartSelect)

    def test_unary_reduction(self) -> None:
        expr = self._rhs("&a ^ |b")
        assert isinstance(expr, ast.BinaryOp) and expr.op == "^"
        assert isinstance(expr.left, ast.UnaryOp) and expr.left.op == "&"

    def test_number_parsing(self) -> None:
        number = ast.Number.parse("8'hff")
        assert number.value == 255 and number.width == 8
        assert ast.Number.parse("4'b1010").value == 10
        assert ast.Number.parse("42").value == 42
        assert ast.Number.parse("8'hxz").value is None

    def test_width_of_range(self) -> None:
        module = parse_module(
            "module w (input [15:8] hi, output y);\n  assign y = hi[8];\nendmodule\n"
        )
        decl = module.port_declarations()[0]
        assert decl.width() == 8


class TestParseErrors:
    def test_missing_semicolon(self) -> None:
        with pytest.raises(ParseError):
            parse_module("module m (input a)\nendmodule\n")

    def test_unterminated_module(self) -> None:
        with pytest.raises(ParseError, match="Unterminated module"):
            parse_module("module m (input a);\n  wire w;\n")

    def test_garbage_at_top_level(self) -> None:
        with pytest.raises(ParseError, match="top level"):
            parse_source("wire w;\n")

    def test_bad_expression(self) -> None:
        with pytest.raises(ParseError):
            parse_module("module m (output y);\n  assign y = + ;\nendmodule\n")

    def test_unterminated_case(self) -> None:
        with pytest.raises(ParseError):
            parse_module(
                "module m (input [1:0] s, output reg y);\n"
                "  always @(*)\n    case (s)\n      2'd0: y = 1'b0;\nendmodule\n"
            )

    def test_error_carries_position(self) -> None:
        with pytest.raises(ParseError) as excinfo:
            parse_module("module m (input a);\n  assign = 1;\nendmodule\n")
        assert excinfo.value.line == 2


class TestNestingDepth:
    """Deeply nested but realistic inputs parse within the default recursion limit."""

    def test_nested_parentheses(self) -> None:
        module = parse_module(
            "module m (input a, output y);\n"
            f"  assign y = {'(' * 150}a{')' * 150};\nendmodule\n"
        )
        assert module.continuous_assigns()[0].value == ast.Identifier(name="a")

    def test_unary_chain(self) -> None:
        module = parse_module(
            f"module m (input a, output y);\n  assign y = {'~' * 800}a;\nendmodule\n"
        )
        assert len(collect(module, ast.UnaryOp)) == 800

    def test_else_if_chain(self) -> None:
        chain = "".join(f"if (s == {i}) y = {i}; else " for i in range(400))
        module = parse_module(
            "module m (input [9:0] s, output reg [9:0] y);\n"
            f"  always @(*) {chain}y = 0;\nendmodule\n"
        )
        assert len(collect(module, ast.If)) == 400
