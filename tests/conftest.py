"""Shared fixtures for the test suite.

The expensive artefacts (benchmark suite generation, feature extraction) are
session-scoped so the many tests that need "some realistic designs" or "some
extracted features" share one copy instead of regenerating them.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.features import extract_modalities
from repro.trojan import SuiteConfig, TrojanDataset


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def pool_constructions(monkeypatch) -> list:
    """Record every ``multiprocessing.Pool`` constructed during the test.

    The wrapper delegates to the real ``Pool``, so code under test behaves
    as usual; the returned list gains one ``(args, kwargs)`` entry per
    construction.
    """
    real_pool = multiprocessing.Pool
    constructed: list = []

    def counting_pool(*args, **kwargs):
        constructed.append((args, kwargs))
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    return constructed


@pytest.fixture(scope="session")
def small_suite_config() -> SuiteConfig:
    """A small but class-complete benchmark configuration."""
    return SuiteConfig(
        n_trojan_free=14,
        n_trojan_infected=8,
        instrumentation_probability=0.5,
        seed=11,
    )


@pytest.fixture(scope="session")
def small_dataset(small_suite_config) -> TrojanDataset:
    """A generated Trojan benchmark dataset shared across tests."""
    return TrojanDataset.generate(small_suite_config)


@pytest.fixture(scope="session")
def small_features(small_dataset):
    """Both modalities extracted for the shared dataset."""
    return extract_modalities(small_dataset)


@pytest.fixture(scope="session")
def sample_verilog() -> str:
    """A hand-written Verilog module exercising most supported constructs."""
    return """
// A small control unit used as a parser/feature fixture.
module ctrl_unit (clk, rst, start, mode, data_in, done, result);
  input clk;
  input rst;
  input start;
  input [1:0] mode;
  input [7:0] data_in;
  output done;
  output reg [7:0] result;

  parameter IDLE = 0;
  localparam RUN = 1;
  reg [1:0] state;
  reg [3:0] count;
  wire timeout;

  assign timeout = count == 4'hF;
  assign done = (state == IDLE) && !start;

  always @(*)
    begin
      case (mode)
        2'b00: result = data_in;
        2'b01: result = data_in << 1;
        2'b10: result = ~data_in;
        default: result = 8'd0;
      endcase
    end

  always @(posedge clk or posedge rst)
    begin
      if (rst)
        begin
          state <= IDLE;
          count <= 4'd0;
        end
      else
        begin
          if (state == IDLE)
            begin
              if (start)
                state <= RUN;
            end
          else
            begin
              count <= count + 4'd1;
              if (timeout)
                state <= IDLE;
            end
        end
    end
endmodule
"""


def _wide_design(name: str, n_wires: int, n_regs: int, rng: np.random.Generator) -> str:
    """A wide design in the shape of the benchmark's ``scan_large`` ladder.

    Eight 8-bit inputs; ``n_wires`` wires each combine two or three earlier
    signals, mostly recent ones; ``n_regs`` registers sample earlier wires
    under reset and enable; the output XORs the last register and wire.
    The dataflow graph has ``n_wires + n_regs + 12`` nodes.
    """
    inputs = [f"a{i}" for i in range(8)]
    lines = [f"module {name} (clk, rst, en, {', '.join(inputs)}, y);"]
    lines += ["  input clk;", "  input rst;", "  input en;"]
    lines += [f"  input [7:0] {a};" for a in inputs]
    lines.append("  output [7:0] y;")
    signals = list(inputs)
    body = []
    for i in range(n_wires):
        picks = []
        for _ in range(2 if rng.random() < 0.6 else 3):
            low = max(0, len(signals) - 24) if rng.random() < 0.8 else 0
            picks.append(signals[int(rng.integers(low, len(signals)))])
        expr = picks[0]
        for operand in picks[1:]:
            expr = f"({expr} {'^&|+'[int(rng.integers(0, 4))]} {operand})"
        lines.append(f"  wire [7:0] w{i};")
        body.append(f"  assign w{i} = {expr};")
        signals.append(f"w{i}")
    regs = [f"r{i}" for i in range(n_regs)]
    lines += [f"  reg [7:0] {r};" for r in regs]
    body += ["  always @(posedge clk)", "    begin"]
    for r in regs:
        src = signals[int(rng.integers(len(inputs), len(signals)))]
        body.append(f"      if (rst) {r} <= 8'd0; else if (en) {r} <= {src};")
    body += ["    end", f"  assign y = {regs[-1]} ^ {signals[-1]};"]
    return "\n".join(lines + body + ["endmodule", ""])


@pytest.fixture(scope="session")
def wide_designs():
    """``(name, source)`` of two wide designs, ~300 and ~800 dataflow nodes."""
    rng = np.random.default_rng(5)
    return [
        (f"wide_{n}", _wide_design(f"wide_{n}", n - n // 20 - 12, n // 20, rng))
        for n in (300, 800)
    ]


@pytest.fixture(scope="session")
def binary_classification_data():
    """A simple separable binary dataset for classifier tests."""
    generator = np.random.default_rng(7)
    n = 300
    x = generator.normal(size=(n, 6))
    weights = generator.normal(size=6)
    logits = x @ weights + 0.4 * generator.normal(size=n)
    y = (logits > 0).astype(int)
    return x, y
