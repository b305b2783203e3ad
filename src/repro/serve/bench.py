"""Deterministic corpus of small IP blocks, one design per scan request.

The repository benchmark's ``serve_open_loop`` workload
(``perfbench/gen.py``) and the serve smoke tools under ``tools/`` draw
their request bodies from :func:`build_request_corpus`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


def _combinational_block(name: str, width: int, mask: int) -> str:
    """A small combinational block (masked AND)."""
    return f"""module {name} (a, b, y);
  input [{width - 1}:0] a;
  input [{width - 1}:0] b;
  output [{width - 1}:0] y;
  assign y = (a & b) ^ {width}'d{mask};
endmodule
"""


def _registered_block(name: str, width: int, mask: int) -> str:
    """A small registered block (enable + reset register)."""
    return f"""module {name} (clk, rst, en, d, q);
  input clk;
  input rst;
  input en;
  input [{width - 1}:0] d;
  output reg [{width - 1}:0] q;
  wire [{width - 1}:0] m;
  assign m = d ^ {width}'d{mask};
  always @(posedge clk)
    begin
      if (rst)
        q <= {width}'d0;
      else
        begin
          if (en)
            q <= m;
        end
    end
endmodule
"""


def build_request_corpus(
    n_designs: int, seed: int = 0
) -> List[Tuple[str, str]]:
    """Deterministic corpus of small, unique designs (one per request).

    The modules are the shape of high-rate serving traffic — small IP
    blocks submitted one per request, a mix of combinational and
    registered logic — and every module body embeds the seed and index,
    so two corpora with different seeds never collide in the
    content-addressed cache.
    """
    rng = np.random.default_rng(seed)
    corpus: List[Tuple[str, str]] = []
    for i in range(n_designs):
        width = int(rng.integers(2, 6))
        mask = int(rng.integers(1, 2**width))
        name = f"blk_{seed}_{i}"
        template = _registered_block if i % 3 == 0 else _combinational_block
        corpus.append((name, template(name, width, mask)))
    return corpus
