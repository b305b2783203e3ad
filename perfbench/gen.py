"""Seeded, deterministic input generators for the benchmark.

Every generator takes the run seed and returns plain data (names, Verilog
text, schedules).  The same seed gives byte-identical inputs.  Each design
carries a comment naming its workload, seed and index, so content never
repeats across runs or workloads; a comment changes the design's hash
without changing its features.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

# Stream identifiers: one independent random stream per generator.
_STREAMS = {
    "train": 1,
    "scan_cold": 2,
    "scan_large": 3,
    "serve_open_loop": 4,
    "setup": 5,
    "recalibrate": 6,
}


def stream_seed(seed: int, stream: str, *extra: int) -> int:
    """A 31-bit seed for one named stream of one run."""
    entropy = [int(seed), _STREAMS[stream], *[int(e) for e in extra]]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0] & 0x7FFFFFFF)


def _tag(source: str, workload: str, seed: int, index: int) -> str:
    return f"// perfbench {workload} seed={seed} index={index}\n{source}"


def suite_designs(
    seed: int, n_designs: int, workload: str, stream: str = ""
) -> List[Tuple[str, str]]:
    """``n_designs`` TrojanDataset suite designs, 2:1 clean to infected."""
    from repro.trojan import SuiteConfig, TrojanDataset

    n_free = max(1, (2 * n_designs) // 3)
    suite = TrojanDataset.generate(
        SuiteConfig(
            n_trojan_free=n_free,
            n_trojan_infected=max(1, n_designs - n_free),
            seed=stream_seed(seed, stream or workload),
        )
    )
    return [
        (f"{workload}_{i}_{b.name}", _tag(b.source, workload, seed, i))
        for i, b in enumerate(suite.benchmarks)
    ]


def wide_design(name: str, n_wires: int, n_regs: int, rng: np.random.Generator) -> Tuple[str, Dict[str, int]]:
    """One wide combinational/registered design and its construction counts.

    ``n_wires`` internal wires each combine two or three earlier signals;
    ``n_regs`` registers sample earlier wires under an enable.  Returns the
    Verilog text and ``{"nodes", "edges"}``: the signals declared and the
    distinct source->target operand pairs written, which is what the
    dataflow graph is built from.
    """
    n_inputs = 8
    inputs = [f"a{i}" for i in range(n_inputs)]
    lines = [f"module {name} (clk, rst, en, {', '.join(inputs)}, y);"]
    lines += ["  input clk;", "  input rst;", "  input en;"]
    lines += [f"  input [7:0] {a};" for a in inputs]
    lines.append("  output [7:0] y;")
    signals = list(inputs)
    edges = set()
    body: List[str] = []
    ops = ("^", "&", "|", "+")
    for i in range(n_wires):
        target = f"w{i}"
        k = 2 if rng.random() < 0.6 else 3
        # Mostly recent signals (local structure) plus a few far reaches.
        picks = []
        for _ in range(k):
            if rng.random() < 0.8:
                lo = max(0, len(signals) - 24)
                picks.append(signals[int(rng.integers(lo, len(signals)))])
            else:
                picks.append(signals[int(rng.integers(0, len(signals)))])
        expr = picks[0]
        for operand in picks[1:]:
            expr = f"({expr} {ops[int(rng.integers(0, len(ops)))]} {operand})"
        lines.append(f"  wire [7:0] {target};")
        body.append(f"  assign {target} = {expr};")
        edges.update((p, target) for p in picks)
        signals.append(target)
    regs = [f"r{i}" for i in range(n_regs)]
    lines += [f"  reg [7:0] {r};" for r in regs]
    body.append("  always @(posedge clk)")
    body.append("    begin")
    for r in regs:
        src = signals[int(rng.integers(n_inputs, len(signals)))]
        body.append(f"      if (rst) {r} <= 8'd0; else if (en) {r} <= {src};")
        edges.update({(src, r), ("rst", r), ("en", r), ("clk", r)})
    body.append("    end")
    out = regs[-1] if regs else signals[-1]
    body.append(f"  assign y = {out} ^ {signals[-1]};")
    edges.update({(out, "y"), (signals[-1], "y")})
    text = "\n".join(lines + body + ["endmodule", ""])
    n_nodes = len(signals) + len(regs) + 4  # + clk, rst, en, y
    return text, {"nodes": n_nodes, "edges": len(edges)}


def wide_designs(
    seed: int, n_designs: int = 8, min_nodes: int = 300, max_nodes: int = 1200
) -> List[Tuple[str, str, Dict[str, int]]]:
    """The ``scan_large`` family: sizes on a fixed log-spaced ladder.

    The sizes are the same for every seed, so every run does comparable
    work; the seed only changes the wiring.
    """
    rng = np.random.default_rng(stream_seed(seed, "scan_large"))
    sizes = np.geomspace(min_nodes, max_nodes, n_designs).round().astype(int)
    designs = []
    for i, size in enumerate(sizes):
        n_regs = max(4, int(size) // 20)
        n_wires = max(8, int(size) - n_regs - 12)
        name = f"wide_{i}"
        text, counts = wide_design(name, n_wires, n_regs, rng)
        designs.append((f"scan_large_{i}_{name}", _tag(text, "scan_large", seed, i), counts))
    return designs


def serve_schedule(
    seed: int,
    rate: float,
    n_requests: int,
    rung: int = 0,
    repeat_share: float = 0.2,
    suite_share: float = 0.1,
) -> Dict[str, object]:
    """An open-loop arrival schedule with its request bodies.

    Inter-arrival gaps are exponential at ``rate`` requests/s; each body
    carries 1-8 designs, single-design bodies likeliest.  About
    ``repeat_share`` of design slots repeat content sent earlier in the
    same schedule; the rest are fresh small IP blocks and, for about
    ``suite_share`` of them, suite designs.  ``rung`` separates the
    schedules of one run, so no two carry the same fresh content.
    """
    from repro.serve.bench import build_request_corpus

    rng = np.random.default_rng(stream_seed(seed, "serve_open_loop", rung))
    gaps = rng.exponential(1.0 / rate, size=n_requests)
    due = np.cumsum(gaps) - gaps[0]
    # Mean ~2.2 designs per body: a 1,000-request run scans ~1,800 fresh
    # designs, fewer than the ~2,048 after which the server's feature
    # store compacts every shard prefix at once (16 flushes of 128).
    size_weights = np.array([20, 8, 4, 2, 2, 1, 1, 1], dtype=float)
    sizes = rng.choice(np.arange(1, 9), size=n_requests, p=size_weights / size_weights.sum())
    n_slots = int(sizes.sum())
    blocks = build_request_corpus(n_slots, seed=stream_seed(seed, "serve_open_loop", rung, 1))
    suite = suite_designs(seed, int(n_slots * suite_share * 1.5) + 3, "serve_open_loop")
    sent: List[Tuple[str, str]] = []
    bodies: List[List[Tuple[str, str]]] = []
    n_suite = 0
    for size in sizes:
        body: List[Tuple[str, str]] = []
        for _ in range(int(size)):
            if sent and rng.random() < repeat_share:
                body.append(sent[int(rng.integers(0, len(sent)))])
                continue
            if rng.random() < suite_share and n_suite < len(suite):
                name, text = suite[n_suite]
                n_suite += 1
            else:
                name, text = blocks[len(sent)]
            design = (f"r{rung}_{name}", _tag(text, f"serve_open_loop rung={rung}", seed, len(sent)))
            sent.append(design)
            body.append(design)
        bodies.append(body)
    return {"due": due.tolist(), "bodies": bodies}
