"""Helpers shared by the benchmark's workloads: paths, child processes,
the fixture detector, set-up probes, statistics and record checks."""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for one run (caches, artifacts, corpora), inside the checkout.
TMP_ROOT = ROOT / ".perfbench_tmp"
#: Where traced runs leave their JSONL span files.
TRACE_ROOT = ROOT / ".perfbench_traces"


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, failed child, bad output)."""


def ensure_program() -> None:
    """Put the program's sources on ``sys.path`` or fail without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    """Environment for child processes: program on the path, no failpoints."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAILPOINTS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def make_run_dir(workload: str, seed: int) -> Path:
    path = TMP_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only succeeds once no run is using it
    except OSError:
        pass


def write_json(path: Path, data: Any) -> Path:
    path.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
    return path


def run_worker(job: Dict[str, Any], job_path: Path, timeout: float = 170.0) -> Dict[str, Any]:
    """Run ``worker.py`` on a job file in a fresh interpreter; return its JSON."""
    write_json(job_path, job)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
        env=child_env(),
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- fixture detector -------------------------------------------------------


def training_config(seed: int):
    """The quick late-fusion training configuration of ``engine/bench.py``."""
    from repro.core.config import ClassifierConfig, NoodleConfig

    return NoodleConfig(
        classifier=ClassifierConfig(epochs=10, seed=seed),
        validation_fraction=0.2,
        seed=seed,
    )


def train_fixture(seed: int, artifact: Path):
    """Train the fixture detector for ``seed`` and save it; returns the model."""
    import numpy as np

    from repro.engine.artifacts import save_detector
    from repro.engine.training import train_detector
    from repro.features.pipeline import extract_modalities
    from repro.trojan import SuiteConfig, TrojanDataset

    from gen import stream_seed

    corpus = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=20, n_trojan_infected=10, seed=stream_seed(seed, "train"))
    )
    features = extract_modalities(corpus)
    train, _ = features.stratified_split(0.2, np.random.default_rng(seed))
    model = train_detector(train, strategy="late", config=training_config(seed)).model
    save_detector(model, artifact)
    return model


def recalibrated_artifact(model, seed: int, artifact: Path) -> None:
    """Recalibrate ``model`` on fresh designs and save it (new fingerprint)."""
    from repro.engine.artifacts import save_detector
    from repro.engine.training import recalibrate_detector
    from repro.features.pipeline import extract_modalities
    from repro.trojan import SuiteConfig, TrojanDataset

    from gen import stream_seed

    corpus = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=14, n_trojan_infected=7, seed=stream_seed(seed, "recalibrate"))
    )
    save_detector(recalibrate_detector(model, extract_modalities(corpus)), artifact)


def fingerprint(artifact: Path) -> str:
    return json.loads((artifact / "manifest.json").read_text())["fingerprint"]


# -- set-up probes ------------------------------------------------------------


def probe_scan_setup(artifact: Path, design: Tuple[str, str], work: Path) -> float:
    """Seconds from spawning a fresh interpreter to its first scan verdict."""
    work.mkdir(parents=True, exist_ok=True)
    design_path = write_json(work / "design.json", list(design))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "first_verdict.py"), str(artifact),
         str(design_path), str(work / "cache")],
        env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    verdict = json.loads(line) if line.strip() else {}
    if proc.returncode != 0 or verdict.get("sha256") is None or verdict.get("error"):
        raise BenchError(f"set-up probe failed: {err.strip()[-1000:]}")
    return elapsed


# -- statistics -----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def vm_hwm_mb(pid: int) -> Optional[float]:
    """A live process's peak RSS from ``/proc/<pid>/status`` (MiB)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if path.exists() else 0


# -- record checks ----------------------------------------------------------------


def canonical(record: Dict[str, Any]) -> str:
    """A record's JSON text with the cache-provenance flag normalised.

    ``cached`` says where a verdict came from, not what it is; everything
    else must match the uncached serial scan byte for byte.
    """
    return json.dumps(dict(record, cached=False), sort_keys=True)


def reference_records(artifact: Path, designs: List[Tuple[str, str]]) -> List[str]:
    """Canonical records of an uncached serial scan of ``designs``."""
    from repro.engine.scan import ScanEngine, ScanSource

    engine = ScanEngine.from_artifact(artifact)
    report = engine.scan_sources(
        [ScanSource(name=n, source=s) for n, s in designs], workers=1
    )
    return [canonical(r.to_dict()) for r in report.records]


def check_sample(
    artifact: Path, designs: List[Tuple[str, str]], got: List[str]
) -> int:
    """Number of sampled records that differ from the serial reference."""
    want = reference_records(artifact, designs)
    return sum(1 for a, b in zip(want, got) if a != b) + abs(len(want) - len(got))
