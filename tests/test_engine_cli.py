"""In-process smoke tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.engine.cli import build_scan_batch, main


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """A tiny detector trained through the real ``train`` subcommand."""
    path = tmp_path_factory.mktemp("cli") / "artifact"
    code = main(
        [
            "train",
            "--artifact", str(path),
            "--strategy", "late",
            "--epochs", "3",
            "--trojan-free", "10",
            "--trojan-infected", "5",
        ]
    )
    assert code == 0
    return path


class TestCliWorkflow:
    def test_train_wrote_artifact(self, artifact):
        assert (artifact / "manifest.json").is_file()
        assert (artifact / "arrays.npz").is_file()

    @pytest.mark.parametrize("n_designs", [1, 5])
    def test_scan_generate_and_report(self, artifact, tmp_path, capsys, n_designs):
        results = tmp_path / "results.json"
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", str(n_designs),
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(results),
            ]
        )
        assert code == 0
        data = json.loads(results.read_text())
        assert data["n_designs"] == n_designs
        assert len(data["records"]) == n_designs

        code = main(["report", "--input", str(results)])
        assert code == 0
        output = capsys.readouterr().out
        assert f"generated a demo batch of {n_designs} designs" in output
        assert f"designs scanned : {n_designs}" in output

    def test_scan_files_uses_cache(self, artifact, tmp_path, capsys):
        for source in build_scan_batch(3, seed=77):
            (tmp_path / f"{source.name}.v").write_text(source.source)
        args = [
            "scan",
            str(tmp_path),
            "--artifact", str(artifact),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "3 cache hits" in capsys.readouterr().out

    def test_scan_without_inputs_errors(self, artifact, tmp_path):
        code = main(
            ["scan", "--artifact", str(artifact), "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 2

    def test_scan_negative_generate_is_usage_error(self, artifact, tmp_path, capsys):
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "-1",
                "--cache-dir", str(tmp_path / "c"),
            ]
        )
        assert code == 2
        assert "--generate must be non-negative" in capsys.readouterr().err

    def test_calibrate_resaves_artifact(self, artifact, capsys):
        code = main(
            [
                "calibrate",
                "--artifact", str(artifact),
                "--trojan-free", "8",
                "--trojan-infected", "4",
                "--suite-seed", "9",
            ]
        )
        assert code == 0
        assert "recalibrated" in capsys.readouterr().out

    def test_noodle_training_records_report(self, tmp_path):
        path = tmp_path / "noodle"
        code = main(
            [
                "train",
                "--artifact", str(path),
                "--strategy", "noodle",
                "--epochs", "3",
                "--trojan-free", "10",
                "--trojan-infected", "5",
            ]
        )
        assert code == 0
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["noodle_report"]["winner"] in ("early_fusion", "late_fusion")

    def test_calibrate_preserves_noodle_report(self, tmp_path):
        path = tmp_path / "noodle2"
        assert main(
            [
                "train",
                "--artifact", str(path),
                "--strategy", "noodle",
                "--epochs", "3",
                "--trojan-free", "10",
                "--trojan-infected", "5",
            ]
        ) == 0
        before = json.loads((path / "manifest.json").read_text())["noodle_report"]
        assert main(
            [
                "calibrate",
                "--artifact", str(path),
                "--trojan-free", "8",
                "--trojan-infected", "4",
                "--suite-seed", "13",
            ]
        ) == 0
        after = json.loads((path / "manifest.json").read_text())["noodle_report"]
        assert after == before


class TestExitCodes:
    """Failures must exit non-zero with an ``error:`` line, not a traceback."""

    def test_scan_empty_directory_fails(self, artifact, tmp_path, capsys):
        empty = tmp_path / "empty_inbox"
        empty.mkdir()
        code = main(["scan", str(empty), "--artifact", str(artifact), "--no-cache"])
        assert code == 1
        assert "no scannable sources" in capsys.readouterr().err

    def test_scan_all_unparseable_sources_fails(self, artifact, tmp_path, capsys):
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        for i in range(3):
            (inbox / f"bad_{i}.v").write_text("module broken (x; endmodule")
        code = main(["scan", str(inbox), "--artifact", str(artifact), "--no-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert "all 3 designs failed" in err

    def test_scan_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["scan", "--artifact", str(tmp_path / "nope"), "--generate", "2", "--no-cache"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_report_missing_input_fails_cleanly(self, capsys):
        code = main(["report", "--input", "/definitely/not/here.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_report_corrupt_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["report", "--input", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_resume_without_cache_is_usage_error(self, artifact, capsys):
        code = main(
            ["scan", "--artifact", str(artifact), "--generate", "2", "--resume", "--no-cache"]
        )
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheduler_flags", [["--resume"], ["--jobs", "2"]], ids=["resume", "jobs"]
    )
    def test_workers_with_scheduler_is_usage_error(
        self, artifact, tmp_path, capsys, scheduler_flags
    ):
        # The scheduler's parallelism is --jobs; --workers sets only the
        # single-process engine's extraction pool.
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--workers", "2",
                *scheduler_flags,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "--jobs" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--jobs", "0"), ("--jobs", "-2"), ("--workers", "0"), ("--workers", "-3")],
    )
    def test_parallelism_below_one_is_usage_error(self, tmp_path, capsys, flag, value):
        # A missing artifact shows the check runs before the artifact
        # loads: without it the scan would fail with exit 1 instead.
        code = main(
            [
                "scan",
                "--artifact", str(tmp_path / "nope"),
                "--generate", "2",
                "--no-cache",
                flag, value,
            ]
        )
        assert code == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err


class TestParallelScanCli:
    def test_jobs_2_matches_single_process_scan(self, artifact, tmp_path, capsys):
        serial_out = tmp_path / "serial.json"
        parallel_out = tmp_path / "parallel.json"
        common = ["scan", "--artifact", str(artifact), "--generate", "6", "--no-cache"]
        assert main(common + ["--output", str(serial_out)]) == 0
        assert main(
            common + ["--jobs", "2", "--shard-size", "2", "--output", str(parallel_out)]
        ) == 0
        serial = json.loads(serial_out.read_text())
        parallel = json.loads(parallel_out.read_text())
        assert parallel["records"] == serial["records"]

    def test_resume_reuses_cached_shards(self, artifact, tmp_path, capsys):
        args = [
            "scan",
            "--artifact", str(artifact),
            "--generate", "5",
            "--cache-dir", str(tmp_path / "cache"),
            "--jobs", "2",
            "--shard-size", "2",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--resume"]) == 0
        assert "5 cache hits" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out


class TestServeCli:
    @pytest.mark.parametrize("window", ["-1", "nan", "inf"])
    def test_bad_batch_window_is_usage_error(self, tmp_path, capsys, window):
        # The flag is checked before any artifact loads, so a missing
        # artifact keeps a lost check a quick exit 1, not a live service.
        code = main(
            [
                "serve",
                "--artifact", str(tmp_path / "missing"),
                "--batch-window-ms", window,
            ]
        )
        assert code == 2
        assert "--batch-window-ms" in capsys.readouterr().err

    def test_bad_max_batch_is_usage_error(self, artifact, capsys):
        code = main(["serve", "--artifact", str(artifact), "--max-batch", "0"])
        assert code == 2
        assert "--max-batch" in capsys.readouterr().err

    def test_bad_max_queue_depth_is_usage_error(self, artifact, capsys):
        code = main(
            ["serve", "--artifact", str(artifact), "--max-queue-depth", "-1"]
        )
        assert code == 2
        assert "--max-queue-depth" in capsys.readouterr().err

    def test_batch_window_defaults_agree_on_dispatch_on_idle(self):
        import inspect

        from repro.engine.cli import build_parser
        from repro.serve.batching import MicroBatcher
        from repro.serve.server import ScanService

        def default(cls):
            return inspect.signature(cls).parameters["batch_window_s"].default

        parsed = build_parser().parse_args(["serve", "--artifact", "unused"])
        assert default(MicroBatcher) == 0
        assert default(ScanService) == 0
        assert parsed.batch_window_ms == 0

    def test_banner_reaches_a_pipe_without_pythonunbuffered(self, artifact):
        # With --port 0 the banner is the only way to learn the port, so
        # it must leave the process while the service runs, not at exit:
        # on a pipe, stdout is block buffered unless PYTHONUNBUFFERED is set.
        import os
        import select
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        from repro.serve.client import ScanServiceClient

        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--artifact", str(artifact),
                "--port", "0",
                "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        try:
            banner = b""
            deadline = time.monotonic() + 60.0
            while b"endpoints:" not in banner:
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"no banner on the pipe: {banner!r}"
                ready, _, _ = select.select([server.stdout], [], [], remaining)
                if ready:
                    chunk = os.read(server.stdout.fileno(), 4096)
                    assert chunk, f"serve exited before its banner: {banner!r}"
                    banner += chunk
            line = next(
                line for line in banner.decode().splitlines() if "http://" in line
            )
            port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
            with ScanServiceClient(port=port, timeout=30.0) as client:
                assert client.healthz()["status"] == "ok"
            server.send_signal(signal.SIGTERM)
            output, _ = server.communicate(timeout=60.0)
            assert server.returncode == 0, output
            assert b"shutdown clean" in output
        finally:
            if server.poll() is None:
                server.kill()
                server.communicate(timeout=10)

    def test_missing_artifact_is_runtime_failure(self, tmp_path, capsys):
        code = main(
            ["serve", "--artifact", str(tmp_path / "missing"), "--no-cache"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_serve_runs_scans_and_drains_on_sigterm(self, artifact, tmp_path):
        # Signal-driven drain needs a real process: signal handlers only
        # install in a main thread, so the CLI is exercised end-to-end
        # via subprocess (the in-process serving paths are covered by
        # tests/test_serve_http.py).
        import os
        import signal
        import socket as socket_module
        import subprocess
        import sys
        import time
        from pathlib import Path

        from repro.serve.client import ScanServiceClient

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--artifact", str(artifact),
                "--port", str(port),
                "--cache-dir", str(tmp_path / "cache"),
                "--batch-window-ms", "5",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            client = ScanServiceClient(port=port, timeout=30.0)
            client.wait_until_ready(timeout=60.0)
            response = client.scan_texts([("m", "module m (a); input a; endmodule")])
            assert response["n_designs"] == 1
            client.close()
            server.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 60.0
            while server.poll() is None and time.monotonic() < deadline:
                time.sleep(0.1)
            assert server.poll() is not None, "serve did not exit after SIGTERM"
            output = server.stdout.read() if server.stdout else ""
            assert server.returncode == 0, output
            assert "shutdown clean" in output
            assert "served 1 scan requests" in output
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10)


class TestFeatureCacheCli:
    def test_recalibrated_rescan_hits_the_feature_tier(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["scan", "--artifact", str(artifact), "--generate", "4", "--cache-dir", cache]
        assert main(args) == 0
        capsys.readouterr()
        # Recalibration rewrites the artifact under a new fingerprint: the
        # result tier goes cold, the feature tier must carry the rescan.
        assert main(
            [
                "calibrate",
                "--artifact", str(artifact),
                "--trojan-free", "8",
                "--trojan-infected", "4",
            ]
        ) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "4 feature hits" in capsys.readouterr().out

    def test_no_feature_cache_disables_the_tier(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [
            "scan",
            "--artifact", str(artifact),
            "--generate", "3",
            "--cache-dir", cache,
            "--no-feature-cache",
        ]
        assert main(args) == 0
        assert not (tmp_path / "cache" / "features").exists()

    def test_feature_cache_survives_no_cache(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = [
            "scan",
            "--artifact", str(artifact),
            "--generate", "3",
            "--cache-dir", cache,
            "--no-cache",
            "--feature-cache",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert (tmp_path / "cache" / "features").is_dir()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out and "3 feature hits" in out

    def test_parallel_scan_shares_the_feature_store(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = [
            "scan",
            "--artifact", str(artifact),
            "--generate", "6",
            "--jobs", "2",
            "--shard-size", "2",
            "--cache-dir", cache,
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(
            [
                "calibrate",
                "--artifact", str(artifact),
                "--trojan-free", "9",
                "--trojan-infected", "4",
            ]
        ) == 0
        capsys.readouterr()
        assert main(base) == 0
        assert "6 feature hits" in capsys.readouterr().out


class TestScanTrace:
    """``scan --trace FILE``: the JSONL spans reconstruct the pipeline tree."""

    @staticmethod
    def _load_spans(path):
        return [json.loads(line) for line in path.read_text().splitlines()]

    @staticmethod
    def _assert_is_one_tree(spans):
        """Every span shares the trace id and parents onto a known span."""
        assert all(span["trace_id"] == "scan" for span in spans)
        ids = {span["span_id"] for span in spans}
        assert len(ids) == len(spans)  # unique, even across worker processes
        roots = [span for span in spans if span["parent_id"] is None]
        assert [root["name"] for root in roots] == ["scan"]
        for span in spans:
            if span["parent_id"] is not None:
                assert span["parent_id"] in ids
        return roots[0]

    def test_trace_reconstructs_single_process_pipeline(
        self, artifact, tmp_path, capsys
    ):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(trace),
            ]
        )
        assert code == 0
        assert f"wrote trace: {trace}" in capsys.readouterr().out
        spans = self._load_spans(trace)
        root = self._assert_is_one_tree(spans)
        assert root["attrs"]["designs"] == 3
        names = {span["name"] for span in spans}
        for stage in (
            "scan/collect",
            "scan/cache_lookup",
            "scan/extract",
            "scan/infer",
            "scan/fuse",
            "scan/cache_flush",
        ):
            assert stage in names
        # Stage spans hang off the "scan" root (directly or transitively).
        by_id = {span["span_id"]: span for span in spans}
        for span in spans:
            walk = span
            while walk["parent_id"] is not None:
                walk = by_id[walk["parent_id"]]
            assert walk["name"] == "scan"

    def test_trace_merges_scheduler_worker_spans(self, artifact, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "4",
                "--cache-dir", str(tmp_path / "cache"),
                "--jobs", "2",
                "--shard-size", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        spans = self._load_spans(trace)
        self._assert_is_one_tree(spans)
        names = [span["name"] for span in spans]
        assert "scheduler/scan" in names
        assert names.count("scheduler/shard") == 2  # one per shard
        # The worker-side stage spans were adopted into the merged trace.
        assert "scan/extract" in names


class TestProfileAndCacheInfo:
    def test_scan_profile_prints_stage_breakdown(self, artifact, tmp_path, capsys):
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage timings (numpy backend):" in out
        for stage in ("collect", "extract", "infer", "p_value", "cache_flush"):
            assert stage in out

    def test_profile_lands_in_results_json(self, artifact, tmp_path):
        results = tmp_path / "results.json"
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(results),
            ]
        )
        assert code == 0
        profile = json.loads(results.read_text())["profile"]
        for stage in ("collect", "cache_lookup", "extract", "infer", "p_value", "cache_flush"):
            assert stage in profile
            assert profile[stage] >= 0.0

    def test_cache_info_reports_both_tiers(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["scan", "--artifact", str(artifact), "--generate", "4", "--cache-dir", cache]
        ) == 0
        capsys.readouterr()
        assert main(["cache-info", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "result tier" in out and "feature tier" in out
        assert "4 records" in out and "4 rows" in out
        # A fresh scan's rows sit in append-only segment files, not shards.
        assert main(["cache-info", "--cache-dir", cache, "--json"]) == 0
        (namespace,) = json.loads(capsys.readouterr().out)["feature_tier"]["namespaces"]
        assert namespace["n_shards"] == 0 and namespace["n_segments"] >= 1
        assert f"0 shards, {namespace['n_segments']} segments" in out

    def test_cache_info_json_mode(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["scan", "--artifact", str(artifact), "--generate", "2", "--cache-dir", cache]
        ) == 0
        capsys.readouterr()
        assert main(["cache-info", "--cache-dir", cache, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["result_tier"]["n_records"] == 2
        assert data["feature_tier"]["n_rows"] == 2

    def test_v1_result_store_is_ignored_and_left_in_place(
        self, artifact, tmp_path, capsys
    ):
        # The pre-sharding single-file store is no longer read, migrated,
        # deleted or listed: its designs are simply rescanned.
        first = tmp_path / "first.json"
        scan = ["scan", "--artifact", str(artifact), "--generate", "2"]
        assert main(scan + ["--no-cache", "--output", str(first)]) == 0
        fingerprint = json.loads((artifact / "manifest.json").read_text())["fingerprint"]
        cache = tmp_path / "cache"
        cache.mkdir()
        v1_file = cache / f"scan_cache_{fingerprint[:16]}.json"
        v1_file.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "fingerprint": fingerprint,
                    "records": {
                        r["sha256"]: r for r in json.loads(first.read_text())["records"]
                    },
                }
            )
        )
        v1_bytes = v1_file.read_bytes()
        second = tmp_path / "second.json"
        assert main(scan + ["--cache-dir", str(cache), "--output", str(second)]) == 0
        assert json.loads(second.read_text())["n_cache_hits"] == 0
        assert v1_file.read_bytes() == v1_bytes
        capsys.readouterr()
        assert main(["cache-info", "--cache-dir", str(cache), "--json"]) == 0
        result_tier = json.loads(capsys.readouterr().out)["result_tier"]
        assert result_tier["n_records"] == 2  # the sharded records only
        assert [ns["fingerprint"] for ns in result_tier["namespaces"]] == [
            fingerprint[:16]
        ]

    def test_cache_info_empty_dir(self, tmp_path, capsys):
        assert main(["cache-info", "--cache-dir", str(tmp_path / "missing")]) == 0
        out = capsys.readouterr().out
        assert "0 records" in out and "0 rows" in out


class TestBackendCli:
    """--backend selection: validation, verdict parity, profile labelling."""

    def test_unknown_backend_scan_exits_2(self, artifact, capsys):
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "2",
                "--no-cache",
                "--backend", "nope",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown compute backend" in err and "nope" in err

    def test_unknown_backend_serve_exits_2(self, artifact, capsys):
        code = main(
            ["serve", "--artifact", str(artifact), "--port", "0", "--backend", "nope"]
        )
        assert code == 2
        assert "unknown compute backend" in capsys.readouterr().err

    def test_fused_backend_matches_numpy_verdicts(self, artifact, tmp_path):
        outputs = {}
        for backend in ("numpy", "fused_f32"):
            results = tmp_path / f"{backend}.json"
            code = main(
                [
                    "scan",
                    "--artifact", str(artifact),
                    "--generate", "6",
                    "--no-cache",
                    "--backend", backend,
                    "--output", str(results),
                ]
            )
            assert code == 0
            outputs[backend] = json.loads(results.read_text())
        golden, fused = outputs["numpy"], outputs["fused_f32"]
        assert fused["profile"]["backend"] == "fused_f32"
        for a, b in zip(golden["records"], fused["records"]):
            assert a["name"] == b["name"]
            assert a["decision"]["predicted_label"] == b["decision"]["predicted_label"]
            assert abs(
                a["decision"]["probability_infected"]
                - b["decision"]["probability_infected"]
            ) < 1e-4

    def test_profile_names_active_backend_and_infer_stages(
        self, artifact, tmp_path, capsys
    ):
        code = main(
            [
                "scan",
                "--artifact", str(artifact),
                "--generate", "3",
                "--cache-dir", str(tmp_path / "cache"),
                "--backend", "fused_f32",
                "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stage timings (fused_f32 backend):" in out
        assert "    gemm" in out and "    activation" in out


class TestCacheGcCli:
    def test_gc_folds_segments_and_removes_retired_namespaces(
        self, artifact, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main(
            ["scan", "--artifact", str(artifact), "--generate", "3", "--cache-dir", cache]
        ) == 0
        capsys.readouterr()
        retired = tmp_path / "cache" / "features" / "0123456789abcdef"
        retired.mkdir(parents=True)
        (retired / "stale.npz").write_bytes(b"x" * 128)
        assert main(["cache-gc", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "folded into base shards" in out
        assert "0123456789abcdef" in out
        assert not retired.exists()

    def test_gc_json_mode(self, artifact, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["scan", "--artifact", str(artifact), "--generate", "2", "--cache-dir", cache]
        ) == 0
        capsys.readouterr()
        assert main(["cache-gc", "--cache-dir", cache, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["retired_namespaces_removed"] == []
        assert data["n_segments_folded"] >= 1  # the scan's flush wrote segments
        assert data["bytes_reclaimed"] == 0

    def test_image_size_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache-gc", "--cache-dir", str(tmp_path / "c"), "--image-size", "8"])
        assert excinfo.value.code == 2
        assert "--image-size" in capsys.readouterr().err

    def test_gc_on_missing_cache_dir_is_clean(self, tmp_path, capsys):
        assert main(["cache-gc", "--cache-dir", str(tmp_path / "absent")]) == 0
        out = capsys.readouterr().out
        assert "no retired schema namespaces" in out


class TestServeCliParsing:
    """serve's fleet/artifact flag resolution and misconfiguration exits."""

    def _namespace(self, **overrides):
        import argparse

        defaults = dict(fleet=None, artifact=None, default_model=None)
        defaults.update(overrides)
        return argparse.Namespace(**defaults)

    def test_bare_directory_registers_as_default(self):
        from repro.engine.cli import _parse_serve_artifacts

        artifacts, default = _parse_serve_artifacts(
            self._namespace(artifact=["/models/a"])
        )
        assert artifacts == {"default": "/models/a"}
        assert default is None  # falls back to the first entry downstream

    def test_named_artifacts_and_default_model(self):
        from repro.engine.cli import _parse_serve_artifacts

        artifacts, default = _parse_serve_artifacts(
            self._namespace(
                artifact=["champ=/models/a", "chal=/models/b"],
                default_model="chal",
            )
        )
        assert artifacts == {"champ": "/models/a", "chal": "/models/b"}
        assert default == "chal"

    def test_fleet_manifest_seeds_and_artifact_overrides(self, artifact, tmp_path):
        from repro.engine.artifacts import save_fleet_manifest
        from repro.engine.cli import _parse_serve_artifacts

        manifest = save_fleet_manifest(
            tmp_path / "fleet.json",
            {"a": artifact, "b": artifact},
            default="a",
        )
        artifacts, default = _parse_serve_artifacts(
            self._namespace(fleet=str(manifest), artifact=["b=/override/b"])
        )
        assert artifacts["b"] == "/override/b"  # --artifact wins over fleet
        assert artifacts["a"] == str(artifact.resolve())
        assert default == "a"  # from the manifest

    def test_serve_without_artifacts_exits_2(self, capsys):
        assert main(["serve", "--port", "0"]) == 2
        assert "artifact" in capsys.readouterr().err

    def test_serve_unknown_default_model_exits_2(self, artifact, capsys):
        code = main(
            [
                "serve",
                "--artifact", f"a={artifact}",
                "--default-model", "nope",
                "--port", "0",
            ]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_serve_unknown_shadow_exits_2(self, artifact, capsys):
        code = main(
            [
                "serve",
                "--artifact", f"a={artifact}",
                "--shadow", "ghost",
                "--port", "0",
            ]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    def test_serve_shadow_equal_to_default_exits_2(self, artifact, capsys):
        code = main(
            [
                "serve",
                "--artifact", f"a={artifact}",
                "--shadow", "a",
                "--port", "0",
            ]
        )
        assert code == 2


class TestImportFootprint:
    """Start-up guard: no scan or serve process loads networkx or scipy.stats.

    Both packages cost a fresh process most of its time to a first verdict;
    the scan path needs neither (only the golden references use networkx).
    Nor does a scan need the service's HTTP stack.
    """

    @staticmethod
    def _imported_modules(args, cwd):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        return {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    @staticmethod
    def _assert_lean(modules):
        heavy = sorted(
            name
            for name in modules
            if name.split(".")[0] == "networkx" or name.split(".")[:2] == ["scipy", "stats"]
        )
        assert not heavy, heavy[:10]

    def test_cli_scan_to_verdict(self, artifact, tmp_path):
        modules = self._imported_modules(
            ["-m", "repro", "scan", "--artifact", str(artifact), "--generate", "1", "--no-cache"],
            tmp_path,
        )
        assert "repro.engine.scan" in modules
        self._assert_lean(modules)

    def test_cli_scan_skips_the_http_stack(self, artifact, tmp_path):
        modules = self._imported_modules(
            ["-m", "repro", "scan", "--artifact", str(artifact), "--generate", "1", "--no-cache"],
            tmp_path,
        )
        assert "repro.serve.batching" in modules  # the CLI reads its default window
        http_stack = {"http.client", "ssl"} | {
            f"repro.serve.{sub}"
            for sub in ("server", "eventloop", "client", "registry", "rollout")
        }
        assert not sorted(modules & http_stack), sorted(modules & http_stack)

    def test_serve_server_module(self, tmp_path):
        modules = self._imported_modules(["-c", "import repro.serve.server"], tmp_path)
        assert "repro.serve.server" in modules
        self._assert_lean(modules)
