"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.rules import generate_classbench, parse_classbench_file, write_classbench_file


@pytest.fixture()
def ruleset_file(tmp_path):
    path = tmp_path / "rules.txt"
    write_classbench_file(generate_classbench("acl1", 300, seed=1), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.txt"])
        assert args.application == "acl1"
        assert args.rules == 10_000

    def test_rejects_unknown_classifier(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build", "x.txt", "--classifier", "bogus"])


class TestGenerate:
    def test_generates_classbench_file(self, tmp_path, capsys):
        out = tmp_path / "acl.txt"
        code = main(["generate", str(out), "--application", "acl2", "--rules", "150"])
        assert code == 0
        parsed = parse_classbench_file(out)
        assert len(parsed) == 150

    def test_generates_stanford_file(self, tmp_path):
        out = tmp_path / "fwd.txt"
        code = main(["generate", str(out), "--application", "stanford", "--rules", "200"])
        assert code == 0
        parsed = parse_classbench_file(out)
        assert len(parsed) == 200
        # Forwarding rules are widened to the 5-tuple with wildcards everywhere
        # except the destination address.
        assert all(rule.ranges[0] == (0, 0xFFFFFFFF) for rule in parsed)


class TestInspect:
    def test_prints_coverage_table(self, ruleset_file, capsys):
        assert main(["inspect", str(ruleset_file), "--isets", "3"]) == 0
        out = capsys.readouterr().out
        assert "coverage %" in out
        assert "rules" in out


class TestBuild:
    def test_build_baseline(self, ruleset_file, capsys):
        assert main(["build", str(ruleset_file), "--classifier", "tm"]) == 0
        out = capsys.readouterr().out
        assert "tm over" in out
        assert "index_bytes" in out

    def test_build_nuevomatch(self, ruleset_file, capsys):
        assert main(["build", str(ruleset_file), "--classifier", "nm",
                     "--remainder", "tm", "--error-threshold", "128"]) == 0
        out = capsys.readouterr().out
        assert "num_isets" in out
        assert "coverage" in out


class TestCompare:
    def test_compare_reports_speedup(self, ruleset_file, capsys):
        assert main(["compare", str(ruleset_file), "--baseline", "tm",
                     "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "speedup:" in out
        assert "nm(tm)" in out


class TestTrain:
    def test_train_builds_and_persists_with_provenance(
        self, ruleset_file, tmp_path, capsys
    ):
        from repro.engine import ClassificationEngine

        out = tmp_path / "engine.json.gz"
        assert main(["train", str(ruleset_file), str(out), "--jobs", "2"]) == 0
        printed = capsys.readouterr().out
        assert "training submodels_trained" in printed
        engine = ClassificationEngine.load(out)
        training = engine.metadata["training"]
        assert training["jobs"] == 2 and training["submodels_trained"] > 0
        assert training["warm_started"] is False
        assert training["submodels_reused"] == training["warm_trained"] == 0
        assert training["cold_fallbacks"] == 0

    def test_train_and_engine_save_persist_the_same_model(self, ruleset_file, tmp_path):
        from repro.engine import ClassificationEngine

        def isets(path):
            states = ClassificationEngine.load(path).classifier.to_state()["isets"]
            for state in states:
                state["model"]["report"]["training_seconds"] = None
            return states

        saved, trained = tmp_path / "saved.json.gz", tmp_path / "trained.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(saved)]) == 0
        assert main(["train", str(ruleset_file), str(trained), "--jobs", "2"]) == 0
        assert isets(saved) == isets(trained)

    def test_train_warm_start_from_snapshot(self, ruleset_file, tmp_path, capsys):
        cold = tmp_path / "cold.json.gz"
        warm = tmp_path / "warm.json.gz"
        assert main(["train", str(ruleset_file), str(cold)]) == 0
        assert main(["train", str(ruleset_file), str(warm),
                     "--warm-start", str(cold)]) == 0
        printed = capsys.readouterr().out
        import re

        assert re.search(r"training warm_started\s*: True", printed)

    def test_train_rejects_warm_start_for_stateless_classifier(
        self, ruleset_file, tmp_path, capsys
    ):
        out = tmp_path / "tm.json.gz"
        code = main(["train", str(ruleset_file), str(out),
                     "--classifier", "tm", "--jobs", "4"])
        assert code == 2
        assert "no trained state" in capsys.readouterr().err

    def test_train_rejects_non_nm_warm_source(self, ruleset_file, tmp_path, capsys):
        baseline = tmp_path / "tm.json.gz"
        assert main(["train", str(ruleset_file), str(baseline),
                     "--classifier", "tm"]) == 0
        out = tmp_path / "warm.json.gz"
        code = main(["train", str(ruleset_file), str(out),
                     "--warm-start", str(baseline)])
        assert code == 2
        assert "warm starting" in capsys.readouterr().err


class TestServeListen:
    def test_parser_accepts_coalescing_options(self):
        args = build_parser().parse_args(
            ["serve", "rules.txt", "--listen", "0.0.0.0:8590",
             "--max-batch", "64", "--max-delay-us", "150",
             "--max-queue", "512", "--cache-size", "2048"]
        )
        assert args.listen == "0.0.0.0:8590"
        assert args.max_batch == 64
        assert args.max_delay_us == 150.0
        assert args.max_queue == 512
        assert args.cache_size == 2048

    def test_listen_defaults(self):
        from repro.serving import (
            DEFAULT_MAX_BATCH,
            DEFAULT_MAX_DELAY_US,
            DEFAULT_MAX_QUEUE,
        )

        args = build_parser().parse_args(["serve", "rules.txt"])
        assert args.listen is None
        assert args.max_batch == DEFAULT_MAX_BATCH
        assert args.max_delay_us == DEFAULT_MAX_DELAY_US
        assert args.max_queue == DEFAULT_MAX_QUEUE
        assert args.cache_size == 0

    def test_listen_address_parsing(self):
        from repro.cli import _listen_address

        assert _listen_address("127.0.0.1:8590") == ("127.0.0.1", 8590)
        assert _listen_address(":0") == ("127.0.0.1", 0)
        for bad in ("8590", "host:", "host:port"):
            with pytest.raises(SystemExit):
                _listen_address(bad)

    @pytest.mark.parametrize("stop_signal", ["SIGTERM", "SIGINT"])
    def test_stop_signal_is_a_clean_shutdown(self, ruleset_file, stop_signal):
        """``SIGTERM`` (systemd, Docker, Kubernetes) and ``SIGINT`` both stop
        ``repro serve`` through ``engine.close()``: exit code 0, no shard
        worker left running, no shared-memory segment left behind."""
        import glob
        import os
        import re
        import signal
        import subprocess
        import sys
        import threading
        import time
        from pathlib import Path

        from repro.workloads import run_load

        def children_of(pid):
            found = []
            for stat in glob.glob("/proc/[0-9]*/stat"):
                try:
                    fields = Path(stat).read_text().rsplit(")", 1)[1].split()
                except OSError:
                    continue  # exited while we were listing
                if int(fields[1]) == pid and fields[0] != "Z":
                    found.append(int(stat.split("/")[2]))
            return found

        segments_before = set(glob.glob("/dev/shm/rqw*"))
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(ruleset_file),
             "--listen", "127.0.0.1:0", "--shards", "2", "--executor", "workers",
             "--classifier", "tm"],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            address = None
            for line in proc.stderr:
                address = re.search(r"listening on ([\d.]+):(\d+)", line)
                if address:
                    break
            assert address, "server never announced its address"
            packets = [
                tuple(p)
                for p in parse_classbench_file(ruleset_file).sample_packets(8, seed=5)
            ]
            report = run_load(
                address[1], int(address[2]), packets, connections=1, window=8
            )
            assert report.completed == 8 and report.errors == 0
            workers = children_of(proc.pid)
            assert len(workers) >= 2, "the shard workers should be running"
            assert set(glob.glob("/dev/shm/rqw*")) - segments_before

            proc.send_signal(getattr(signal, stop_signal))
            assert proc.wait(timeout=15) == 0
            deadline = time.monotonic() + 5
            while any(os.path.exists(f"/proc/{pid}") for pid in workers):
                assert time.monotonic() < deadline, "a child survived the server"
                time.sleep(0.05)
            assert set(glob.glob("/dev/shm/rqw*")) <= segments_before
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait(timeout=15)
            proc.stderr.close()


class TestServe:
    def test_serve_builds_and_reports_throughput(self, ruleset_file, capsys):
        assert main(["serve", str(ruleset_file), "--shards", "2",
                     "--classifier", "tm", "--executor", "serial",
                     "--packets", "100", "--batch-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "sharded[2]" in out
        assert "modelled throughput Mpps" in out

    def test_serve_saves_and_reloads_snapshot(self, ruleset_file, tmp_path, capsys):
        snapshot = tmp_path / "sharded.json.gz"
        assert main(["serve", str(ruleset_file), "--shards", "3",
                     "--classifier", "tm", "--executor", "serial",
                     "--packets", "50", "--save", str(snapshot)]) == 0
        assert snapshot.exists()
        capsys.readouterr()
        assert main(["serve", str(snapshot), "--executor", "serial",
                     "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "sharded[3]" in out

    def test_executor_flag_offers_only_serial_and_workers(self):
        parser = build_parser()
        for command in (["serve", "x.txt"], ["replay"]):
            for executor in ("serial", "workers"):
                args = parser.parse_args([*command, "--executor", executor])
                assert args.executor == executor
            for removed in ("gpu", "thread", "process"):
                with pytest.raises(SystemExit):
                    parser.parse_args([*command, "--executor", removed])

    def test_executor_defaults(self, ruleset_file, capsys):
        parser = build_parser()
        assert parser.parse_args(["replay"]).executor == "serial"
        # `serve` resolves its default at run time: a single shard has nothing
        # to fan out and stays in-process; a snapshot restores in-process too.
        assert parser.parse_args(["serve", "x.txt"]).executor is None
        assert main(["serve", str(ruleset_file), "--shards", "1",
                     "--classifier", "tm", "--packets", "50"]) == 0
        out = capsys.readouterr().out
        assert "executor" in out and "serial" in out and "workers" not in out


class TestReplay:
    def test_replay_cached_sharded_reports_hit_rate(self, ruleset_file, capsys):
        assert main(["replay", "--ruleset", str(ruleset_file), "--trace", "zipf",
                     "--skew", "95", "--cache-size", "512", "--shards", "2",
                     "--executor", "serial", "--packets", "2000",
                     "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "cache hit rate" in out
        assert "latency p99 ns/pkt" in out
        assert "cached(sharded[2])" in out

    def test_replay_generates_synthetic_ruleset_by_default(self, capsys):
        assert main(["replay", "--trace", "uniform", "--rules", "200",
                     "--packets", "400", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "engine[tm]" in out
        assert "measured kpps" in out

    def test_replay_json_output(self, ruleset_file, capsys):
        import json

        assert main(["replay", "--ruleset", str(ruleset_file), "--trace", "caida",
                     "--cache-size", "256", "--packets", "1000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_size"] == 256
        assert payload["packets"] == 1000
        assert 0.0 <= payload["hit_rate"] <= 1.0
        assert payload["cache"]["capacity"] == 256

    def test_replay_rejects_unknown_trace_and_skew(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--trace", "bursty"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--skew", "42"])
