"""Tests for the ``python -m repro`` command-line interface."""

import contextlib
import glob
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.rules import generate_classbench, parse_classbench_file, write_classbench_file

from _helpers import serve_packets


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


class TestEngineSave:
    """``engine save`` is the one build-and-persist command (``train`` is gone)."""

    def test_train_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "rules.txt", "out.json.gz"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["engine", "save", "rules.txt", "out.json.gz", "--jobs", "2"]
            )

    def test_builds_and_persists_with_provenance(self, ruleset_file, tmp_path, capsys):
        from repro.engine import ClassificationEngine

        out = tmp_path / "engine.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(out)]) == 0
        printed = capsys.readouterr().out
        assert "training submodels_trained" in printed
        assert re.search(r"build wall s\s*: \d", printed)
        engine = ClassificationEngine.load(out)
        training = engine.metadata["training"]
        assert training["submodels_trained"] > 0
        assert training["warm_started"] is False
        assert training["submodels_reused"] == training["warm_trained"] == 0
        assert training["cold_fallbacks"] == 0
        assert not {"jobs", "warm_epochs"} & set(training)

    def test_snapshot_is_the_library_build_and_verifies(self, ruleset_file, tmp_path):
        from repro.cli import _nm_config
        from repro.engine import ClassificationEngine

        def isets(engine):
            states = engine.classifier.to_state()["isets"]
            for state in states:
                state["model"]["report"]["training_seconds"] = None
            return states

        saved = tmp_path / "saved.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(saved)]) == 0
        rules = parse_classbench_file(ruleset_file)
        built = ClassificationEngine.build(
            rules, classifier="nm", remainder_classifier="tm", config=_nm_config(64)
        )
        restored = ClassificationEngine.load(saved)
        assert isets(restored) == isets(built)
        packets = rules.sample_packets(200, seed=5)
        assert restored.verify(packets) == len(packets)
        assert main(["engine", "load", str(saved)]) == 0

    def test_warm_start_from_snapshot(self, ruleset_file, tmp_path, capsys):
        from repro.engine import ClassificationEngine

        cold = tmp_path / "cold.json.gz"
        warm = tmp_path / "warm.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(cold)]) == 0
        assert main(["engine", "save", str(ruleset_file), str(warm),
                     "--warm-start", str(cold)]) == 0
        printed = capsys.readouterr().out
        assert re.search(r"training warm_started\s*: True", printed)
        training = ClassificationEngine.load(warm).metadata["training"]
        assert training["submodels_trained"] == 0 and training["submodels_reused"] > 0

    def test_rejects_warm_start_for_stateless_classifier(
        self, ruleset_file, tmp_path, capsys
    ):
        cold = tmp_path / "cold.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(cold)]) == 0
        out = tmp_path / "tm.json.gz"
        code = main(["engine", "save", str(ruleset_file), str(out),
                     "--classifier", "tm", "--warm-start", str(cold)])
        assert code == 2 and not out.exists()
        assert "no trained state" in capsys.readouterr().err

    def test_rejects_non_nm_warm_source(self, ruleset_file, tmp_path, capsys):
        baseline = tmp_path / "tm.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(baseline),
                     "--classifier", "tm"]) == 0
        out = tmp_path / "warm.json.gz"
        code = main(["engine", "save", str(ruleset_file), str(out),
                     "--warm-start", str(baseline)])
        assert code == 2 and not out.exists()
        assert "warm starting" in capsys.readouterr().err


@contextlib.contextmanager
def listening_server(ruleset_file, *flags):
    """``repro serve RULES --listen 127.0.0.1:0 FLAGS`` as a child process.

    Yields ``(proc, announce)`` once the child printed its ``listening on``
    line (``announce`` is that line); kills the child on exit if the test did
    not stop it, and never waits more than a minute for anything.
    """
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(ruleset_file),
         "--listen", "127.0.0.1:0", "--classifier", "tm", *flags],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        announce = next(
            (line for line in proc.stderr if "listening on" in line), None
        )
        assert announce, "server never announced its address"
        yield proc, announce
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait(timeout=15)
        proc.stdout.close()
        proc.stderr.close()


class TestServeListen:
    def test_parser_accepts_serving_options(self):
        args = build_parser().parse_args(
            ["serve", "rules.txt", "--listen", "0.0.0.0:8590",
             "--max-queue", "512", "--cache-size", "2048",
             "--slo-p99-us", "20000", "--no-adaptive"]
        )
        assert args.listen == "0.0.0.0:8590"
        assert args.max_queue == 512
        assert args.cache_size == 2048
        assert args.slo_p99_us == 20000.0 and args.adaptive is False

    @pytest.mark.parametrize("flag", ["--max-batch", "--max-delay-us"])
    def test_coalescing_flags_are_gone(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "rules.txt", flag, "64"])

    def test_listen_defaults(self):
        from repro.serving import DEFAULT_MAX_QUEUE

        args = build_parser().parse_args(["serve", "rules.txt"])
        assert args.listen is None
        assert args.max_queue == DEFAULT_MAX_QUEUE
        assert args.cache_size == 0

    def test_retrain_threshold_needs_a_stack_that_retrains(
        self, ruleset_file, tmp_path, capsys
    ):
        """A single engine has no retrain lifecycle, served or saved: the flag
        is refused loudly instead of dropped, before anything is built."""
        assert build_parser().parse_args(["serve", "r.txt"]).retrain_threshold is None
        saved = tmp_path / "engine.json.gz"
        for shards in ("1", "0"):
            for how in (["--listen", "127.0.0.1:0"], ["--save", str(saved)]):
                code = main(["serve", str(ruleset_file), *how,
                             "--shards", shards, "--retrain-threshold", "0.2"])
                assert code == 2 and not saved.exists()
                assert "--shards 2" in capsys.readouterr().err

    def test_retrain_threshold_reaches_the_sharded_engine(self, ruleset_file, tmp_path):
        from repro.serving import ShardedEngine
        from repro.serving.updates import DEFAULT_RETRAIN_THRESHOLD

        for flags, expected in (
            ([], DEFAULT_RETRAIN_THRESHOLD),
            (["--retrain-threshold", "0.2"], 0.2),
        ):
            saved = tmp_path / "sharded.json.gz"
            assert main(["serve", str(ruleset_file), "--classifier", "tm",
                         "--executor", "serial", "--save", str(saved), *flags]) == 0
            with ShardedEngine.load(saved) as restored:
                assert restored.updates.retrain_threshold == expected

    def test_listen_address_parsing(self):
        from repro.cli import _listen_address

        assert _listen_address("127.0.0.1:8590") == ("127.0.0.1", 8590)
        assert _listen_address(":0") == ("127.0.0.1", 0)
        for bad in ("8590", "host:", "host:port"):
            with pytest.raises(SystemExit):
                _listen_address(bad)

    def test_shutdown_summary_reports_what_the_budget_counted(self, ruleset_file):
        """The operator-facing numbers come from the one budget and the one
        path: flood a ``--max-queue 64`` server with pipelined 128-row frames
        (each admitted only into an idle budget, so most are shed), read the
        ``stats`` op, stop the server — the summary's rejected-frames and
        shed-packets rows are non-zero and equal what ``stats`` said."""
        from repro.serving import wire

        block = wire.packet_block(
            parse_classbench_file(ruleset_file).sample_packets(128, seed=5)
        )

        def read_frame(sock) -> bytes:
            header = sock.recv(4, socket.MSG_WAITALL)
            length = int.from_bytes(header[1:], "big")  # JSON's high byte is 0
            return sock.recv(length, socket.MSG_WAITALL)

        with listening_server(ruleset_file, "--max-queue", "64") as (proc, announce):
            # bench/server_proc.py parses exactly this: third token, HOST:PORT.
            assert announce.split()[:2] == ["listening", "on"]
            host, port = announce.split()[2].rsplit(":", 1)
            assert "max_queue=64" in announce and "max_batch" not in announce
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                flood = b"".join(
                    bytes([wire.FRAME_MAGIC]) + len(payload).to_bytes(3, "big") + payload
                    for payload in (
                        wire.encode_classify_request(i, block) for i in range(200)
                    )
                )
                sock.sendall(flood)
                statuses = [
                    wire.decode_classify_response(read_frame(sock))[1]
                    for _ in range(200)
                ]
                assert statuses.count(wire.STATUS_OK) >= 1
                shed = statuses.count(wire.STATUS_OVERLOADED)
                assert shed >= 1 and shed + statuses.count(wire.STATUS_OK) == 200
                request = json.dumps({"id": 1, "op": "stats"}).encode()
                sock.sendall(len(request).to_bytes(4, "big") + request)
                server = json.loads(read_frame(sock))["stats"]["server"]
            assert server["budget"]["rejected"] == shed
            assert server["budget"]["rejected_packets"] == shed * 128
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == 0
            summary = dict(
                (key.strip(), value.strip())
                for key, _, value in (
                    line.partition(":") for line in proc.stdout.read().splitlines()
                )
            )
        assert int(summary["rejected frames"]) == shed
        assert int(summary["shed packets"]) == shed * 128
        assert int(summary["admitted frames"]) == 200 - shed
        assert int(summary["frames served"]) == 200 - shed
        assert int(summary["admitted packets"]) == (200 - shed) * 128
        p50, p99 = (
            float(summary[f"latency {q} us"].replace(",", "")) for q in ("p50", "p99")
        )
        assert p99 >= p50 > 0
        for stale in ("batches", "mean batch size", "max batch seen",
                      "rejected (overload)", "max queue depth"):
            assert stale not in summary

    def test_adaptive_summary_reports_the_controller(self, ruleset_file):
        """With an SLO the summary also says what the controller did: its
        objective, windows, breaches and the limit it left the budget at."""
        with listening_server(
            ruleset_file, "--slo-p99-us", "20000", "--max-queue", "512"
        ) as (proc, announce):
            assert "adaptive=on" in announce
            host, port = announce.split()[2].rsplit(":", 1)
            packets = [
                tuple(p)
                for p in parse_classbench_file(ruleset_file).sample_packets(64, seed=5)
            ]
            assert serve_packets(host, int(port), packets, batch=16) == 64
            time.sleep(0.6)  # two control windows
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == 0
            summary = proc.stdout.read()
        assert re.search(r"slo p99 us\s*: 20,000", summary)
        assert int(re.search(r"control windows\s*: (\d+)", summary)[1]) >= 1
        assert re.search(r"slo breaches\s*: \d+", summary)
        assert 64 <= int(re.search(r"budget limit\s*: (\d+)", summary)[1]) <= 1 << 20
        assert re.search(r"frames served\s*: 4\b", summary)

    @pytest.mark.parametrize("stop_signal", ["SIGTERM", "SIGINT"])
    def test_stop_signal_is_a_clean_shutdown(self, ruleset_file, stop_signal):
        """``SIGTERM`` (systemd, Docker, Kubernetes) and ``SIGINT`` both stop
        ``repro serve`` through ``engine.close()``: exit code 0, no shard
        worker left running, no shared-memory segment left behind."""
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
        with listening_server(
            ruleset_file, "--shards", "2", "--executor", "workers"
        ) as (proc, announce):
            address = re.search(r"listening on ([\d.]+):(\d+)", announce)
            packets = [
                tuple(p)
                for p in parse_classbench_file(ruleset_file).sample_packets(8, seed=5)
            ]
            assert serve_packets(address[1], int(address[2]), packets) == 8
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


def _replay_json(capsys, *argv) -> dict:
    """``repro replay ARGV --json`` parsed; the measured fields are the run's
    own, ``matched`` and the modelled latency are the stack's."""
    capsys.readouterr()
    assert main(["replay", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestServe:
    def test_serve_without_listen_or_save_names_replay(self, ruleset_file, capsys):
        """``repro serve`` is the network server; the local trace run it used
        to fall back to is ``repro replay``, and one line says so."""
        assert main(["serve", str(ruleset_file), "--classifier", "tm"]) == 2
        captured = capsys.readouterr()
        assert "repro replay" in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["engine", "serve", "e.json.gz"],
            ["serve", "r.txt", "--packets", "10"],
            ["serve", "r.txt", "--batch-size", "32"],
            ["serve", "r.txt", "--seed", "2"],
            ["serve", "r.txt", "--partitioner", "auto"],
        ],
    )
    def test_local_run_flags_are_gone(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_serve_saves_without_classifying(self, ruleset_file, tmp_path, capsys, monkeypatch):
        from repro.serving import ShardedEngine

        monkeypatch.setattr(
            ShardedEngine, "classify_block",
            lambda *a, **k: pytest.fail("`serve --save` ran a lookup"),
        )
        snapshot = tmp_path / "sharded.json.gz"
        assert main(["serve", str(ruleset_file), "--shards", "3",
                     "--classifier", "tm", "--save", str(snapshot)]) == 0
        assert capsys.readouterr().out.strip() == str(snapshot)
        with ShardedEngine.load(snapshot) as restored:
            assert restored.num_shards == 3
            assert "partitioner" not in restored.statistics()

    def test_serve_saves_and_reloads_snapshot(self, ruleset_file, tmp_path, capsys):
        """save → reload → identical answers, through ``--save`` + ``replay``
        (the fresh stack and the restored one see the same trace)."""
        snapshot = tmp_path / "sharded.json.gz"
        assert main(["serve", str(ruleset_file), "--shards", "3",
                     "--classifier", "tm", "--executor", "serial",
                     "--save", str(snapshot)]) == 0
        trace = ["--trace", "uniform", "--packets", "600"]
        fresh = _replay_json(capsys, "--ruleset", str(ruleset_file),
                             "--shards", "3", "--classifier", "tm", *trace)
        restored = _replay_json(capsys, "--ruleset", str(snapshot), *trace)
        assert restored["engine"] == fresh["engine"] == "sharded[3]"
        assert restored["matched"] == restored["packets"] == 600
        assert restored["modelled_latency_ns"] == fresh["modelled_latency_ns"]

    def test_replay_reads_a_single_engine_snapshot(self, ruleset_file, tmp_path, capsys):
        engine_file = tmp_path / "engine.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(engine_file)]) == 0
        trace = ["--trace", "zipf", "--packets", "600", "--cache-size", "64"]
        fresh = _replay_json(capsys, "--ruleset", str(ruleset_file),
                             "--classifier", "nm", *trace)
        restored = _replay_json(capsys, "--ruleset", str(engine_file), *trace)
        assert restored["engine"] == fresh["engine"] == "cached(engine[nm])"
        assert restored["matched"] == restored["packets"] == 600
        assert restored["modelled_latency_ns"] == fresh["modelled_latency_ns"]

    def test_serve_listens_on_a_single_engine_snapshot(self, ruleset_file, tmp_path):
        """One loader for both kinds: the file ``repro engine save`` writes
        simply serves."""
        engine_file = tmp_path / "engine.json.gz"
        assert main(["engine", "save", str(ruleset_file), str(engine_file),
                     "--classifier", "tm"]) == 0
        with listening_server(engine_file) as (proc, announce):
            host, port = announce.split()[2].rsplit(":", 1)
            packets = [
                tuple(p)
                for p in parse_classbench_file(ruleset_file).sample_packets(16, seed=5)
            ]
            assert serve_packets(host, int(port), packets, batch=16) == 16
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=15) == 0

    def test_refuses_a_file_that_is_not_a_snapshot(self, ruleset_file, tmp_path, capsys):
        """One line on stderr and exit 2 — no traceback — from ``serve`` and
        ``replay`` alike, for a `.json` file that is not JSON, for JSON that
        is no snapshot, and for a sharded snapshot of another format version."""
        import gzip

        not_json = tmp_path / "rules.json"
        not_json.write_text("@1.2.3.4/32 ...")
        no_snapshot = tmp_path / "other.json"
        no_snapshot.write_text('{"rules": []}')
        sharded_file = tmp_path / "sharded.json.gz"
        assert main(["serve", str(ruleset_file), "--shards", "2",
                     "--classifier", "tm", "--executor", "serial",
                     "--save", str(sharded_file)]) == 0
        with gzip.open(sharded_file, "rt") as handle:
            document = json.load(handle)
        document["format"] += 1
        future_file = tmp_path / "future.json.gz"
        with gzip.open(future_file, "wt") as handle:
            json.dump(document, handle)
        capsys.readouterr()
        for path, says in (
            (not_json, "Expecting value"),
            (no_snapshot, "unsupported engine file format None"),
            (future_file, "unsupported sharded-engine file format"),
        ):
            for argv in (["serve", str(path), "--listen", "127.0.0.1:0"],
                         ["replay", "--ruleset", str(path)]):
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert says in captured.err and captured.err.count("\n") == 1
                assert "not an engine snapshot" in captured.err
                assert "Traceback" not in captured.err and captured.out == ""

    def test_executor_flag_offers_only_serial_and_workers(self):
        parser = build_parser()
        for command in (["serve", "x.txt"], ["replay"]):
            for executor in ("serial", "workers"):
                args = parser.parse_args([*command, "--executor", executor])
                assert args.executor == executor
            for removed in ("gpu", "thread", "process"):
                with pytest.raises(SystemExit):
                    parser.parse_args([*command, "--executor", removed])


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

    def test_replay_builds_and_reports_throughput(self, ruleset_file, capsys):
        assert main(["replay", "--ruleset", str(ruleset_file), "--shards", "2",
                     "--classifier", "tm", "--executor", "serial", "--trace",
                     "uniform", "--packets", "100", "--batch-size", "32"]) == 0
        out = capsys.readouterr().out
        assert "sharded[2]" in out
        assert "modelled throughput Mpps" in out

    def test_executor_defaults(self, ruleset_file, capsys, tmp_path):
        from repro.engine import ClassificationEngine

        parser = build_parser()
        assert parser.parse_args(["replay"]).executor == "serial"
        # `serve` resolves its default at run time: a single shard has nothing
        # to fan out and is a plain engine, --listen or not; a snapshot
        # restores in-process too.
        assert parser.parse_args(["serve", "x.txt"]).executor is None
        saved = tmp_path / "one.json.gz"
        assert main(["serve", str(ruleset_file), "--shards", "1",
                     "--classifier", "tm", "--save", str(saved)]) == 0
        assert ClassificationEngine.load(saved).classifier_name == "tm"
        assert main(["replay", "--ruleset", str(saved), "--trace", "uniform",
                     "--packets", "50"]) == 0
        assert "engine[tm]" in capsys.readouterr().out

    def test_replay_generates_synthetic_ruleset_by_default(self, capsys):
        assert main(["replay", "--trace", "uniform", "--rules", "200",
                     "--packets", "400", "--batch-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "engine[tm]" in out
        assert "measured kpps" in out

    def test_replay_json_output(self, ruleset_file, capsys):
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
