"""CLI tests (argument wiring and end-to-end subcommands)."""

import os

import pytest

from repro.cli import main
from repro.datagen.sample import QUERY_COUNT


@pytest.fixture
def bib_file(tmp_path):
    path = os.path.join(tmp_path, "bib.xml")
    assert main(["generate", "--articles", "30", "--authors", "10", path]) == 0
    return path


class TestGenerate:
    def test_writes_xml(self, bib_file):
        with open(bib_file, encoding="utf-8") as handle:
            text = handle.read()
        assert text.startswith("<?xml")
        assert "<article>" in text

    def test_deterministic_with_seed(self, tmp_path):
        a = os.path.join(tmp_path, "a.xml")
        b = os.path.join(tmp_path, "b.xml")
        main(["generate", "--articles", "10", "--seed", "3", a])
        main(["generate", "--articles", "10", "--seed", "3", b])
        assert open(a).read() == open(b).read()


class TestQuery:
    def test_default_query1(self, bib_file, capsys):
        assert main(["query", bib_file]) == 0
        out = capsys.readouterr().out
        assert "authorpubs" in out

    def test_query_file_and_plan(self, bib_file, tmp_path, capsys):
        query_path = os.path.join(tmp_path, "q.xq")
        with open(query_path, "w", encoding="utf-8") as handle:
            handle.write(QUERY_COUNT)
        assert main(["query", bib_file, "--plan", "naive", "--query-file", query_path]) == 0
        assert "authorpubs" in capsys.readouterr().out

    def test_explain(self, bib_file, capsys):
        assert main(["explain", bib_file]) == 0
        out = capsys.readouterr().out
        assert "naive (join) plan" in out
        assert "GROUPBY" in out

    def test_info(self, bib_file, capsys):
        assert main(["info", bib_file]) == 0
        out = capsys.readouterr().out
        assert "document bib.xml" in out
        assert "article=" in out


class TestQueryTimeout:
    def test_expired_timeout_exits_2(self, bib_file, capsys):
        assert main(["query", bib_file, "--timeout", "0"]) == 2
        assert "timed out" in capsys.readouterr().err

    def test_generous_timeout_succeeds(self, bib_file, capsys):
        assert main(["query", bib_file, "--timeout", "60"]) == 0
        assert "authorpubs" in capsys.readouterr().out

    def test_timeout_with_plan_and_analyze(self, bib_file, capsys):
        assert main(["query", bib_file, "--plan", "naive", "--analyze", "--timeout", "0"]) == 2
        assert "timed out" in capsys.readouterr().err


class TestLoad:
    def test_load_streams_into_directory(self, bib_file, tmp_path, capsys):
        directory = os.path.join(tmp_path, "db")
        assert main(["load", bib_file, directory, "--batch-size", "60"]) == 0
        out = capsys.readouterr().out
        assert "loaded bib.xml:" in out
        assert "batch(es)" in out
        # More than one batch at this size, and the store persisted.
        from repro.query.database import Database

        with Database(directory) as db:
            report = db.verify()
            assert report.ok and report.index_fresh
            assert "bib.xml" in db.documents()

    def test_load_progress_goes_to_stderr(self, bib_file, tmp_path, capsys):
        directory = os.path.join(tmp_path, "db")
        assert (
            main(
                [
                    "load",
                    bib_file,
                    directory,
                    "--batch-size",
                    "60",
                    "--progress",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "batch 1:" in captured.err
        assert "generation" in captured.err

    def test_load_custom_name(self, bib_file, tmp_path, capsys):
        directory = os.path.join(tmp_path, "db")
        assert main(["load", bib_file, directory, "--name", "other.xml"]) == 0
        assert "loaded other.xml:" in capsys.readouterr().out


class TestServe:
    def test_serve_end_to_end(self, bib_file):
        import json
        import socket

        from repro.datagen.sample import QUERY_1
        from repro.query.database import Database
        from repro.service import QueryService, ServiceConfig
        from repro.service.server import serve

        # Exercise the same wiring `timber-py serve` performs, against
        # an ephemeral port (serve_forever itself would block main()).
        db = Database()
        db.load(path=bib_file, name="bib.xml")
        service = QueryService(db, ServiceConfig(workers=2))
        server = serve(service, port=0)
        server.serve_background()
        try:
            with socket.create_connection(server.endpoint, timeout=30.0) as sock:
                handle = sock.makefile("rw", encoding="utf-8", newline="\n")
                handle.write("QUERY " + json.dumps({"q": QUERY_1}) + "\n")
                handle.flush()
                reply = handle.readline().strip()
            assert reply.startswith("OK ")
            assert json.loads(reply[3:])["rows"] > 0
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            db.close()

    def test_serve_flags_parse(self):
        # Argument wiring only: bad flag values must be rejected by
        # argparse before any server starts.
        with pytest.raises(SystemExit):
            main(["serve", "nope.xml", "--port", "not-a-port"])

    def test_serve_foreground_sigterm_drains_cleanly(self, bib_file):
        import re
        import signal
        import socket
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                bib_file,
                "--port",
                "0",
                "--workers",
                "2",
                "--drain-seconds",
                "5",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = process.stderr.readline()
            match = re.search(r"on 127\.0\.0\.1:(\d+)", banner)
            assert match, f"no endpoint in banner: {banner!r}"
            port = int(match.group(1))
            with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
                handle = sock.makefile("rw", encoding="utf-8", newline="\n")
                handle.write("PING\n")
                handle.flush()
                assert handle.readline().strip() == 'OK {"pong": true}'
                process.send_signal(signal.SIGTERM)
                # The drain tells this idle connection BYE, then closes.
                assert handle.readline().strip() == "BYE"
            returncode = process.wait(timeout=30.0)
            remainder = process.stderr.read()
            assert returncode == 0, remainder
            assert "draining" in remainder
            assert "drain: clean" in remainder
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)


def test_experiment_subcommand_rejected():
    """The paper's evaluation lives in the tier-1 counter tests and the
    repository benchmark; there is no ``experiment`` subcommand."""
    with pytest.raises(SystemExit):
        main(["experiment", "e1"])


class TestVerifyRepair:
    @pytest.fixture
    def db_dir(self, tmp_path):
        from repro.datagen.sample import figure6_database
        from repro.storage.store import NodeStore

        directory = os.path.join(tmp_path, "db")
        with NodeStore(directory) as store:
            store.load_tree(figure6_database(), "a.xml")
        return directory

    def _corrupt(self, directory):
        from repro.storage.store import DATA_FILE

        with open(os.path.join(directory, DATA_FILE), "r+b") as handle:
            handle.seek(80)
            handle.write(b"\x00\xff\x00\xff")

    def test_verify_clean_store(self, db_dir, capsys):
        assert main(["verify", db_dir]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

    def test_verify_corrupt_store_exits_nonzero(self, db_dir, capsys):
        self._corrupt(db_dir)
        assert main(["verify", db_dir]) == 1
        out = capsys.readouterr().out
        assert "verdict: CORRUPT" in out
        assert "a.xml" in out

    def test_repair_then_verify_ok(self, db_dir, capsys):
        self._corrupt(db_dir)
        assert main(["repair", db_dir]) == 0
        out = capsys.readouterr().out
        assert "quarantined 1 page(s)" in out
        assert "dropped 1 document(s)" in out
        capsys.readouterr()
        assert main(["verify", db_dir]) == 0
        assert "verdict: OK" in capsys.readouterr().out

    def test_repair_clean_store_is_noop(self, db_dir, capsys):
        assert main(["repair", db_dir]) == 0
        out = capsys.readouterr().out
        assert "quarantined 0 page(s)" in out


def test_cluster_command_reports_identity(capsys):
    assert main(
        ["cluster", "--shards", "2", "--articles", "24", "--authors", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "identical to single-node: yes" in out
    assert "=== cluster plan ===" in out
    assert "health: ok" in out


def test_cluster_command_degrade_path(capsys):
    assert main(
        [
            "cluster",
            "--shards", "2",
            "--articles", "24",
            "--authors", "8",
            "--degrade",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "PartialResultError" in out
    assert "health: degraded" in out
