"""The ``obs`` subcommand and the ``--from-jsonl`` replay paths.

Exit-code contract: happy paths exit 0; empty/truncated telemetry files
and unknown run references exit 2 with a single ``error: ...`` line.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import Tracer, use_tracer, write_jsonl
from repro.obs.registry import MANIFEST_FILE, STREAM_FILE


def _make_run(
    tmp_path,
    run_id="20260808T000000-fig6",
    *,
    docs=None,
    status="complete",
    stream=True,
):
    runs = tmp_path / "runs"
    run_dir = runs / run_id
    run_dir.mkdir(parents=True)
    if docs is None:
        docs = [
            {"t": 100.0, "counters": {"mc.frames": 10, "mc.nodes_expanded": 1000}},
            {"t": 102.0, "counters": {"mc.frames": 30, "mc.nodes_expanded": 5000}},
        ]
    if stream:
        (run_dir / STREAM_FILE).write_text(
            "".join(json.dumps(d) + "\n" for d in docs)
        )
    if status is not None:
        (run_dir / MANIFEST_FILE).write_text(
            json.dumps({"run_id": run_id, "status": status})
        )
    return runs, run_id


class TestObsTail:
    def test_tail_prints_one_line_per_snapshot(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path)
        assert main(["obs", "--dir", str(runs), "tail", run_id]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert "frames" in out[0]
        assert "fr/s" in out[1]  # rates appear from the second line on

    def test_tail_resolves_latest(self, tmp_path, capsys):
        runs, _ = _make_run(tmp_path)
        assert main(["obs", "--dir", str(runs), "tail", "latest"]) == 0
        assert capsys.readouterr().out.strip()

    def test_follow_drains_then_stops_on_finished_run(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path, status="failed")
        code = main(
            ["obs", "--dir", str(runs), "tail", run_id, "-f", "--poll", "0.01"]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_empty_stream_exits_2(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path, docs=[])
        assert main(["obs", "--dir", str(runs), "tail", run_id]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "empty" in err

    def test_truncated_stream_exits_2(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path, stream=False)
        (runs / run_id / STREAM_FILE).write_text('{"t": 1.0}\n{"t": 2.')
        assert main(["obs", "--dir", str(runs), "tail", run_id]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_stream_exits_2(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path, stream=False)
        assert main(["obs", "--dir", str(runs), "tail", run_id]) == 2
        assert "no metrics stream" in capsys.readouterr().err

    def test_unknown_run_exits_2(self, tmp_path, capsys):
        runs, _ = _make_run(tmp_path)
        assert main(["obs", "--dir", str(runs), "tail", "nope"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestObsTop:
    def test_top_renders_snapshot_table(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path)
        assert main(["obs", "--dir", str(runs), "top", run_id]) == 0
        out = capsys.readouterr().out
        assert f"run {run_id}" in out
        assert "2 snapshot(s)" in out
        assert "frames" in out

    def test_top_on_empty_stream_exits_2(self, tmp_path, capsys):
        runs, run_id = _make_run(tmp_path, docs=[])
        assert main(["obs", "--dir", str(runs), "top", run_id]) == 2
        assert "empty" in capsys.readouterr().err


def _event_log(tmp_path):
    tracer = Tracer()
    with use_tracer(tracer):
        with tracer.span("mc.block", snr_db=8.0):
            tracer.instant("mc.heartbeat", blocks_done=1)
    return write_jsonl(tracer, tmp_path / "events.jsonl")


class TestFromJsonl:
    def test_trace_rerenders_saved_log(self, tmp_path, capsys):
        log = _event_log(tmp_path)
        out_path = tmp_path / "trace.json"
        code = main(
            ["trace", "--from-jsonl", str(log), "--out", str(out_path)]
        )
        assert code == 0
        assert "Chrome trace written" in capsys.readouterr().out
        doc = json.loads(out_path.read_text())
        assert any(
            ev.get("name") == "mc.block" for ev in doc["traceEvents"]
        )

    def test_stats_summarises_saved_log(self, tmp_path, capsys):
        log = _event_log(tmp_path)
        assert main(["stats", "--from-jsonl", str(log)]) == 0
        out = capsys.readouterr().out
        assert str(log) in out
        assert "mc.block" in out

    def test_empty_log_exits_2(self, tmp_path, capsys):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        assert main(["trace", "--from-jsonl", str(log)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_truncated_log_exits_2(self, tmp_path, capsys):
        good = _event_log(tmp_path)
        clipped = tmp_path / "clipped.jsonl"
        clipped.write_text(good.read_text()[:-10])
        assert main(["stats", "--from-jsonl", str(clipped)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_log_exits_2(self, tmp_path, capsys):
        assert (
            main(["trace", "--from-jsonl", str(tmp_path / "absent.jsonl")])
            == 2
        )
        assert "no JSONL event log" in capsys.readouterr().err
