"""Timeline (text Gantt) rendering."""

import pytest

from repro.diagrams import timeline_text, utilization_summary
from repro.simulation import LogFile, parse_log


def make_log():
    writer = LogFile()
    spans = [
        ("cpu1", "alpha", 0, 1000),
        ("cpu1", "beta", 1000, 1000),
        ("cpu2", "alpha", 500, 2000),
        ("-", "env1", 0, 0),
    ]
    for pe, process, time_ps, duration_ps in spans:
        writer.exec_step(
            time_ps=time_ps, process=process, pe=pe, cycles=duration_ps,
            duration_ps=duration_ps, from_state="s", to_state="s", trigger="t",
        )
    writer.finish(4000)
    return parse_log(writer.render())


class TestTimeline:
    def test_tracks_per_pe(self):
        text = timeline_text(make_log(), width=40)
        lines = text.splitlines()
        assert any(line.strip().startswith("cpu1 |") for line in lines)
        assert any(line.strip().startswith("cpu2 |") for line in lines)
        # the environment pseudo-PE gets no track
        assert not any("env1 |" in line for line in lines)

    def test_symbols_distinct_and_in_legend(self):
        text = timeline_text(make_log(), width=40)
        legend_line = [l for l in text.splitlines() if l.startswith("legend")][0]
        assert "alpha" in legend_line
        assert "beta" in legend_line
        # two processes sharing an initial get distinct symbols
        marks = [
            part.split("=")[0].strip() for part in legend_line[8:].split(",")
            if "=" in part and "idle" not in part and "multiple" not in part
        ]
        assert len(set(marks)) == len(marks)

    def test_busy_columns_marked(self):
        text = timeline_text(make_log(), width=40)
        cpu1_line = [l for l in text.splitlines() if "cpu1 |" in l][0]
        track = cpu1_line.split("|")[1]
        assert track.count(".") < len(track)  # some busy columns
        # after 2000 ps cpu1 is idle: second half mostly dots
        assert set(track[len(track) // 2:]) == {"."}

    def test_window_selection(self):
        text = timeline_text(make_log(), width=40, start_ps=2000, end_ps=4000)
        cpu1_line = [l for l in text.splitlines() if "cpu1 |" in l]
        # cpu1 has no execution after 2000 ps -> no track or an idle track
        if cpu1_line:
            assert set(cpu1_line[0].split("|")[1]) == {"."}

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            timeline_text(make_log(), start_ps=5, end_ps=5)


class TestUtilizationSummary:
    def test_one_line_per_pe(self):
        text = utilization_summary(make_log())
        assert "cpu1" in text and "cpu2" in text
        assert "env1" not in text

    def test_shares_computed(self):
        text = utilization_summary(make_log())
        cpu1_line = [l for l in text.splitlines() if "cpu1" in l][0]
        assert "50.0%" in cpu1_line  # 2000 of 4000 ps


class TestCli:
    def test_tables_command(self, capsys):
        from repro.__main__ import main

        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 3" in out

    def test_tutmac_command(self, capsys):
        from repro.__main__ import main

        assert main(["tutmac", "--duration-us", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Process group execution times" in out

    def test_validate_command(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.cases.tutmac import build_tutmac
        from repro.uml import write_model

        path = tmp_path / "m.xmi"
        write_model(build_tutmac().model, path)
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_flow_command(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["flow", "--workdir", str(tmp_path), "--duration-us", "20000"]) == 0
        out = capsys.readouterr().out
        assert "artefacts:" in out
        import os

        assert os.path.exists(tmp_path / "model.xmi")

    def test_timeline_command(self, capsys):
        from repro.__main__ import main

        assert main(["timeline", "--duration-us", "3000", "--window-us", "2000",
                     "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "processor1" in out
