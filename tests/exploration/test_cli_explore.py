"""``repro explore`` CLI: supervisor flags and the exit-code contract.

0 = clean campaign, 3 = interrupted (covered by the subprocess tests in
``test_interrupt.py``), 4 = completed but with quarantined candidates.
Failures print a one-line footer in text output and land in the
``supervisor`` block of the JSON envelope.
"""

from __future__ import annotations

import json
import signal

from repro.__main__ import main

EXPLORE = ["explore", "--limit", "3", "--duration-us", "2000"]


class TestExitCodeContract:
    def test_clean_campaign_exits_0_without_footer(self, capsys):
        assert main(EXPLORE) == 0
        out = capsys.readouterr().out
        assert "evaluated 3 of 3 candidates" in out
        assert "failures:" not in out

    def test_recovered_failures_exit_0_with_footer(self, capsys):
        assert main(EXPLORE + ["--inject-worker-fault", "0:flaky"]) == 0
        out = capsys.readouterr().out
        assert "evaluated 3 of 3 candidates" in out
        assert "failures: 0 timeouts, 0 crashes, 1 errors;" in out
        assert "1 retries, 0 quarantined" in out

    def test_quarantined_candidate_exits_4(self, capsys):
        assert main(EXPLORE + ["--inject-worker-fault", "1:poison"]) == 4
        out = capsys.readouterr().out
        assert "evaluated 2 of 2 candidates" in out
        assert "1 quarantined" in out

    def test_malformed_fault_entry_exits_2(self, capsys):
        assert main(EXPLORE + ["--inject-worker-fault", "1:segfault"]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_bad_policy_rejected(self, capsys):
        assert main(EXPLORE + ["--timeout", "0"]) != 0


class TestTimeoutLedger:
    def test_timed_out_worker_is_ledgered_as_sigterm_death(self, capsys):
        # workers drop the CLI's SIGTERM -> KeyboardInterrupt handler, so a
        # worker killed at its deadline dies by the signal, as it does
        # under run_candidates
        code = main(
            EXPLORE
            + ["--workers", "2", "--timeout", "1", "--format", "json",
               "--inject-worker-fault", "1:hang"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        block = json.loads(captured.out)["results"]["supervisor"]
        assert block["timeouts"] == 1
        [failure] = block["failures"]
        assert failure["kind"] == "timeout"
        assert failure["exitcode"] == -signal.SIGTERM


class TestJsonSupervisorBlock:
    def test_quarantine_ledger_in_envelope(self, capsys):
        code = main(
            EXPLORE
            + ["--format", "json", "--inject-worker-fault", "1:poison"]
        )
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.explore/1"
        block = payload["results"]["supervisor"]
        assert block["quarantined"] == 1
        assert block["errors"] == 3
        quarantine = block["quarantine"]
        assert len(quarantine) == 1
        assert quarantine[0]["index"] == 1
        assert quarantine[0]["reason"] == "failure-budget"
        assert len(block["failures"]) == 3
        assert all(
            failure["detail"].startswith("WorkerFaultError")
            for failure in block["failures"]
        )

    def test_clean_run_has_zeroed_block(self, capsys):
        assert main(EXPLORE + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        block = payload["results"]["supervisor"]
        assert block["timeouts"] == 0
        assert block["crashes"] == 0
        assert block["errors"] == 0
        assert block["retries"] == 0
        assert block["quarantined"] == 0
        assert block["failures"] == []
        assert block["quarantine"] == []
        assert block["degraded_to_serial"] is False
