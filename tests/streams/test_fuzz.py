"""The seeded protocol fuzzer: determinism, coverage, and the contract.

A small seeded matrix runs here (the CI ``fuzz`` job soaks hundreds of
seeds); what this file pins is the machinery itself — plans rebuild
bit-identically from their seed, every mutation class is reachable,
and a run against live fronts ends with zero contract violations.
"""

import socket
import struct
import threading

import pytest

from repro.errors import ConfigurationError
from repro.streams.fuzz import (
    CLEAN_EVERY,
    MUTATIONS,
    FuzzCase,
    FuzzHarness,
    FuzzPlan,
    run_fuzz,
)


class TestPlans:
    def test_plan_is_deterministic_from_seed(self):
        for seed in range(30):
            first = FuzzPlan.from_seed(seed)
            second = FuzzPlan.from_seed(seed)
            assert first == second
            assert first.wire_bytes() == second.wire_bytes()

    def test_clean_cells_land_on_schedule(self):
        for seed in range(3 * CLEAN_EVERY):
            plan = FuzzPlan.from_seed(seed)
            assert (plan.mutation == "clean") == (seed % CLEAN_EVERY == 0)

    def test_every_mutation_class_is_reachable(self):
        seen = {FuzzPlan.from_seed(seed).mutation for seed in range(400)}
        assert set(MUTATIONS) <= seen

    def test_mutated_bytes_differ_from_clean_script(self):
        plan = FuzzPlan.from_seed(3)
        assert plan.mutation != "clean"
        assert plan.wire_bytes() != b"".join(plan.script())

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fuzz target"):
            FuzzPlan.from_seed(1, targets=("service", "typo"))


class TestRun:
    @pytest.mark.slow
    def test_small_matrix_honours_the_contract(self):
        report = run_fuzz(range(24))
        assert report.cases and len(report.cases) == 24
        assert report.thread_exceptions == []
        assert report.failures == [], [
            (case.seed, case.mutation, case.outcome, case.detail)
            for case in report.failures
        ]
        # clean cells were actually exercised and accepted
        clean = [c for c in report.cases if c.mutation == "clean"]
        assert clean and all(c.outcome == "accepted" for c in clean)

    @pytest.mark.slow
    def test_single_target_run(self):
        with FuzzHarness() as harness:
            report = run_fuzz(
                range(101, 109), targets=("host",), harness=harness
            )
        assert all(case.target == "host" for case in report.cases)
        assert report.ok, report.to_dict()

    def test_a_front_that_resets_fails_the_case(self, monkeypatch):
        listener = socket.create_server(("127.0.0.1", 0))
        address = f"127.0.0.1:{listener.getsockname()[1]}"

        def reset_after_16_bytes():
            conn, _ = listener.accept()
            conn.recv(16)
            linger = struct.pack("ii", 1, 0)  # close() sends a reset
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, linger)
            conn.close()

        thread = threading.Thread(target=reset_after_16_bytes, daemon=True)
        thread.start()
        plan = FuzzPlan.from_seed(3)
        assert plan.mutation != "clean"
        try:
            with FuzzHarness() as harness:
                monkeypatch.setattr(harness, "address_for", lambda _t: address)
                outcome, detail = harness._exchange(
                    plan.target, plan.wire_bytes()
                )
        finally:
            thread.join(timeout=5.0)
            listener.close()
        case = FuzzCase(plan.seed, plan.target, plan.mutation, outcome, detail)
        assert outcome == "reset", detail
        assert not case.ok

    def test_report_shape(self):
        report = run_fuzz(range(1, 4), targets=("service",))
        payload = report.to_dict()
        assert payload["cases"] == 3
        assert set(payload) >= {
            "ok",
            "outcomes",
            "mutations",
            "failures",
            "thread_exceptions",
        }
