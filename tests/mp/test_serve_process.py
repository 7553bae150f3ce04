"""The serve process backend: byte-identity, /healthz exposure and parity
with the thread backend."""

import contextlib
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ServiceConfig, ServiceThread, default_registry


class TestServeProcessBackend:
    @pytest.fixture(scope="class")
    def service(self):
        config = ServiceConfig(port=0, executor="process", workers=2)
        with ServiceThread(config=config) as thread:
            yield thread

    def test_healthz_reports_backend(self, service):
        health = service.client().healthz()
        assert health["executor"] == "process"
        assert health["workers"] == 2

    def test_responses_byte_identical_to_thread_backend(self, service):
        with ServiceThread(config=ServiceConfig(port=0)) as reference:
            ref_body, _ = reference.client().analyse_raw("blackscholes")
        client = service.client()
        first, _ = client.analyse_raw("blackscholes")
        second, _ = client.analyse_raw("blackscholes")
        assert first == ref_body
        assert second == ref_body

    def test_custom_inputs_round_trip(self, service):
        inputs = [[99.0, 101.0], [104.0, 106.0], 0.03, 0.25, 1.0]
        report = service.client().analyse("blackscholes", inputs)
        assert "graph" in report and "labelled_significances" in report

    @pytest.mark.parametrize(
        "kernel", ["dct", "sobel", "blackscholes", "fisheye", "nbody"]
    )
    def test_batched_responses_byte_identical(self, service, kernel):
        """Concurrent coalesced requests through the pool answer with the
        exact bytes sequential unbatched requests get — every kernel."""
        import threading

        client = service.client()
        # Warm every pool worker's cache so the parallel round replays.
        expect, _ = client.analyse_raw(kernel)
        again, _ = client.analyse_raw(kernel)
        assert again == expect
        n = 6
        results = [None] * n
        errors = []
        barrier = threading.Barrier(n)

        def worker(i):
            try:
                with service.client() as c:
                    barrier.wait()
                    results[i] = c.analyse_detail(kernel)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for body, outcome, (size, index), trace_id in results:
            assert body == expect
            assert 1 <= size <= 16 and 0 <= index < size
            assert len(trace_id) == 32

    def test_kernels_report_no_parent_cache(self, service):
        """Pool workers keep their own caches: /kernels reports none, and
        the trace_cache totals in /metrics count the workers' analyses."""
        client = service.client()

        def analysed() -> float:
            totals = dict(
                line.split(" ")
                for line in client.metrics().splitlines()
                if not line.startswith("#")
            )
            return sum(
                float(totals.get(f"repro_trace_cache_{name}_total", 0.0))
                for name in ("records", "replays")
            )

        before = analysed()
        client.analyse_raw("sobel")
        client.analyse_raw("sobel")
        assert analysed() == before + 2
        assert all(k["cache"] is None for k in client.kernels())

    def test_advise_and_tune_run_in_pool(self, service):
        client = service.client()
        advice = client.advise("blackscholes", threshold=0.25)
        assert advice["kernel"] == "blackscholes"
        assert "suggestions" in advice and "advice" in advice
        tuned = client.tune("dct", target_quality=30.0, size=16)
        assert tuned["mode"] == "target_quality"
        assert "taskwait" in tuned and "probes" in tuned

    def test_non_numeric_tune_objective_400(self, service):
        status, _, body = service.client().request_raw(
            "POST", "/tune", {"kernel": "dct", "energy_budget": "lots"}
        )
        assert status == 400
        detail = json.loads(body)["error"]["detail"]
        assert detail == "'energy_budget' must be a number"


class TestWorkerTapeStore:
    def test_pool_workers_attach_persisted_tapes(self, tmp_path):
        """With a tape store every pool worker warm-starts from disk: the
        first request a cold *worker* sees is already a replay."""
        store = str(tmp_path)
        # Populate the store with a cheap thread-backend server.
        with ServiceThread(
            config=ServiceConfig(port=0, store_dir=store)
        ) as seeder:
            body, outcome, _, _ = seeder.client().analyse_detail(
                "blackscholes"
            )
            assert outcome == "record"

        config = ServiceConfig(
            port=0, executor="process", workers=2, store_dir=store
        )
        with ServiceThread(config=config) as service:
            client = service.client()
            for _ in range(3):
                got, outcome, _, _ = client.analyse_detail("blackscholes")
                assert outcome == "replay"
                assert got == body


class TestServeConfigValidation:
    def test_unknown_backend_rejected(self):
        from repro.serve.app import SignificanceService

        with pytest.raises(ValueError, match="executor"):
            SignificanceService(config=ServiceConfig(executor="fibers"))

    def test_custom_registry_needs_thread_backend(self):
        from repro.serve.app import SignificanceService
        from repro.serve.kernels import default_registry

        with pytest.raises(ValueError, match="default registry"):
            SignificanceService(
                registry=default_registry(),
                config=ServiceConfig(executor="process"),
            )

    def test_thread_default_unchanged(self):
        with ServiceThread() as thread:
            health = thread.client().healthz()
            assert health["executor"] == "thread"


class TestErrorParity:
    """A failed analysis answers the same bytes on every backend."""

    # The log of a negative range: the analysis itself fails.
    BAD = {
        "kernel": "blackscholes",
        "inputs": [[-1, 1], [90, 110], [0.01, 0.05], [0.1, 0.3], [0.5, 1.5]],
    }

    def test_failed_analysis_identical_across_backends(self):
        """Cold (the recording fails) and warm (the replay fails), on
        /analyse and /advise."""
        answers = {}
        for executor in ("thread", "process"):
            for max_batch in (1, 16):
                config = ServiceConfig(
                    port=0, executor=executor, workers=1, max_batch=max_batch
                )
                with ServiceThread(config=config) as service:
                    with service.client() as client:
                        cold = client.request_raw("POST", "/analyse", self.BAD)
                        cold_advice = client.request_raw(
                            "POST", "/advise", self.BAD
                        )
                        client.analyse_raw("blackscholes")
                        warm = client.request_raw("POST", "/analyse", self.BAD)
                        warm_advice = client.request_raw(
                            "POST", "/advise", self.BAD
                        )
                answers[executor, max_batch] = tuple(
                    (status, body)
                    for status, _, body in (
                        cold, cold_advice, warm, warm_advice
                    )
                )
        assert len(set(answers.values())) == 1, answers
        for status, body in answers["thread", 16]:
            assert status == 500
            detail = json.loads(body)["error"]["detail"]
            assert detail.startswith("ValueError: log domain error")


# The parity property's services: both backends at both batch settings,
# long-lived across examples, with one worker each so every backend keeps
# exactly one cache per kernel.
PARITY_SERVICES = [
    (executor, max_batch)
    for executor in ("thread", "process")
    for max_batch in (1, 16)
]
SMALL_KERNELS = ("sobel", "blackscholes", "fisheye", "nbody")
DEFAULTS = {
    kid: [(iv.lo, iv.hi) for iv in default_registry()[kid].defaults()]
    for kid in SMALL_KERNELS
}


def _shifted(kernel, shift):
    """The kernel's default ranges, each moved by ``shift`` widths."""
    return [
        [lo + shift * (hi - lo), hi + shift * (hi - lo)]
        for lo, hi in DEFAULTS[kernel]
    ]


@st.composite
def _valid(draw):
    kernel = draw(st.sampled_from(SMALL_KERNELS))
    payload = {"kernel": kernel}
    shift = draw(st.none() | st.floats(-0.5, 0.5))
    if shift is not None:
        payload["inputs"] = _shifted(kernel, shift)
    return draw(st.sampled_from(["/analyse", "/advise"])), payload


@st.composite
def _malformed(draw):
    kernel = draw(st.sampled_from(SMALL_KERNELS))
    ranges = _shifted(kernel, 0.0)
    bad = draw(st.sampled_from([math.inf, -math.inf, math.nan, "one"]))
    payload = draw(
        st.sampled_from(
            [
                {"kernel": "mandelbrot"},
                {"inputs": ranges},
                {"kernel": kernel, "inputs": ranges[:-1]},
                {"kernel": kernel, "inputs": [[hi, lo] for lo, hi in ranges]},
                {"kernel": kernel, "inputs": [[bad, 1.0]] * len(ranges)},
            ]
        )
    )
    return draw(st.sampled_from(["/analyse", "/advise"])), payload


@st.composite
def _bad_threshold(draw):
    kernel = draw(st.sampled_from(SMALL_KERNELS))
    threshold = draw(st.sampled_from(["high", True, None, [0.25]]))
    return "/advise", {"kernel": kernel, "threshold": threshold}


@st.composite
def _failing(draw):
    """BlackScholes with the spot price S straddling zero: log fails."""
    below = draw(st.floats(0.5, 50.0))
    above = draw(st.floats(0.5, 50.0))
    inputs = [[-below, above]] + [list(r) for r in DEFAULTS["blackscholes"][1:]]
    path = draw(st.sampled_from(["/analyse", "/advise"]))
    return path, {"kernel": "blackscholes", "inputs": inputs}


class TestBackendParity:
    """Request sequences answer alike on every backend and batch setting.

    Valid, malformed and failing requests go to four long-lived services
    in the same order; status, body, ``X-Repro-Cache`` and
    ``X-Repro-Batch`` must match on all four, and the two thread
    services' ``/kernels`` cache stats must match each other.

    Guard-divergent and ambiguous-comparison requests cannot be reached
    here: none of the five served kernels records a guard (the recorded
    tapes at the defaults have no guards), and the process backend
    refuses a custom registry that could bring one.
    """

    @pytest.fixture(scope="class")
    def services(self):
        # Stopped in reverse start order: each service restores the
        # tracing flag it found when it started.
        with contextlib.ExitStack() as stack:
            clients = {}
            for executor, max_batch in PARITY_SERVICES:
                config = ServiceConfig(
                    port=0, executor=executor, workers=1, max_batch=max_batch
                )
                thread = stack.enter_context(ServiceThread(config=config))
                clients[executor, max_batch] = stack.enter_context(
                    thread.client()
                )
            yield clients

    @settings(max_examples=40, deadline=None)
    @given(
        sequence=st.lists(
            _valid() | _malformed() | _bad_threshold() | _failing(),
            min_size=1,
            max_size=6,
        )
    )
    def test_request_sequences_answer_alike(self, services, sequence):
        for path, payload in sequence:
            answers = {}
            for key, client in services.items():
                status, headers, body = client.request_raw(
                    "POST", path, payload
                )
                answers[key] = (
                    status,
                    body,
                    headers.get("x-repro-cache"),
                    headers.get("x-repro-batch"),
                )
            assert len(set(answers.values())) == 1, (path, payload, answers)
        stats = {
            key: [(k["id"], k["cache"]) for k in client.kernels()]
            for key, client in services.items()
        }
        assert stats["thread", 1] == stats["thread", 16]
        for max_batch in (1, 16):
            assert all(cache is None for _, cache in stats["process", max_batch])
