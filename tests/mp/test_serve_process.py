"""The serve process backend: byte-identity and /healthz exposure."""

import json

import pytest

from repro.serve import ServiceConfig, ServiceThread


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

    def test_advise_and_tune_run_in_pool(self, service):
        client = service.client()
        advice = client.advise("blackscholes", threshold=0.25)
        assert advice["kernel"] == "blackscholes"
        assert "suggestions" in advice and "advice" in advice
        tuned = client.tune("dct", target_quality=30.0, size=16)
        assert tuned["mode"] == "target_quality"
        assert "taskwait" in tuned and "probes" in tuned


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
    """A failed /analyse answers the same bytes on every backend."""

    # The log of a negative range: the analysis itself fails.
    BAD = {
        "kernel": "blackscholes",
        "inputs": [[-1, 1], [90, 110], [0.01, 0.05], [0.1, 0.3], [0.5, 1.5]],
    }

    def test_failed_analysis_identical_across_backends(self):
        """Cold (the recording fails) and warm (the replay fails)."""
        answers = {}
        for executor in ("thread", "process"):
            for max_batch in (1, 16):
                config = ServiceConfig(
                    port=0, executor=executor, workers=1, max_batch=max_batch
                )
                with ServiceThread(config=config) as service:
                    with service.client() as client:
                        cold = client.request_raw("POST", "/analyse", self.BAD)
                        client.analyse_raw("blackscholes")
                        warm = client.request_raw("POST", "/analyse", self.BAD)
                answers[executor, max_batch] = tuple(
                    (status, body) for status, _, body in (cold, warm)
                )
        assert len(set(answers.values())) == 1, answers
        for status, body in answers["thread", 16]:
            assert status == 500
            detail = json.loads(body)["error"]["detail"]
            assert detail.startswith("ValueError: log domain error")
