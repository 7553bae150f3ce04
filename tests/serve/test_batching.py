"""Micro-batched /analyse (:mod:`repro.serve.batching`) + warm starts.

The contract under test: coalescing concurrent requests into one
lane-batched sweep changes *nothing* about the responses — N parallel
batched answers are byte-identical to the same N requests issued
sequentially against an unbatched server (and to in-process analysis) —
and a server restarted over a populated tape store serves its first
request as a replay.
"""

import asyncio
import json
import threading

import pytest

from repro.scorpio import TraceCache
from repro.scorpio.serialize import report_to_dict
from repro.serve import ServiceConfig, ServiceThread, default_registry
from repro.serve.batching import KernelBatcher
from repro.serve.kernels import parse_intervals

KERNELS = ("dct", "sobel", "blackscholes", "fisheye", "nbody")


def _inputs_for(entry, i: int):
    """Request i's input ranges: the kernel defaults, nudged per i."""
    return [
        [iv.lo - 0.001 * i, iv.hi + 0.001 * i]
        for iv in parse_intervals(None, entry)
    ]


def _parallel(service, kernel, inputs_list):
    """One thread per request, all released together; ordered results."""
    n = len(inputs_list)
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def worker(i):
        try:
            with service.client() as client:
                barrier.wait()
                results[i] = client.analyse_detail(kernel, inputs_list[i])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return results


class TestBatchedByteIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_parallel_batched_equals_sequential_unbatched(self, kernel):
        registry = default_registry()
        entry = registry[kernel]
        n = 4
        inputs_list = [_inputs_for(entry, i) for i in range(n)]

        # Reference: in-process analysis through a plain TraceCache,
        # encoded by the reference json.dumps path — the same bytes an
        # unbatched server would answer.
        cache = TraceCache()
        expect = []
        for inputs in inputs_list:
            report, _ = cache.analyse_outcome(
                entry.cache_key,
                entry.recorder,
                parse_intervals(inputs, entry),
                simplify=entry.simplify,
            )
            expect.append(
                json.dumps(report_to_dict(report), indent=2).encode("utf-8")
            )

        with ServiceThread() as service:
            # Warm the trace so every parallel request is a replay lane.
            with service.client() as client:
                client.analyse(kernel, inputs_list[0])
            results = _parallel(service, kernel, inputs_list)

        for i, (body, outcome, (size, index), trace_id) in enumerate(results):
            assert body == expect[i], f"lane {i} not byte-identical"
            assert outcome == "replay"
            assert 1 <= size <= 16 and 0 <= index < size
            assert len(trace_id) == 32

    def test_concurrent_requests_coalesce(self):
        registry = default_registry()
        entry = registry["sobel"]
        n = 8
        inputs_list = [_inputs_for(entry, 0)] * n
        with ServiceThread() as service:
            with service.client() as client:
                client.analyse("sobel", inputs_list[0])
            results = _parallel(service, "sobel", inputs_list)
        sizes = [size for _, _, (size, _), _ in results]
        assert max(sizes) > 1, f"nothing coalesced: {sizes}"
        indices = [
            (size, index) for _, _, (size, index), _ in results if size > 1
        ]
        # Lane indices within one batch size are distinct per batch.
        assert all(0 <= index < size for size, index in indices)


class TestConfigSurface:
    def test_healthz_reports_batching_config(self, tmp_path):
        config = ServiceConfig(
            port=0,
            max_batch=7,
            store_dir=str(tmp_path),
        )
        with ServiceThread(config=config) as service:
            with service.client() as client:
                health = client.healthz()
        assert "batch_window_ms" not in health
        assert health["max_batch"] == 7
        assert health["store_dir"] == str(tmp_path)

    def test_max_batch_one_disables_batching(self):
        with ServiceThread(
            config=ServiceConfig(port=0, max_batch=1)
        ) as service:
            with service.client() as client:
                _, _, batch, _ = client.analyse_detail("blackscholes")
                assert batch == (1, 0)
                _, _, batch, _ = client.analyse_detail("blackscholes")
                assert batch == (1, 0)

    def test_store_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TAPE_DIR", str(tmp_path))
        with ServiceThread() as service:
            assert service.service.config.store_dir == str(tmp_path)
            with service.client() as client:
                assert client.healthz()["store_dir"] == str(tmp_path)


class TestWarmStart:
    def test_restart_serves_first_request_as_replay(self, tmp_path):
        config = lambda: ServiceConfig(port=0, store_dir=str(tmp_path))
        with ServiceThread(config=config()) as service:
            with service.client() as client:
                body, outcome, _, _ = client.analyse_detail("blackscholes")
                assert outcome == "record"

        # A brand-new server over the same store: no recording at all.
        with ServiceThread(config=config()) as service:
            with service.client() as client:
                body2, outcome2, _, _ = client.analyse_detail("blackscholes")
            stats = service.service.caches["blackscholes"].stats()
        assert outcome2 == "replay"
        assert body2 == body
        assert stats["records"] == 0 and stats["replays"] == 1


def _span_threads(client, trace_id, prefix):
    """Thread ids of the spans in a trace whose names start with ``prefix``."""
    tids = set()

    def walk(nodes):
        for node in nodes:
            if node["name"].startswith(prefix):
                tids.add(node["tid"])
            walk(node["children"])

    walk(client.debug_trace(trace_id)["spans"])
    return tids


class TestPoolDispatch:
    """Batches replay on a pool thread, never on the event loop."""

    def test_cold_and_warm_batches_run_off_the_loop(self):
        entry = default_registry()["sobel"]
        inputs_list = [_inputs_for(entry, i) for i in range(4)]
        with ServiceThread() as service:
            with service.client() as client:
                _, outcome, _, cold = client.analyse_detail(
                    "sobel", inputs_list[0]
                )
            assert outcome == "record"
            results = _parallel(service, "sobel", inputs_list)
            loop_tids, work_tids = set(), set()
            with service.client() as client:
                for trace in [cold] + [r[3] for r in results]:
                    loop_tids |= _span_threads(client, trace, "serve.batch")
                    # A batch's record/replay spans sit in its head's trace.
                    work_tids |= _span_threads(client, trace, "trace_cache.")
        # Batch spans open on the loop's thread; the work under them ran
        # on other threads.
        assert len(loop_tids) == 1
        assert work_tids and not work_tids & loop_tids


class TestKernelBatcher:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_lone_submit_dispatches_without_waiting(self):
        """No gathering window: a lone request is dispatched within bare
        loop turns, with no timer between the submit and the dispatch."""
        calls = []

        async def main():
            async def dispatch(batch):
                calls.append(list(batch))
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(max_batch=8, dispatch=dispatch)
            pending = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0)  # submit() queues "a", starts the task
            await asyncio.sleep(0)  # the task's first turn yields once
            await asyncio.sleep(0)  # ... and its second turn dispatches
            seen = [list(batch) for batch in calls]
            return seen, await pending

        seen, result = self._run(main())
        assert seen == [["a"]]
        assert result == (("ok", "a"), 1, 0)

    def test_a_request_one_turn_behind_joins_the_batch(self):
        """A request parsed in the turn after the first one's submit (its
        bytes were read together with the first's) shares its sweep."""
        calls = []

        async def main():
            async def dispatch(batch):
                calls.append(list(batch))
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(max_batch=8, dispatch=dispatch)
            first = asyncio.ensure_future(batcher.submit("a"))
            await asyncio.sleep(0)  # "a" is queued, the task starts next
            second = asyncio.ensure_future(batcher.submit("b"))
            return await asyncio.gather(first, second)

        results = self._run(main())
        assert calls == [["a", "b"]]
        sizes = [(size, index) for _, size, index in results]
        assert sizes == [(2, 0), (2, 1)]

    def test_arrivals_during_a_dispatch_form_the_next_batch(self):
        calls = []

        async def main():
            release = asyncio.Event()

            async def dispatch(batch):
                calls.append(list(batch))
                if len(calls) == 1:
                    await release.wait()
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(max_batch=8, dispatch=dispatch)
            first = asyncio.ensure_future(batcher.submit("a"))
            while not calls:
                await asyncio.sleep(0)
            rest = [asyncio.ensure_future(batcher.submit(x)) for x in "bcd"]
            await asyncio.sleep(0)
            release.set()
            return await asyncio.gather(first, *rest)

        results = self._run(main())
        assert calls == [["a"], ["b", "c", "d"]]
        assert [(size, index) for _, size, index in results] == [
            (1, 0),
            (3, 0),
            (3, 1),
            (3, 2),
        ]

    def test_coalesces_up_to_max_batch(self):
        calls = []

        async def main():
            async def dispatch(batch):
                calls.append(len(batch))
                return [("ok", item) for item in batch]

            batcher = KernelBatcher(max_batch=3, dispatch=dispatch)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(7))
            )
            return results

        results = self._run(main())
        assert [item[1] for item, _, _ in results] == list(range(7))
        assert all(1 <= size <= 3 and 0 <= index < size for _, size, index in results)
        assert max(calls) <= 3 and sum(calls) == 7

    def test_per_request_error_isolation(self):
        async def main():
            async def dispatch(batch):
                return [
                    ("err", ValueError("bad lane"))
                    if item == "poison"
                    else ("ok", item)
                    for item in batch
                ]

            batcher = KernelBatcher(max_batch=8, dispatch=dispatch)
            return await asyncio.gather(
                batcher.submit("a"),
                batcher.submit("poison"),
                batcher.submit("b"),
            )

        a, poison, b = self._run(main())
        assert a[0] == ("ok", "a") and b[0] == ("ok", "b")
        assert poison[0][0] == "err"
        assert isinstance(poison[0][1], ValueError)

    def test_dispatch_exception_fans_out(self):
        async def main():
            async def dispatch(batch):
                raise RuntimeError("sweep exploded")

            batcher = KernelBatcher(max_batch=8, dispatch=dispatch)
            results = await asyncio.gather(
                batcher.submit(1),
                batcher.submit(2),
                return_exceptions=True,
            )
            return results

        results = self._run(main())
        assert all(
            isinstance(r, RuntimeError) and "sweep exploded" in str(r)
            for r in results
        )

    def test_wrong_item_count_is_an_error(self):
        async def main():
            async def dispatch(batch):
                return [("ok", 1)] * (len(batch) + 1)

            batcher = KernelBatcher(max_batch=4, dispatch=dispatch)
            return await asyncio.gather(
                batcher.submit(1), return_exceptions=True
            )

        [result] = self._run(main())
        assert isinstance(result, RuntimeError)

    def test_rejects_bad_max_batch(self):
        with pytest.raises(ValueError):
            KernelBatcher(max_batch=0, dispatch=None)
