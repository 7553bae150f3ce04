"""End-to-end tests of the significance service.

One server thread per module; every test talks to it through the stdlib
client exactly like an external tenant would.
"""

import dataclasses
import json
import re

import pytest

from repro.intervals import Interval
from repro.runtime.tuning import min_ratio_for_quality
from repro.scorpio.advisor import suggest_approximations
from repro.scorpio.serialize import report_to_dict
from repro.serve import ServiceError, ServiceThread, default_registry
from repro.serve.kernels import parse_intervals, tune_setup

KERNELS = ("dct", "sobel", "blackscholes", "fisheye", "nbody")


@pytest.fixture(scope="module")
def service():
    with ServiceThread() as thread:
        yield thread


@pytest.fixture()
def client(service):
    with service.client() as c:
        yield c


class TestDiscovery:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert sorted(KERNELS) == health["kernels"]

    def test_kernels_lists_schemas(self, client):
        listing = {k["id"]: k for k in client.kernels()}
        assert set(listing) == set(KERNELS)
        assert listing["dct"]["inputs"] == 64
        assert listing["blackscholes"]["input_names"] == [
            "S",
            "K",
            "r",
            "v",
            "T",
        ]
        assert set(listing["sobel"]["cache"]) == {
            "records",
            "replays",
            "divergences",
            "validations",
            "traces",
        }


class TestAnalyse:
    @pytest.mark.parametrize("kernel_id", KERNELS)
    def test_byte_identical_to_in_process(self, client, kernel_id):
        """The acceptance gate: served bytes == the reference encoding
        of an in-process report."""
        entry = default_registry()[kernel_id]
        served, _outcome = client.analyse_raw(kernel_id)
        expected = json.dumps(
            report_to_dict(entry.analyse_in_process(entry.defaults())),
            indent=2,
        ).encode("utf-8")
        assert served == expected

    def test_repeat_request_replays(self, service, client):
        inputs = [[float(i) + 1.0, float(i) + 1.5] for i in range(5)]
        before = service.service.caches["blackscholes"].stats()
        first, outcome1 = client.analyse_raw("blackscholes", inputs)
        second, outcome2 = client.analyse_raw("blackscholes", inputs)
        after = service.service.caches["blackscholes"].stats()
        assert first == second
        assert outcome2 == "replay"
        # No new recording for the repeat: all increments are replays.
        assert after["records"] - before["records"] <= 1
        assert after["replays"] > before["replays"]

    def test_explicit_inputs_change_the_report(self, client):
        base = client.analyse("sobel")
        shifted = client.analyse(
            "sobel", [[10.0 * i, 10.0 * i + 1.0] for i in range(9)]
        )
        assert base["labelled_significances"] != shifted["labelled_significances"]

    def test_interval_forms_are_equivalent(self, client):
        pairs = [[1.0, 2.0]] * 5
        objects = [{"lo": 1.0, "hi": 2.0}] * 5
        a, _ = client.analyse_raw("blackscholes", pairs)
        b, _ = client.analyse_raw("blackscholes", objects)
        assert a == b

    def test_report_has_the_full_shape(self, client):
        report = client.analyse("dct")
        assert set(report) >= {
            "partition_level",
            "delta",
            "labelled_significances",
            "normalised_significances",
            "input_significances",
            "graph",
            "raw_graph_size",
            "simplified_graph_size",
        }
        # The serialized graph is the partition-level view, never larger
        # than the simplified tape.
        assert 0 < len(report["graph"]["nodes"]) <= report["simplified_graph_size"]


class TestAnalyseErrors:
    def test_unknown_kernel_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.analyse("mandelbrot")
        assert err.value.status == 404
        assert "mandelbrot" in err.value.detail
        assert "dct" in err.value.detail  # lists known kernels

    def test_missing_kernel_field_400(self, client):
        status, _, body = client.request_raw("POST", "/analyse", {})
        assert status == 400
        assert "kernel" in json.loads(body)["error"]["detail"]

    def test_wrong_input_count_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.analyse("sobel", [[0.0, 1.0]] * 4)
        assert err.value.status == 400
        assert "9 inputs" in err.value.detail

    def test_bad_interval_shape_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.analyse("blackscholes", [[1.0, 2.0, 3.0]] * 5)
        assert err.value.status == 400

    def test_inverted_bounds_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.analyse("blackscholes", [[2.0, 1.0]] * 5)
        assert err.value.status == 400
        assert "lo" in err.value.detail

    def test_non_finite_bounds_400(self, client):
        status, _, body = client.request_raw(
            "POST",
            "/analyse",
            {"kernel": "blackscholes", "inputs": [["inf", 1.0]] * 5},
        )
        assert status == 400

    def test_malformed_json_400(self, client):
        conn = client._connection()
        conn.request(
            "POST",
            "/analyse",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        body = response.read()
        assert response.status == 400
        assert "invalid JSON" in json.loads(body)["error"]["detail"]


class TestAdvise:
    def test_matches_in_process_advisor(self, client):
        entry = default_registry()["blackscholes"]
        served = client.advise("blackscholes", threshold=0.25)
        report = entry.analyse_in_process(entry.defaults())
        expected = suggest_approximations(report, 0.25)
        assert [s["op"] for s in served["suggestions"]] == [
            s.op for s in expected
        ]
        assert [s["node_id"] for s in served["suggestions"]] == [
            s.node_id for s in expected
        ]
        assert served["advice"].startswith(f"{len(expected)} operation(s)")

    def test_threshold_zero_yields_nothing(self, client):
        served = client.advise("blackscholes", threshold=0.0)
        assert served["suggestions"] == []
        assert "no low-significance" in served["advice"]

    def test_bad_threshold_400(self, client):
        status, _, _ = client.request_raw(
            "POST", "/advise", {"kernel": "dct", "threshold": "high"}
        )
        assert status == 400


class TestTune:
    def test_matches_in_process_tuner(self, client):
        served = client.tune("dct", target_quality=30.0, size=16)
        setup = tune_setup("dct", 16)
        expected = min_ratio_for_quality(
            setup.evaluate, 30.0, higher_is_better=True
        )
        assert served["taskwait"]["ratio"] == pytest.approx(expected.ratio)
        assert served["quality"] == pytest.approx(expected.quality)
        assert served["energy"] == pytest.approx(expected.energy)
        assert served["satisfied"] == expected.satisfied
        assert served["quality_metric"] == "psnr_db"
        assert len(served["probes"]) == len(expected.probes)

    def test_energy_budget_mode(self, client):
        served = client.tune("blackscholes", energy_budget=1e9, size=64)
        assert served["mode"] == "energy_budget"
        assert served["satisfied"] is True
        assert served["taskwait"]["ratio"] == 1.0

    def test_requires_exactly_one_objective(self, client):
        for payload in (
            {"kernel": "dct"},
            {"kernel": "dct", "target_quality": 30.0, "energy_budget": 5.0},
        ):
            status, _, body = client.request_raw("POST", "/tune", payload)
            assert status == 400
            assert "exactly one" in json.loads(body)["error"]["detail"]

    def test_non_numeric_objective_400(self, client):
        for field, value in (
            ("target_quality", "high"),
            ("target_quality", True),
            ("energy_budget", [5.0]),
        ):
            status, _, body = client.request_raw(
                "POST", "/tune", {"kernel": "dct", field: value}
            )
            assert status == 400
            detail = json.loads(body)["error"]["detail"]
            assert detail == f"'{field}' must be a number"

    def test_bad_size_400(self, client):
        status, _, _ = client.request_raw(
            "POST", "/tune", {"kernel": "dct", "target_quality": 1.0, "size": 1}
        )
        assert status == 400


class TestMetrics:
    def test_prometheus_exposition_format(self, client):
        client.analyse("sobel")  # ensure serve counters are live
        exposition = client.metrics()
        lines = exposition.splitlines()
        assert lines, "metrics exposition is empty"
        sample_re = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]* \S+$")
        for line in lines:
            assert line.startswith("# TYPE ") or sample_re.match(line), line
        assert any(
            line.startswith("repro_serve_requests_total ") for line in lines
        )
        assert any(
            line.startswith("repro_serve_analyse_cache_hits_total ")
            for line in lines
        )
        assert any(
            line.startswith("repro_serve_latency_ms_analyse_count ")
            for line in lines
        )
        assert any(
            line.startswith("repro_trace_cache_replays_total ")
            for line in lines
        )

    def test_cache_hit_counter_increments_on_repeat(self, client):
        def hits() -> float:
            for line in client.metrics().splitlines():
                if line.startswith("repro_serve_analyse_cache_hits_total "):
                    return float(line.split()[1])
            return 0.0

        inputs = [[float(i) + 0.5, float(i) + 1.5] for i in range(5)]
        client.analyse("blackscholes", inputs)
        before = hits()
        client.analyse("blackscholes", inputs)
        assert hits() == before + 1


class TestDefaultInputs:
    """A request without ``inputs`` reuses the entry's default intervals,
    built once per entry."""

    def test_two_default_requests_build_the_defaults_once(self):
        base = default_registry()["sobel"]
        calls = []

        def build():
            calls.append(1)
            return base.defaults()

        entry = dataclasses.replace(base, defaults=build)
        expected = json.dumps(
            report_to_dict(base.analyse_in_process(base.defaults())),
            indent=2,
        ).encode("utf-8")
        with ServiceThread(registry={"sobel": entry}) as thread:
            with thread.client() as c:
                first, _ = c.analyse_raw("sobel")
                second, outcome = c.analyse_raw("sobel")
        assert len(calls) == 1
        assert first == second == expected
        assert outcome == "replay"

    def test_mutating_a_returned_list_leaves_the_next_unchanged(self):
        entry = default_registry()["fisheye"]
        first = parse_intervals(None, entry)
        reference = entry.defaults()
        assert first == reference
        first[0] = Interval(-7.0, 7.0)
        first.append(Interval(0.0, 1.0))
        second = parse_intervals(None, entry)
        assert second is not first
        assert second == reference
