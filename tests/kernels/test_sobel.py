"""Tests for the Sobel benchmark."""

import numpy as np
import pytest

from repro.images import checkerboard, gradient_image, natural_image
from repro.intervals import Interval, rounding
from repro.kernels.sobel import (
    analyse_sobel,
    analyse_sobel_pixel,
    combine_image,
    combine_parts_pixel,
    part_contributions,
    sobel_parts_pixel,
    sobel_perforated,
    sobel_pixel,
    sobel_reference,
    sobel_significance,
)
from repro.kernels.sobel.analysis import (
    _record_sobel_pixel,
    _sobel_lane_bounds,
    analyse_sobel_map,
    analyse_sobel_scan_map,
)
from repro.metrics import psnr


@pytest.fixture(scope="module")
def image():
    return natural_image(64, 64, seed=5)


class TestSequential:
    def test_flat_image_zero_response(self):
        flat = np.full((8, 8), 77.0)
        assert np.allclose(sobel_reference(flat), 0.0)

    def test_vertical_edge_detected(self):
        img = np.zeros((8, 8))
        img[:, 4:] = 255.0
        out = sobel_reference(img)
        assert out[4, 4] > 200.0  # clipped strong response at the edge
        assert out[4, 0] == 0.0

    def test_gradient_constant_response(self):
        img = gradient_image(32, 32)
        out = sobel_reference(img)
        interior = out[2:-2, 2:-2]
        assert interior.std() < 1.0  # linear ramp -> uniform response

    def test_output_clipped(self, image):
        out = sobel_reference(image)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_parts_sum_to_reference(self, image):
        parts = part_contributions(image)
        tx = sum(parts[k][0] for k in "ABC")
        ty = sum(parts[k][1] for k in "ABC")
        assert np.allclose(combine_image(tx, ty), sobel_reference(image))

    def test_pixel_matches_image_version(self, image):
        out = sobel_reference(image)
        for y, x in [(5, 5), (20, 33), (50, 10)]:
            window = image[y - 1 : y + 2, x - 1 : x + 2].tolist()
            assert sobel_pixel(window) == pytest.approx(out[y, x])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sobel_parts_pixel([[1, 2], [3, 4]])

    def test_combine_smoothing_optional(self):
        parts = sobel_parts_pixel([[0.0] * 3] * 3)
        assert combine_parts_pixel(parts) == 0.0
        assert combine_parts_pixel(parts, smooth=True) == pytest.approx(1.0)


class TestAnalysis:
    def test_flat_window_exact_paper_ratios(self):
        sigs = analyse_sobel_pixel(np.full((3, 3), 100.0))
        assert sigs["A"] == pytest.approx(2 * sigs["B"], rel=1e-6)
        assert sigs["A"] == pytest.approx(2 * sigs["C"], rel=1e-6)

    def test_saturated_window_insignificant(self):
        # A strong edge clips the output at 255 -> zero significance.
        window = np.array([[0.0, 128.0, 255.0]] * 3) * 2
        sigs = analyse_sobel_pixel(np.clip(window, 0, 255))
        assert sigs["A"] < 1e-6

    def test_aggregate_a_dominates(self, image):
        result = analyse_sobel(image, samples=8)
        assert result.block_significance["A"] > result.block_significance["B"]
        assert result.block_significance["A"] > result.block_significance["C"]
        assert 1.2 < result.a_to_b_ratio < 2.3

    def test_window_shape_validated(self):
        with pytest.raises(ValueError):
            analyse_sobel_pixel(np.zeros((4, 4)))

    def test_small_image_rejected(self):
        with pytest.raises(ValueError):
            analyse_sobel(np.zeros((2, 2)))


class TestWholeImageMaps:
    """The lane-replayed maps against the per-pixel scalar analyses."""

    @pytest.fixture(scope="class")
    def map_image(self):
        return natural_image(48, 48, seed=5)

    def test_full_image_map(self, map_image):
        maps = analyse_sobel_map(map_image)
        assert set(maps) == {"A", "B", "C"}
        for arr in maps.values():
            assert arr.shape == map_image.shape
            assert (arr >= 0.0).all()
        # The paper's A:B ~ 2:1 ratio holds pixel-wise, not just on average.
        interior = (slice(1, -1), slice(1, -1))
        ratio = maps["A"][interior] / np.maximum(maps["B"][interior], 1e-12)
        assert np.median(ratio) == pytest.approx(2.0, rel=0.25)

    def test_map_bitwise_equal_to_per_pixel_analysis(self, map_image):
        # One lane per pixel: enough lanes that every array rounding of
        # the replay takes the integer step at the default gate.
        assert map_image.size >= rounding.INT_STEP_MIN_SIZE
        maps = analyse_sobel_map(map_image)
        for y, x in [(1, 1), (7, 9), (20, 20), (33, 12), (46, 30), (46, 46)]:
            scalar = analyse_sobel_pixel(
                map_image[y - 1 : y + 2, x - 1 : x + 2]
            )
            for key in ("A", "B", "C"):
                assert maps[key][y, x] == scalar[key]

    def test_scan_map_bitwise_equal_to_object_engine(self):
        image = natural_image(14, 12, seed=3)
        image[3:9, 4:11] = 120.0  # flat patch: some lanes find no level
        scan = analyse_sobel_scan_map(image)["scan"]
        padded = np.pad(image, 1, mode="edge")
        unfound = 0
        for y in range(image.shape[0]):
            for x in range(image.shape[1]):
                window = padded[y : y + 3, x : x + 3]
                ivs = [
                    Interval.centered(float(window[dy, dx]), 0.5)
                    for dy in range(3)
                    for dx in range(3)
                ]
                ref = _record_sobel_pixel(ivs).analyse(compiled=False).scan
                expected = -1 if ref.found_level is None else ref.found_level
                assert int(scan.found_level[y, x]) == expected
                unfound += expected == -1
                for level, var in ref.variances.items():
                    assert float(scan.variances[level][y, x]) == var
                # The lane left the scan at its found level: every later
                # level is NaN, exactly the entries the scalar scan lacks.
                for level, var in scan.variances.items():
                    if level not in ref.variances:
                        assert expected != -1 and level > expected
                        assert np.isnan(var[y, x])
        assert unfound > 0
        # A scan over only the rows it reads, in any order, equals the
        # scan over the full matrix.
        trace, lo, hi = _sobel_lane_bounds(image, 0.5)
        lanes = trace.forward_lanes(lo, hi)
        whole = trace.lane_scan_map(
            trace.lane_significances(lanes), image.shape
        )
        rows = trace.scan_rows[::-1] + [trace.output_ids[0]]
        subset = trace.lane_scan_map(
            trace.lane_significances(lanes, rows=rows), image.shape, rows=rows
        )
        assert subset.found_level.tobytes() == whole.found_level.tobytes()
        assert subset.variances.keys() == whole.variances.keys()
        for level, var in whole.variances.items():
            assert subset.variances[level].tobytes() == var.tobytes()
        assert whole.found_level.tobytes() == scan.found_level.tobytes()

    def test_scan_rows_are_the_levels_the_scan_reads(self):
        trace, lo, hi = _sobel_lane_bounds(natural_image(6, 7, seed=2), 0.5)
        members = trace.structure.scan_members()
        expected = sorted(
            i
            for level, ids in members.items()
            if level >= 1 and len(ids) >= 2
            for i in ids
        )
        assert trace.scan_rows == expected
        assert trace.output_ids[0] not in expected
        # A matrix missing a row the scan reads is rejected.  Every lane
        # still scans at the first level with two members.
        first = min(
            level
            for level, ids in members.items()
            if level >= 1 and len(ids) >= 2
        )
        short = [r for r in trace.scan_rows if r != members[first][0]]
        sig = trace.lane_significances(trace.forward_lanes(lo, hi), rows=short)
        with pytest.raises(ValueError, match="lacks rows"):
            trace.lane_scan_map(sig, (6, 7), rows=short)

    def test_maps_request_only_their_rows(self, monkeypatch):
        from repro.scorpio import CachedTrace

        requested = []
        original = CachedTrace.lane_significances

        def spy(self, lanes, rows=None):
            requested.append(None if rows is None else list(rows))
            return original(self, lanes, rows=rows)

        monkeypatch.setattr(CachedTrace, "lane_significances", spy)
        image = natural_image(9, 8, seed=4)
        analyse_sobel_map(image)
        analyse_sobel_scan_map(image)
        trace, _, _ = _sobel_lane_bounds(image, 0.5)
        labelled = [
            trace.label_index(k)
            for k in ("a_x", "a_y", "b_x", "b_y", "c_x", "c_y")
        ]
        assert requested[0] == labelled
        assert requested[1][:6] == labelled
        assert set(requested[1]) == set(labelled) | set(trace.scan_rows)
        assert len(requested[1]) == len(set(requested[1])) < trace.ct.n


class TestSignificanceVersion:
    def test_ratio_one_exact(self, image):
        run = sobel_significance(image, 1.0)
        assert np.allclose(run.output, sobel_reference(image))

    def test_ratio_zero_keeps_a_block(self, image):
        run = sobel_significance(image, 0.0)
        # A tasks are pinned: output not all zero, roughly follows edges.
        assert run.output.max() > 0.0
        assert run.stats.accurate > 0

    def test_quality_monotone(self, image):
        ref = sobel_reference(image)
        values = [
            psnr(ref, sobel_significance(image, r).output)
            for r in (0.0, 0.5, 0.8, 1.0)
        ]
        assert values == sorted(values)

    def test_energy_monotone(self, image):
        energies = [
            sobel_significance(image, r).joules for r in (0.0, 0.5, 1.0)
        ]
        assert energies == sorted(energies)

    def test_stats_counts(self, image):
        run = sobel_significance(image, 0.0, block_rows=16)
        blocks = 64 // 16
        # 3 conv tasks per block + 1 combine per block.
        assert run.stats.total == blocks * 4


class TestPerforated:
    def test_ratio_one_exact(self, image):
        run = sobel_perforated(image, 1.0)
        assert np.allclose(run.output, sobel_reference(image))

    def test_ratio_zero_black(self, image):
        run = sobel_perforated(image, 0.0)
        assert np.allclose(run.output, 0.0)
        assert run.joules == 0.0

    def test_replicate_fill(self, image):
        run = sobel_perforated(image, 0.5, fill="replicate")
        assert (run.output.sum(axis=1) > 0).mean() > 0.9  # rows filled

    def test_invalid_fill(self, image):
        with pytest.raises(ValueError):
            sobel_perforated(image, 0.5, fill="mirror")

    def test_sig_beats_perforation_on_quality(self, image):
        ref = sobel_reference(image)
        for ratio in (0.2, 0.5, 0.8):
            sig_q = psnr(ref, sobel_significance(image, ratio).output)
            perf_q = psnr(ref, sobel_perforated(image, ratio).output)
            assert sig_q > perf_q

    def test_perforation_cheaper_at_equal_ratio(self, image):
        # The paper's energy observation: no task overhead.
        sig = sobel_significance(image, 1.0)
        perf = sobel_perforated(image, 1.0)
        assert perf.joules < sig.joules
