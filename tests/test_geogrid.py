import dataclasses
import os

import numpy as np
import pytest

from gcmkit import gcf
from gcmkit.errors import ValidationError
from gcmkit.geogrid import (
    DataCube,
    GridAxis,
    ZoneMask,
    bilinear_blend,
    bilinear_weights,
    block_mean,
    date_range,
    derive_dtr,
    regrid_bilinear,
    synth_pair,
)
from gcmkit.metrics import ZONE_OVERALL, context_index
from gcmkit.rng import SplitMix64


def season_rows(cube, season):
    """The time rows `context_index` pools into `season` for an all-land mask, ascending."""
    mask = ZoneMask(cube.lat, cube.lon, np.ones(cube.shape[1:], dtype=np.int64))
    ((_, met_rows, _),) = context_index(cube.months(), mask, {"all": ZONE_OVERALL}, (season,))
    return np.sort(np.concatenate([rows for _, rows in met_rows]))


class TestAxesAndCubes:
    def test_axis_must_increase(self):
        with pytest.raises(ValidationError):
            GridAxis([1.0, 1.0, 2.0], "lat")
        with pytest.raises(ValidationError):
            GridAxis([3.0, 2.0], "lon")

    def test_axis_bounds(self):
        with pytest.raises(ValidationError):
            GridAxis([-95.0, 0.0], "lat")
        with pytest.raises(ValidationError):
            GridAxis([0.0, 360.0], "lon")

    def test_axis_needs_two_points(self):
        with pytest.raises(ValidationError):
            GridAxis([1.0], "lat")

    def test_cube_shape_mismatch(self, tiny_cube):
        with pytest.raises(ValidationError):
            dataclasses.replace(tiny_cube, data=np.zeros((3, 2, 2)))

    def test_cube_time_must_increase(self, tiny_cube):
        with pytest.raises(ValidationError):
            dataclasses.replace(tiny_cube, time=((1985, 1, 2), (1985, 1, 1)))

    def test_noleap_rejects_feb29(self, tiny_cube):
        with pytest.raises(ValidationError):
            dataclasses.replace(tiny_cube, calendar="noleap", time=((1988, 2, 28), (1988, 2, 29)))

    def test_360day_allows_feb30_rejects_day31(self, tiny_cube):
        ok = dataclasses.replace(tiny_cube, calendar="360_day", time=((1988, 2, 29), (1988, 2, 30)))
        assert ok.time == ((1988, 2, 29), (1988, 2, 30))
        with pytest.raises(ValidationError):
            dataclasses.replace(tiny_cube, calendar="360_day", time=((1988, 1, 30), (1988, 1, 31)))

    def test_empty_cube_rejected(self, tiny_cube):
        with pytest.raises(ValidationError):
            dataclasses.replace(tiny_cube, time=(), data=np.zeros((0, 2, 2)))

    def test_cube_data_immutable(self, tiny_cube):
        with pytest.raises(ValueError):
            tiny_cube.data[0, 0, 0] = 99.0

    def test_zone_mask_codes_checked(self):
        lat, lon = GridAxis([0.0, 1.0], "lat"), GridAxis([0.0, 1.0], "lon")
        with pytest.raises(ValidationError):
            ZoneMask(lat, lon, np.array([[0, 9], [1, 2]]))
        with pytest.raises(ValidationError):
            ZoneMask(lat, lon, np.array([[0.5, 1.0], [1.0, 2.0]]))


class TestRegrid:
    def test_identity_is_bit_exact(self, year_cube):
        out = regrid_bilinear(year_cube, year_cube.lat, year_cube.lon)
        assert np.array_equal(out.data, year_cube.data)

    def test_center_point_hand_value(self):
        cube = DataCube(
            lat=GridAxis([0.0, 1.0], "lat"),
            lon=GridAxis([0.0, 1.0], "lon"),
            time=((1985, 1, 1),),
            calendar="standard",
            variable="t",
            data=np.array([[[0.0, 1.0], [2.0, 3.0]]]),
        )
        # one target axis point cannot be built (axes need 2), use two: the
        # center and an exact node
        out = regrid_bilinear(cube, GridAxis([0.5, 1.0], "lat"), GridAxis([0.5, 1.0], "lon"))
        assert out.data[0, 0, 0] == pytest.approx(1.5, abs=1e-15)

    def test_nearest_4_weights_oracle(self):
        rng = np.random.default_rng(1)
        src = DataCube(
            lat=GridAxis(np.linspace(0, 4, 5), "lat"),
            lon=GridAxis(np.linspace(0, 6, 7), "lon"),
            time=((1985, 1, 1),),
            calendar="standard",
            variable="t",
            data=rng.normal(size=(1, 5, 7)),
        )
        dlat = GridAxis([0.3, 1.7, 3.9], "lat")
        dlon = GridAxis([0.1, 2.5, 5.99], "lon")
        out = regrid_bilinear(src, dlat, dlon)
        for i, la in enumerate(dlat.values):
            for j, lo in enumerate(dlon.values):
                i0 = int(np.searchsorted(src.lat.values, la, side="right") - 1)
                i0 = min(i0, len(src.lat) - 2)
                j0 = int(np.searchsorted(src.lon.values, lo, side="right") - 1)
                j0 = min(j0, len(src.lon) - 2)
                ty = (la - src.lat.values[i0]) / (src.lat.values[i0 + 1] - src.lat.values[i0])
                tx = (lo - src.lon.values[j0]) / (src.lon.values[j0 + 1] - src.lon.values[j0])
                expect = (
                    (1 - ty) * (1 - tx) * src.data[0, i0, j0]
                    + (1 - ty) * tx * src.data[0, i0, j0 + 1]
                    + ty * (1 - tx) * src.data[0, i0 + 1, j0]
                    + ty * tx * src.data[0, i0 + 1, j0 + 1]
                )
                assert out.data[0, i, j] == pytest.approx(expect, rel=1e-14)

    def test_out_of_hull_clamps_to_edge(self, year_cube):
        west = GridAxis([0.0, 0.1], "lon")  # 10 degrees west of the domain
        out = regrid_bilinear(year_cube, year_cube.lat, west)
        assert np.array_equal(out.data[:, :, 0], year_cube.data[:, :, 0])
        assert np.array_equal(out.data[:, :, 1], year_cube.data[:, :, 0])

    def test_convexity_bounds(self, year_cube):
        dst_lat = GridAxis(np.linspace(40.1, 42.9, 9), "lat")
        dst_lon = GridAxis(np.linspace(10.1, 12.9, 9), "lon")
        out = regrid_bilinear(year_cube, dst_lat, dst_lon)
        assert out.data.min() >= year_cube.data.min() - 1e-12
        assert out.data.max() <= year_cube.data.max() + 1e-12

    def test_linearity(self, year_cube):
        other = dataclasses.replace(year_cube, data=np.cos(year_cube.data))
        dst_lat = GridAxis(np.linspace(40.2, 42.8, 5), "lat")
        dst_lon = GridAxis(np.linspace(10.2, 12.8, 5), "lon")
        a, b = 2.5, -1.25
        combo = dataclasses.replace(year_cube, data=a * year_cube.data + b * other.data)
        lhs = regrid_bilinear(combo, dst_lat, dst_lon).data
        rhs = a * regrid_bilinear(year_cube, dst_lat, dst_lon).data + b * regrid_bilinear(other, dst_lat, dst_lon).data
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_fill_propagates(self, tiny_cube):
        data = tiny_cube.data.copy()
        data[0, 0, 0] = tiny_cube.fill
        cube = dataclasses.replace(tiny_cube, data=data)
        out = regrid_bilinear(cube, GridAxis([40.5, 41.0], "lat"), GridAxis([10.5, 11.0], "lon"))
        assert out.data[0, 0, 0] == cube.fill  # blended corner touches the fill node
        assert out.data[1, 0, 0] != cube.fill  # other time step unaffected

    def test_identity_keeps_fill_cells_in_place(self):
        cube = DataCube(
            lat=GridAxis([40.0, 41.0, 42.0], "lat"),
            lon=GridAxis([10.0, 11.0, 12.0], "lon"),
            time=((1985, 1, 1),),
            calendar="standard",
            variable="t",
            data=np.arange(9.0).reshape(1, 3, 3),
        )
        data = cube.data.copy()
        data[0, 1, 1] = cube.fill
        cube = dataclasses.replace(cube, data=data)
        out = regrid_bilinear(cube, cube.lat, cube.lon)
        assert np.array_equal(out.data, cube.data)
        assert np.count_nonzero(out.data == cube.fill) == 1

    def test_blend_per_block_is_the_whole_cube_regrid(self, year_cube):
        """The kernel on any time block gives the bits of that slice of the
        whole-cube regrid, as a C-contiguous array (fill included), and the
        bits of the blend as a sum of fresh products, on a cube with fill and
        one that holds +0.0 and -0.0."""

        def summed_products(data, corners, fill):
            flat = data.reshape(len(data), -1)
            out = -0.0  # -0.0 + x == x for every x
            for index, w in corners:
                out = out + w * flat.take(index, axis=1).reshape(len(data), *w.shape)
            for index, w in corners:
                out[(flat.take(index, axis=1).reshape(len(data), *w.shape) == fill) & (w != 0.0)] = fill
            return out

        data = year_cube.data.copy()
        data[100:130, 1, 2] = year_cube.fill
        signed = np.where(year_cube.data > 10.0, 0.0, -0.0)
        signed[:, 0, :2] = -year_cube.data[:, 0, :2]
        dst_lat = GridAxis(np.linspace(40.2, 42.8, 5), "lat")
        dst_lon = GridAxis(np.linspace(9.5, 12.8, 6), "lon")
        wholes = []
        for values in (data, signed):
            cube = dataclasses.replace(year_cube, data=values)
            whole = regrid_bilinear(cube, dst_lat, dst_lon).data
            wholes.append(whole)
            corners = bilinear_weights(cube.lat, cube.lon, dst_lat, dst_lon)
            assert np.array_equal(whole.view(np.uint64), summed_products(cube.data, corners, cube.fill).view(np.uint64))
            for t0 in range(0, 365, 64):
                block = bilinear_blend(cube.data[t0 : t0 + 64], corners, cube.fill)
                assert block.flags.c_contiguous
                assert np.array_equal(block.view(np.uint64), whole[t0 : t0 + 64].view(np.uint64))
        filled, zeros = wholes[0], wholes[1][wholes[1] == 0.0]
        assert np.count_nonzero(filled == year_cube.fill) > 0
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()


class TestMaskDtrSeason:
    def test_dtr_basics(self, tiny_cube):
        tasmax = dataclasses.replace(tiny_cube, variable="tasmax", data=tiny_cube.data + 10.0)
        tasmin = dataclasses.replace(tiny_cube, variable="tasmin", data=tiny_cube.data + 2.5)
        dtr = derive_dtr(tasmax, tasmin)
        assert dtr.variable == "dtr"
        assert np.allclose(dtr.data, 7.5)
        same = derive_dtr(tasmax, tasmax)
        assert np.all(same.data == 0.0)

    def test_dtr_inversion_reports_location(self, tiny_cube):
        tasmax = dataclasses.replace(tiny_cube, data=np.full((2, 2, 2), 10.0))
        bad = np.full((2, 2, 2), 5.0)
        bad[1, 0, 1] = 12.0
        tasmin = dataclasses.replace(tiny_cube, data=bad)
        with pytest.raises(ValidationError, match=r"t=1"):
            derive_dtr(tasmax, tasmin)

    def test_dtr_fill_propagates(self, tiny_cube):
        hi = tiny_cube.data.copy()
        hi[0, 0, 0] = tiny_cube.fill
        tasmax = dataclasses.replace(
            tiny_cube, data=np.where(hi == tiny_cube.fill, tiny_cube.fill, tiny_cube.data + 5.0)
        )
        dtr = derive_dtr(tasmax, tiny_cube)
        assert dtr.data[0, 0, 0] == tiny_cube.fill

    def test_annual_is_identity(self, year_cube):
        rows = season_rows(year_cube, "ANNUAL")
        assert tuple(year_cube.time[t] for t in rows) == year_cube.time
        assert np.array_equal(rows, np.arange(len(year_cube.time)))

    def test_djf_pools_90_days_on_standard_nonleap(self, year_cube):
        assert len(season_rows(year_cube, "DJF")) == 90  # 31 + 28 + 31

    def test_360day_seasons_are_90_days(self, tiny_cube):
        times = tuple(date_range("360_day", (1985, 1, 1), 360))
        cube = dataclasses.replace(
            tiny_cube, calendar="360_day", time=times, data=np.zeros((360, 2, 2))
        )
        for season in ("DJF", "MAM", "JJA", "SON"):
            assert len(season_rows(cube, season)) == 90

    def test_noleap_partition(self, tiny_cube):
        times = tuple(date_range("noleap", (1988, 1, 1), 365))
        cube = dataclasses.replace(tiny_cube, calendar="noleap", time=times, data=np.zeros((365, 2, 2)))
        total = sum(len(season_rows(cube, s)) for s in ("DJF", "MAM", "JJA", "SON"))
        assert total == 365

    def test_season_partition_is_exact(self, year_cube):
        seen = []
        for season in ("DJF", "MAM", "JJA", "SON"):
            seen.extend(year_cube.time[t] for t in season_rows(year_cube, season))
        assert sorted(seen) == sorted(year_cube.time)
        assert len(seen) == len(set(seen))

    def test_empty_season_selection_errors(self, tiny_cube):
        with pytest.raises(ValidationError):
            season_rows(tiny_cube, "JJA")  # cube holds only January days


def _direct_synth_pair(seed, factor, nt, nlat, nlon, bias, noise_sd):
    """synth_pair's field by its direct formula: each wave a sine over the
    whole (nt, lat, lon) cube, with the same draws in the same order."""
    root = SplitMix64(seed)
    r_field, r_noise = root.split(), root.split()
    yy = np.linspace(0.0, 1.0, nlat)[None, :, None]
    xx = np.linspace(0.0, 1.0, nlon)[None, None, :]
    tt = np.arange(nt, dtype=np.float64)[:, None, None]
    fine = np.full((nt, nlat, nlon), 15.0)
    for k in range(6):
        f_lat, f_lon = r_field.uniform(low=0.5, high=3.5), r_field.uniform(low=0.5, high=3.5)
        f_t, phase = r_field.uniform(low=0.5, high=2.0), r_field.uniform(low=0.0, high=2.0 * np.pi)
        fine = fine + 2.4 / (k + 1) * np.sin(2.0 * np.pi * (f_lat * yy + f_lon * xx + f_t * tt / 100.0) + phase)
    coarse = block_mean(fine, factor) + bias
    if noise_sd > 0.0:
        coarse = coarse + noise_sd * r_noise.normal(coarse.shape)
    return coarse, fine


class TestSynthPair:
    @pytest.mark.parametrize(
        "seed, factor, nt, nlat, nlon, bias, noise_sd",
        [(5, 4, 1, 8, 12, 0.0, 0.0), (17, 2, 9, 12, 20, 1.5, 0.3), (424242, 4, 40, 64, 64, 1.5, 0.3)],
    )
    def test_separable_field_matches_direct_formula(self, seed, factor, nt, nlat, nlon, bias, noise_sd):
        coarse, fine = synth_pair(seed, factor, nt, nlat, nlon, bias=bias, noise_sd=noise_sd)
        want_coarse, want_fine = _direct_synth_pair(seed, factor, nt, nlat, nlon, bias, noise_sd)
        assert fine.data.shape == (nt, nlat, nlon)
        assert np.max(np.abs(fine.data - want_fine)) <= 1e-12
        assert np.max(np.abs(coarse.data - want_coarse)) <= 1e-12

    def test_noise_free_coarse_is_block_mean(self):
        coarse, fine = synth_pair(3, 4, 5, 32, 32, bias=0.0, noise_sd=0.0)
        assert np.allclose(coarse.data, block_mean(fine.data, 4), atol=1e-12)

    def test_bias_shows_in_the_mean(self):
        coarse, fine = synth_pair(3, 4, 40, 32, 32, bias=2.0, noise_sd=0.1)
        pooled = block_mean(fine.data, 4)
        n = coarse.data.size
        diff = coarse.data.mean() - pooled.mean()
        assert abs(diff - 2.0) < 3.0 / np.sqrt(n) * 0.1 + 1e-9

    def test_seed_determinism(self):
        a = synth_pair(11, 2, 4, 16, 16, bias=1.0, noise_sd=0.5)
        b = synth_pair(11, 2, 4, 16, 16, bias=1.0, noise_sd=0.5)
        assert np.array_equal(a[0].data, b[0].data)
        assert np.array_equal(a[1].data, b[1].data)

    def test_factor_must_divide(self):
        with pytest.raises(ValidationError):
            synth_pair(1, 3, 2, 16, 16)

    def test_factor_must_be_at_least_two(self):
        with pytest.raises(ValidationError):
            synth_pair(1, 1, 2, 16, 16)


class TestGcf:
    def test_round_trip_identity(self, tmp_path, tiny_cube):
        path = str(tmp_path / "cube")
        gcf.write_cube(tiny_cube, path)
        back = gcf.read_cube(path)
        assert np.array_equal(back.data, tiny_cube.data)
        assert back.time == tiny_cube.time
        assert back.variable == tiny_cube.variable
        assert back.calendar == tiny_cube.calendar

    def test_fill_survives_round_trip(self, tmp_path, tiny_cube):
        data = tiny_cube.data.copy()
        data[1, 1, 1] = tiny_cube.fill
        cube = dataclasses.replace(tiny_cube, data=data)
        path = str(tmp_path / "cube")
        gcf.write_cube(cube, path)
        back = gcf.read_cube(path)
        assert back.data[1, 1, 1] == cube.fill

    def test_payload_shape_mismatch_detected(self, tmp_path, tiny_cube):
        path = str(tmp_path / "cube")
        gcf.write_cube(tiny_cube, path)
        payload = os.path.join(path, "data.bin")
        with open(payload, "rb") as fh:
            raw = fh.read()
        with open(payload, "wb") as fh:
            fh.write(raw[:-8])  # drop two float32 values
        with pytest.raises(ValidationError, match="payload"):
            gcf.read_cube(path)

    def test_header_calendar_violation_detected(self, tmp_path, tiny_cube):
        import json

        path = str(tmp_path / "cube")
        gcf.write_cube(dataclasses.replace(tiny_cube, calendar="noleap"), path)
        header = json.load(open(os.path.join(path, "header.json")))
        header["time"] = ["1988-02-28", "1988-02-29"]
        json.dump(header, open(os.path.join(path, "header.json"), "w"))
        with pytest.raises(ValidationError):
            gcf.read_cube(path)

    def test_missing_header_key(self, tmp_path, tiny_cube):
        import json

        path = str(tmp_path / "cube")
        gcf.write_cube(tiny_cube, path)
        header = json.load(open(os.path.join(path, "header.json")))
        del header["calendar"]
        json.dump(header, open(os.path.join(path, "header.json"), "w"))
        with pytest.raises(ValidationError, match="lacks key .calendar."):
            gcf.read_cube(path)

    def test_non_monotonic_header_axes_detected(self, tmp_path, tiny_cube):
        import json

        path = str(tmp_path / "cube")
        gcf.write_cube(tiny_cube, path)
        header = json.load(open(os.path.join(path, "header.json")))
        header["lat"] = header["lat"][::-1]
        json.dump(header, open(os.path.join(path, "header.json"), "w"))
        with pytest.raises(ValidationError, match="increasing"):
            gcf.read_cube(path)

    def test_mask_round_trip(self, tmp_path, all_land_mask):
        path = str(tmp_path / "mask")
        gcf.write_mask(all_land_mask, path)
        back = gcf.read_mask(path)
        assert np.array_equal(back.codes, all_land_mask.codes)

    def test_read_block_matches_read(self, tmp_path, year_cube):
        path = str(tmp_path / "cube")
        gcf.write_cube(year_cube, path)
        whole = gcf.read_cube(path)
        head = gcf.read_header(path)
        parts = [gcf.read_block(path, head, t0, 50) for t0 in range(0, 365, 50)]
        assert np.array_equal(np.concatenate(parts), whole.data)

    def test_shared_parsed_times_check_each_time_list_once(self, tmp_path, year_cube, monkeypatch):
        import json

        paths = [str(tmp_path / name) for name in ("a", "b", "bad")]
        for path in paths:
            gcf.write_cube(year_cube, path)
        bad_header = os.path.join(paths[2], "header.json")
        header = json.load(open(bad_header))
        header["time"][7] = "1985/01/08"
        json.dump(header, open(bad_header, "w"))
        parsed, parse_date = [], gcf._parse_date
        monkeypatch.setattr(gcf, "_parse_date", lambda text: parsed.append(text) or parse_date(text))
        parsed_times = {}
        a, b = (gcf.read_header(path, parsed_times) for path in paths[:2])
        assert b.time is a.time and a.time == gcf.read_header(paths[0]).time
        assert len(parsed) == 2 * len(year_cube.time)  # the shared list once, then once more unshared
        with pytest.raises(ValidationError, match=r"header in .*bad: bad ISO date '1985/01/08'"):
            gcf.read_header(paths[2], parsed_times)
        assert len(parsed_times) == 1


class TestCsvIngestion:
    def _write(self, tmp_path, rows):
        path = tmp_path / "fixture.csv"
        path.write_text("\n".join(["date,lat,lon,value"] + rows) + "\n")
        return str(path)

    def test_complete_grid(self, tmp_path):
        rows = []
        value = 0.0
        for date in ("1985-01-01", "1985-01-02"):
            for lat in ("40.0", "41.0"):
                for lon in ("10.0", "11.0"):
                    rows.append(f"{date},{lat},{lon},{value}")
                    value += 1.0
        cube = gcf.read_csv_cube(self._write(tmp_path, rows))
        assert cube.shape == (2, 2, 2)
        assert np.array_equal(cube.data.ravel(), np.arange(8.0))

    def test_duplicate_row_rejected(self, tmp_path):
        rows = ["1985-01-01,40.0,10.0,1.0", "1985-01-01,40.0,10.0,2.0",
                "1985-01-01,40.0,11.0,1.0", "1985-01-01,41.0,10.0,1.0", "1985-01-01,41.0,11.0,1.0"]
        with pytest.raises(ValidationError, match="duplicate"):
            gcf.read_csv_cube(self._write(tmp_path, rows))

    def test_ragged_grid_lists_gaps(self, tmp_path):
        rows = ["1985-01-01,40.0,10.0,1.0", "1985-01-01,40.0,11.0,1.0", "1985-01-01,41.0,10.0,1.0"]
        with pytest.raises(ValidationError, match="missing"):
            gcf.read_csv_cube(self._write(tmp_path, rows))
