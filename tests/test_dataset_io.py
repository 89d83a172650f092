from dataclasses import replace

import numpy as np
import pytest

from netjps.dataset import PanelDataset, attach_exposure, check_unique_keys
from netjps.errors import InputError, UnboundColumnError
from netjps.io import (
    read_edges_csv,
    read_panel_csv,
    write_edges_csv,
    write_panel_csv,
)
from netjps.network import build_adjacency
from netjps.synth import OutcomeRule, Scenario, generate


def small_dataset():
    return PanelDataset(
        units=["a", "b", "c", "a"],
        periods=[1, 1, 1, 2],
        y=[0.1, 0.2, 0.3, 0.4],
        z=[1.0, 2.0, 3.0, 4.0],
        covariates={"u": [0.0, 1.0, 2.0, 3.0]},
    )


class TestPanelDataset:
    def test_validation(self):
        with pytest.raises(InputError, match="equal length"):
            PanelDataset(units=["a"], periods=[1, 2], y=[0.0], z=[1.0], covariates={})
        with pytest.raises(InputError, match="finite"):
            PanelDataset(units=["a"], periods=[1], y=[np.nan], z=[1.0], covariates={})
        with pytest.raises(InputError, match="non-finite"):
            PanelDataset(units=["a"], periods=[1], y=[0.0], z=[1.0],
                         covariates={"x": [np.inf]})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_exposure_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite g"):
            PanelDataset(units=["a", "b"], periods=[1, 1], y=[0.0, 1.0], z=[1.0, 2.0],
                         covariates={}, g=[0.5, bad])
        ds = small_dataset()
        with pytest.raises(InputError, match="non-finite g"):
            replace(ds, g=np.where(np.arange(ds.n) == 2, bad, 1.0))

    def test_unique_keys(self):
        check_unique_keys(small_dataset())
        dup = PanelDataset(units=["a", "a"], periods=[1, 1], y=[0.0, 1.0],
                           z=[1.0, 2.0], covariates={})
        with pytest.raises(InputError, match="duplicate"):
            check_unique_keys(dup)

    def test_subset_allows_duplicates(self):
        ds = small_dataset()
        sub = ds.subset(np.array([0, 0, 3]))
        assert sub.n == 3
        assert list(sub.z) == [1.0, 1.0, 4.0]
        assert list(sub.covariates["u"]) == [0.0, 0.0, 3.0]

    def test_covariate_matrix_unbound(self):
        ds = small_dataset()
        with pytest.raises(UnboundColumnError):
            ds.covariate_matrix(["nope"])
        assert ds.covariate_matrix([]).shape == (4, 0)

    def test_attach_exposure_roundtrip_with_network(self):
        ds = small_dataset()
        nodes = ds.keys()
        adj = build_adjacency([("a", "b", 1, 2.0)], nodes)
        out = attach_exposure(ds, adj, "plain")
        assert out.g[1] == pytest.approx(2.0 * 1.0 / 3.0)
        assert out.g[0] == 0.0 and out.g[3] == 0.0


class TestCsv:
    def test_panel_round_trip_is_bit_exact(self, tmp_path):
        sc = Scenario(
            n_units=25, n_periods=2, edge_prob=0.3, n_covariates=2,
            treatment_coefs=(0.2, -0.1),
            outcome=OutcomeRule(intercept=1.0, z=0.5, g=0.3, x=(0.1, -0.2)),
            seed=12,
        )
        ds, adj = generate(sc)
        panel = tmp_path / "panel.csv"
        edges = tmp_path / "edges.csv"
        write_panel_csv(ds, panel)
        write_edges_csv(adj, edges)

        units, periods, columns = read_panel_csv(panel, "unit", "period")
        assert np.array_equal(columns["y"], ds.y)
        assert np.array_equal(columns["z"], ds.z)
        assert np.array_equal(columns["x0"], ds.covariates["x0"])
        assert [str(u) for u in ds.units] == list(units)

        edge_records = read_edges_csv(edges)
        nodes = list(zip(units, periods))
        adj2 = build_adjacency(edge_records, nodes)
        for period in adj.periods:
            assert np.array_equal(adj.blocks[period].w.toarray(), adj2.blocks[str(period)].w.toarray())

    def test_header_required(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(InputError, match="header"):
            read_panel_csv(p, "unit", "period")

    def test_row_width_error_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="row 3"):
            read_panel_csv(p, "a", "b")

    def test_bad_number_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("unit,period,y\nu1,1,oops\n")
        with pytest.raises(InputError, match="row 2.*'y'"):
            read_panel_csv(p, "unit", "period")

    def test_first_bad_cell_is_row_major(self, tmp_path):
        # row 2's bad cell is in a later column than row 3's
        p = tmp_path / "bad.csv"
        p.write_text("unit,period,y,z\nu1,1,1.0,oops\n\nu2,1,nan,2.0\nu3,1,zz,1.0\n")
        with pytest.raises(InputError, match=f"^{p}: row 2: invalid number 'oops' in column 'z'$"):
            read_panel_csv(p, "unit", "period")
        p.write_text("unit,period,y,z\nu1,1,1.0,2.0\n\nu2,1,nan,oops\n")
        with pytest.raises(InputError, match=f"^{p}: row 4: non-finite value in column 'y'$"):
            read_panel_csv(p, "unit", "period")

    def test_missing_key_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("unit,y\nu1,1\n")
        with pytest.raises(InputError, match="period"):
            read_panel_csv(p, "unit", "period")

    def test_edges_header_validated(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("source,target,weight\na,b,1.0\n")
        with pytest.raises(InputError, match=f"^{p}: missing edge column 'period'; header must"):
            read_edges_csv(p)

    def test_edge_weight_parse_error(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("source,target,period,weight\na,b,1,xx\n")
        with pytest.raises(InputError, match="row 2"):
            read_edges_csv(p)


EDGE_HEADER = "source,target,period,weight\n"


class TestEdgeIngest:
    def test_blank_lines_and_quoted_labels(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text(EDGE_HEADER + '\n"a,1",b,1,2.0\n\nb,"a,1",1,3.5\n\n')
        edges = read_edges_csv(p)
        assert len(edges) == 2
        assert [edges.record(k) for k in range(2)] == [("a,1", "b", "1", 2.0),
                                                       ("b", "a,1", "1", 3.5)]
        adj = build_adjacency(edges, [("a,1", "1"), ("b", "1")])
        assert adj.block("1").w.toarray().tolist() == [[0.0, 3.5], [2.0, 0.0]]

    @pytest.mark.parametrize("last_row, message", [
        ('"x,y",b,1', "row 5: expected 4 fields, got 3"),
        ('"x,y",b,1,zz', "row 5: invalid number 'zz' in column 'weight'"),
        ('"x,y",b,1,-inf', "row 5: non-finite value in column 'weight'"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, last_row, message):
        # line numbers count blank lines and the lines inside quoted cells
        p = tmp_path / "edges.csv"
        p.write_text(EDGE_HEADER + '\n"a\nb",c,1,2.0\n' + last_row + "\n")
        with pytest.raises(InputError, match=f"^{p}: {message}$"):
            read_edges_csv(p)

    def test_len_is_edge_rows(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text(EDGE_HEADER)
        assert len(read_edges_csv(p)) == 0
        p.write_text(EDGE_HEADER + "a,b,1,1.0\n\nb,a,1,2.0\na,b,1,0.5\n")
        assert len(read_edges_csv(p)) == 3

    def test_first_bad_row_is_named(self, tmp_path):
        # row 2 names an unregistered unit, row 3 a negative weight
        p = tmp_path / "edges.csv"
        p.write_text(EDGE_HEADER + "a,z,1,1.0\nb,a,1,-2.0\n")
        with pytest.raises(InputError, match=r"^edge \('a', 'z', '1'\) references "
                                             r"unregistered unit 'z'$"):
            build_adjacency(read_edges_csv(p), [("a", "1"), ("b", "1")])

    def test_records_and_csv_build_the_same_csr(self, tmp_path):
        records = [("b", "a", "1", 2.0), ("c", "a", "1", 0.5), ("b", "a", "1", 1.25),
                   ("a", "c", "2", 3.0), ("c", "b", "1", 0.0), ("a", "c", "2", 4.0)]
        nodes = [(u, p) for p in ("1", "2") for u in "abc"]
        p = tmp_path / "edges.csv"
        p.write_text(EDGE_HEADER + "".join(f"{s},{t},{q},{w!r}\n" for s, t, q, w in records))
        from_csv = build_adjacency(read_edges_csv(p), nodes)
        from_records = build_adjacency(records, nodes)
        assert from_records.block("1").w[0, 1] == 3.25
        for period in ("1", "2"):
            a, b = from_records.block(period).w, from_csv.block(period).w
            for name in ("data", "indices", "indptr"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and np.array_equal(x, y)


class TestCsvWriterBytes:
    """Golden bytes of every CSV writer on a tiny hand-built input: quoted
    labels, NaN cells, and tables with and without bands."""

    @pytest.fixture()
    def written(self, tmp_path):
        from dataclasses import replace

        from netjps.bootstrap import BootstrapBands
        from netjps.io import write_drf_surface_csv, write_exposure_csv, write_marginal_csv
        from netjps.jps import DrfGrid

        ds = PanelDataset(units=["a,1", 'q"t', "a,1", "c"], periods=[1, 1, 2, 2],
                          y=[0.1, -2.5, 1e-7, 4.0], z=[1.0, 3.0, 0.30000000000000004, 2.0],
                          covariates={"x0": [1 / 3, 2.0, -0.0, 5.0]})
        adj = build_adjacency([('q"t', "a,1", 1, 0.1), ("a,1", 'q"t', 1, 1.5),
                               ("c", "a,1", 2, 1 / 3), ("a,1", "c", 2, 2.0),
                               ("c", "a,1", 2, 0.25)], ds.keys())
        ds = attach_exposure(ds, adj, "plain")
        surface = np.array([[1.0, np.nan, 1 / 7], [2e-12, 123456789012.0, -1.5]])
        drf = DrfGrid(z_grid=np.array([0.5, 1.0]), g_grid=np.array([0.0, 1 / 3, 2.0]),
                      surface=surface, marginal_z=np.array([np.nan, 0.25]),
                      marginal_g=np.array([1.5, np.nan, 2 / 3]))
        bands = BootstrapBands(
            level=0.9, b=3, b_effective=3, failures=0, seed=1,
            surface_lo=surface - 0.5, surface_hi=surface + 0.5,
            marginal_z_lo=np.array([np.nan, 0.0]), marginal_z_hi=np.array([np.nan, 1.0]),
            marginal_g_lo=np.array([1.0, np.nan, 0.5]), marginal_g_hi=np.array([2.0, np.nan, 1.0]))
        z_only = replace(bands, surface_lo=None, surface_hi=None,
                         marginal_g_lo=None, marginal_g_hi=None)

        write_panel_csv(ds, tmp_path / "panel.csv", unit_col="u", period_col="t",
                        outcome_col="yy", treatment_col="zz")
        write_edges_csv(adj, tmp_path / "edges.csv")
        write_exposure_csv(ds, tmp_path / "exposure.csv", unit_col="u", period_col="t")
        write_drf_surface_csv(drf, tmp_path / "surface.csv")
        write_drf_surface_csv(drf, tmp_path / "surface_bands.csv", bands=bands)
        write_drf_surface_csv(drf, tmp_path / "surface_z_only_bands.csv", bands=z_only)
        for axis in "zg":
            write_marginal_csv(drf, axis, tmp_path / f"marginal_{axis}.csv")
            write_marginal_csv(drf, axis, tmp_path / f"marginal_{axis}_bands.csv", bands=bands)
        write_marginal_csv(drf, "g", tmp_path / "marginal_g_z_only_bands.csv", bands=z_only)
        return {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def test_dataset_files(self, written):
        assert written["panel.csv"] == (
            b'u,t,yy,zz,x0\r\n'
            b'"a,1",1,0.1,1.0,0.3333333333333333\r\n'
            b'"q""t",1,-2.5,3.0,2.0\r\n'
            b'"a,1",2,1e-07,0.30000000000000004,-0.0\r\n'
            b'c,2,4.0,2.0,5.0\r\n')
        # canonical order: period by period, target-major; duplicates summed
        assert written["edges.csv"] == (
            b'source,target,period,weight\r\n'
            b'"q""t","a,1",1,0.1\r\n'
            b'"a,1","q""t",1,1.5\r\n'
            b'c,"a,1",2,0.5833333333333333\r\n'
            b'"a,1",c,2,2.0\r\n')
        assert written["exposure.csv"] == (
            b'u,t,g\r\n"a,1",1,0.15\r\n"q""t",1,0.75\r\n"a,1",2,0.5833333333\r\nc,2,0.3\r\n')

    def test_surface_tables(self, written):
        plain = (b'z,g,mu\r\n0.5,0,1\r\n0.5,0.3333333333,nan\r\n0.5,2,0.1428571429\r\n'
                 b'1,0,2e-12\r\n1,0.3333333333,1.23456789e+11\r\n1,2,-1.5\r\n')
        assert written["surface.csv"] == written["surface_z_only_bands.csv"] == plain
        assert written["surface_bands.csv"] == (
            b'z,g,mu,mu_lo,mu_hi\r\n'
            b'0.5,0,1,0.5,1.5\r\n'
            b'0.5,0.3333333333,nan,nan,nan\r\n'
            b'0.5,2,0.1428571429,-0.3571428571,0.6428571429\r\n'
            b'1,0,2e-12,-0.5,0.5\r\n'
            b'1,0.3333333333,1.23456789e+11,1.23456789e+11,1.23456789e+11\r\n'
            b'1,2,-1.5,-2,-1\r\n')

    def test_marginal_tables(self, written):
        assert written["marginal_z.csv"] == b'z,mu\r\n0.5,nan\r\n1,0.25\r\n'
        assert written["marginal_z_bands.csv"] == (
            b'z,mu,mu_lo,mu_hi\r\n0.5,nan,nan,nan\r\n1,0.25,0,1\r\n')
        plain_g = b'g,mu\r\n0,1.5\r\n0.3333333333,nan\r\n2,0.6666666667\r\n'
        assert written["marginal_g.csv"] == written["marginal_g_z_only_bands.csv"] == plain_g
        assert written["marginal_g_bands.csv"] == (
            b'g,mu,mu_lo,mu_hi\r\n0,1.5,1,2\r\n0.3333333333,nan,nan,nan\r\n'
            b'2,0.6666666667,0.5,1\r\n')
