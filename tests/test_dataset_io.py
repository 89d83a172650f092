import numpy as np
import pytest

from netjps.dataset import PanelDataset, attach_exposure, check_unique_keys
from netjps.errors import InputError, UnboundColumnError
from netjps.io import (
    read_edges_csv,
    read_panel_csv,
    read_table,
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
            read_table(p)

    def test_row_width_error_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(InputError, match="row 3"):
            read_table(p)

    def test_bad_number_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("unit,period,y\nu1,1,oops\n")
        with pytest.raises(InputError, match="row 2.*'y'"):
            read_panel_csv(p, "unit", "period")

    def test_missing_key_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("unit,y\nu1,1\n")
        with pytest.raises(InputError, match="period"):
            read_panel_csv(p, "unit", "period")

    def test_edges_header_validated(self, tmp_path):
        p = tmp_path / "edges.csv"
        p.write_text("source,target,weight\na,b,1.0\n")
        with pytest.raises(InputError, match="header"):
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
