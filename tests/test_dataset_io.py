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
