import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import SparseEfficiencyWarning

from netjps.errors import DegenerateNormalizerError, InputError
from netjps.network import (
    NeighborhoodSummarySpec,
    build_adjacency,
    neighborhood_covariate,
)
from netjps.dataset import PanelDataset, attach_exposure

from oracles import loop_exposure, loop_neighborhood

NODES3 = [("A", 2000), ("B", 2000), ("C", 2000)]


def exposure(adj, z, mode="plain"):
    """attach_exposure on one row per key of z, returned keyed like z."""
    keys = list(z)
    ds = PanelDataset(units=[u for u, _ in keys], periods=[p for _, p in keys],
                      y=np.zeros(len(keys)), z=[z[k] for k in keys], covariates={})
    return dict(zip(keys, attach_exposure(ds, adj, mode).g))


def test_empty_graph_is_valid():
    adj = build_adjacency([], NODES3)
    assert adj.n_edges() == 0
    g = exposure(adj, {(u, p): 1.0 for u, p in NODES3})
    assert all(v == 0.0 for v in g.values())


def test_duplicate_edges_are_summed():
    adj = build_adjacency(
        [("A", "B", 2000, 2.0), ("A", "B", 2000, 2.0)], NODES3
    )
    block = adj.block(2000)
    assert block.w[block.index["B"], block.index["A"]] == 4.0
    assert adj.n_edges() == 1


def test_self_loop_rejected():
    with pytest.raises(InputError, match="self-loop"):
        build_adjacency([("A", "A", 2000, 1.0)], NODES3)


def test_first_offending_edge_reports_its_first_rule():
    # rules run weight, self-loop, period, target, source on the first bad edge
    with pytest.raises(InputError, match=r"^edge \('A', 'A', 2000\): weight must be finite"):
        build_adjacency([("A", "B", 2000, 1.0), ("A", "A", 2000, -1.0)], NODES3)
    with pytest.raises(InputError, match=r"^edge \('A', 'Z', 2000\) references unregistered unit 'Z'$"):
        build_adjacency([("A", "Z", 2000, 1.0), ("A", "B", 2000, -1.0)], NODES3)
    with pytest.raises(InputError, match=r"^self-loop on unit 'Y' in period 1999$"):
        build_adjacency([("Y", "Y", 1999, 1.0), ("A", "B", 1999, 1.0)], NODES3)
    with pytest.raises(InputError, match=r"^edge references unregistered period 1999$"):
        build_adjacency([("A", "B", 1999, 1.0), ("A", "A", 2000, 1.0)], NODES3)
    with pytest.raises(InputError, match=r"^edge \('Y', 'Z', 2000\) references unregistered unit 'Z'$"):
        build_adjacency([("Y", "Z", 2000, 1.0)], NODES3)


def test_first_offending_edge_across_periods():
    # periods are built one at a time, in first-appearance order (2001 first)
    nodes = NODES3 + [("A", 2001), ("B", 2001), ("C", 2001)]
    edges = [("A", "B", 2001, 1.0), ("A", "Z", 2000, 1.0), ("A", "Y", 2001, 1.0),
             ("B", "C", 1999, 1.0)]
    with pytest.raises(InputError, match=r"^edge \('A', 'Z', 2000\) references unregistered unit 'Z'$"):
        build_adjacency(edges, nodes)
    with pytest.raises(InputError, match=r"^edge references unregistered period 1999$"):
        build_adjacency(edges[3:] + edges[:3], nodes)
    adj = build_adjacency([edges[0], ("C", "A", 2000, 2.0), ("C", "B", 2001, 0.5)], nodes)
    assert [adj.block(p).w.toarray().tolist() for p in (2000, 2001)] == [
        [[0, 0, 2.0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1.0, 0, 0.5], [0, 0, 0]]]


def test_unknown_unit_rejected():
    with pytest.raises(InputError, match="unregistered"):
        build_adjacency([("A", "Z", 2000, 1.0)], NODES3)
    with pytest.raises(InputError, match="unregistered"):
        build_adjacency([("A", "B", 1999, 1.0)], NODES3)


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_bad_weight_rejected(bad):
    with pytest.raises(InputError, match="weight"):
        build_adjacency([("A", "B", 2000, bad)], NODES3)


def test_exposure_all_zero_treatment():
    adj = build_adjacency([("B", "A", 2000, 2.0)], NODES3)
    g = exposure(adj, {(u, p): 0.0 for u, p in NODES3})
    assert all(v == 0.0 for v in g.values())


def test_exposure_plain_hand_case():
    # edges into unit 1: a_12 = 2 (z_2 = 1), a_13 = 0 (z_3 = 1)
    adj = build_adjacency(
        [("B", "A", 2000, 2.0), ("C", "A", 2000, 0.0)], NODES3
    )
    z = {("A", 2000): 5.0, ("B", 2000): 1.0, ("C", 2000): 1.0}
    assert adj.n_edges() == 1
    g = exposure(adj, z, mode="plain")
    assert g[("A", 2000)] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_exposure_trade_normalized_hand_case():
    # nonzero weights {2, 4} -> S = 3; G_A = 2 / (3 * 3)
    adj = build_adjacency(
        [("B", "A", 2000, 2.0), ("C", "A", 2000, 0.0), ("C", "B", 2000, 4.0)],
        NODES3,
    )
    z = {("A", 2000): 5.0, ("B", 2000): 1.0, ("C", 2000): 1.0}
    g = exposure(adj, z, mode="trade_normalized")
    assert g[("A", 2000)] == pytest.approx(2.0 / 9.0, abs=1e-12)


def test_trade_normalized_degenerate():
    adj = build_adjacency([("B", "A", 2000, 0.0)], NODES3)
    with pytest.raises(DegenerateNormalizerError):
        exposure(adj, {(u, p): 1.0 for u, p in NODES3}, mode="trade_normalized")


def test_exposure_missing_treatment():
    adj = build_adjacency([], NODES3)
    with pytest.raises(InputError, match="no row"):
        exposure(adj, {("A", 2000): 1.0})


def test_degree_cases():
    # the count summarizer: distinct neighbors with nonzero weight
    units = "CABDE"
    ds = PanelDataset(units=list(units), periods=[1] * 5, y=np.zeros(5), z=np.ones(5),
                      covariates={"v": np.zeros(5)})

    def degree(adj, unit, direction):
        spec = NeighborhoodSummarySpec(covariate="v", summarizer="count", direction=direction)
        return neighborhood_covariate(adj, ds, spec)[0][units.index(unit)]

    nodes = [(u, 1) for u in units]
    star = [("C", u, 1, 1.0) for u in "ABDE"]
    adj = build_adjacency(star, nodes)
    assert degree(adj, "C", "out") == 4
    assert degree(adj, "C", "in") == 0
    assert degree(adj, "A", "in") == 1
    iso = build_adjacency([], nodes)
    assert degree(iso, "A", "out") == 0
    dup = build_adjacency([("C", "A", 1, 1.0), ("C", "A", 1, 3.0)], nodes)
    assert degree(dup, "C", "out") == 1


def test_registry_keeps_first_appearance_order():
    nodes = [("B", 1), ("A", 2), ("A", 1), ("B", 1), ("C", 2), ("A", 2), ("A", 1), ("C", 1)]
    adj = build_adjacency([("A", "B", 1, 1.0)], nodes)
    assert adj.periods == (1, 2)
    assert adj.block(1).units == ("B", "A", "C")
    assert adj.block(2).units == ("A", "C")
    assert adj.block(1).index == {"B": 0, "A": 1, "C": 2}
    assert adj.block(1).w[0, 1] == 1.0


def _dataset3(values):
    return PanelDataset(
        units=["A", "B", "C"],
        periods=[2000, 2000, 2000],
        y=np.zeros(3),
        z=np.ones(3),
        covariates={"v": np.asarray(values)},
    )


def test_neighborhood_covariate_weighted_mean():
    ds = _dataset3([5.0, 10.0, 20.0])
    adj = build_adjacency(
        [("B", "A", 2000, 1.0), ("C", "A", 2000, 1.0)], NODES3
    )
    spec = NeighborhoodSummarySpec(covariate="v")
    values, isolated = neighborhood_covariate(adj, ds, spec)
    assert values[0] == pytest.approx(15.0, abs=1e-12)
    # isolated nodes: defined as 0 and flagged
    assert values[1] == 0.0 and values[2] == 0.0
    assert list(isolated) == [False, True, True]


def test_neighborhood_covariate_unequal_weights():
    ds = _dataset3([5.0, 10.0, 20.0])
    adj = build_adjacency(
        [("B", "A", 2000, 1.0), ("C", "A", 2000, 3.0)], NODES3
    )
    values, _ = neighborhood_covariate(adj, ds, NeighborhoodSummarySpec(covariate="v"))
    assert values[0] == pytest.approx(17.5, abs=1e-12)  # (1*10 + 3*20)/4


def test_neighborhood_covariate_sum_count_and_direction():
    ds = _dataset3([5.0, 10.0, 20.0])
    adj = build_adjacency(
        [("B", "A", 2000, 1.0), ("C", "A", 2000, 3.0)], NODES3
    )
    values, _ = neighborhood_covariate(
        adj, ds, NeighborhoodSummarySpec(covariate="v", summarizer="sum")
    )
    assert values[0] == pytest.approx(70.0)
    values, _ = neighborhood_covariate(
        adj, ds, NeighborhoodSummarySpec(covariate="v", summarizer="count")
    )
    assert values[0] == 2.0
    values, _ = neighborhood_covariate(
        adj, ds, NeighborhoodSummarySpec(covariate="v", direction="out")
    )
    assert values[1] == pytest.approx(5.0)  # B -> A only


def test_neighborhood_covariate_missing_column():
    ds = _dataset3([1.0, 2.0, 3.0])
    adj = build_adjacency([], NODES3)
    with pytest.raises(InputError, match="missing covariate"):
        neighborhood_covariate(adj, ds, NeighborhoodSummarySpec(covariate="nope"))


def test_invalid_spec_fields():
    with pytest.raises(InputError):
        NeighborhoodSummarySpec(covariate="v", summarizer="median")
    with pytest.raises(InputError):
        NeighborhoodSummarySpec(covariate="v", direction="sideways")


def _random_graph(rng, n, periods=(0,)):
    nodes = [(u, p) for p in periods for u in range(n)]
    edges = []
    for p in periods:
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    edges.append((i, j, p, float(rng.exponential(1.5))))
    return nodes, edges


def test_plain_mode_matches_dense_matvec_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 21))
        nodes, edges = _random_graph(rng, n)
        adj = build_adjacency(edges, nodes)
        z = {(u, 0): float(rng.normal()) for u in range(n)}
        got = exposure(adj, z, mode="plain")
        want = loop_exposure(edges, nodes, z, mode="plain")
        for key in got:
            assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12)


def test_trade_normalized_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 15))
        nodes, edges = _random_graph(rng, n)
        if not edges:
            continue
        adj = build_adjacency(edges, nodes)
        z = {(u, 0): float(rng.normal()) for u in range(n)}
        got = exposure(adj, z, mode="trade_normalized")
        want = loop_exposure(edges, nodes, z, mode="trade_normalized")
        for key in got:
            assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-12)


@given(
    alpha=st.floats(min_value=-5, max_value=5, allow_nan=False),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_exposure_linearity(alpha, seed):
    rng = np.random.default_rng(seed)
    nodes, edges = _random_graph(rng, 6)
    adj = build_adjacency(edges, nodes)
    z = {(u, 0): float(rng.normal()) for u in range(6)}
    za = {k: alpha * v for k, v in z.items()}
    g1 = exposure(adj, z)
    g2 = exposure(adj, za)
    for key in g1:
        assert g2[key] == pytest.approx(alpha * g1[key], rel=1e-9, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_exposure_additivity(seed):
    rng = np.random.default_rng(seed)
    nodes, edges = _random_graph(rng, 6)
    adj = build_adjacency(edges, nodes)
    z1 = {(u, 0): float(rng.normal()) for u in range(6)}
    z2 = {(u, 0): float(rng.normal()) for u in range(6)}
    zsum = {k: z1[k] + z2[k] for k in z1}
    g1, g2, gs = exposure(adj, z1), exposure(adj, z2), exposure(adj, zsum)
    for key in gs:
        assert gs[key] == pytest.approx(g1[key] + g2[key], rel=1e-9, abs=1e-12)


def test_period_locality():
    rng = np.random.default_rng(3)
    nodes, edges = _random_graph(rng, 5, periods=(0, 1))
    z = {(u, p): float(rng.normal()) for u in range(5) for p in (0, 1)}
    adj = build_adjacency(edges, nodes)
    base = exposure(adj, z)
    # perturb period-1 edges and period-1 treatments
    edges1 = [e for e in edges if e[2] == 0] + [(0, 1, 1, 99.0)]
    z1 = dict(z)
    z1[(2, 1)] += 10.0
    got = exposure(build_adjacency(edges1, nodes), z1)
    for u in range(5):
        assert got[(u, 0)] == base[(u, 0)]


def test_adjacency_blocks_are_readonly():
    adj = build_adjacency([("A", "B", 2000, 1.0)], NODES3)
    with pytest.raises(ValueError), warnings.catch_warnings():
        # w[0, 0] is not stored: scipy warns that the write changes the
        # sparsity structure before the read-only arrays refuse it
        warnings.simplefilter("ignore", SparseEfficiencyWarning)
        adj.block(2000).w[0, 0] = 5.0


def test_neighborhood_covariate_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        nodes, edges = _random_graph(rng, n, periods=(0, 1))
        # duplicates of existing edges, with fresh weights
        for k in rng.integers(0, len(edges), size=4):
            s, t, p, _ = edges[k]
            edges.append((s, t, p, float(rng.exponential(1.5))))
        # unit n-1 of period 0 touches only zero-weight edges: isolated both ways
        edges = [e for e in edges if not (e[2] == 0 and n - 1 in e[:2])]
        edges += [(0, n - 1, 0, 0.0), (0, n - 1, 0, 0.0), (n - 1, 0, 0, 0.0), (1, 0, 1, 0.0)]
        adj = build_adjacency(edges, nodes)
        keys = [nodes[k] for k in rng.permutation(len(nodes))]
        x = {key: float(rng.normal()) for key in keys}
        ds = PanelDataset(units=[u for u, _ in keys], periods=[p for _, p in keys],
                          y=np.zeros(len(keys)), z=np.ones(len(keys)),
                          covariates={"v": [x[key] for key in keys]})
        for summarizer in ("weighted_mean", "sum", "count"):
            for direction in ("in", "out"):
                spec = NeighborhoodSummarySpec(covariate="v", summarizer=summarizer,
                                               direction=direction)
                values, isolated = neighborhood_covariate(adj, ds, spec)
                want = loop_neighborhood(edges, nodes, x, summarizer, direction)
                for row, key in enumerate(keys):
                    assert values[row] == pytest.approx(want[key][0], rel=1e-10, abs=1e-12)
                    assert isolated[row] == want[key][1]
                if summarizer == "weighted_mean":
                    assert isolated[keys.index((n - 1, 0))]


def _rows(units, periods):
    n = len(units)
    return PanelDataset(units=units, periods=periods, y=np.zeros(n), z=np.ones(n),
                        covariates={"v": np.arange(n, dtype=float)})


ALIGNED_CALLERS = {
    "attach_exposure": lambda adj, ds: attach_exposure(ds, adj),
    "neighborhood_covariate": lambda adj, ds: neighborhood_covariate(
        adj, ds, NeighborhoodSummarySpec(covariate="v")),
}


@pytest.mark.parametrize("call", ALIGNED_CALLERS.values(), ids=ALIGNED_CALLERS.keys())
def test_duplicate_dataset_rows_rejected(call):
    adj = build_adjacency([("B", "A", 2000, 3.0)], [("A", 2000), ("B", 2000)])
    ds = _rows(["A", "A", "B"], [2000] * 3)
    with pytest.raises(InputError, match=r"duplicate \(unit, period\) key \('A', 2000\) at rows 0 and 1"):
        call(adj, ds)


@pytest.mark.parametrize("call", ALIGNED_CALLERS.values(), ids=ALIGNED_CALLERS.keys())
def test_alignment_errors(call):
    adj = build_adjacency([("B", "A", 2000, 3.0)], NODES3)
    with pytest.raises(InputError, match="'D': not registered in period 2000"):
        call(adj, _rows(["A", "B", "D", "C"], [2000] * 4))
    with pytest.raises(InputError, match="unknown period 1999"):
        call(adj, _rows(["A", "B", "C", "A"], [2000, 2000, 2000, 1999]))


def test_sparse_blocks_stay_small():
    # the dense 3000 x 3000 float matrix would take 72 MB
    rng = np.random.default_rng(5)
    n = 3000
    pairs = rng.integers(0, n, size=(30_000, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    edges = [(int(s), int(t), 0, 1.0) for s, t in pairs]
    adj = build_adjacency(edges, [(u, 0) for u in range(n)])
    w = adj.block(0).w
    assert adj.n_edges() == len({(s, t) for s, t, _, _ in edges})
    assert w.data.nbytes + w.indices.nbytes + w.indptr.nbytes < 1_000_000
