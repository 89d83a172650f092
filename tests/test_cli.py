import csv
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from netjps import cli, errors, jps
from netjps.cli import main
from netjps.config import (
    BootstrapSettings,
    ColumnBindings,
    RunConfig,
    parse_config,
    serialize_config,
)
from netjps.errors import ConfigError
from netjps.io import write_edges_csv, write_panel_csv
from netjps.jps import ContrastSpec, GridPolicy, JpsConfig, run_jps
from netjps.linear_model import DOT_BLOCK
from netjps.synth import OutcomeRule, Scenario, generate, generate_sparse

SRC = Path(__file__).resolve().parents[1] / "src"


SIM_CONFIG = """
# simulation recipe
out = {out}
variant = both
grid.n_z = 8
grid.n_g = 6
oracle.m = 2000
scenario.n_units = 60
scenario.n_periods = 2
scenario.edge_prob = 0.25
scenario.weight_log_mean = 0.8
scenario.weight_log_sd = 0.4
scenario.n_covariates = 2
scenario.treatment_coefs = 0.2, -0.1
scenario.treatment_sd = 0.2
scenario.outcome_sd = 0.1
scenario.seed = 5
scenario.outcome.intercept = 1.0
scenario.outcome.z = 1.0
scenario.outcome.g = 0.5
scenario.outcome.x = 0.1, 0.1
"""

RUN_CONFIG = """
panel = {panel}
edges = {edges}
out = {out}
variant = {variant}
exposure.mode = plain
columns.unit = unit
columns.period = period
columns.outcome = y
columns.treatment = z
columns.x_z = x0, x1
columns.x_g = x0, x1
grid.n_z = 8
grid.n_g = 6
bootstrap.b = {b}
bootstrap.seed = 9
effects.z_pairs = 1.2:1.4
"""


EVERY_KEY_CONFIG = """
panel = p.csv
edges = e.csv
out = results
variant = naive
exposure.mode = trade-normalized
columns.unit = u
columns.period = t
columns.outcome = yy
columns.treatment = zz
columns.x_z = a, b
columns.x_g = c
neighborhood.nbr = sum:out:a
grid.n_z = 7
grid.n_g = 9
grid.lower_pct = 2.5
grid.upper_pct = 97.5
grid.z_values = 0.5, 1.5
grid.g_values = 0.1, 0.2, 0.4
bootstrap.b = 3
bootstrap.seed = 4
bootstrap.level = 0.9
oracle.m = 500
effects.z_pairs = 1.2:1.0, 1.5:1.0
effects.g_pairs = 0.2:0.1
scenario.n_units = 10
scenario.n_periods = 3
scenario.edge_prob = 0.3
scenario.weight_log_mean = 0.1
scenario.weight_log_sd = 0.6
scenario.weight_covariate_coef = 0.2
scenario.n_covariates = 2
scenario.covariate_mean = 0.5
scenario.covariate_sd = 2.0
scenario.treatment_intercept = 0.3
scenario.treatment_coefs = 0.2, -0.1
scenario.treatment_sd = 0.3
scenario.exposure_mode = trade-normalized
scenario.outcome_sd = 0.2
scenario.seed = 8
scenario.outcome.intercept = 1
scenario.outcome.z = 2
scenario.outcome.z2 = -0.5
scenario.outcome.z3 = 0.1
scenario.outcome.g = 0.4
scenario.outcome.g2 = -0.2
scenario.outcome.zg = 0.3
scenario.outcome.x = 0.1, 0.2
"""


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture()
def simulated(tmp_path):
    simdir = tmp_path / "sim"
    cfgfile = write(tmp_path / "sim.cfg", SIM_CONFIG.format(out=simdir))
    main(["simulate", "--config", cfgfile])
    return simdir


class TestConfig:
    def test_parse_and_round_trip(self, tmp_path):
        text = SIM_CONFIG.format(out=tmp_path / "o") + RUN_CONFIG.format(
            panel="p.csv", edges="e.csv", out=tmp_path / "o", variant="jps", b=0
        )
        cfg = parse_config(text)
        cfg2 = parse_config(serialize_config(cfg))
        assert cfg2 == cfg

        # a config that sets every key to a non-default value
        cfg = parse_config(EVERY_KEY_CONFIG)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert ({ln.split(" = ")[0] for ln in text.splitlines()}
                == {ln.split(" = ")[0] for ln in EVERY_KEY_CONFIG.strip().splitlines()})
        assert cfg.exposure_mode == cfg.scenario.exposure_mode == "trade_normalized"
        # every field differs from its default, so every field has a key
        for obj, default in ((cfg, RunConfig()), (cfg.columns, ColumnBindings()),
                             (cfg.grid, GridPolicy()), (cfg.bootstrap, BootstrapSettings()),
                             (cfg.contrasts, ContrastSpec()), (cfg.scenario, Scenario(n_units=1)),
                             (cfg.scenario.outcome, OutcomeRule())):
            for f in fields(obj):
                assert getattr(obj, f.name) != getattr(default, f.name), f.name

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="cfg:3"):
            parse_config("panel = a\nedges = b\nwat = 7\n", source="cfg")

    def test_bad_values_name_field(self):
        with pytest.raises(ConfigError, match="grid.n_z"):
            parse_config("grid.n_z = many")
        with pytest.raises(ConfigError, match="B must be"):
            parse_config("bootstrap.b = 1")
        with pytest.raises(ConfigError, match="variant"):
            parse_config("variant = sideways")
        with pytest.raises(ConfigError, match="contrast pair"):
            parse_config("effects.z_pairs = 1-2")
        with pytest.raises(ConfigError, match="n_units"):
            parse_config("scenario.seed = 3")
        with pytest.raises(ConfigError, match=r":1: neighborhood\.n: unknown summarizer"):
            parse_config("neighborhood.n = median:in:v")
        with pytest.raises(ConfigError, match=r":1: neighborhood\.n: unknown direction"):
            parse_config("neighborhood.n = sum:sideways:v")
        for line, rule in (("bootstrap.seed = -1", "must be >= 0"),
                           ("scenario.seed = -1", "must be >= 0"),
                           ("grid.n_z = -1", "must be >= 1"),
                           ("grid.n_z = 0", "must be >= 1"),
                           ("grid.n_g = -1", "must be >= 1"),
                           ("grid.lower_pct = -5", r"must be in \[0, 100\]"),
                           ("grid.upper_pct = 150", r"must be in \[0, 100\]")):
            key = line.split(" =")[0]
            with pytest.raises(ConfigError, match=rf"^cfg:2: {key}: {rule}$"):
                parse_config(f"out = o\n{line}\n", source="cfg")
        # each percentile is in range, but the pair is inverted
        for lower, upper in (("90", "10"), ("50", "50")):
            with pytest.raises(ConfigError,
                               match=r"^cfg: grid\.lower_pct must be below grid\.upper_pct$"):
                parse_config(f"grid.upper_pct = {upper}\ngrid.lower_pct = {lower}\n",
                             source="cfg")
        # so are the outcome and the treatment, bound to one column
        for text, column in (("columns.outcome = z\n", "z"),
                             ("columns.treatment = v\ncolumns.outcome = v\n", "v")):
            with pytest.raises(ConfigError, match=r"^cfg: columns\.outcome and columns\.treatment "
                                                  rf"both bind column '{column}'$"):
                parse_config(text, source="cfg")
        # a neighbor summary named like a bound column
        for text, binding, name in (("neighborhood.y = sum:in:x0\n", "outcome", "y"),
                                    ("neighborhood.z = count:in:x0\n", "treatment", "z"),
                                    ("neighborhood.unit = sum:out:x0\n", "unit", "unit"),
                                    ("columns.period = t\nneighborhood.t = sum:in:x0\n",
                                     "period", "t")):
            with pytest.raises(ConfigError, match=rf"^cfg: neighborhood\.{name} is named like "
                                                  rf"columns\.{binding}$"):
                parse_config(text, source="cfg")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("panel\n")


class TestSimulateAndRoundTrip:
    def test_simulate_writes_everything(self, tmp_path, capsys):
        cfgfile = write(tmp_path / "sim.cfg", SIM_CONFIG.format(out=tmp_path / "simout"))
        assert main(["simulate", "--config", cfgfile]) == 0
        outdir = tmp_path / "simout"
        for name in ("panel.csv", "edges.csv", "oracle.json", "comparison.json", "drf.json"):
            assert (outdir / name).exists(), name
        comparison = json.loads((outdir / "comparison.json").read_text())
        assert "jps" in comparison and "naive" in comparison
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("z_values, best", [("1.0, 1.2, 1e103", (1.0, 1.2)),
                                                 ("1e103, 1e104", (None,))])
    def test_flagged_grid_point_is_not_the_argmax(self, tmp_path, z_values, best):
        # z^3 overflows past 1e102: every marginal_z entry there is flagged NaN,
        # and with no finite entry there is no argmax
        # (numpy's overflow warnings are that flag's cause; any other
        # RuntimeWarning, such as an all-NaN reduction, fails the run)
        outdir = tmp_path / "simout"
        cfgfile = write(tmp_path / "sim.cfg", SIM_CONFIG.format(out=outdir)
                        + f"grid.z_values = {z_values}\n")
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", "--config", cfgfile]) == 0
        comparison = json.loads((outdir / "comparison.json").read_text())
        assert comparison["oracle_argmax_z"] in best
        for name in ("jps", "naive"):
            assert comparison[name]["argmax_z"] in best
            steps = comparison[name]["argmax_steps_from_oracle"]
            assert steps in ((None,) if best == (None,) else (0, 1))

    def test_cli_round_trip_reproduces_surface_bit_exactly(self, tmp_path):
        simdir = tmp_path / "sim"
        cfgfile = write(tmp_path / "sim.cfg", SIM_CONFIG.format(out=simdir))
        assert main(["simulate", "--config", cfgfile]) == 0

        # in-process reference on the same generated data
        cfg = parse_config(SIM_CONFIG.format(out=simdir))
        ds, adj = generate(cfg.scenario)
        ref = run_jps(ds, JpsConfig(x_z=("x0", "x1"), x_g=("x0", "x1"),
                                    grid=GridPolicy(n_z=8, n_g=6)))

        # drf command on the written CSVs
        rundir = tmp_path / "run"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simdir / "panel.csv", edges=simdir / "edges.csv",
            out=rundir, variant="jps", b=0,
        ))
        assert main(["drf", "--config", runfile]) == 0
        payload = json.loads((rundir / "drf.json").read_text())
        assert np.array_equal(np.array(payload["surface"]), ref.drf.surface)
        assert np.array_equal(np.array(payload["marginal_z"]), ref.drf.marginal_z)
        assert np.array_equal(np.array(payload["z_grid"]), ref.drf.z_grid)

        summary = json.loads((rundir / "fit_summary.json").read_text())
        assert len(summary["outcome_model"]["terms"]) == 16
        assert summary["outcome_model"]["terms"][-1] == "const"


class TestCommands:
    def test_exposure_command(self, simulated, tmp_path):
        rundir = tmp_path / "exp"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="jps", b=0,
        ))
        assert main(["exposure", "--config", runfile]) == 0
        with open(rundir / "exposure.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["unit", "period", "g"]
        assert len(rows) == 121

    def test_fit_command_prints_table(self, simulated, tmp_path, capsys):
        rundir = tmp_path / "fit"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="both", b=0,
        ))
        assert main(["fit", "--config", runfile]) == 0
        out = capsys.readouterr().out
        assert "outcome_model" in out and "z*g" in out
        summary = json.loads((rundir / "fit_summary.json").read_text())
        assert len(summary["naive"]["outcome_model"]["terms"]) == 8

    def test_fit_prints_a_table_per_estimator(self, simulated, tmp_path, capsys):
        for variant, tables in (("naive", ["naive outcome_model (8 terms)"]),
                                ("both", ["outcome_model (16 terms)",
                                          "naive outcome_model (8 terms)"])):
            runfile = write(tmp_path / f"{variant}.cfg", RUN_CONFIG.format(
                panel=simulated / "panel.csv", edges=simulated / "edges.csv",
                out=tmp_path / variant, variant=variant, b=0,
            ))
            assert main(["fit", "--config", runfile]) == 0
            out = capsys.readouterr().out
            assert [line for line in out.splitlines() if "terms)" in line] == tables

    def test_drf_with_bootstrap_bands(self, simulated, tmp_path):
        rundir = tmp_path / "drf"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="jps", b=12,
        ))
        assert main(["drf", "--config", runfile]) == 0
        with open(rundir / "drf_surface.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["z", "g", "mu", "mu_lo", "mu_hi"]
        assert len(rows) == 1 + 8 * 6
        lo, mid, hi = float(rows[1][3]), float(rows[1][2]), float(rows[1][4])
        assert lo <= hi
        payload = json.loads((rundir / "drf.json").read_text())
        assert payload["bands"]["b"] == 12
        assert payload["effects"]["direct"][0][:2] == [1.2, 1.4]

    def test_drf_both_variant_adds_naive_outputs(self, simulated, tmp_path):
        rundir = tmp_path / "both"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="both", b=0,
        ))
        assert main(["drf", "--config", runfile]) == 0
        assert (rundir / "drf_surface.csv").exists()
        assert (rundir / "naive_marginal_z.csv").exists()
        naive = json.loads((rundir / "naive_drf.json").read_text())
        assert naive["surface"] is None and naive["marginal_z"] is not None

    def test_drf_both_writes_what_each_variant_writes_alone(self, simulated, tmp_path):
        def run(variant):
            rundir = tmp_path / variant
            runfile = write(tmp_path / f"{variant}.cfg", RUN_CONFIG.format(
                panel=simulated / "panel.csv", edges=simulated / "edges.csv",
                out=rundir, variant=variant, b=5,
            ))
            assert main(["drf", "--config", runfile]) == 0
            return rundir

        both, joint, naive = run("both"), run("jps"), run("naive")
        for name in ("drf.json", "drf_surface.csv", "drf_marginal_z.csv",
                     "drf_marginal_g.csv", "effects.json"):
            assert (both / name).read_bytes() == (joint / name).read_bytes(), name
        assert (both / "naive_drf.json").read_bytes() == (naive / "drf.json").read_bytes()
        assert ((both / "naive_marginal_z.csv").read_bytes()
                == (naive / "drf_marginal_z.csv").read_bytes())

    @staticmethod
    def drf_json_per_blas_threads(tmp_path, panel, n_z, n_g):
        """drf.json of ``netjps drf`` (B = 3, an n_z x n_g grid) on the
        (dataset, graph) ``panel``, with OPENBLAS_NUM_THREADS 1 and with
        as many threads as the machine has CPUs, at least 2."""
        ds, adj = panel
        write_panel_csv(ds, tmp_path / "panel.csv")
        write_edges_csv(adj, tmp_path / "edges.csv")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        docs = []
        for threads in ("1", str(max(2, os.cpu_count() or 1))):
            rundir = tmp_path / f"threads{threads}"
            runfile = write(tmp_path / f"threads{threads}.cfg", RUN_CONFIG.format(
                panel=tmp_path / "panel.csv", edges=tmp_path / "edges.csv",
                out=rundir, variant="jps", b=3,
            ).replace("grid.n_z = 8", f"grid.n_z = {n_z}")
             .replace("grid.n_g = 6", f"grid.n_g = {n_g}"))
            proc = subprocess.run(
                [sys.executable, "-m", "netjps.cli", "drf", "--config", runfile],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, capture_output=True,
                text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            docs.append((rundir / "drf.json").read_bytes())
        assert json.loads(docs[0])["bands"]["b_effective"] == 3
        return docs

    @staticmethod
    def four_thousand_rows():
        return generate(Scenario(
            n_units=1000, n_periods=4, edge_prob=0.005, weight_log_mean=5.3,
            weight_log_sd=0.4, n_covariates=2, treatment_coefs=(0.2, -0.1),
            outcome=OutcomeRule(z=1.0, g=0.5, x=(0.1, 0.1)), seed=11))

    def test_drf_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # 4000 rows on a 60 x 60 grid: one BLAS product over a 512-unit
        # block of a surface tile sums in an order that changes with the
        # thread count, so each tile is summed as gemm blocks of 72 units
        panel = self.four_thousand_rows()
        assert panel[0].n >= 4000
        docs = self.drf_json_per_blas_threads(tmp_path, panel, 60, 60)
        assert docs[0] == docs[1]

    def test_drf_bytes_do_not_depend_on_blas_threads_on_one_g_value(self, tmp_path):
        # every surface tile has a single-cell g run: numpy sends each
        # (60, k) x (k, 1) product to gemv, not gemm
        panel = self.four_thousand_rows()
        assert jps._unit_block(60, 1) > jps.UNIT_BLOCK
        docs = self.drf_json_per_blas_threads(tmp_path, panel, 60, 1)
        assert docs[0] == docs[1]

    def test_drf_bytes_do_not_depend_on_blas_threads_in_grid_sized_blocks(self, tmp_path):
        # a 20 x 20 grid takes unit blocks longer than UNIT_BLOCK, each
        # curve's contraction still one single-threaded ddot and each
        # surface tile's a sum of single-threaded gemm blocks
        panel = self.four_thousand_rows()
        block = jps._unit_block(20, 20)
        assert jps.UNIT_BLOCK < block <= DOT_BLOCK and panel[0].n > block
        docs = self.drf_json_per_blas_threads(tmp_path, panel, 20, 20)
        assert docs[0] == docs[1]

    def test_drf_bytes_do_not_depend_on_blas_threads_above_one_dot_block(self, tmp_path):
        # 12000 rows: OpenBLAS threads one ddot over them, so a residual sum
        # of squares taken as one dot changes sigma's bits with the thread count
        panel = generate_sparse(Scenario(
            n_units=6000, n_periods=2, weight_log_mean=math.log(6000 / 5),
            weight_log_sd=0.4, n_covariates=2, treatment_coefs=(0.2, -0.1),
            outcome=OutcomeRule(z=1.0, g=0.5, x=(0.1, 0.1)), seed=11), 5)
        assert panel[0].n > DOT_BLOCK
        docs = self.drf_json_per_blas_threads(tmp_path, panel, 6, 6)
        assert docs[0] == docs[1]

    def test_drf_loads_no_scipy_and_no_lazy_numpy(self, simulated, tmp_path):
        # numpy is the only runtime dependency, and every numpy module a run
        # needs is loaded by the import, not inside the run that follows it
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=tmp_path / "run", variant="both", b=3,
        ) + "neighborhood.nbr_x0 = weighted_mean:out:x0\n")
        script = (
            "import json, sys\n"
            "import netjps.cli\n"
            "imported = set(sys.modules)\n"
            "code = netjps.cli.main(['drf', '--config', sys.argv[1]])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
            "                  sorted(m for m in set(sys.modules) - imported\n"
            "                         if m.split('.')[0] == 'numpy')]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script, runfile],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, [], []]

    def test_flagged_cells_written_as_null(self, simulated, tmp_path):
        # z^3 overflows at z = 1e103: every document stays strict JSON, with
        # null exactly where the in-process estimate is NaN
        rundir = tmp_path / "flagged"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="both", b=3,
        ) + "grid.z_values = 1.0, 1e103\n")
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["drf", "--config", runfile]) == 0
            ds, _ = generate(parse_config(SIM_CONFIG.format(out=simulated)).scenario)
            ref = run_jps(ds, JpsConfig(x_z=("x0", "x1"), x_g=("x0", "x1"),
                                        grid=GridPolicy(z_values=(1.0, 1e103), n_g=6))).drf

        def no_constant(token):
            raise ValueError(f"{token} is not JSON")

        doc, naive, effects = (json.loads((rundir / name).read_text(), parse_constant=no_constant)
                               for name in ("drf.json", "naive_drf.json", "effects.json"))

        def nulls(values):
            return np.array([[v is None for v in row] if isinstance(row, list) else row is None
                             for row in values])

        flagged = np.isnan(ref.surface)
        assert flagged.any() and not flagged.all()
        for key in ("surface", "marginal_z", "marginal_g"):
            assert np.array_equal(nulls(doc[key]), np.isnan(getattr(ref, key))), key
        for key in ("surface_lo", "surface_hi"):
            assert np.array_equal(nulls(doc["bands"][key]), flagged), key
        assert nulls(naive["marginal_z"]).tolist() == [False, True]
        assert nulls(effects["dz"]).tolist() == [True, True]
        assert doc["bands"]["failure_log"] == [] and naive["bands"]["failure_log"] == []

    @pytest.mark.parametrize("command", ["drf", "simulate"])
    def test_flags_are_logged_once_per_estimator(self, simulated, tmp_path, caplog, command):
        # z^3 overflows at z = 1e103: the joint surface's row there and both
        # z-marginals' entries are flagged, and the bootstrap's replicates
        # leave their flags to the bands
        if command == "drf":
            text = RUN_CONFIG.format(panel=simulated / "panel.csv", edges=simulated / "edges.csv",
                                     out=tmp_path / "o", variant="both", b=4)
        else:
            text = SIM_CONFIG.format(out=tmp_path / "o")
        runfile = write(tmp_path / "run.cfg", text + "grid.z_values = 1.0, 1e103\n")
        with caplog.at_level(logging.WARNING), np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", runfile]) == 0
        flagged = [r.getMessage() for r in caplog.records if "flagged" in r.getMessage()]
        assert flagged == ["joint estimator: 6 non-finite surface cells flagged",
                           "joint estimator: 1 non-finite marginal_z entries flagged",
                           "naive estimator: 1 non-finite marginal_z entries flagged"]

    def test_resampled_support_is_logged_once_per_estimator(self, simulated, tmp_path, caplog):
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=tmp_path / "o", variant="both", b=4,
        ) + "grid.z_values = 1.0, 1e103\n")
        with caplog.at_level(logging.WARNING), np.errstate(over="ignore", invalid="ignore"):
            assert main(["drf", "--config", runfile]) == 0
        lines = [r.getMessage() for r in caplog.records if "resampled support" in r.getMessage()]
        assert lines == [f"{name} estimator: the grid extends outside the resampled support "
                         "in 4 of 4 replicates" for name in ("joint", "naive")]

    @pytest.mark.parametrize("command", ["drf", "fit", "simulate"])
    def test_grid_outside_the_support_is_logged_once(self, simulated, tmp_path, caplog, command):
        # the joint and naive estimators share the z grid, and the
        # bootstrap's replicates log a count of their own
        if command == "simulate":
            text = SIM_CONFIG.format(out=tmp_path / "o")
        else:
            text = RUN_CONFIG.format(panel=simulated / "panel.csv", edges=simulated / "edges.csv",
                                     out=tmp_path / "o", variant="both", b=4)
        runfile = write(tmp_path / "run.cfg", text + "grid.z_values = 1.0, 1e103\n")
        with caplog.at_level(logging.WARNING), np.errstate(over="ignore", invalid="ignore"):
            assert main([command, "--config", runfile]) == 0
        lines = [r.getMessage() for r in caplog.records if "observed support" in r.getMessage()]
        assert len(lines) == 1, lines
        assert lines[0].startswith("z grid [1, 1e+103] extends outside the observed support [")

    def test_drf_runs_each_pipeline_once_outside_the_bootstrap(self, simulated, tmp_path,
                                                                monkeypatch):
        from netjps import bootstrap as bootstrap_mod
        from netjps import jps
        from netjps.dataset import PanelDataset

        resamples = []
        subset = PanelDataset.subset

        def recording_subset(self, idx, weights=None):
            resamples.append(subset(self, idx, weights))
            return resamples[-1]

        monkeypatch.setattr(PanelDataset, "subset", recording_subset)
        point_runs = {"run_jps": 0, "run_naive": 0}
        for module in (jps, bootstrap_mod):
            for name in point_runs:
                def counted(dataset, config, real=getattr(module, name), name=name):
                    if not any(dataset is r for r in resamples):
                        point_runs[name] += 1
                    return real(dataset, config)

                monkeypatch.setattr(module, name, counted)

        rundir = tmp_path / "once"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="both", b=5,
        ))
        assert main(["drf", "--config", runfile]) == 0
        assert point_runs == {"run_jps": 1, "run_naive": 1}
        assert len(resamples) == 10
        assert json.loads((rundir / "naive_drf.json").read_text())["bands"]["b_effective"] == 5

    def test_emitted_csvs_are_reingestible(self, simulated, tmp_path):
        def read(path):
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            return header, rows

        rundir = tmp_path / "re"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="jps", b=5,
        ))
        assert main(["drf", "--config", runfile]) == 0
        assert main(["exposure", "--config", runfile]) == 0
        for name in ("drf_surface.csv", "drf_marginal_z.csv", "drf_marginal_g.csv"):
            header, rows = read(rundir / name)
            assert rows, name
            for row in rows:
                assert len(row) == len(header)
                for cell in row:
                    float(cell)  # fully numeric tables parse
        header, rows = read(rundir / "exposure.csv")
        gcol = header.index("g")
        assert all(np.isfinite(float(row[gcol])) for row in rows)

    def test_balance_command(self, simulated, tmp_path, capsys):
        rundir = tmp_path / "bal"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="jps", b=0,
        ))
        assert main(["balance", "--config", runfile]) == 0
        report = json.loads((rundir / "balance.json").read_text())
        assert report["step1"]["df"] == 2
        assert "balance check" in capsys.readouterr().out

    def test_naive_variant_outputs(self, simulated, tmp_path):
        rundir = tmp_path / "naive"
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=rundir, variant="naive", b=0,
        ))
        assert main(["drf", "--config", runfile]) == 0
        assert (rundir / "drf_marginal_z.csv").exists()
        assert not (rundir / "drf_surface.csv").exists()
        payload = json.loads((rundir / "drf.json").read_text())
        assert payload["surface"] is None


class TestErrorContract:
    @pytest.mark.parametrize("error, code", [
        (errors.NetjpsError, 1), (errors.ConfigError, 2), (FileNotFoundError, 3),
        (errors.UnboundColumnError, 4), (errors.InputError, 5), (errors.DomainError, 6),
        (errors.DegenerateSampleError, 6), (errors.DegenerateNormalizerError, 7),
        (errors.DegenerateExposureError, 8), (errors.SingularDesignError, 9),
        (errors.NoRootError, 10), (errors.BootstrapError, 11),
    ])
    def test_each_error_class_has_its_exit_code(self, tmp_path, capsys, monkeypatch,
                                                error, code):
        def failing(cfg):
            raise error("boom")

        monkeypatch.setitem(cli._COMMANDS, "drf", failing)
        cfgfile = write(tmp_path / "run.cfg", f"out = {tmp_path / 'o'}\n")
        assert main(["drf", "--config", cfgfile]) == code
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": getattr(error, "code", "missing-file"), "message": "boom"}

    def test_missing_config_file(self, capsys):
        assert main(["drf", "--config", "/nonexistent/x.cfg"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"

    def test_missing_panel_file(self, tmp_path, capsys):
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=tmp_path / "nope.csv", edges=tmp_path / "nope2.csv",
            out=tmp_path / "o", variant="jps", b=0,
        ))
        assert main(["drf", "--config", runfile]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "missing-file"

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.cfg", "wat = 1\n")
        assert main(["drf", "--config", bad]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_bad_config_value_exit_code(self, tmp_path, capsys):
        for cmd, text, message in (
            ("drf", "out = o\nbootstrap.seed = -1\n", ":2: bootstrap.seed: must be >= 0"),
            ("simulate", "scenario.n_units = 5\nscenario.n_periods = 0\n",
             ": invalid scenario: need at least one unit and one period"),
            ("drf", "out = o\ngrid.lower_pct = 90\ngrid.upper_pct = 10\n",
             ": grid.lower_pct must be below grid.upper_pct"),
            ("drf", "out = o\ncolumns.outcome = z\n",
             ": columns.outcome and columns.treatment both bind column 'z'"),
            ("drf", "out = o\ncolumns.x_z = x0, y\nneighborhood.y = sum:in:x0\n",
             ": neighborhood.y is named like columns.outcome"),
        ):
            bad = write(tmp_path / "bad.cfg", text)
            assert main([cmd, "--config", bad]) == 2
            assert json.loads(capsys.readouterr().err) == {"error": "config",
                                                           "message": bad + message}

    def test_unbound_column_exit_code(self, simulated, tmp_path, capsys):
        for column, why in (
            ("gdp", "not found in the panel"),
            # in the panel, but bound as something else: the message names that binding
            ("z", "is bound by columns.treatment"), ("y", "is bound by columns.outcome"),
            ("unit", "is bound by columns.unit"),
        ):
            text = RUN_CONFIG.format(
                panel=simulated / "panel.csv", edges=simulated / "edges.csv",
                out=tmp_path / "o", variant="jps", b=0,
            ).replace("columns.x_g = x0, x1", f"columns.x_g = x0, {column}")
            message = f"bound covariate {column!r} {why}"
            with pytest.raises(errors.UnboundColumnError, match=f"^{message}$"):
                cli._load_dataset(parse_config(text))
            assert main(["drf", "--config", write(tmp_path / "run.cfg", text)]) == 4
            assert json.loads(capsys.readouterr().err) == {"error": "unbound-column",
                                                           "message": message}

    @pytest.mark.parametrize("name", ["x1", "nbr"])
    def test_neighborhood_name_taken_exit_code(self, simulated, tmp_path, capsys, name):
        # a summary named like a panel column, or repeated, would silently
        # replace the earlier column
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=tmp_path / "o", variant="jps", b=0,
        ) + "neighborhood.nbr = weighted_mean:in:x0\n" + f"neighborhood.{name} = sum:in:x0\n")
        assert main(["drf", "--config", runfile]) == 5
        assert json.loads(capsys.readouterr().err) == {
            "error": "input", "message": f"neighborhood covariate {name!r} is already a covariate"}

    @pytest.mark.parametrize("value, level", [("debug", "DEBUG"), ("Error", "ERROR"),
                                              ("basic_format", "WARNING"), ("root", "WARNING"),
                                              ("", "WARNING")])
    def test_log_level_names_only(self, monkeypatch, value, level):
        # any other value than a level name means warning, not a crash
        levels = []
        monkeypatch.setattr(logging, "basicConfig", lambda level: levels.append(level))
        monkeypatch.setenv("NETJPS_LOG", value)
        assert main(["drf", "--config", "/nonexistent/x.cfg"]) == 3
        assert levels == [level]

    def test_log_level_from_the_environment(self, simulated, tmp_path):
        # the out-of-support warning shows at warning, also when the value
        # is no level name, and not at error
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=simulated / "edges.csv",
            out=tmp_path / "o", variant="jps", b=0,
        ) + "grid.z_values = 0.01, 1.0\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        for value, logged in (("basic_format", True), ("WARNING", True), ("error", False)):
            proc = subprocess.run(
                [sys.executable, "-m", "netjps.cli", "fit", "--config", runfile],
                env={**env, "NETJPS_LOG": value}, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            assert ("extends outside the observed support" in proc.stderr) == logged, value

    def test_malformed_csv_row_names_row_number(self, simulated, tmp_path, capsys):
        panel = simulated / "panel.csv"
        text = panel.read_text().splitlines()
        text[3] = text[3].rsplit(",", 1)[0] + ",not-a-number"
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(text) + "\n")
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=broken, edges=simulated / "edges.csv",
            out=tmp_path / "o", variant="jps", b=0,
        ))
        code = main(["drf", "--config", runfile])
        err = json.loads(capsys.readouterr().err)
        assert code == 5
        assert err["error"] == "input"
        assert "row 4" in err["message"]

    @pytest.mark.parametrize("command", ["exposure", "fit", "drf", "balance"])
    def test_header_only_panel_is_an_input_error(self, simulated, tmp_path, capsys, command):
        panel = tmp_path / "empty.csv"
        panel.write_text((simulated / "panel.csv").read_text().splitlines()[0] + "\n")
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=panel, edges=simulated / "edges.csv", out=tmp_path / "o", variant="both", b=0,
        ))
        assert main([command, "--config", runfile]) == 5
        assert json.loads(capsys.readouterr().err) == {"error": "input",
                                                       "message": "panel has no rows"}

    def test_degenerate_exposure_exit_code(self, simulated, tmp_path, capsys):
        # edge file with a single zero-weight edge: exposures all zero
        edges = tmp_path / "edges0.csv"
        with open(simulated / "edges.csv") as fh:
            rows = list(csv.reader(fh))
        with open(edges, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            writer.writerow([rows[1][0], rows[1][1], rows[1][2], "0.0"])
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=edges,
            out=tmp_path / "o", variant="jps", b=0,
        ))
        assert main(["drf", "--config", runfile]) == 8
        assert json.loads(capsys.readouterr().err)["error"] == "degenerate-exposure"

    def test_constant_treatment_exit_code(self, simulated, tmp_path, capsys):
        panel = tmp_path / "constant.csv"
        with open(simulated / "panel.csv") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("z")
        for row in rows[1:]:
            row[column] = "2.5"
        with open(panel, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=panel, edges=simulated / "edges.csv", out=tmp_path / "o", variant="jps", b=0,
        ))
        assert main(["drf", "--config", runfile]) == 10
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "no-root",
                       "message": "no zero-skewness root: the treatment has zero variance"}

    def test_degenerate_normalizer_exit_code(self, simulated, tmp_path, capsys):
        edges = tmp_path / "edges0.csv"
        with open(simulated / "edges.csv") as fh:
            rows = list(csv.reader(fh))
        with open(edges, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(rows[0])
            writer.writerow([rows[1][0], rows[1][1], rows[1][2], "0.0"])
        runfile = write(tmp_path / "run.cfg", RUN_CONFIG.format(
            panel=simulated / "panel.csv", edges=edges,
            out=tmp_path / "o", variant="jps", b=0,
        ) + "exposure.mode = trade_normalized\n")
        assert main(["drf", "--config", runfile]) == 7
        assert json.loads(capsys.readouterr().err)["error"] == "degenerate-normalizer"

    def test_seed_override(self, tmp_path):
        simdir = tmp_path / "s1"
        cfgfile = write(tmp_path / "sim.cfg", SIM_CONFIG.format(out=simdir))
        main(["simulate", "--config", cfgfile, "--seed", "77"])
        simdir2 = tmp_path / "s2"
        cfgfile2 = write(tmp_path / "sim2.cfg", SIM_CONFIG.format(out=simdir2))
        main(["simulate", "--config", cfgfile2, "--seed", "77"])
        assert (simdir / "panel.csv").read_text() == (simdir2 / "panel.csv").read_text()
