import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import neumannlab
from neumannlab import cli
from neumannlab import solve as solvemod
from neumannlab.cli import RunConfig, emit_report, main, parse_config, run_experiment


#: a mesh.n whose run takes LU, and one whose symmetric run takes CG (its
#: SolveConfig's linear_solver): 14^3 cells have 3375 lattice nodes, past _LU_NODES
PATH_MESH_N = {"direct": 12, "krylov": 14}


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "\n".join(
            [
                "# comment line",
                "kind = verify-coeff",
                "seed = 3",
                "mesh.n = 4",
                "coeff.type = checkerboard",
                "coeff.contrast = 10",
                "",
            ]
        )
    )
    return path


class TestConfig:
    def test_parse(self, config_file):
        cfg = parse_config(config_file)
        assert cfg.kind == "verify-coeff"
        assert cfg.seed == 3
        assert cfg.mesh_n == 4
        assert cfg.coeff_contrast == 10.0

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mesh.shape = weird\n")
        with pytest.raises(ValueError):
            parse_config(path)

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
        ids=lambda p: p.name,
    )
    def test_shipped_configs_load(self, path):
        assert parse_config(path).kind

    def test_skew_field_takes_the_cell_in_both_parts(self):
        spec, _ = cli._checked(RunConfig(coeff_type="skew", coeff_cell=0.125))
        assert spec.cell == 0.125 and spec.base.cell == 0.125

    def test_hash_changes_with_content(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=2)
        assert a.hash() != b.hash()


class TestRunExperiment:
    def test_verify_coeff_identity(self):
        rep = run_experiment(RunConfig(kind="verify-coeff", coeff_type="identity", mesh_n=4))
        assert rep.passed
        rec = rep.records[0]
        assert rec.params["lambda_est"] == 1.0
        assert rec.params["M_est"] == 1.0

    def test_incompatible_solve_reported(self, tmp_path, monkeypatch, capsys):
        from neumannlab.errors import CompatibilityError

        def incompatible(*args, **kwargs):
            raise CompatibilityError(np.array([0.25, -0.5]))

        monkeypatch.setattr(cli, "solve_neumann", incompatible)
        rep = run_experiment(RunConfig(kind="solve", mesh_n=4))
        assert not rep.passed
        assert rep.failures == [
            {
                "stage": "solve",
                "error": "compatibility",
                "detail": "volume/boundary data violate the integral balance",
                "residual": [0.25, -0.5],
            }
        ]
        cfg = tmp_path / "solve.cfg"
        cfg.write_text("kind = solve\nmesh.n = 4\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "[FAIL] compatibility:" in capsys.readouterr().out

    @pytest.mark.parametrize("policy,n_poles", [("near-boundary", 2), ("lattice", 8)])
    def test_pole_policies(self, policy, n_poles):
        rep = run_experiment(
            RunConfig(kind="kernel", mesh_n=12, poles=policy, trials=3)
        )
        assert rep.passed
        identity_recs = [r for r in rep.records if r.name == "defining-identity"]
        assert len(identity_recs) == n_poles

    def test_full_suite_small_identity_passes(self):
        rep = run_experiment(RunConfig(kind="full-suite", mesh_n=12, trials=5))
        assert rep.passed
        names = {r.name for r in rep.records}
        assert "defining-identity" in names
        assert "symmetry-identity" in names
        assert "oracle-cube-agreement" in names
        identity_recs = [r for r in rep.records if "identity" in r.name]
        for rec in identity_recs:
            assert rec.empirical_constant <= 1e-8


    @staticmethod
    def count_operator_builds(monkeypatch, cfg):
        """Mesh builds, stiffness assemblies and LU factorizations of one clean run."""
        import neumannlab.cli as climod

        calls = {"mesh": 0, "assemble": 0, "splu": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(climod, "build_box_mesh", counting("mesh", climod.build_box_mesh))
        monkeypatch.setattr(
            solvemod, "assemble_stiffness", counting("assemble", solvemod.assemble_stiffness)
        )
        monkeypatch.setattr(solvemod.spla, "splu", counting("splu", solvemod.spla.splu))
        rep = run_experiment(cfg)
        assert not rep.failures
        return calls

    def test_full_suite_builds_operators_once(self, monkeypatch):
        # one operator, assembled and factored once, serves both directions
        cfg = RunConfig(kind="full-suite", mesh_n=8, coeff_type="checkerboard", trials=2)
        assert self.count_operator_builds(monkeypatch, cfg) == {"mesh": 1, "assemble": 1, "splu": 1}

    def test_full_suite_skew_factors_transpose_once(self, monkeypatch):
        # a non-symmetric operator adds one factor of K^T for the adjoint kernel
        cfg = RunConfig(kind="full-suite", mesh_n=8, coeff_type="skew", trials=2)
        assert self.count_operator_builds(monkeypatch, cfg) == {"mesh": 1, "assemble": 1, "splu": 2}

    @pytest.mark.parametrize("override", [{"poles": "nowhere"}, {"mesh_type": "sphere"}])
    def test_bad_choice_refused_before_build(self, monkeypatch, override):
        import neumannlab.cli as climod

        def fail(*args, **kwargs):
            raise AssertionError("mesh built before the config was checked")

        monkeypatch.setattr(climod, "build_box_mesh", fail)
        monkeypatch.setattr(climod, "build_truncated_graph_mesh", fail)
        with pytest.raises(ValueError, match=next(iter(override))):
            run_experiment(RunConfig(kind="kernel", mesh_n=4, **override))

    def test_full_suite_builds_each_kernel_once(self, monkeypatch):
        # the estimates reuse the first pole's forward kernel from the kernel checks
        import neumannlab.cli as climod

        poles = []
        build = climod.kernel_at

        def counting(solver, pole, *args, **kwargs):
            poles.append((tuple(pole), kwargs.get("adjoint", False)))
            return build(solver, pole, *args, **kwargs)

        monkeypatch.setattr(climod, "kernel_at", counting)
        rep = run_experiment(
            RunConfig(kind="full-suite", mesh_n=8, coeff_type="checkerboard", trials=2)
        )
        assert not rep.failures
        assert len(poles) == len(set(poles)) == 2  # forward and adjoint at the center

    @pytest.mark.parametrize("poles,mesh_n,reused", [("center", 8, 1), ("lattice", 12, 0)])
    def test_oracle_reuses_center_kernel(self, monkeypatch, poles, mesh_n, reused):
        # on the identity cube the oracle check reads the centre kernel that the
        # kernel checks built as pole 0; rebuilding it gives the same report
        import neumannlab.cli as climod

        calls = []
        build = climod.kernel_at

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        cfg = RunConfig(kind="full-suite", mesh_n=mesh_n, poles=poles, trials=2)
        monkeypatch.setattr(climod, "kernel_at", counting)
        rep = run_experiment(cfg)
        assert not rep.failures
        builds = len(calls)
        if poles == "center":
            assert builds == 2  # forward and adjoint; the oracle built none

        rebuilt = climod._oracle_experiment
        monkeypatch.setattr(
            climod, "_oracle_experiment", lambda cfg, solver, kern=None: rebuilt(cfg, solver)
        )
        again = run_experiment(cfg)
        assert len(calls) - builds == builds + reused
        assert again.to_json() == rep.to_json()


class TestEmit:
    def test_empty_report_valid_json(self, tmp_path):
        from neumannlab.estimates import EstimateReport

        rep = EstimateReport([], {"config": {}}, "abc")
        files = emit_report(rep, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["records"] == []
        assert data["passed"] is True

    def test_skip_records_carry_their_fits_names(self, tmp_path):
        # at 8^3 every fit band is empty, so each fit leaves a skip record
        rep = run_experiment(RunConfig(kind="estimates", mesh_n=8, trials=2))
        assert [rec.name for rec in rep.records if rec.skipped] == [
            "pointwise-decay", "annulus-l6", "annulus-gradient-l2", "local-l1-value",
            "local-l1-gradient", "distribution-value", "distribution-gradient",
        ]
        names = [rec.name for rec in rep.records]
        assert len(set(names)) == len(names)
        csvs = [path.name.split("_", 1)[1] for path in emit_report(rep, tmp_path)[1:]]
        assert csvs == [f"{name}.csv" for name in names]

    def test_reemission_byte_identical(self, tmp_path):
        cfg = RunConfig(kind="verify-coeff", mesh_n=4)
        rep = run_experiment(cfg)
        emit_report(rep, tmp_path / "a")
        emit_report(rep, tmp_path / "b")
        assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()

    def test_records_hold_only_the_current_reports_csvs(self, tmp_path):
        from neumannlab.estimates import CheckRecord, EstimateReport

        def report(*names):
            return EstimateReport([CheckRecord(name, [(1.0, 0.0)]) for name in names], {}, "abc")

        emit_report(report(*(f"check-{i}" for i in range(12))), tmp_path)
        rec_dir = tmp_path / "records"
        for name in ("notes.csv", "run_log.csv", "00_check-0.txt"):
            (rec_dir / name).write_text("kept\n")
        files = emit_report(report("solve-residual", "check-1"), tmp_path)
        assert sorted(path.name for path in rec_dir.iterdir()) == [
            "00_check-0.txt", "00_solve-residual.csv", "01_check-1.csv", "notes.csv",
            "run_log.csv",
        ]
        assert files[1:] == [rec_dir / "00_solve-residual.csv", rec_dir / "01_check-1.csv"]

    def test_csv_rows_match_samples(self, tmp_path):
        cfg = RunConfig(kind="solve", mesh_n=4)
        rep = run_experiment(cfg)
        files = emit_report(rep, tmp_path)
        csvs = [f for f in files if f.suffix == ".csv"]
        assert len(csvs) == len(rep.records)
        for f, rec in zip(csvs, rep.records):
            rows = f.read_text().splitlines()
            assert rows[0] == "scale,value"
            assert len(rows) - 1 == len(rec.samples)


class TestMain:
    def test_exit_zero_on_pass(self, config_file, tmp_path, capsys):
        code = main(["--config", str(config_file), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "[pass]" in capsys.readouterr().out

    def test_exit_two_on_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense without equals\n")
        assert main(["--config", str(bad)]) == 2

    def test_exit_two_on_unwritable_outdir(self, config_file, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("a regular file, not a directory\n")
        assert main(["--config", str(config_file), "--out", str(blocker / "out")]) == 2
        assert capsys.readouterr().err.startswith("io error:")

    def test_unknown_kind_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bogus"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_help_lists_the_kinds(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert "{" + ",".join(cli.KINDS) + "}" in capsys.readouterr().out

    def test_subcommand_overrides_kind(self, config_file, tmp_path):
        code = main(["solve", "--config", str(config_file), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o/report.json").read_text())
        assert report["provenance"]["config"]["kind"] == "solve"

    @pytest.mark.parametrize("subcommand_first", [True, False])
    def test_options_either_side_of_the_subcommand(self, config_file, tmp_path, subcommand_first):
        options = ["--config", str(config_file), "--seed", "5", "--out", str(tmp_path / "o")]
        argv = ["solve"] + options if subcommand_first else options + ["solve"]
        assert main(argv) == 0
        config = json.loads((tmp_path / "o/report.json").read_text())["provenance"]["config"]
        # kind from the subcommand, seed and outdir from the options, mesh.n from the file
        assert (config["kind"], config["seed"], config["mesh_n"]) == ("solve", 5, 4)
        assert config["outdir"] == str(tmp_path / "o")

    @pytest.mark.parametrize("route", ["config", "option-after", "option-before"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, route):
        cfg = tmp_path / "seed.cfg"
        seed_line = "seed = -1\n" if route == "config" else ""
        cfg.write_text("kind = verify-coeff\nmesh.n = 4\n" + seed_line)
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        if route == "option-after":
            argv = ["verify-coeff"] + argv + ["--seed", "-3"]
        elif route == "option-before":
            argv = argv + ["--seed", "-3", "verify-coeff"]
        assert main(argv) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [2**63, 2**70])
    @pytest.mark.parametrize("coeff_type", ["checkerboard", "cellwise-random", "skew"])
    def test_seeds_past_int64_run(self, tmp_path, capsys, coeff_type, seed):
        # a seed is any int >= 0: past int64 it still reaches the fields and the rngs
        cfg = tmp_path / "big.cfg"
        cfg.write_text(
            f"kind = full-suite\nmesh.n = 8\ncoeff.type = {coeff_type}\ntrials = 2\nseed = {seed}\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "Traceback" not in "".join(capsys.readouterr())

    def test_seed_override_changes_hash(self, config_file, tmp_path):
        main(["--config", str(config_file), "--seed", "11", "--out", str(tmp_path / "a")])
        main(["--config", str(config_file), "--seed", "12", "--out", str(tmp_path / "b")])
        ha = json.loads((tmp_path / "a/report.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b/report.json").read_text())["config_hash"]
        assert ha != hb

    def test_exit_one_on_check_failure(self, tmp_path):
        # a cellwise-random spec with lam > bound is a structured failure record
        cfg = tmp_path / "fail.cfg"
        cfg.write_text("kind = verify-coeff\ncoeff.type = cellwise-random\n"
                       "coeff.lam = 3\ncoeff.bound = 1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        report = json.loads((tmp_path / "o/report.json").read_text())
        assert report["failures"][0]["error"] == "NonEllipticSpecError"

    def test_bounded_krylov_meets_residual_guard(self, tmp_path):
        # the Krylov bounded solve must meet its own residual guard at 20^3
        cfg = tmp_path / "krylov.cfg"
        cfg.write_text("kind = solve\nmesh.n = 20\ncoeff.type = checkerboard\n"
                       "coeff.contrast = 10\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o/report.json").read_text())
        (rec,) = [r for r in report["records"] if r["name"] == "solve-residual"]
        assert rec["empirical_constant"] <= 100 * RunConfig().solve_tolerance

    def test_bounded_krylov_converges_at_contrast_1e6(self, tmp_path):
        # CG's preconditioner is projected mean-free on both sides; projected on
        # its input only, CG ran 20000 iterations and exited 3
        cfg = tmp_path / "contrast.cfg"
        cfg.write_text("kind = solve\nmesh.n = 24\ncoeff.type = checkerboard\n"
                       "coeff.contrast = 1e6\ncoeff.cell = 0.25\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("contrast", ["1e6", "1e8"])
    def test_small_high_contrast_suite_passes_on_lu(self, tmp_path, contrast):
        # 8^3 takes LU, whose bounded solves refine above the residual gate;
        # without refinement the run exited 3
        cfg = tmp_path / "contrast.cfg"
        cfg.write_text(f"kind = full-suite\nmesh.n = 8\ncoeff.type = checkerboard\n"
                       f"coeff.contrast = {contrast}\ncoeff.cell = 0.25\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_loose_tolerance_does_not_loosen_solve_gates(self, tmp_path):
        # CG stops at a relative residual near 0.9; the residual gate stays 1e-8
        cfg = tmp_path / "loose.cfg"
        cfg.write_text("kind = solve\nmesh.n = 14\ncoeff.type = checkerboard\n"
                       "solve.tolerance = 0.9\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        report = json.loads((tmp_path / "o/report.json").read_text())
        gates = {r["name"]: r["params"]["tolerance"] for r in report["records"]}
        assert gates == {"solve-boundary-mean": 1e-9, "solve-residual": 1e-8}

    @pytest.mark.parametrize(
        "line",
        [
            "solve.method = bordered-lagrange",
            "threads = 2",
            "tol.identity = 1000",
            "oracle.rtol = 1",
            "oracle.cutoff = 10",
            "kernel.eps_factor = 3",
            "mesh.graph_k = 1",
            "solve.linear_solver = direct",
        ],
    )
    def test_removed_keys_rejected(self, tmp_path, line, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"kind = solve\n{line}\n")
        assert main(["--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    #: a config that runs, so each case below fails on its own bad value
    BASE_CONFIG = "kind = kernel\nmesh.n = 8\n"

    def test_bad_values_base_config_runs(self, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(self.BASE_CONFIG)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(line, message, id=line)
            for line, message in [
                ("mesh.type = sphere", "unknown mesh_type 'sphere'"),
                ("coeff.type = foo", "unknown coefficient type 'foo'"),
                ("poles = nowhere", "unknown poles 'nowhere'"),
                ("solve.tolerance = 2", "tolerance must lie in (0, 1)"),
                ("trials = 0", "trials must be >= 1, got 0"),
                ("mesh.extents = 1 1", "mesh.extents needs 3 lengths, got 2"),
                ("coeff.m = 0", "coeff.m must be >= 1, got 0"),
                ("seed = -1", "seed must be >= 0, got -1"),
            ]
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, line, message, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{self.BASE_CONFIG}{line}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines",
        [
            "mesh.extents = 1 1 nan",
            "mesh.type = graph\nmesh.extents = 1 nan 1",
            "mesh.n = 0",
            "mesh.type = graph\nmesh.n = 0",
            # every node on the far cut: no unknown left to solve for
            "mesh.type = graph\nmesh.n = 1",
        ],
    )
    def test_unbuildable_mesh_is_config_error(self, tmp_path, lines, capsys):
        cfg = tmp_path / "mesh.cfg"
        cfg.write_text(f"kind = solve\n{lines}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert "config error" in err
        assert "[FAIL]" not in out

    @pytest.mark.parametrize("kind", ["kernel", "estimates", "full-suite", "oracle-compare"])
    def test_pole_the_mesh_cannot_hold_is_config_error(self, tmp_path, kind, capsys):
        cfg = tmp_path / "pole.cfg"
        cfg.write_text(f"kind = {kind}\nmesh.n = 1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert (
            "config error: mollifier ball of radius 2.0 at (0.5, 0.5, 0.5) "
            "is not contained in the domain"
        ) in err
        assert "[FAIL]" not in out

    @pytest.mark.parametrize(
        "lines,message",
        [
            ("coeff.type = cellwise-random\ncoeff.lam = 3", "need m_target >= lam_target"),
            ("coeff.type = smooth\ncoeff.amplitude = nan", "smooth amplitude must be finite"),
        ],
        ids=["cellwise-random-lam-above-bound", "smooth-nan-amplitude"],
    )
    def test_rejected_coefficient_spec_is_config_error(self, tmp_path, lines, message, capsys):
        cfg = tmp_path / "coeff.cfg"
        cfg.write_text(f"kind = solve\nmesh.n = 4\n{lines}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        out, err = capsys.readouterr()
        assert f"config error: {message}" in err
        assert "[FAIL]" not in out

    @pytest.mark.parametrize(
        "lines",
        [
            "mesh.n = 1000000",
            "mesh.extents = 1 1 inf",
            "mesh.n = 4\ncoeff.m = 2000",
            "mesh.n = 64\ncoeff.type = skew",
        ],
    )
    def test_oversized_problem_is_refused_before_building(
        self, tmp_path, lines, capsys, monkeypatch
    ):
        def no_mesh(cfg):
            raise AssertionError("an oversized config must not build a mesh")

        monkeypatch.setattr(cli, "_build_mesh", no_mesh)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f"kind = solve\n{lines}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: problem too large" in capsys.readouterr().err

    def test_budget_admits_128_cubed(self):
        # the refusals are predictions from the config: nothing is allocated here;
        # a symmetric field takes CG, which has no fill budget
        spec, scfg = cli._checked(RunConfig(mesh_n=128))
        assert spec.m == 1 and scfg.linear_solver == "krylov"
        cli._checked(RunConfig(mesh_n=48, coeff_type="skew"))

        with pytest.raises(ValueError, match="predicted LU fill .* of the LU path"):
            cli._checked(RunConfig(mesh_n=128, coeff_type="skew"))

    @pytest.mark.parametrize(
        "n, m, linear_solver",
        # 13^3 lattice cells have 2744 nodes and 14^3 have 3375, either side of
        # _LU_NODES; an m = 20 field would fill 2.2e8 LU entries at 13^3, and a
        # scalar field at 64^3, past the LU fill budget, is admitted on CG
        [(13, 1, "direct"), (14, 1, "krylov"), (13, 3, "direct"), (14, 3, "krylov"),
         (13, 20, "krylov"), (64, 1, "krylov")],
    )
    def test_lattice_size_picks_the_solver(self, n, m, linear_solver):
        _, scfg = cli._checked(RunConfig(mesh_n=n, coeff_m=m, solve_tolerance=1e-9))
        assert scfg == cli.SolveConfig(1e-9, linear_solver)

    @pytest.mark.parametrize(
        "kind, coeff",
        [("verify-coeff", {"coeff_type": "skew"}), ("solve", {}),
         ("solve", {"coeff_type": "skew", "coeff_amplitude": 0.0})],
        ids=["verify-coeff-direct", "solve-krylov", "solve-krylov-skew-amplitude-0"],
    )
    def test_fill_budget_spares_runs_without_lu(self, kind, coeff):
        # verify-coeff factors nothing, not even a skew field's LU, and CG takes
        # a symmetric field, as a skew field of amplitude 0 is
        cli._checked(RunConfig(kind=kind, mesh_n=64, **coeff))

    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    def test_non_finite_coefficients_exit_three(self, tmp_path, capsys, linear_solver):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(
            f"kind = solve\nmesh.n = {PATH_MESH_N[linear_solver]}\ncoeff.type = smooth\n"
            f"coeff.frequency = nan\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "non-finite" in capsys.readouterr().out

    @pytest.mark.parametrize("coeff_type", ["checkerboard", "cellwise-random", "skew"])
    def test_tiny_cell_exits_three(self, tmp_path, capsys, coeff_type):
        # past 2^53 cells the cell indices are not exact: the field is refused
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            f"kind = solve\nmesh.n = 4\ncoeff.type = {coeff_type}\ncoeff.cell = 1e-300\n"
        )
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "2^53" in capsys.readouterr().out

    def test_exit_three_on_numeric_failure(self, tmp_path, monkeypatch):
        cfg = tmp_path / "numfail.cfg"
        cfg.write_text("kind = solve\nmesh.n = 14\nsolve.tolerance = 1e-13\n")

        # force non-convergence by capping iterations
        monkeypatch.setattr(solvemod, "MAX_ITERATIONS", 2)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o3")]) == 3
        (failure,) = json.loads((tmp_path / "o3/report.json").read_text())["failures"]
        diagnostics = failure["diagnostics"]
        assert diagnostics["method"] == "cg" and diagnostics["iterations"] == 2
        assert 1e-13 < diagnostics["residual"] < 1.0


@pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
def test_report_independent_of_blas_threads(tmp_path, linear_solver):
    # the shipped 24^3 config, whose dense products are large enough for
    # OpenBLAS's thread count to reach the bits unpinned; it runs CG, and its
    # skew variant runs LU, whose supernodes are large at 24^3 too
    repo = Path(__file__).resolve().parents[1]
    config = (repo / "configs" / "checkerboard_estimates_24.cfg").read_text()
    if linear_solver == "direct":
        config += "coeff.type = skew\n"
    src = str(Path(neumannlab.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        run.mkdir()
        (run / "run.cfg").write_text(config)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # one relative outdir, so the embedded config and its hash agree
        subprocess.run(
            [sys.executable, "-m", "neumannlab.cli", "--config", "run.cfg", "--out", "out"],
            cwd=run, env=env, capture_output=True, check=True,
        )
        reports.append((run / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_shipped_configs_never_refine(monkeypatch):
    # the 24^3 estimates config runs CG, which never refines; the 12^3 suite
    # runs LU, and its report is the same with refinement switched off
    configs = Path(__file__).resolve().parents[1] / "configs"
    estimates = parse_config(configs / "checkerboard_estimates_24.cfg")
    assert cli._checked(estimates)[1].linear_solver == "krylov"
    suite = parse_config(configs / "full_suite_12.cfg")
    assert cli._checked(suite)[1].linear_solver == "direct"
    reports = [run_experiment(suite).to_json()]
    monkeypatch.setattr(solvemod, "_REFINE_STEPS", 0)
    reports.append(run_experiment(suite).to_json())
    assert reports[0] == reports[1]


class TestOracleScope:
    """The cube series oracle runs exactly where it applies: identity on the unit cube box."""

    def test_full_suite_skips_oracle_off_the_unit_cube(self, tmp_path):
        cfg = tmp_path / "long.cfg"
        cfg.write_text("kind = full-suite\nmesh.extents = 1 1 2\nmesh.n = 8\ntrials = 2\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o/report.json").read_text())
        assert not report["failures"]
        assert "oracle-cube-agreement" not in {rec["name"] for rec in report["records"]}

    @pytest.mark.parametrize(
        "lines", ["coeff.type = checkerboard", "mesh.type = graph", "mesh.extents = 1 1 2"]
    )
    @pytest.mark.parametrize("via", ["config", "subcommand"])
    def test_oracle_compare_elsewhere_is_config_error(
        self, tmp_path, lines, via, capsys, monkeypatch
    ):
        def no_mesh(cfg):
            raise AssertionError("a config the oracle does not apply to must not build a mesh")

        monkeypatch.setattr(cli, "_build_mesh", no_mesh)
        cfg = tmp_path / "oracle.cfg"
        kind = "oracle-compare" if via == "config" else "solve"
        cfg.write_text(f"kind = {kind}\nmesh.n = 4\n{lines}\n")
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv if via == "config" else ["oracle-compare"] + argv) == 2
        out, err = capsys.readouterr()
        assert "config error: oracle-compare needs identity coefficients on the unit cube" in err
        assert out == "" and not (tmp_path / "o").exists()

    def test_oracle_compare_passes_for_every_m(self, tmp_path, capsys):
        # the identity system's kernel is the scalar one times I_m
        consts = []
        for m in (1, 2, 3):
            cfg = tmp_path / f"m{m}.cfg"
            cfg.write_text(f"kind = oracle-compare\nmesh.n = 12\ncoeff.m = {m}\n")
            out = tmp_path / f"o{m}"
            assert main(["--config", str(cfg), "--out", str(out)]) == 0
            (rec,) = json.loads((out / "report.json").read_text())["records"]
            assert rec["name"] == "oracle-cube-agreement" and rec["passed"]
            # one (radius, relative error) row per probe: 16 directions a radius, radius-major
            radii, rel = np.array(rec["samples"]).T
            assert len(rel) == 64 and rel.max() == rec["empirical_constant"]
            assert np.array_equal(radii, np.repeat(radii[::16], 16)) and len(set(radii)) == 4
            rows = (out / "records" / "00_oracle-cube-agreement.csv").read_text().splitlines()
            assert len(rows) == 1 + 64
            consts.append(rec["empirical_constant"])
        assert consts[0] <= cli.ORACLE_RTOL
        np.testing.assert_allclose(consts[1:], consts[0], rtol=1e-12)


class TestGraphMode:
    """mesh.type = graph runs the box's solve density and both kernel identities."""

    @pytest.mark.parametrize("linear_solver", ["direct", "krylov"])
    @pytest.mark.parametrize("coeff_type", ["identity", "checkerboard", "skew"])
    @pytest.mark.parametrize("kind", ["solve", "kernel", "full-suite"])
    def test_graph_run_passes_and_reruns_byte_identical(
        self, tmp_path, kind, coeff_type, linear_solver
    ):
        cfg = tmp_path / "graph.cfg"
        cfg.write_text(
            f"kind = {kind}\nmesh.type = graph\nmesh.n = {PATH_MESH_N[linear_solver]}\n"
            f"coeff.type = {coeff_type}\ntrials = 2\n"
        )
        argv = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        reports = []
        for _ in range(2):
            assert main(argv) == 0
            reports.append((tmp_path / "o/report.json").read_bytes())
        assert reports[0] == reports[1]
        records = {rec["name"]: rec for rec in json.loads(reports[0])["records"]}
        assert "solve-boundary-mean" not in records
        if kind != "kernel":
            assert records["graph-far-boundary-zero"]["empirical_constant"] == 0.0
        if kind != "solve":
            assert records["symmetry-identity"]["empirical_constant"] <= cli.IDENTITY_TOL

    def test_graph_solves_the_box_density(self, monkeypatch):
        pts = np.random.default_rng(0).uniform(size=(50, 3))
        densities = {}

        solve = cli.solve_neumann

        def capture(solver, f, g):
            densities["graph" if solver.mesh.is_graph else "box"] = f(pts)
            return solve(solver, f, g)

        monkeypatch.setattr(cli, "solve_neumann", capture)
        for mesh_type in ("box", "graph"):
            assert run_experiment(RunConfig(kind="solve", mesh_type=mesh_type, mesh_n=8)).passed
        np.testing.assert_array_equal(densities["graph"], densities["box"])
        np.testing.assert_array_equal(densities["box"][:, 0], np.pi**2 * np.cos(np.pi * pts[:, 0]))
