import dataclasses
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from oracles import (
    boundary_g, point_fields, point_values, rows_of, sample_hessians, sample_values,
)

import macert.bench as bench
from macert.bench import (
    DAT_COLUMNS,
    EXPERIMENTS,
    HistoryRow,
    RunAborted,
    RunConfig,
    emit_dat,
    prolongate,
    rate_fit,
    read_dat,
    run,
    steps,
)
from macert.bfs import BfsSpace, QuadRule
from macert.cli import main
from macert.envelope import boundary_residual, build_samples, contact_set, lower_hull
from macert.estimator import rhs0
from macert import geometry
from macert.geometry import init_uniform, refine
from macert.hjb import QUAD, HjbProblem, SolverError, solve


def fd_hessian(u, x, y, h=1e-5):
    uxx = (u(x + h, y) - 2 * u(x, y) + u(x - h, y)) / h**2
    uyy = (u(x, y + h) - 2 * u(x, y) + u(x, y - h)) / h**2
    uxy = (
        u(x + h, y + h) - u(x + h, y - h) - u(x - h, y + h) + u(x - h, y - h)
    ) / (4 * h**2)
    return uxx, uxy, uyy


class TestExperimentRegistry:
    @pytest.mark.parametrize("eid", [1, 3])
    def test_density_is_det_hessian(self, eid):
        # the Monge-Ampere density (f/2)^2 must match det D2u of the exact
        # solution by finite differences
        exp = EXPERIMENTS[eid]
        rng = np.random.default_rng(eid)
        pts = rng.uniform(0.15, 0.85, size=(25, 2))
        uxx, uxy, uyy = fd_hessian(lambda a, b: exp.exact.u(a, b), pts[:, 0], pts[:, 1])
        det = uxx * uyy - uxy**2
        assert np.allclose(det, (exp.f(pts[:, 0], pts[:, 1]) / 2) ** 2, rtol=1e-4)

    @pytest.mark.parametrize("eid", [1, 2, 3])
    def test_f_is_twice_sqrt_density(self, eid):
        # (f/2)^2 = det D2u of the exact Hessian
        exp = EXPERIMENTS[eid]
        rng = np.random.default_rng(10 + eid)
        x, y = rng.uniform(0.1, 0.9, size=(2, 50))
        uxx, uxy, uyy = exp.exact.hess(x, y)
        assert np.allclose((exp.f(x, y) / 2) ** 2, uxx * uyy - uxy**2, rtol=1e-12)

    @pytest.mark.parametrize("eid", [1, 2, 3])
    def test_gradient_and_hessian_consistent(self, eid):
        exp = EXPERIMENTS[eid]
        rng = np.random.default_rng(20 + eid)
        x, y = rng.uniform(0.2, 0.8, size=(2, 30))
        h = 1e-6
        gx = (exp.exact.u(x + h, y) - exp.exact.u(x - h, y)) / (2 * h)
        gy = (exp.exact.u(x, y + h) - exp.exact.u(x, y - h)) / (2 * h)
        ex, ey = exp.exact.grad(x, y)
        mask = np.abs(x - 0.5) > 1e-3  # keep away from the exp-2 kink
        assert np.allclose(gx[mask], np.broadcast_to(ex, x.shape)[mask], atol=1e-6)
        assert np.allclose(gy[mask], np.broadcast_to(ey, x.shape)[mask], atol=1e-6)
        if eid != 2:
            uxx, uxy, uyy = fd_hessian(exp.exact.u, x, y)
            hxx, hxy, hyy = exp.exact.hess(x, y)
            assert np.allclose(uxx, hxx, rtol=1e-4, atol=1e-4)
            assert np.allclose(uxy, hxy, rtol=1e-4, atol=1e-4)
            assert np.allclose(uyy, hyy, rtol=1e-4, atol=1e-4)

    def test_boundary_values(self):
        # experiments 1-2 carry their own trace; experiment 3 is homogeneous
        x = np.linspace(0, 1, 33)
        zero = np.zeros_like(x)
        exp3 = EXPERIMENTS[3]
        for xx, yy in ((x, zero), (x, zero + 1), (zero, x), (zero + 1, x)):
            assert np.allclose(exp3.exact.u(xx, yy), 0.0, atol=1e-13)
            assert np.allclose(exp3.g(xx, yy), 0.0, atol=1e-15)

    def test_default_eps(self):
        assert EXPERIMENTS[1].default_eps == 1e-3
        assert EXPERIMENTS[2].default_eps == 1e-3
        assert EXPERIMENTS[3].default_eps == 1e-4


class TestEmitDat:
    def _rows(self, n=1):
        return [
            HistoryRow(4 * (k + 1), 0.7, 1e-3 / (k + 1), 2e-3, 1e-4, 1e-3, 1e-1,
                       5e-2, 4e-2, 6)
            for k in range(n)
        ]

    def test_one_row_two_lines(self, tmp_path):
        path = tmp_path / "h.dat"
        emit_dat(self._rows(1), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].split() == list(DAT_COLUMNS)

    def test_round_trip_exact(self, tmp_path):
        rows = self._rows(5)
        path = tmp_path / "h.dat"
        emit_dat(rows, path)
        back = read_dat(path)
        assert back == rows

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_dat([], tmp_path / "h.dat")

    def _edited(self, tmp_path, edit):
        # a three-row history with its last row passed through edit
        path = tmp_path / "h.dat"
        emit_dat(self._rows(3), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]) + edit(lines[-1]))
        return path

    def test_blank_lines_skipped(self, tmp_path):
        path = self._edited(tmp_path, lambda line: line + "\n   \n")
        assert read_dat(path) == self._rows(3)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line.rstrip() + "   1.0e+00\n", "line 4: 11 tokens, expected 10"),
        (lambda line: line.rsplit(None, 1)[0] + "\n", "line 4: 9 tokens, expected 10"),
        (lambda line: "4.5" + line[line.index(" "):], "line 4: ndof 4.5 is not an integer"),
        (lambda line: line.rsplit(None, 1)[0] + "   6.25\n", "line 4: niter 6.25 is not an"),
        (lambda line: line.replace("e-01", "e-0x", 1), "line 4: could not convert"),
    ], ids=["extra-column", "missing-column", "ndof", "niter", "not-a-number"])
    def test_malformed_row_names_its_line(self, tmp_path, edit, message):
        with pytest.raises(ValueError, match=message):
            read_dat(self._edited(tmp_path, edit))


class TestRateFit:
    def _rows(self, values, ndofs=None):
        ndofs = ndofs or [4 * 4**k for k in range(len(values))]
        return [
            HistoryRow(n, 1.0, v, v, v, v, v, v, v, 1)
            for n, v in zip(ndofs, values)
        ]

    def test_exact_log_linear(self):
        rows = self._rows([1.0, 0.5, 0.25, 0.125])
        assert rate_fit(rows, "Linferr") == pytest.approx(-0.5, abs=1e-12)

    def test_constant_column(self):
        rows = self._rows([2.0, 2.0, 2.0])
        assert rate_fit(rows, "eta2") == pytest.approx(0.0, abs=1e-12)

    def test_window(self):
        rows = self._rows([1.0, 1.0, 0.25, 0.0625])
        assert rate_fit(rows, "Linferr", window=3) < rate_fit(rows, "Linferr")

    def test_nonpositive_raises(self):
        rows = self._rows([1.0, 0.0])
        with pytest.raises(ValueError):
            rate_fit(rows, "Linferr")

    def test_non_finite_raises(self):
        # nan <= 0 is false, so a nan in the column once fitted to nan
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                rate_fit(self._rows([1.0, bad, 0.25]), "Linferr")

    def test_window_below_two_raises(self):
        # rows[-0:] is every row and rows[2:] drops the first two
        rows = self._rows([1.0, 1.0, 0.25, 0.0625])
        for window in (0, -2):
            with pytest.raises(ValueError, match="window"):
                rate_fit(rows, "Linferr", window=window)
        assert rate_fit(rows, "Linferr", window=3) == rate_fit(rows[-3:], "Linferr")

    def test_non_integer_window_raises(self):
        rows = self._rows([1.0, 1.0, 0.25, 0.0625])
        for window in (2.5, "3"):
            with pytest.raises(ValueError, match="window"):
                rate_fit(rows, "Linferr", window=window)
        assert rate_fit(rows, "Linferr", window=np.int64(3)) == rate_fit(rows[-3:], "Linferr")

    def test_unknown_column_raises(self):
        rows = self._rows([1.0, 0.5])
        for column in ("nope", "column"):
            with pytest.raises(ValueError, match=f"unknown column '{column}'"):
                rate_fit(rows, column)


class TestProlongation:
    def test_exact_on_nested_spaces(self):
        # a coarse-space function is also a fine-space function: values and
        # first derivatives survive prolongation exactly
        mesh = init_uniform(1)
        space = BfsSpace(mesh)
        rng = np.random.default_rng(0)
        red = space.reduction([], [])
        coeffs = red.full_vector(rng.standard_normal(red.ndof))
        from macert.bfs import FeFunction

        vh = FeFunction(space, coeffs)
        fine = BfsSpace(refine(mesh, np.arange(len(mesh))))
        fine_coeffs = prolongate(vh, fine)
        wh = FeFunction(fine, fine_coeffs)
        pts = rng.uniform(0, 1, size=(60, 2))
        assert np.allclose(point_values(wh, pts), point_values(vh, pts), atol=1e-11)
        grad = ("Nx", "Ny")
        assert np.allclose(point_fields(wh, pts, grad), point_fields(vh, pts, grad), atol=1e-10)

    def test_adaptive_target(self):
        mesh = init_uniform(1)
        space = BfsSpace(mesh)
        from macert.bfs import FeFunction

        xs, ys = mesh.vertex_coords[:, 0], mesh.vertex_coords[:, 1]
        coeffs = np.zeros(space.nfull)
        coeffs[0::4] = xs * ys
        coeffs[1::4] = ys
        coeffs[2::4] = xs
        coeffs[3::4] = 1.0
        vh = FeFunction(space, coeffs)
        fine = BfsSpace(refine(mesh, rows_of(mesh, [(1, 0, 0)])))
        wh = FeFunction(fine, prolongate(vh, fine))
        pts = np.random.default_rng(1).uniform(0, 1, size=(40, 2))
        assert np.allclose(point_values(wh, pts), pts[:, 0] * pts[:, 1], atol=1e-12)


class TestRunLoop:
    def test_uniform_budget_and_columns(self):
        rows = run(RunConfig(experiment=1, mode="uniform", max_ndof=70, initial_level=0))
        assert [r.ndof for r in rows] == [4, 16, 64]
        assert all(r.hinv == pytest.approx(2 ** (k - 0.5)) for k, r in enumerate(rows))
        assert all(r.LHS <= r.eta2 + 1e-10 for r in rows)
        assert all(r.niter >= 1 for r in rows)

    def test_adaptive_respects_budget(self):
        rows = run(RunConfig(experiment=1, mode="adaptive", max_ndof=300, initial_level=0))
        assert all(r.ndof <= 300 for r in rows)
        assert len(rows) >= 4
        assert [r.ndof for r in rows] == sorted(r.ndof for r in rows)

    def test_coarse_rows_agree_with_fine_recertification(self):
        # the certificate on the 1x1 and 2x2 meshes must not fall far below
        # the same v_h certified on a 20x20 Gauss sample set
        exp = EXPERIMENTS[3]
        records = list(steps(RunConfig(experiment=3, mode="uniform", max_ndof=16, initial_level=0)))
        rows = [step.row for step in records]
        assert [r.ndof for r in rows] == [4, 16]
        for row, vh in zip(rows, (step.solve.u_h for step in records)):
            samples = build_samples(vh.space.mesh, QuadRule(20), per_edge=4)
            hull = lower_hull(samples, sample_values(vh, samples))
            hessians = sample_hessians(vh, samples)
            mu = boundary_residual(hull, boundary_g(samples, exp.g))
            fvals = exp.f(*samples.interior.T)
            fine = rhs0(fvals, mu, samples, contact_set(hull, hessians), hessians).rhs0
            assert row.eta2 >= 0.9 * fine, f"ndof {row.ndof}: {row.eta2:.3f} vs {fine:.3f}"

    @pytest.mark.parametrize(
        "config",
        [
            dict(experiment=3, mode="uniform", max_ndof=300, initial_level=0),
            dict(experiment=1, mode="adaptive", max_ndof=150, initial_level=0),
        ],
        ids=["ex3-uniform", "ex1-adaptive"],
    )
    def test_envelope_error_matches_evaluating_every_point(self, config):
        # the envelope read from hull.gamma on leaves at the sampling floor or
        # finer agrees with evaluating the hull at every quadrature and grid point
        run_config = RunConfig(**config)
        exact = EXPERIMENTS[run_config.experiment].exact
        quad = QUAD
        kinds = set()
        for step in steps(run_config):
            mesh, hull, lhs = step.solve.u_h.space.mesh, step.hull, step.row.LHS
            cells = np.arange(len(mesh))
            pts = np.vstack([
                mesh.cell_points(cells, ref).reshape(-1, 2)
                for ref in (quad.ref_points, bench._cell_grid(bench._LINF_GRID))
            ])
            want = np.max(np.abs(exact.u(pts[:, 0], pts[:, 1]) - hull.evaluate(pts)))
            assert abs(lhs - want) <= 1e-13 * want
            kinds.add(tuple(sorted(set((mesh.levels >= bench._SAMPLE_LEVEL).tolist()))))
        # meshes below the floor, at or above it, and (adaptive) both at once
        assert {(False,), (True,)} <= kinds
        assert ((False, True) in kinds) == (config["mode"] == "adaptive")

    def test_no_earlier_hull_alive_at_a_solve(self, monkeypatch):
        # steps() lets go of a step once the caller has, so no earlier
        # step's lower hull lives on into the next solve and its LU
        hulls, alive = [], []
        certify, solve_ = bench._certify, bench.solve

        def recorded(*args, **kwargs):
            out = certify(*args, **kwargs)
            hulls.append(weakref.ref(out[0]))
            return out

        def checked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in hulls))
            return solve_(*args, **kwargs)

        monkeypatch.setattr(bench, "_certify", recorded)
        monkeypatch.setattr(bench, "solve", checked)
        rows = run(RunConfig(experiment=3, mode="uniform", max_ndof=1100, initial_level=0))
        assert [r.ndof for r in rows] == [4, 16, 64, 256, 1024]
        assert len(hulls) == 5 and alive == [0] * 5

    def test_f_and_g_evaluated_twice_per_step(self, monkeypatch):
        # f by the solve, and once more for both certificates only where a
        # leaf is coarser than the sampling floor (elsewhere the samples are
        # the solve's points); g by the Dirichlet data and once on the trace
        # grid for the trace error and mu
        exp = EXPERIMENTS[1]
        calls = {"f": 0, "g": 0}

        def counted(name, fn):
            def wrapper(x, y):
                calls[name] += 1
                return fn(x, y)
            return wrapper

        monkeypatch.setitem(bench.EXPERIMENTS, 1, dataclasses.replace(
            exp, f=counted("f", exp.f), g=counted("g", exp.g)))
        coarse = []
        for step in steps(RunConfig(experiment=1, mode="adaptive", max_ndof=300, initial_level=0)):
            coarse.append(step.solve.u_h.space.mesh.min_level < bench._SAMPLE_LEVEL)
        assert len(coarse) >= 4 and 0 < sum(coarse) < len(coarse)
        assert calls == {"f": len(coarse) + sum(coarse), "g": 2 * len(coarse)}

    def test_solve_f_values_are_f_at_the_samples_at_the_floor(self):
        # _certify reads the solve's f values where no leaf is coarser than
        # the sampling floor: there they are f at the interior samples, bit
        # for bit and in order, also on a mesh with leaves of two levels
        exp = EXPERIMENTS[1]
        levels = []
        for step in steps(RunConfig(experiment=1, mode="adaptive", max_ndof=200, initial_level=2)):
            mesh = step.solve.u_h.space.mesh
            samples = build_samples(mesh, QUAD, per_edge=4, min_level=bench._SAMPLE_LEVEL)
            assert np.array_equal(step.solve.fvals.ravel(), exp.f(*samples.interior.T))
            levels.append(len(np.unique(mesh.levels)))
        assert levels[0] == 1 and max(levels) > 1

    def test_over_budget_initial_level_builds_no_mesh(self, monkeypatch, tmp_path, capsys):
        # the budget is checked against the closed-form DOF count; a level-12
        # mesh would not fit in memory
        def no_fine_mesh(level):
            if level >= 9:
                raise AssertionError(f"built the level-{level} mesh")
            return init_uniform(level)

        monkeypatch.setattr(bench, "init_uniform", no_fine_mesh)
        assert run(RunConfig(experiment=1, initial_level=12)) == []
        out = tmp_path / "a.dat"
        with pytest.raises(SystemExit) as exc:
            main(["--experiment", "1", "--initial-level", "12", "--out", str(out)])
        assert exc.value.code == 2
        assert "below the 67108864 free DOFs of the initial mesh" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_aborts_with_finished_rows(self, monkeypatch, tmp_path, capsys):
        # no solver failure occurs on the benchmarks, so one is forced on the
        # third mesh; run and the CLI keep the two rows finished before it
        config = RunConfig(experiment=1, mode="uniform", max_ndof=70, initial_level=0)
        want = run(config)[:2]

        def failing_solve(*args, **kwargs):
            if kwargs["reduction"].ndof > 16:  # the third mesh
                raise SolverError("forced")
            return solve(*args, **kwargs)

        monkeypatch.setattr(bench, "solve", failing_solve)
        with pytest.raises(RunAborted, match=r"^solver failed at ndof 64: forced$") as info:
            run(config)
        assert info.value.rows == want

        out = tmp_path / "partial.dat"
        argv = ["--experiment", "1", "--max-ndof", "70", "--initial-level", "0", "--out", str(out)]
        assert main(argv) == 2
        assert read_dat(out) == want
        printed = capsys.readouterr()
        assert f"wrote partial history (2 rows) to {out}" in printed.out
        assert printed.err == "error: solver failed at ndof 64: forced\n"

    def test_level_cap_aborts_with_finished_rows(self, monkeypatch, tmp_path, capsys):
        # the finest level a mesh holds is forced down to 1, so the refinement
        # of the second mesh fails; run and the CLI keep the two rows before it
        config = RunConfig(experiment=1, mode="uniform", max_ndof=70, initial_level=0)
        want = run(config)[:2]

        monkeypatch.setattr(geometry, "MAX_LEVEL", 1)
        message = "refinement failed at ndof 16: cell out of range: need 0 <= level <= 1"
        with pytest.raises(RunAborted, match=f"^{message}") as info:
            run(config)
        assert info.value.rows == want

        out = tmp_path / "partial.dat"
        argv = ["--experiment", "1", "--max-ndof", "70", "--initial-level", "0", "--out", str(out)]
        assert main(argv) == 2
        assert read_dat(out) == want
        printed = capsys.readouterr()
        assert f"wrote partial history (2 rows) to {out}" in printed.out
        assert printed.err.startswith(f"error: {message}")

    def test_benchmark_tracer_finds_every_target(self):
        # perfbench/tracer.py wraps names the driver and the layers look up at
        # call time; a name bound early or renamed leaves its metrics absent
        script = textwrap.dedent("""
            import json
            from tracer import ROOT, TARGETS, Tracer
            from macert import bench
            tracer = Tracer()
            tracer.install()
            root = tracer.open(ROOT)
            bench.run(bench.RunConfig(experiment=1, mode="adaptive", max_ndof=150, initial_level=0))
            tracer.close(root)
            print(json.dumps({
                "absent": tracer.absent,
                "unobserved": sorted(tracer.unobserved),
                "unseen": [name for name, _ in TARGETS if name not in tracer.names],
            }))
        """)
        src = pathlib.Path(bench.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=src.parent / "perfbench", env=env,
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        found = json.loads(proc.stdout.splitlines()[-1])
        assert found == {"absent": [], "unobserved": [], "unseen": []}

    def test_history_digest_script_matches_emit_dat(self, tmp_path):
        # scripts/history_digest.py runs the steps itself; its history digest
        # is that of the .dat text emit_dat writes for the same run, and each
        # step line names why that step's policy iteration stopped
        config = RunConfig(experiment=1, mode="adaptive", max_ndof=100, initial_level=0)
        done = list(steps(config))
        rows = [step.row for step in done]
        out = tmp_path / "history.dat"
        emit_dat(rows, out)
        root = pathlib.Path(bench.__file__).parents[2]
        argv = ["--experiment", "1", "--mode", "adaptive", "--max-ndof", "100", "--initial-level", "0"]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "history_digest.py"), *argv],
            env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == f"dat {hashlib.sha256(out.read_bytes()).hexdigest()}  rows {len(rows)}"
        assert [line.split()[:2] for line in lines[1:]] == [["step", str(k)] for k in range(len(rows))]
        assert [line.split()[6:8] for line in lines[1:]] == [["stop", step.solve.stop] for step in done]

    def test_history_digest_script_reports_an_aborted_run(self, monkeypatch, tmp_path, capsys):
        # a solver failure forced on the third mesh: the script prints the
        # lines of the two finished steps, then the error, and exits with 2
        config = RunConfig(experiment=1, mode="uniform", max_ndof=70, initial_level=0)
        finished = tmp_path / "finished.dat"
        emit_dat(run(config)[:2], finished)

        def failing_solve(*args, **kwargs):
            if kwargs["reduction"].ndof > 16:  # the third mesh
                raise SolverError("forced")
            return solve(*args, **kwargs)

        root = pathlib.Path(bench.__file__).parents[2]
        spec = importlib.util.spec_from_file_location(
            "history_digest", root / "scripts" / "history_digest.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(bench, "solve", failing_solve)
        argv = ["--experiment", "1", "--max-ndof", "70", "--initial-level", "0"]
        assert script.main(argv) == 2
        printed = capsys.readouterr()
        lines = printed.out.splitlines()
        assert lines[0] == f"dat {hashlib.sha256(finished.read_bytes()).hexdigest()}  rows 2"
        assert [line.split()[:4] for line in lines[1:]] == [
            ["step", "0", "ndof", "4"], ["step", "1", "ndof", "16"]
        ]
        assert printed.err == "error: solver failed at ndof 64: forced\n"

    def test_compare_histories_script(self, monkeypatch, capsys):
        # scripts/compare_histories.py runs history_digest.py against two
        # source trees; this checkout against itself is identical, and a
        # difference is reported by its first line with exit code 1
        root = pathlib.Path(bench.__file__).parents[2]
        script = root / "scripts" / "compare_histories.py"
        flags = "--experiment 1 --mode uniform --max-ndof 70 --initial-level 0"
        proc = subprocess.run(
            [sys.executable, str(script), str(root / "src"), str(root / "src"), "--run", flags],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{flags}: identical\n"

        spec = importlib.util.spec_from_file_location("compare_histories", script)
        compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare)
        outputs = {"a": ["dat x", "step 0 ok", "exit 0"],
                   "b": ["dat x", "step 0 changed", "exit 0"]}
        monkeypatch.setattr(compare, "digest", lambda src, _: outputs[pathlib.Path(src).name])
        monkeypatch.setattr(compare.pathlib.Path, "is_dir", lambda self: True)
        assert compare.main(["a", "b", "--run", flags]) == 1
        assert capsys.readouterr().out == (
            f"{flags}: line 2 differs\n  parent: step 0 ok\n  change: step 0 changed\n"
        )

    def test_fit_rates_script_prints_rate_fit(self, tmp_path):
        # scripts/fit_rates.py prints rate_fit of every column to 3 decimals,
        # and an unknown column or a window below 2 is a usage error
        rows = run(RunConfig(experiment=1, mode="uniform", max_ndof=70, initial_level=0))
        path = tmp_path / "history.dat"
        emit_dat(rows, path)
        root = pathlib.Path(bench.__file__).parents[2]

        def fit_rates(*argv):
            return subprocess.run(
                [sys.executable, str(root / "scripts" / "fit_rates.py"), str(path), *argv],
                env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True,
            )

        columns = ["Linferr", "LHS", "H1error", "H2error", "eta2"]
        proc = fit_rates("--columns", ",".join(columns))
        assert proc.returncode == 0, proc.stderr
        header, line = proc.stdout.splitlines()
        assert header.split() == ["file", *columns]
        assert line.split() == [str(path), *(f"{rate_fit(rows, c):+.3f}" for c in columns)]
        proc = fit_rates("--columns", "Linferr,nope")
        assert proc.returncode == 2
        assert "unknown columns nope" in proc.stderr
        assert proc.stdout == ""
        # so is a window rate_fit rejects
        for window in ("1", "0", "-2"):
            proc = fit_rates("--window", window)
            assert proc.returncode == 2
            assert f"--window must be at least 2, got {window}" in proc.stderr
            assert proc.stdout == ""
        # a malformed file is a usage error too, and no file is reported
        bad = tmp_path / "bad.dat"
        lines = path.read_text().splitlines(keepends=True)
        bad.write_text("".join(lines[:-1]) + lines[-1].rstrip() + "   1.0e+00\n")
        proc = fit_rates(str(bad))
        assert proc.returncode == 2
        assert "line 4: 11 tokens, expected 10" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RunConfig(experiment=7)
        with pytest.raises(ValueError):
            RunConfig(experiment=1, mode="sideways")
        for name, value in (
            ("initial_level", -1), ("eps", 0.7), ("eps", 0.0), ("eps", -1e-3),
            # past the finest level a mesh holds, before any DOF count of it
            ("initial_level", 31), ("initial_level", 10**9),
            # eps is one real number; a bool is no integer
            ("eps", np.array([0.01, 0.1])), ("eps", [0.1]), ("eps", np.array(0.1)),
            ("max_ndof", True), ("initial_level", True),
            # True == 1 and 1.0 hashes like 1, so both would find experiment 1
            ("experiment", True), ("experiment", 1.0),
        ):
            with pytest.raises(ValueError, match=name):
                RunConfig(**{"experiment": 1, name: value})
        for eps in (np.array([0.01, 0.1]), [0.1], True):
            with pytest.raises(ValueError, match="eps"):
                HjbProblem(eps, EXPERIMENTS[1].f)
        RunConfig(experiment=1, eps=0.5, initial_level=0)
        RunConfig(experiment=1, initial_level=30)
        RunConfig(experiment=np.int64(1), eps=np.float64(0.1), max_ndof=np.int64(60))

    @pytest.mark.parametrize("name, value", [("max_ndof", 200.0), ("initial_level", 0.5)])
    def test_non_integer_config_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RunConfig(experiment=1, mode="adaptive", **{name: value})
        RunConfig(experiment=1, mode="adaptive", **{name: np.int64(5)})

    @pytest.mark.parametrize("value", [200.0, 0.5, 2.5, 3.5, True])
    def test_non_integer_per_edge_rejected(self, value):
        # per_edge=2.5 would put a hull sample at x = 1.2, outside the square,
        # and True would sample one segment per edge
        with pytest.raises(ValueError, match="per_edge"):
            build_samples(init_uniform(0), QuadRule(2), per_edge=value)

    @pytest.mark.parametrize("value", [1.5, True, -1])
    def test_invalid_min_level_rejected(self, value):
        # min_level=True would set the floor to level 1, and 1.5 raised TypeError
        with pytest.raises(ValueError, match="min_level"):
            build_samples(init_uniform(0), QuadRule(2), per_edge=1, min_level=value)
        build_samples(init_uniform(0), QuadRule(2), per_edge=np.int64(1), min_level=np.int64(1))


class TestCli:
    def _run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "macert.cli",
            "--experiment", "1", "--mode", "uniform", "--max-ndof", "70",
            "--initial-level", "0", "--out", str(out), *extra,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    def test_cli_writes_dat(self, tmp_path):
        payload = self._run(tmp_path, "a.dat")
        header = payload.decode().splitlines()[0]
        assert header.split() == list(DAT_COLUMNS)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--initial-level", "-1", "initial_level must be at least 0"),
            ("--initial-level", "31", "initial_level must be at least 0 and at most 30, got 31"),
            ("--epsilon", "0.7", "eps must lie in (0, 1/2]"),
            ("--max-ndof", "-5", "below the 4 free DOFs of the initial mesh"),
        ],
    )
    def test_cli_rejects_out_of_range(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "a.dat"
        argv = ["--experiment", "1", "--initial-level", "0", flag, value, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cli_deterministic(self, tmp_path):
        a = self._run(tmp_path, "a.dat")
        b = self._run(tmp_path, "b.dat")
        assert a == b
