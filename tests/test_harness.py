import ast
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pintlab.cli import main
from pintlab.experiments import load_registry, result_to_csv, run_experiment
from pintlab.trace import IterationTrace


@pytest.fixture(scope="module")
def registry():
    return load_registry()


class TestRegistry:
    def test_all_experiments_present(self, registry):
        assert len(registry) == 14
        gates = {spec.gate for spec in registry.values()}
        assert gates == {f"C{i}" for i in range(1, 15)}

    def test_every_spec_cites_a_gate(self, registry):
        for spec in registry.values():
            assert spec.gate.startswith("C")
            assert spec.description

    def test_ids_in_sorted_order(self, registry):
        # `pint list`, `pint verify` and the benchmark's rest-suite follow
        # the registry's order
        assert list(registry) == sorted(registry)


class TestDeterminism:
    def test_same_seed_identical_csv_bytes(self, registry):
        spec = registry["idc-order-lift"]
        r1 = run_experiment(spec, seed=3)
        r2 = run_experiment(spec, seed=3)
        assert result_to_csv(r1).encode() == result_to_csv(r2).encode()

    def test_run_experiment_rejects_jobs(self, registry):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(registry["idc-order-lift"], jobs=2)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swr-ad-iterations" in out and "C9" in out

    def test_list_into_closed_pipe_exits_1_quietly(self, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        out, err = os.fdopen(write_end, "w"), io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        try:
            assert main(["list"]) == 1
        finally:
            out.close()  # the unflushed rest goes to devnull
        assert err.getvalue() == ""

    def test_run_writes_csv(self, tmp_path, capsys):
        code = main(["run", "idc-order-lift", "--out", str(tmp_path)])
        assert code == 0
        csv_file = tmp_path / "idc-order-lift.csv"
        assert csv_file.exists()
        text = csv_file.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "corrections,slope,expected"

    def test_unknown_experiment_fails_with_message(self, tmp_path, capsys):
        code = main(["run", "no-such-thing", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown experiment id" in capsys.readouterr().err

    def test_bad_option_value_one_error_line(self, capsys):
        assert main(["run", "idc-order-lift", "--seed", "abc"]) == 2
        err = capsys.readouterr().err
        assert err == "error: argument --seed: invalid int value: 'abc'\n"

    def test_missing_subcommand_one_error_line(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "command" in err and len(err.splitlines()) == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pint")

    def test_verify_filter(self, tmp_path, capsys):
        code = main(["verify", "--filter", "idc", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "idc-order-lift" in out and "pass" in out

    @pytest.mark.parametrize("command", [["run", "idc-order-lift"], ["verify", "--filter", "idc"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = main(command + ["--out", str(blocker / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory") and len(err.splitlines()) == 1

    def test_unwritable_csv_exits_2(self, tmp_path, capsys):
        (tmp_path / "idc-order-lift.csv").mkdir()
        code = main(["run", "idc-order-lift", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and len(err.splitlines()) == 1

    def test_verify_bad_filter(self, tmp_path, capsys):
        code = main(["verify", "--filter", "zzz", "--out", str(tmp_path)])
        assert code == 2

    def test_env_var_overrides_out(self, tmp_path, monkeypatch, capsys):
        override = tmp_path / "env-dir"
        monkeypatch.setenv("PINT_OUT", str(override))
        code = main(["run", "idc-order-lift", "--out", str(tmp_path / "flag-dir")])
        assert code == 0
        assert (override / "idc-order-lift.csv").exists()
        assert not (tmp_path / "flag-dir").exists()

    @pytest.mark.parametrize("command", [["run", "idc-order-lift"], ["verify", "--filter", "idc"]])
    def test_default_out_leaves_goldens_untouched(self, tmp_path, monkeypatch, capsys, command):
        # the tracked goldens in pint-out/ are written only by --out pint-out
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PINT_OUT", raising=False)
        golden = tmp_path / "pint-out" / "idc-order-lift.csv"
        golden.parent.mkdir()
        golden.write_text("golden\n", encoding="utf-8")
        assert main(command) == 0
        assert golden.read_text(encoding="utf-8") == "golden\n"
        assert list(golden.parent.iterdir()) == [golden]
        assert (tmp_path / "pint-run" / "idc-order-lift.csv").exists()


class TestCsvFormat:
    def test_float_precision_17_digits(self, registry):
        r = run_experiment(registry["parareal-rho-ceiling"], seed=0)
        text = result_to_csv(r)
        value = text.splitlines()[1].split(",")[1]
        assert float(value) == r.rows[0]["value"]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 15


class TestImportCost:
    @staticmethod
    def fresh_python(code, *first):
        """``python -c code`` in a fresh process that imports pintlab from
        this checkout, with the directories ``first`` ahead of it on the
        path."""
        import pintlab

        src = str(Path(pintlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (*first, src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)

    @classmethod
    def loaded_by_import(cls, prefixes):
        """The modules starting with ``prefixes`` that a fresh
        ``import pintlab.experiments`` loads, as printed by the subprocess."""
        code = f"import sys, pintlab.experiments; print(sorted(m for m in sys.modules if m.startswith({prefixes!r})))"
        proc = cls.fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_experiments_import_leaves_out_scipy_optimize(self):
        # no experiment needs scipy.optimize or yaml; importing scipy.optimize
        # costs about a quarter of pintlab's set-up time
        assert self.loaded_by_import(("scipy.optimize", "yaml")) == "[]"

    def test_experiments_import_leaves_out_scipy_sparse(self):
        # the exponential is dense only (n <= EXPM_DENSE_MAX), so no module
        # needs scipy.sparse, and importing it would only add set-up time
        assert self.loaded_by_import(("scipy.sparse",)) == "[]"

    def test_experiments_import_leaves_out_scipy_linalg(self):
        # the kernels load scipy's LAPACK library alone, by its path: the
        # scipy.linalg package, and numpy.f2py and numpy.testing, which it
        # loads, cost more than half of pintlab's set-up time
        loaded = self.loaded_by_import(("scipy", "numpy.f2py", "numpy.testing"))
        assert loaded == "['scipy.linalg._flapack']"

    def test_missing_lapack_library_named(self, tmp_path):
        # a scipy package with no linalg/_flapack library: importing the
        # kernels fails at once, with an ImportError naming the path searched
        (tmp_path / "scipy" / "linalg").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("", encoding="utf-8")
        proc = self.fresh_python("import pintlab.kernels", str(tmp_path))
        assert proc.returncode == 1
        missing = tmp_path / "scipy" / "linalg" / "_flapack"
        assert f"ImportError: scipy's LAPACK library not found: no {missing}{{" in proc.stderr


class TestOpenblasNumThreads:
    # importing pintlab sets OPENBLAS_NUM_THREADS=1 before numpy loads, so
    # BLAS runs on the solvers' one thread; a value the user set is kept
    @staticmethod
    def fresh_import(threads):
        import pintlab

        src = str(Path(pintlab.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        code = ("import pintlab, os, sys; "
                "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return proc.stdout.split()

    def test_set_when_unset_before_numpy_loads(self):
        assert self.fresh_import(None) == ["1", "False"]

    def test_user_value_kept(self):
        assert self.fresh_import("2") == ["2", "False"]


class TestModuleImports:
    def test_no_function_local_imports(self):
        # every pintlab module states its dependencies at the top, so the
        # import graph is what the module headers say
        import pintlab

        local = []
        for path in sorted(Path(pintlab.__file__).resolve().parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    local += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                              if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert not local, f"imports inside functions: {local}"


class TestIterationTrace:
    def test_contraction_factors_skip_and_floor(self):
        tr = IterationTrace(method="t")
        for e in (1.0, 0.5, 0.25, 0.05, 1e-12, 1e-15):
            tr.record(error=e)
        # skip=2 drops the first two ratios and floor=1e-11 the last one;
        # with floor=1e-13 the last one still drops, as 1e-15 < 1e-14
        assert tr.contraction_factors(floor=1e-11, skip=2) == [0.2, 1e-12 / 0.05]
        assert tr.contraction_factors(floor=1e-13, skip=4) == []
        assert tr.contraction_factors(floor=1e-13, skip=0)[:2] == [0.5, 0.5]


class TestBenchmarkNames:
    """perfbench/layers.py reports per-layer metrics by function name, and a
    name that no longer resolves silently reads 0: every pintlab function
    it names must still be defined where it says."""

    # rows that read 0 by design: the solver thread pool, GMRES, the
    # one-shot companion solve and the per-system quadratic solve (now
    # kernels.QuadraticPlan) were deleted
    GONE = {"pool.make_pmap", "kernels.gmres", "models.CompanionSystem.solve_shift",
            "kernels.solve_poly_in_matrix"}

    @staticmethod
    def reported_functions():
        """The pintlab names in the literal FUNCTION_FIELDS list and in
        ORACLE; the per-experiment rows appended to FUNCTION_FIELDS are
        experiment ids, not functions, and numpy/scipy leaves are skipped."""
        layers = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
        names = []
        for node in ast.parse(layers.read_text()).body:
            if not (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)):
                continue
            value = node.value
            if node.targets[0].id == "FUNCTION_FIELDS":
                listed = value.left if isinstance(value, ast.BinOp) else value
                names += [name for name, _ in ast.literal_eval(listed)]
            elif node.targets[0].id == "ORACLE":
                names += sorted(ast.literal_eval(value))
        return [name for name in names
                if not name.startswith(("numpy.", "scipy.")) and name not in TestBenchmarkNames.GONE]

    def test_reported_functions_resolve(self):
        names = self.reported_functions()
        assert len(names) >= 25 and "parareal.fine_sequential" in names
        missing = []
        for name in names:
            layer, *path = name.split(".")
            obj = importlib.import_module(f"pintlab.{layer}")
            for attr in path:
                obj = getattr(obj, attr, None)
            if not (callable(obj) and getattr(obj, "__module__", None) == f"pintlab.{layer}"):
                missing.append(name)
        assert not missing, f"perfbench/layers.py reports {missing}, not defined in pintlab"
