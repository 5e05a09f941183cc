"""The public API: exactly these names, each importable from the package."""

import ast
import builtins
import importlib
from pathlib import Path

import nncorr

PUBLIC = {
    # data
    "Sample", "load_csv",
    # pipeline and analysis
    "EstimateResult", "PipelineConfig", "estimate", "Analysis", "analyze",
    # study
    "CellSummary", "CopulaConfig", "RawRecord", "gen_gaussian_copula", "run_study", "true_t",
    # errors
    "InputError",
}

# The pipeline's stages stay in their modules, internal to the package.
INTERNAL = {
    "minmax_scale": "dataset", "build_nn": "nn_graph", "basis_index_set": "ridge_series",
    "design_matrix": "ridge_series", "default_lambda": "bias_correction",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC) == 14
    assert sorted(nncorr.__all__) == sorted(PUBLIC)
    for name in nncorr.__all__:
        assert hasattr(nncorr, name), name
    for name, module in INTERNAL.items():
        assert not hasattr(nncorr, name), name
        assert callable(getattr(importlib.import_module(f"nncorr.{module}"), name)), name


def _names_an_exception(base):
    obj = getattr(builtins, base, None)
    builtin = isinstance(obj, type) and issubclass(obj, BaseException)
    return builtin or base.endswith(("Error", "Exception", "Warning"))


def test_input_error_is_the_only_exception_class():
    # One error type: the message tells input problems apart, not a class.
    # A base is an exception type when it is a built-in one, is named like
    # one (np.linalg.LinAlgError, say) or is a package class that is.
    classes = []
    for path in sorted(Path(nncorr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [ast.unparse(b).rpartition(".")[2] for b in node.bases]
                classes.append((path.stem, node.name, bases))
    derived = set()
    for _ in classes:  # each pass adds at least one level of subclasses
        derived = {name for _, name, bases in classes
                   if any(b in derived or _names_an_exception(b) for b in bases)}
    found = sorted(f"{module}.{name}" for module, name, _ in classes if name in derived)
    assert found == ["errors.InputError"]
