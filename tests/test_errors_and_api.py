"""Public-API surface tests: exception hierarchy, exports, __version__."""

import pytest

import repro
from repro.errors import (
    BudgetExceeded,
    GFDError,
    GraphError,
    LiteralError,
    ParseError,
    PatternError,
    ReproError,
    RuntimeConfigError,
)


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [GraphError, PatternError, LiteralError, GFDError, ParseError,
         BudgetExceeded, RuntimeConfigError],
    )
    def test_all_derive_from_repro_error(self, exc_type):
        assert issubclass(exc_type, ReproError)
        assert issubclass(exc_type, Exception)

    def test_parse_error_line_prefix(self):
        error = ParseError("bad token", line=7)
        assert "line 7" in str(error)
        assert error.line == 7

    def test_parse_error_without_line(self):
        error = ParseError("bad document")
        assert error.line is None
        assert "line" not in str(error)

    def test_single_catch_for_library_errors(self):
        """Callers can catch ReproError alone for any library failure."""
        from repro import PropertyGraph

        with pytest.raises(ReproError):
            PropertyGraph().node("ghost")
        with pytest.raises(ReproError):
            repro.parse_gfds("not a gfd")


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_names_resolve(self):
        import repro.chase
        import repro.extensions
        import repro.gfd
        import repro.graph
        import repro.matching  # noqa: F401
        import repro.parallel
        import repro.reasoning

        for module in (
            repro.graph,
            repro.gfd,
            repro.reasoning,
            repro.parallel,
            repro.chase,
            repro.extensions,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_convenience_literal_builders(self):
        literal = repro.lit_eq("x", "A", 1)
        assert literal.value == 1
        var_literal = repro.lit_vareq("x", "A", "y", "B")
        assert var_literal.variables() == {"x", "y"}


class TestDocstrings:
    def test_public_modules_documented(self):
        import importlib

        modules = [
            "repro",
            "repro.graph.graph",
            "repro.gfd.gfd",
            "repro.gfd.parser",
            "repro.eq.eqrelation",
            "repro.matching.homomorphism",
            "repro.reasoning.seqsat",
            "repro.reasoning.seqimp",
            "repro.parallel.backends",
            "repro.parallel.parsat",
            "repro.parallel.parimp",
            "repro.chase.gfd_chase",
            "repro.extensions.predicates",
            "repro.extensions.keys",
            "repro.bench.experiments",
            "repro.cli",
        ]
        for name in modules:
            module = importlib.import_module(name)
            assert module.__doc__ and len(module.__doc__) > 40, name

    def test_core_entry_points_documented(self):
        from repro import seq_imp, seq_sat
        from repro.parallel import par_imp, par_sat

        for fn in (seq_sat, seq_imp, par_sat, par_imp):
            assert fn.__doc__
