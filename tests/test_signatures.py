"""Optimizer constructor signatures: keyword-only configuration.

Every optimizer takes ``(problem, *, config...)``; passing configuration
positionally is a ``TypeError``.
"""

import inspect
import warnings

import pytest

from repro import (
    DEOptimizer,
    GASPAD,
    MFBOptimizer,
    MOMFBOptimizer,
    RandomSearchOptimizer,
    WEIBO,
)
from repro.problems import ForresterProblem

ALL_OPTIMIZERS = [
    MFBOptimizer,
    WEIBO,
    GASPAD,
    DEOptimizer,
    RandomSearchOptimizer,
    MOMFBOptimizer,
]


class TestKeywordOnlySignatures:
    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_config_parameters_are_keyword_only(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert params[0].name == "problem"
        for param in params[1:]:
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{cls.__name__}.{param.name} should be keyword-only"
            )

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_shared_config_names(self, cls):
        """The knobs every optimizer exposes use the same names."""
        names = set(inspect.signature(cls).parameters)
        assert {"budget", "rng", "seed"} <= names

    def test_kwargs_construction_warns_never(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            RandomSearchOptimizer(
                ForresterProblem(), budget=5, n_init=3, seed=0
            )

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_positional_config_raises_type_error(self, cls):
        budget = inspect.signature(cls).parameters["budget"].default
        with pytest.raises(TypeError, match="positional"):
            cls(ForresterProblem(), budget)

    def test_too_many_positionals_rejected(self):
        sig = inspect.signature(RandomSearchOptimizer)
        n_config = len(sig.parameters) - 1
        with pytest.raises(TypeError, match="positional"):
            RandomSearchOptimizer(
                ForresterProblem(), *range(3, 3 + n_config + 1)
            )

    def test_positional_duplicate_of_keyword_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                RandomSearchOptimizer(ForresterProblem(), 8, budget=9)

    @pytest.mark.parametrize("cls", ALL_OPTIMIZERS)
    def test_docstring_and_name_survive_decoration(self, cls):
        assert cls.__init__.__name__ == "__init__"
