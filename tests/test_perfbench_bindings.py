"""The benchmark harness reaches into the package by name; keep those names alive."""

import importlib
import types
from pathlib import Path

from veilshare import tokens
from veilshare.vss import Secret, VssParams, deal

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("lattice", "tokens", "setsys", "vss", "serial", "sim")


def load_spans() -> types.ModuleType:
    """perfbench/spans.py, executed from its source so no bytecode is written."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves():
    mods = types.SimpleNamespace(
        **{m: importlib.import_module(f"veilshare.{m}") for m in MODULES})
    traced = load_spans().traced_functions(mods)
    assert traced
    for module_name, path, _, _ in traced:
        owner = getattr(mods, module_name)
        for attr in path.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"


def test_desk_params_expose_what_the_benchmark_reads():
    params = VssParams.desk()
    assert (params.token_m, params.token_m_prime, params.token_n, params.token_l) == (
        tokens.DEFAULT_M, tokens.DEFAULT_M, tokens.DEFAULT_N, tokens.DEFAULT_L)
    assert params.lwe.p == 31


def test_deal_reuses_the_token_systems_the_benchmark_builds():
    # perfbench builds the systems positionally, then deals; lru_cache keys
    # f() apart from f(39, 39, 3, 2), so a differently spelled call in deal
    # would build them a second time
    params = VssParams.desk()
    tokens.default_token_systems.cache_clear()
    tokens.default_token_systems(params.token_m, params.token_m_prime,
                                 params.token_n, params.token_l)
    deal(Secret(3, params.lwe.p), [(1, 2)], 3, params, seed=1)
    assert tokens.default_token_systems.cache_info().currsize == 1
