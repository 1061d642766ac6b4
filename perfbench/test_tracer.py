"""Self-tests for the benchmark's tracer.

    python3 -m pytest perfbench -q

Patching runs in a child interpreter so that gatedmem stays untraced in the
test process.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_on_a_synthetic_nested_call():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 4

    def inner():
        now[0] += 2
        leaf_a()
        now[0] += 8

    def outer():
        now[0] += 1
        inner_b()
        now[0] += 16

    leaf_a = tracer.wrap(leaf, "leaf", "A", t)
    inner_b = tracer.wrap(inner, "inner", "B", t)
    tracer.wrap(outer, "outer", "A", t)()

    report = t.report()
    assert report["funcs"]["leaf"] == {"calls": 1, "inclusive_s": 4, "self_s": 4}
    assert report["funcs"]["inner"] == {"calls": 1, "inclusive_s": 14, "self_s": 10}
    assert report["funcs"]["outer"] == {"calls": 1, "inclusive_s": 31, "self_s": 17}
    assert report["layer_self_s"] == {"A": 21, "B": 10}
    assert not t.stack


def test_recursion_counts_inclusive_time_once():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def countdown(n):
        now[0] += 1
        if n:
            traced(n - 1)

    traced = tracer.wrap(countdown, "countdown", "A", t)
    traced(2)
    assert t.report()["funcs"]["countdown"] == {"calls": 3, "inclusive_s": 3, "self_s": 3}


def test_span_closes_when_the_call_raises():
    now = [0.0]
    t = tracer.Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 5
        raise ValueError("boom")

    traced = tracer.wrap(boom, "boom", "A", t)
    try:
        traced()
    except ValueError:
        pass
    assert t.report()["layer_self_s"] == {"A": 5}
    assert not t.stack


def _python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    return subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def _run_patched(body: str) -> subprocess.CompletedProcess:
    setup = """
        import tracer
        t = tracer.Tracer()
        modules = tracer.load_package_modules()
        replacements = tracer.install(t, modules)
        """
    return _python(textwrap.dedent(setup) + textwrap.dedent(body))


def test_every_alias_of_a_wrapped_function_is_replaced():
    proc = _run_patched(
        """
        import gatedmem
        from gatedmem import controller, kernels, protocol, retrieval, stats, worldsim
        originals = {id(f.__wrapped__): f.__wrapped__ for f in replacements.values()}
        for alias in (controller.retrieve, worldsim.retrieve, retrieval.retrieve, gatedmem.retrieve):
            assert alias is replacements[id(retrieval.retrieve.__wrapped__)], alias
        assert protocol.bootstrap_ci is stats.bootstrap_ci is gatedmem.bootstrap_ci
        assert protocol.bootstrap_ci.__wrapped__.__module__ == "gatedmem.stats"
        assert kernels.resample_means is kernels.resample_means_numpy
        assert hasattr(kernels.resample_means, "__wrapped__")
        assert hasattr(worldsim.World.pair_draws, "__wrapped__")
        assert hasattr(gatedmem.MemoryBank.save, "__wrapped__")
        assert hasattr(gatedmem.FreezeManifest.save, "__wrapped__")
        tracer.check_no_unwrapped(list(modules.values()) + [gatedmem], originals)
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_new_import_site_fails_loudly():
    proc = _run_patched(
        """
        import gatedmem
        from gatedmem import protocol
        originals = {id(f.__wrapped__): f.__wrapped__ for f in replacements.values()}
        sneaky = protocol.bootstrap_ci.__wrapped__
        for name, value in (("new_alias", sneaky), ("TABLE", {"ci": sneaky})):
            setattr(protocol, name, value)
            try:
                tracer.check_no_unwrapped([protocol], originals)
            except RuntimeError as exc:
                assert "bootstrap_ci" in str(exc), exc
            else:
                raise SystemExit(f"{name} went unnoticed")
            delattr(protocol, name)
        print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_module_without_a_layer_fails_loudly():
    proc = _python("import tracer\ndel tracer.MODULE_LAYERS['util']\ntracer.load_package_modules()\n")
    assert proc.returncode != 0
    assert "gatedmem.util has no layer" in proc.stderr
