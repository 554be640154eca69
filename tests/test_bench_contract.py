"""What the benchmark under bench/ needs of the package: every name its tracer
wraps, and a CLI that parses every command line its workloads run. The bench
modules are loaded from their files and nothing under bench/ is written."""

import importlib.util
import os
import sys

import pytest

from camsmeta import io_cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    # no bench/__pycache__ either
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_name_exists_and_the_tracer_installs():
    tracer = bench_module("tracer")
    for module, name in tracer.FUNCTIONS:
        fn = getattr(sys.modules[f"camsmeta.{module}"], name, None)
        assert callable(fn), (module, name)
    for module, cls, method in tracer.METHODS:
        owner = getattr(sys.modules[f"camsmeta.{module}"], cls)
        assert method in owner.__dict__, (module, cls, method)
    before = {(m, n): getattr(sys.modules[f"camsmeta.{m}"], n)
              for m, n in tracer.FUNCTIONS}
    traced = tracer.Tracer()
    try:
        traced.install()
        assert all(getattr(sys.modules[f"camsmeta.{m}"], n) is not fn
                   for (m, n), fn in before.items())
    finally:
        traced.uninstall()
    assert all(getattr(sys.modules[f"camsmeta.{m}"], n) is fn
               for (m, n), fn in before.items())


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_every_workload_command_parses(size, tmp_path):
    workloads = bench_module("workloads")
    parser = io_cli.build_parser()
    inputs = {"data.csv": str(tmp_path / "data.csv")}
    for workload in workloads.WORKLOADS:
        for command in workloads.commands(workload, 1, size, inputs,
                                          str(tmp_path)):
            args = parser.parse_args(list(command.argv))
            assert args.command == command.argv[0], (workload, command.label)
