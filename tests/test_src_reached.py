"""Guard: every function and method in src/latticecpwl runs in the program.

Runs every command on small instances (every format, `synth --M 0/1`,
`bounds` with and without the separation flags), the serving commands past
the rank 20 up to which the corners are enumerated, and the Python-API
calls the benchmark makes, under a
profiler that records each function entered. A function that none of this
reaches belongs in the tests or nowhere.
"""
from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import sys

import numpy as np

import latticecpwl
from latticecpwl import boundary as bnd
from latticecpwl import cli
from latticecpwl import folding as fld
from latticecpwl import lattices as lat
from latticecpwl import network as net

SRC = pathlib.Path(latticecpwl.__file__).resolve().parent
INSTANCES = [("an", 3), ("dn-second", 4), ("en", 6)]


def defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line) of every def in the package -> a readable name. A
    decorated function's code starts at its first decorator."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[(str(path), first)] = f"{path.name}:{node.lineno} {node.name}"
    return found


def command_runs(tmp_path: pathlib.Path) -> list[list[str]]:
    runs = []
    for family, n in INSTANCES:
        base = ["--family", family, "--n", str(n)]
        for fmt in ("csv", "json"):
            flags = base + ["--format", fmt]
            runs += [
                ["basis", *flags],
                ["count", *flags],
                ["fold", *flags, "--samples", "2000"],
                ["mc", *flags, "--samples", "2000"],
                ["bounds", *flags],
                ["bounds", *flags, "--M", "10", "--L", "2", "--w", "4"],
            ]
        runs += [["synth", *base, "--M", "0"], ["synth", *base, "--M", "1"]]
        basis = lat.build_basis(lat.FamilyId(family, n))
        projected = tmp_path / f"{family}{n}_eval.txt"
        np.savetxt(projected, lat.sample_domain(basis, seed=1, count=50))
        full = tmp_path / f"{family}{n}_decode.txt"
        np.savetxt(full, 3.0 * lat.sample_parallelotope(basis, seed=2, count=50))
        runs += [["eval", *base, "--in", str(projected)], ["decode", *base, "--in", str(full)]]
    # f from the chamber corners alone serves past the corner cap
    basis = lat.build_basis(lat.FamilyId("an", 24))
    projected, full = tmp_path / "an24_eval.txt", tmp_path / "an24_decode.txt"
    np.savetxt(projected, lat.sample_domain(basis, seed=1, count=50))
    np.savetxt(full, lat.sample_parallelotope(basis, seed=2, count=50))
    base = ["--family", "an", "--n", "24"]
    runs += [
        ["eval", *base, "--in", str(projected)],
        ["decode", *base, "--in", str(full)],
        ["synth", *base],
        ["mc", "--family", "dn-second", "--n", "11", "--samples", "200"],
    ]
    return runs


def benchmark_api_calls() -> None:
    fid = lat.FamilyId("an", 3)
    basis = lat.build_basis(fid)
    f = bnd.build_boundary(basis)
    nw = net.synthesize(basis, fld.build_schedule(fid, basis), f, M=2)
    Y = lat.sample_parallelotope(basis, seed=3, count=100)
    net.forward(nw, Y)
    bnd.eval_boundary_batch(f, Y[:, 1:])
    lat.enumerate_corners(basis).z[lat.cvp_corners_batch(basis, Y)]


def test_every_src_function_runs(tmp_path):
    runs = command_runs(tmp_path)
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # main builds its parser once per process, and the builders memoize
    # their last instance; drop what is cached so that build_parser, its
    # nested add and the builders' bodies run under the profiler
    cli.build_parser.cache_clear()
    for memo in (lat._basis, bnd._corner_boundary, fld._fold_first):
        memo.cache_clear()
    sys.setprofile(profile)
    try:
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) in (0, 1), argv
        benchmark_api_calls()
    finally:
        sys.setprofile(None)
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    never = [name for key, name in defined_functions().items() if key not in entered]
    assert not never, f"never run: {never}"
