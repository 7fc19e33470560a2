"""The workloads: their inputs, their operations and their gates.

Each workload gets the freshly imported package as ``pkg`` (a namespace
of the modules ``cli``, ``grid``, ``labelling``, ``toric``, ``binom``,
``verify`` and ``errors``).  ``setup`` builds what every pass reuses and
is timed as set-up; ``prepare`` makes the seeded inputs and is not timed;
``ops`` lists the next pass; ``run_op`` is the timed call into the package;
``check`` is the correctness gate for one result and is not timed.

Why each workload, and the instances left out, are in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

FRAME = {"outer": {"a": [1, 1], "b": [7, 5]}, "hole": {"a": [2, 2], "b": [5, 4]}}

# ROADMAP item 4's sweep is every a = (0,0), b <= (4,4) configuration (16
# in all, 51 s on one core).  One pass keeps all seven small ones (3x3,
# 3x4, 4x3) and two of the nine 4x4 ones: the thin frame, the cheapest,
# and the 1x1 corner hole, the costliest; 12 to 16 s.
ORACLE_CONFIGS = (
    ((0, 0), (3, 3), (1, 1), (2, 2)),
    ((0, 0), (3, 4), (1, 1), (2, 2)),
    ((0, 0), (3, 4), (1, 1), (2, 3)),
    ((0, 0), (3, 4), (1, 2), (2, 3)),
    ((0, 0), (4, 3), (1, 1), (2, 2)),
    ((0, 0), (4, 3), (1, 1), (3, 2)),
    ((0, 0), (4, 3), (2, 1), (3, 2)),
    ((0, 0), (4, 4), (1, 1), (3, 3)),
    ((0, 0), (4, 4), (1, 1), (2, 2)),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def basis_digest(binomials) -> str:
    return sha256("\n".join(str(g) for g in binomials))


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def instance_dict(config) -> dict:
    a, b, ai, bi = config
    return {"outer": {"a": list(a), "b": list(b)},
            "hole": {"a": list(ai), "b": list(bi)}}


def config_key(config) -> str:
    return ",".join(str(c) for point in config for c in point)


@contextlib.contextmanager
def capture_results(module, names):
    """Rebind module.<name> for each name to a shim that keeps the last
    value returned; the originals are put back on exit."""
    got = {}
    originals = {name: getattr(module, name) for name in names}

    def shim(name, fn):
        def call(*args, **kwargs):
            got[name] = fn(*args, **kwargs)
            return got[name]
        return call

    for name, fn in originals.items():
        setattr(module, name, shim(name, fn))
    try:
        yield got
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


class Workload:
    name = ""
    # Spans the traced run must see; one that never fires fails the run.
    spans: tuple[str, ...] = ()

    def prepare(self, rng):
        pass

    def stages(self, result):
        """The ``timings`` of the report an op returned, if it has one."""
        return None


class VerifyFrame(Workload):
    """One op: ``check_theorem`` on the 7x5 frame."""

    name = "verify_frame"
    spans = ("verify.check_theorem", "verify.quadratic_scan", "toric.toric_generators",
             "toric.saturate_generators", "toric.lattice_kernel", "binom.buchberger",
             "grid.build_rect_diff", "grid.enumerate_inner_minors",
             "labelling.build_label_map")

    def __init__(self, golden):
        self.golden = golden[self.name]

    def setup(self, pkg):
        self.pkg = pkg
        self.cfg = pkg.cli.instance_from_dict(FRAME)

    def stages(self, result):
        return result[0].timings

    def ops(self):
        return [self.cfg]

    def run_op(self, cfg):
        with capture_results(self.pkg.verify, ("toric_generators", "buchberger")) as got:
            report = self.pkg.verify.check_theorem(cfg)
        return report, got

    def check(self, cfg, result) -> bool:
        report, got = result
        return self.digests(report, got) == self.golden

    @staticmethod
    def digests(report, got) -> dict:
        body = report.to_json_dict()
        del body["timings"]
        return {
            "toric_basis": basis_digest(got["toric_generators"]),
            "minors_basis": basis_digest(got["buchberger"].elements),
            "report": sha256(json.dumps(body, sort_keys=True)),
        }


class OracleSweep(Workload):
    """One op: ``polytoric oracle`` on one configuration, through
    ``cli.main`` with stdout captured."""

    name = "oracle_sweep"
    spans = ("cli.main", "verify.quadratic_scan", "verify.kernel_binomials_up_to_degree",
             "toric.toric_generators", "toric.saturate_generators", "toric.lattice_kernel",
             "binom.buchberger", "binom.reduce", "grid.enumerate_inner_minors",
             "labelling.build_label_map")

    def __init__(self, golden, work_dir: Path):
        self.golden = golden[self.name]
        self.work_dir = work_dir

    def setup(self, pkg):
        self.pkg = pkg
        self.paths = {}
        for config in ORACLE_CONFIGS:
            path = self.work_dir / f"{config_key(config)}.json"
            path.write_text(json.dumps(instance_dict(config)))
            self.paths[config] = str(path)

    def prepare(self, rng):
        self.order = list(ORACLE_CONFIGS)
        rng.shuffle(self.order)

    def ops(self):
        return self.order

    def run_op(self, config):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.pkg.cli.main(["oracle", "--instance", self.paths[config]])
        return code, out.getvalue()

    def check(self, config, result) -> bool:
        return self.digest(result) == self.golden[config_key(config)]

    @staticmethod
    def digest(result) -> dict:
        code, stdout = result
        return {"exit_code": code, "stdout": sha256(stdout)}
