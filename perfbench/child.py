"""Benchmark-owned child process: the traced CLI request and the library session.

    python child.py cli --spans FILE <qfish CLI args>
    python child.py session [--spans FILE]

The qfish under test must be importable (the harness puts the built copy on
PYTHONPATH).  With ``--spans`` the public functions of each qfish module are
wrapped before the first call: every binding of the original object in every
loaded qfish module is replaced, so kernels are rebound at each import site
(``torus.mul``, ``fishburn.mul_trunc``, ``series.mul``, ...).  Spans (name,
start, end, parent, request id) are kept in memory and written to FILE at exit.

Session protocol: the child first prints one JSON line
``{"backend": ..., "import_s": ...}``, then answers each JSON request line
``{"call": name, "args": [...]}`` with one JSON line ``{"result": ...}`` or
``{"error": ...}`` until stdin closes.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

from stats import int64_lane, trunc_ops

# (module, attribute, span name).  A dotted attribute names a method; both
# __mul__ and its __rmul__ alias are rebound.
SPAN_TARGETS = [
    ("qfish.series", "IntSeries.__mul__", "series.IntSeries.mul"),
    ("qfish.series", "poly_divides", "series.poly_divides"),
    ("qfish.series", "invert_unit", "series.invert_unit"),
    ("qfish.qseries", "q_binomial", "qseries.q_binomial"),
    ("qfish.qseries", "pochhammer", "qseries.pochhammer"),
    ("qfish.qseries", "partial_theta", "qseries.partial_theta"),
    ("qfish.cyclotomic", "CycInt.__mul__", "cyclotomic.CycInt.mul"),
    ("qfish.cyclotomic", "cyc_eval", "cyclotomic.cyc_eval"),
    ("qfish.biseries", "BiAccumulator.add", "biseries.BiAccumulator.add"),
    ("qfish.torus", "kz_inner_sum", "torus.kz_inner_sum"),
    ("qfish.torus", "kz_full_polynomial", "torus.kz_full_polynomial"),
    ("qfish.torus", "colored_jones", "torus.colored_jones"),
    ("qfish.torus", "kz_at_root_of_unity", "torus.kz_at_root_of_unity"),
    ("qfish.torus", "H_multisum", "torus.H_multisum"),
    ("qfish.torus", "M_series", "torus.M_series"),
    ("qfish.torus", "a_n_t", "torus.a_n_t"),
    ("qfish.fishburn", "xi_series", "fishburn.xi_series"),
    ("qfish.fishburn", "divisibility_check", "fishburn.divisibility_check"),
    ("qfish.fishburn", "dissection", "fishburn.dissection"),
    ("qfish.fishburn", "verify_congruence", "fishburn.verify_congruence"),
    ("qfish.identities", "verify_difference_equation", "identities.verify_difference_equation"),
    ("qfish.identities", "verify_rewrite2", "identities.verify_rewrite2"),
    ("qfish.identities", "verify_key_identity", "identities.verify_key_identity"),
    ("qfish.identities", "verify_theta_product", "identities.verify_theta_product"),
    ("qfish.identities", "verify_slater", "identities.verify_slater"),
    ("qfish.identities", "verify_root_match", "identities.verify_root_match"),
    ("qfish.cli", "main", "cli.main"),
]

# (module, attribute, span name, whether the third argument truncates)
KERNEL_TARGETS = [
    ("qfish.backend", "mul", "backend.mul", False),
    ("qfish.backend", "mul_trunc", "backend.mul_trunc", True),
]

# Cross-call caches, read through cache_info() at the end of a request/session.
CACHE_TARGETS = [
    ("qfish.qseries", "_binom_cache", "cache.binom_entries"),
    ("qfish.fishburn", "_xi_cached", "cache.xi_entries"),
    ("qfish.torus", "a_n_t", "cache.a_n_t_entries"),
    ("qfish.cyclotomic", "_phi_coeffs", "cache.phi_entries"),
]


def _resolve(modname: str, attr: str):
    """(owner, object) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, leaf, None)
    return None if obj is None else (owner, obj)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.rid = array("i")
        self.stack: list = []
        self.request = 0
        self.counters = {
            "backend.mul.coef_ops": 0,
            "backend.mul_trunc.coef_ops": 0,
            "backend.int64_ops": 0,
            "backend.max_bits": 0,
            "torus.jvectors": 0,
        }
        self.caches: dict = {}
        self.cache_objs: dict = {}
        self.missing: list = []

    # -- wrappers --------------------------------------------------------------

    def span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, names, parent, rid, stack = (
            self.start, self.end, self.name, self.parent, self.rid, self.stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            rid.append(self.request)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def kernel(self, name: str, fn, truncates: bool):
        """Span plus operand statistics; the O(len) scan sits inside the span."""
        counters = self.counters
        ops_key = name + ".coef_ops"

        def counted(a, b, *rest):
            la, lb = len(a), len(b)
            ops = trunc_ops(la, lb, rest[0] if truncates else la + lb - 1)
            ma = max(map(abs, a), default=0)
            mb = max(map(abs, b), default=0)
            counters[ops_key] += ops
            if int64_lane(ma, mb, la, lb):
                counters["backend.int64_ops"] += ops
            bits = max(ma.bit_length(), mb.bit_length())
            if bits > counters["backend.max_bits"]:
                counters["backend.max_bits"] = bits
            return fn(a, b, *rest)

        return self.span(name, counted)

    def counting(self, key: str, gen_fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                counters[key] += 1
                yield item

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for modname, attr, key in CACHE_TARGETS:
            found = _resolve(modname, attr)
            if found and hasattr(found[1], "cache_info"):
                self.cache_objs[key] = found[1]
            else:
                self.missing.append(key)
        for modname, attr, name, truncates in KERNEL_TARGETS:
            self._replace(modname, attr, name, lambda fn, n=name, t=truncates: self.kernel(n, fn, t))
        for modname, attr, name in SPAN_TARGETS:
            self._replace(modname, attr, name, lambda fn, n=name: self.span(n, fn))
        self._replace("qfish.torus", "admissible_jvectors", "torus.jvectors",
                      lambda fn: self.counting("torus.jvectors", fn))

    def _replace(self, modname: str, attr: str, name: str, make) -> None:
        found = _resolve(modname, attr)
        if found is None:
            self.missing.append(name)
            return
        owner, orig = found
        wrapped = make(orig)
        if isinstance(owner, type):
            sites = [owner]
        else:
            sites = [m for k, m in list(sys.modules.items())
                     if m is not None and (k == "qfish" or k.startswith("qfish."))]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is orig:
                    setattr(site, key, wrapped)

    # -- output ----------------------------------------------------------------

    def snapshot_caches(self) -> None:
        for key, obj in self.cache_objs.items():
            self.caches[key] = max(self.caches.get(key, 0), obj.cache_info().currsize)

    def dump(self, path: str, extra: dict) -> None:
        header = {
            "names": self.names,
            "count": len(self.start),
            "counters": self.counters,
            "caches": self.caches,
            "missing": self.missing,
            **extra,
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.name, self.parent, self.rid):
                arr.tofile(f)


def read_spans(path: str):
    """(header, start, end, name ids, parents, request ids) from a dump."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        n = header["count"]
        out = []
        for code in "ddiii":
            arr = array(code)
            arr.fromfile(f, n)
            out.append(arr)
    return (header, *out)


def _jsonable(result):
    return result.as_dict() if hasattr(result, "as_dict") else list(result)


def run_cli(argv: list, spans: str) -> int:
    t0 = time.perf_counter()
    import qfish.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = qfish.cli.main(argv)
    except SystemExit as exc:  # argparse errors; the exit status is kept
        code = 0 if exc.code is None else exc.code
    sys.stdout.flush()
    tracer.snapshot_caches()
    tracer.dump(spans, {"import_s": import_s})
    return code if isinstance(code, int) else 1


def run_session(spans) -> int:
    t0 = time.perf_counter()
    import qfish

    import_s = time.perf_counter() - t0
    tracer = None
    if spans:
        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    out.write(json.dumps({"backend": qfish.backend_name(), "import_s": import_s}) + "\n")
    out.flush()
    for rid, line in enumerate(sys.stdin):
        req = json.loads(line)
        if tracer:
            tracer.request = rid
        name = req["call"]
        if name not in qfish.__all__:
            reply = {"error": f"unknown call {name!r}"}
        else:
            c0 = time.process_time()
            try:
                reply = {"result": _jsonable(getattr(qfish, name)(*req["args"]))}
            except Exception as exc:  # reported to the harness, which counts a failure
                reply = {"error": f"{type(exc).__name__}: {exc}"}
            reply["cpu_s"] = time.process_time() - c0
        out.write(json.dumps(reply) + "\n")
        out.flush()
    if tracer:
        tracer.snapshot_caches()
        tracer.dump(spans, {"import_s": import_s})
    return 0


def main() -> int:
    mode, *rest = sys.argv[1:] or [""]
    spans = None
    if rest[:1] == ["--spans"] and len(rest) >= 2:
        spans, rest = rest[1], rest[2:]
    if mode == "cli" and spans:
        return run_cli(rest, spans)
    if mode == "session" and not rest:
        return run_session(spans)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
