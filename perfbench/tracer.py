"""Per-layer tracing of gridstore, installed from outside the package.

Each target is a module-level function of a gridstore module.  Installing
the tracer replaces every reference to a target in the loaded gridstore
modules with a wrapper that counts calls and measures total and self
time; uninstalling restores the originals.  Self time is a call's
duration minus the time of traced calls it made on the same thread.

A target that no longer exists (a later refactor removed or renamed it)
is listed in ``absent`` and reads as zero calls; it raises no error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# Functions wrapped in the traced run, per gridstore module.  Keys of the
# recorded statistics are "<module>.<function>".
TARGETS = {
    "model": ("validate_scenario",),
    "cgt": ("best_response_cgt", "enumerate_bne"),
    "pt": ("expected_pt_utility_scalar", "expected_pt_utility_grid"),
    "solver": ("grid_best_response", "iterate_best_response"),
    "cli": ("run",),
}

SOLVE = "solver.iterate_best_response"
BEST_RESPONSES = ("solver.grid_best_response", "cgt.best_response_cgt")
# Keys whose individual durations are kept for percentiles; the others
# run millions of times per pass and keep only sums.
KEEP_DURATIONS = {SOLVE, "solver.grid_best_response"}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "in_solve", "durations")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.in_solve = 0
        self.durations: list[float] = []


class Tracer:
    def __init__(self, modules=tuple(TARGETS)):
        self.modules = modules
        self.stats = {f"{m}.{f}": Stat() for m in modules for f in TARGETS[m]}
        self.absent: list[str] = []
        self.rounds: list[int] = []
        self.nonconverged = 0
        self.cycles = 0
        self.solve_threads: set[int] = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # --- installation -------------------------------------------------

    def install(self) -> None:
        for mod_name in self.modules:
            try:
                module = importlib.import_module(f"gridstore.{mod_name}")
            except ImportError:
                module = None
            for fn_name in TARGETS[mod_name]:
                key = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name, None)
                if not callable(original):
                    self.absent.append(key)
                    continue
                self._replace(original, self._wrap(key, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gridstore" or name.startswith("gridstore.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    # --- recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn):
        stat = self.stats[key]
        keep = key in KEEP_DURATIONS
        is_solve = key == SOLVE
        is_br = key in BEST_RESPONSES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            nested_in_solve = is_br and any(f[0] == SOLVE for f in stack)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            result = None
            raised = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                raised = exc
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    stat.calls += 1
                    stat.total_s += dt
                    stat.self_s += dt - frame[1]
                    if nested_in_solve:
                        stat.in_solve += 1
                    if keep:
                        stat.durations.append(dt)
                    if is_solve:
                        self._record_solve(result, raised)

        return wrapper

    def _record_solve(self, result, raised) -> None:
        self.solve_threads.add(threading.get_ident())
        if raised is not None:
            if type(raised).__name__ == "CycleDetected":
                self.cycles += 1
            return
        rounds = getattr(result, "iterations", None)
        if rounds is not None:
            self.rounds.append(int(rounds))
        if getattr(result, "converged", True) is False:
            self.nonconverged += 1

    # --- snapshots ----------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data copy of everything recorded so far."""
        with self._lock:
            return {
                "stats": {
                    k: {
                        "calls": s.calls,
                        "total_s": s.total_s,
                        "self_s": s.self_s,
                        "in_solve": s.in_solve,
                        "durations": list(s.durations),
                    }
                    for k, s in self.stats.items()
                },
                "rounds": list(self.rounds),
                "nonconverged": self.nonconverged,
                "cycles": self.cycles,
                "solve_threads": len(self.solve_threads),
                "absent": list(self.absent),
            }


def diff(after: dict, before: dict) -> dict:
    """What was recorded between two snapshots of one tracer."""
    stats = {}
    for key, a in after["stats"].items():
        b = before["stats"][key]
        stats[key] = {
            "calls": a["calls"] - b["calls"],
            "total_s": a["total_s"] - b["total_s"],
            "self_s": a["self_s"] - b["self_s"],
            "in_solve": a["in_solve"] - b["in_solve"],
            "durations": a["durations"][len(b["durations"]):],
        }
    return {
        "stats": stats,
        "rounds": after["rounds"][len(before["rounds"]):],
        "nonconverged": after["nonconverged"] - before["nonconverged"],
        "cycles": after["cycles"] - before["cycles"],
        "solve_threads": after["solve_threads"],
        "absent": after["absent"],
    }


def merge(parts: list[dict]) -> dict:
    """Sum snapshots taken in separate processes (one per CLI launch)."""
    out = {
        "stats": {},
        "rounds": [],
        "nonconverged": 0,
        "cycles": 0,
        "solve_threads": 0,
        "absent": [],
    }
    for part in parts:
        for key, s in part["stats"].items():
            acc = out["stats"].setdefault(
                key, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "in_solve": 0, "durations": []}
            )
            for field in ("calls", "total_s", "self_s", "in_solve"):
                acc[field] += s[field]
            acc["durations"].extend(s["durations"])
        out["rounds"].extend(part["rounds"])
        out["nonconverged"] += part["nonconverged"]
        out["cycles"] += part["cycles"]
        out["solve_threads"] = max(out["solve_threads"], part["solve_threads"])
        out["absent"] = sorted(set(out["absent"]) | set(part["absent"]))
    return out
