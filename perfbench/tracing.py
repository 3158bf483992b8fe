"""Spans and work counters recorded around the layers of `annealosc`.

`install()` replaces the public functions of the layer modules, and the
eigensolvers that `spectrum` and `evolve` call, with wrappers that record a
span (name, start, end, parent) and a few counters.  The program itself is
not changed: the wrappers sit on the module attributes that callers look
up.  Spans stay in memory until the run ends.  Pool workers forked by the
CLI inherit the wrappers; each worker writes the spans of a sweep chunk to
a file when the chunk ends, and the parent merges those files.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.pid = self.owner_pid = os.getpid()
        self.names: dict[str, int] = {}
        self.stack: list[int] = []
        self._reset(first_id=0)

    def _reset(self, first_id: int) -> None:
        self.next_id = first_id
        self.ids, self.parents = array("q"), array("q")
        self.name_ids, self.pids = array("i"), array("i")
        self.starts, self.ends = array("d"), array("d")
        self.counters: Counter = Counter()
        self.ladder: list[int] = []
        self.last_mid = 2.0
        self.chunk_seq = 0

    def name_id(self, name: str) -> int:
        return self.names.setdefault(name, len(self.names))

    def open(self) -> tuple[int, int, float]:
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent, _clock()

    def close(self, name: int, sid: int, parent: int, start: float) -> None:
        end = _clock()
        self.stack.pop()
        self.ids.append(sid)
        self.parents.append(parent)
        self.name_ids.append(name)
        self.pids.append(self.pid)
        self.starts.append(start)
        self.ends.append(end)

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            sid, parent, start = self.open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(nid, sid, parent, start)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    # ------------------------------------------------------ pool workers

    def enter_worker(self) -> None:
        """Forked worker: drop the spans copied from the parent, keep the
        inherited stack so chunk spans point at the parent's sweep span."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self._reset(first_id=self.pid << 32)

    def dump_worker(self) -> None:
        seq = self.chunk_seq + 1
        self.write(self.worker_dir / f"worker-{self.pid}-{seq}.npz")
        self._reset(first_id=self.next_id)
        self.chunk_seq = seq

    def write(self, path: Path) -> None:
        """Spans as columns of an .npz file: id, parent (-1 for a root), name
        (index into names), pid, start, end (perf_counter seconds), plus the
        counters as a JSON string."""
        np.savez(path, names=np.array(list(self.names), str),
                 id=np.array(self.ids, np.int64), parent=np.array(self.parents, np.int64),
                 name=np.array(self.name_ids, np.int32), pid=np.array(self.pids, np.int32),
                 start=np.array(self.starts, float), end=np.array(self.ends, float),
                 counters=np.array(json.dumps(dict(self.counters))))

    def merge_workers(self) -> None:
        for path in sorted(self.worker_dir.glob("worker-*.npz")):
            with np.load(path) as data:
                remap = np.array([self.name_id(n) for n in data["names"].tolist()], np.int32)
                self.ids.extend(data["id"].tolist())
                self.parents.extend(data["parent"].tolist())
                self.name_ids.extend(remap[data["name"]].tolist())
                self.pids.extend(data["pid"].tolist())
                self.starts.extend(data["start"].tolist())
                self.ends.extend(data["end"].tolist())
                self.counters.update(json.loads(str(data["counters"])))
            path.unlink()

    # ------------------------------------------------------------ metrics

    def metrics(self, rounds: int, pool_workers: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per round (ratios are not divided)."""
        names = {i: n for n, i in self.names.items()}
        name = np.array([names[i] for i in self.name_ids]) if len(self.name_ids) else np.array([], str)
        dur = np.array(self.ends, float) - np.array(self.starts, float)
        ids = np.array(self.ids, np.int64)
        parents = np.array(self.parents, np.int64)
        c = self.counters

        def total(*ns):
            return float(dur[np.isin(name, ns)].sum())

        def count(*ns):
            return int(np.isin(name, ns).sum())

        sweep = name == "evolve.tau_sweep"
        child_time = dict.fromkeys(ids[sweep].tolist(), 0.0)
        for p, d in zip(parents.tolist(), dur.tolist()):
            if p in child_time:
                child_time[p] += d
        sweep_self = float(dur[sweep].sum()) - sum(child_time.values())

        fit_ids = set(ids[np.isin(name, ["fit.fit_A", "fit.fit_A_v"])].tolist())
        objective = int(np.isin(parents[name == "predict.predict_split"],
                                list(fit_ids)).sum()) if fit_ids else 0

        rsc = total("cli.run_sweep_config")
        busy = total("cli.chunk")
        r = float(rounds)
        m = {
            "models.bands_calls": (count("models.tridiagonal_bands", "models.hamiltonian_at") / r, "count"),
            "models.bands_s": (total("models.tridiagonal_bands", "models.hamiltonian_at") / r, "s"),
            "spectrum.gap_trace_s": (total("spectrum.gap_trace") / r, "s"),
            "spectrum.locate_crossing_s": (total("spectrum.locate_crossing") / r, "s"),
            "spectrum.gap_at_calls": (count("spectrum.gap_at") / r, "count"),
            "spectrum.eig_calls": (count("spectrum.eig") / r, "count"),
            "evolve.tau_sweep_s": (sweep_self / r, "s"),
            "evolve.eig_s": (total("evolve.eig") / r, "s"),
            "evolve.eig_matrices": (c["evolve.eig_matrices"] / r, "count"),
            "evolve.levels": (c["evolve.levels"] / r, "count"),
            "evolve.accepted_substeps": (c["evolve.accepted_substeps"] / r, "count"),
            "evolve.ladder_useful_ratio": (
                c["evolve.accepted_substeps"] / c["evolve.eig_matrices"]
                if c["evolve.eig_matrices"] else 0.0, "ratio"),
            "predict.predict_split_s": (total("predict.predict_split") / r, "s"),
            "fit.fit_A_s": (total("fit.fit_A") / r, "s"),
            "fit.fit_A_v_s": (total("fit.fit_A_v") / r, "s"),
            "fit.objective_evals": (objective / r, "count"),
            "cli.run_sweep_config_s": (rsc / r, "s"),
            "cli.write_s": (total("cli.write") / r, "s"),
            "cli.chunks": (count("cli.chunk") / r, "count"),
            "cli.bytes_written": (c["cli.bytes_written"] / r, "bytes"),
            "cli.worker_busy_s": (busy / r, "s"),
            "cli.pool_utilization": (busy / (pool_workers * rsc) if rsc and pool_workers else 0.0,
                                     "ratio"),
        }
        return m


# ------------------------------------------------------------ hooks

def _sweep_begin(tr: Tracer, args) -> None:
    tr.ladder = []
    tr.last_mid = 2.0


def _sweep_end(tr: Tracer, args, result) -> None:
    if tr.ladder:
        tr.counters["evolve.levels"] += len(tr.ladder)
        tr.counters["evolve.accepted_substeps"] += tr.ladder[-1]
    tr.ladder = []


def _midpoint(tr: Tracer, args) -> None:
    # midpoints of one doubling level increase; a drop starts the next level
    s = float(args[1])
    if s <= tr.last_mid:
        tr.ladder.append(0)
    tr.last_mid = s


def _one_matrix(tr: Tracer, args) -> None:
    tr.counters["evolve.eig_matrices"] += 1
    if tr.ladder:
        tr.ladder[-1] += 1


def _batched_matrices(tr: Tracer, args) -> None:
    h = args[0]
    k = h.shape[0] if np.ndim(h) == 3 else 1
    tr.counters["evolve.eig_matrices"] += k
    tr.ladder.append(k)


def _count_bytes(tr: Tracer, args, result) -> None:
    tr.counters["cli.bytes_written"] += os.path.getsize(args[0])


class _Proxy:
    """Module stand-in that forwards every attribute except the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


def install(worker_dir: Path) -> tuple[Tracer, Callable[[], None]]:
    """Wrap the layer functions; returns the tracer and an undo function."""
    from annealosc import cli, evolve, fit, models, predict, spectrum

    tr = Tracer(worker_dir)
    saved = []

    def patch(module, attr, wrapper):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap_everywhere(modules, attr, name, **hooks):
        w = tr.wrap(name, getattr(modules[0], attr), **hooks)
        for mod in modules:
            patch(mod, attr, w)

    wrap_everywhere([models, spectrum], "tridiagonal_bands", "models.tridiagonal_bands")
    wrap_everywhere([models, spectrum], "hamiltonian_at", "models.hamiltonian_at")
    # evolve's own references mark the start of each doubling level
    wrap_everywhere([evolve], "tridiagonal_bands", "models.tridiagonal_bands", before=_midpoint)
    wrap_everywhere([evolve], "hamiltonian_at", "models.hamiltonian_at", before=_midpoint)

    wrap_everywhere([spectrum, cli], "gap_trace", "spectrum.gap_trace")
    wrap_everywhere([spectrum, cli], "locate_crossing", "spectrum.locate_crossing")
    wrap_everywhere([spectrum], "gap_at", "spectrum.gap_at")
    wrap_everywhere([spectrum], "eigh", "spectrum.eig")
    wrap_everywhere([spectrum], "eigh_tridiagonal", "spectrum.eig")

    wrap_everywhere([evolve, cli], "tau_sweep", "evolve.tau_sweep",
                    before=_sweep_begin, after=_sweep_end)
    wrap_everywhere([evolve], "eigh", "evolve.eig", before=_one_matrix)
    wrap_everywhere([evolve], "eigh_tridiagonal", "evolve.eig", before=_one_matrix)
    linalg = _Proxy(np.linalg, eigh=tr.wrap("evolve.eig", np.linalg.eigh,
                                            before=_batched_matrices))
    patch(evolve, "np", _Proxy(np, linalg=linalg))

    wrap_everywhere([predict, fit, cli], "predict_split", "predict.predict_split")
    wrap_everywhere([fit, cli], "fit_A", "fit.fit_A")
    wrap_everywhere([fit, cli], "fit_A_v", "fit.fit_A_v")

    wrap_everywhere([cli], "run_sweep_config", "cli.run_sweep_config")
    wrap_everywhere([cli], "write_csv", "cli.write", after=_count_bytes)
    wrap_everywhere([cli], "write_json", "cli.write", after=_count_bytes)
    chunk = tr.wrap("cli.chunk", cli._sweep_chunk)

    @functools.wraps(cli._sweep_chunk)
    def traced_chunk(*args):
        tr.enter_worker()
        try:
            return chunk(*args)
        finally:
            if os.getpid() != tr.owner_pid:
                tr.dump_worker()

    patch(cli, "_sweep_chunk", traced_chunk)

    def undo():
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)

    return tr, undo
