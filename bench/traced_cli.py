"""Run one ``csocnn`` command with a span around every public function.

Usage: python bench/traced_cli.py SPANS_JSON CLI_ARG...

Wraps each public function and public method defined in a ``csocnn``
module, replacing every name that refers to it in every ``csocnn`` module,
because modules import each other's functions by name (``trainer.forward``
is ``nn.forward``). Spans are kept in memory and written to SPANS_JSON when
the command ends. A span is ``[id, parent_id, name, start_s, end_s, info]``;
``info`` holds batch rows, cache bytes, result rows or the exception raised,
where the function has them.
"""

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time

import numpy as np


class Recorder:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count()

    def wrap(self, name, fn):
        annotate = _ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            info = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info["error"] = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, parent, name, t0, t1, info])
            if annotate is not None:
                annotate(info, args, kwargs, result)
            return result

        return traced


def _array_bytes(obj, seen):
    """Bytes of the distinct buffers behind the arrays in a nested cache."""
    if isinstance(obj, np.ndarray):
        root = obj
        while isinstance(root.base, np.ndarray):
            root = root.base
        if id(root) in seen:
            return 0
        seen.add(id(root))
        return root.nbytes
    if isinstance(obj, dict):
        return sum(_array_bytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    return 0


def _forward_info(info, args, kwargs, result):
    network, batch = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    info["mode"] = mode or network.mode
    info["rows"] = int(np.shape(batch)[0])
    info["cache_bytes"] = _array_bytes(result[1]["layers"], set())


def _rows_info(info, args, kwargs, result):
    info["rows"] = len(result)


_ANNOTATE = {
    "nn.forward": _forward_info,
    "data.load_csv": _rows_info,
}


def _public_callables(module):
    """(qualified name, owner, attribute, function) for each public function
    and public method defined in module."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield f"{short}.{attr}", module, attr, value
        elif inspect.isclass(value):
            for meth, member in list(vars(value).items()):
                if meth.startswith("_"):
                    continue
                if inspect.isfunction(member) or isinstance(member, classmethod):
                    yield f"{short}.{attr}.{meth}", value, meth, member


def install(recorder):
    """Wrap csocnn's public callables and rebind every name for them."""
    import csocnn

    modules = [importlib.import_module(f"csocnn.{m.name}")
               for m in pkgutil.iter_modules(csocnn.__path__)]
    wrappers = {}  # id of the original function -> its wrapper
    for module in modules:
        for name, owner, attr, member in _public_callables(module):
            if isinstance(member, classmethod):
                setattr(owner, attr, classmethod(
                    recorder.wrap(name, member.__func__)))
            else:
                wrappers[id(member)] = recorder.wrap(name, member)
                setattr(owner, attr, wrappers[id(member)])
    # Rebind every by-name import of a wrapped function.
    for module in modules:
        for attr, value in list(vars(module).items()):
            wrapped = wrappers.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from csocnn import cli

    t0 = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        t1 = time.perf_counter()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"wall": [t0, t1], "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
