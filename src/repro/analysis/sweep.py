"""Parameter sweep helpers used by benches, examples and sharded runs."""

from __future__ import annotations

from typing import Callable, Iterable

_ANNOTATION = "sweep failed at value "


def _apply(fn: Callable, value):
    """Run one sweep point, annotating failures with the point.

    Submitted to pool workers as well, so a worker-side failure carries
    the identical annotation the in-process path produces.
    """
    try:
        return fn(value)
    except Exception as exc:  # pragma: no cover - diagnostic path
        raise RuntimeError(f"{_ANNOTATION}{value!r}: {exc}") from exc


def sweep(values: Iterable, fn: Callable,
          workers: int | None = None) -> list:
    """Apply ``fn`` over ``values`` and return (value, result) pairs.

    Trivial but keeps bench code declarative; failures annotate which
    sweep point raised.  ``workers=N`` fans the points out over a
    :class:`~concurrent.futures.ProcessPoolExecutor` — results come back
    in input order and failures carry the same annotation (the pool runs
    each point through the same ``_apply`` wrapper as the in-process
    path), so callers cannot tell the difference except in wall-clock.
    ``fn`` and the values must be picklable in that mode; the default
    (``workers=None`` or ``1``) stays in-process.  This is the
    library's one way to fan work out over processes.
    """
    values = list(values)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if workers is None or workers == 1 or len(values) <= 1:
        return [(value, _apply(fn, value)) for value in values]

    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(values))) as executor:
        futures = [executor.submit(_apply, fn, value) for value in values]
        results = []
        for value, future in zip(values, futures):
            try:
                results.append((value, future.result()))
            except Exception as exc:
                # points already in flight still run to completion before
                # the error surfaces; the rest never start
                executor.shutdown(wait=False, cancel_futures=True)
                if isinstance(exc, RuntimeError) \
                        and str(exc).startswith(_ANNOTATION):
                    raise  # _apply already annotated it in the worker
                # pool-level failures (broken pool, unpicklable fn) get
                # the same annotation the in-process path would produce
                raise RuntimeError(
                    f"{_ANNOTATION}{value!r}: {exc}") from exc
        return results
