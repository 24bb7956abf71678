"""Run a production flow's own code on the reference engines."""

from __future__ import annotations

import functools
import types
from typing import Any, Callable


def _names(code: types.CodeType) -> set[str]:
    """Every name ``code`` and the functions nested in it look up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def rebind(function: Callable[..., Any], **engines: Any) -> Callable[..., Any]:
    """``function`` with the module globals named in ``engines`` bound
    to the given objects instead.

    A flow such as :func:`repro.circuit.sram_array.loaded_read_snm`
    only threads its inputs through an engine call, so its reference
    twin is the same code with the engine swapped: the flow logic
    stays single-sourced and the parity test isolates the engine.
    The globals are copied when the twin is made, so later rebinding
    of the production module's names does not reach the twin.
    """
    unknown = sorted(set(engines) - _names(function.__code__))
    if unknown:
        raise NameError(f"{function.__qualname__} does not use {unknown}")
    twin = types.FunctionType(function.__code__,
                              {**function.__globals__, **engines},
                              function.__name__, function.__defaults__,
                              function.__closure__)
    twin.__kwdefaults__ = function.__kwdefaults__
    return functools.update_wrapper(twin, function)
