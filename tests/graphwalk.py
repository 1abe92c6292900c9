"""Tape inspection for the test suite: the arrays a graph keeps alive and
the allocator peak of one forward plus backward.

Reads the tape only through each node's ``parents`` and the cells of its
backward closure, so it counts what the library actually retains rather
than what the library says it retains.
"""
import tracemalloc

import numpy as np


def base_array(array):
    """The array that owns ``array``'s memory."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def closure_arrays(node):
    """Arrays the backward closure of tape node ``node`` holds."""
    cells = node.backward.__closure__ if node.backward is not None else None
    return [c.cell_contents for c in cells or ()
            if isinstance(c.cell_contents, np.ndarray)]


def retained_arrays(loss, params):
    """Arrays a training graph keeps alive: walking the tape's nodes from
    ``loss``, the arrays each backward closure holds, deduplicated by base
    array, with the parameters left out. Nodes hold no data of their own,
    so a leaf's array counts where a closure reads it."""
    skip = {id(base_array(t.data)) for t in params.tensors.values()}
    root = loss._node
    seen, stack, bases = {id(root)}, [root], {}
    while stack:
        node = stack.pop()
        for array in closure_arrays(node):
            base = base_array(array)
            if id(base) not in skip:
                bases[id(base)] = base
        for p in node.parents or ():  # a released node has none
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return list(bases.values())


def retained_words(loss, params):
    """8-byte elements of ``retained_arrays``."""
    return sum(b.nbytes for b in retained_arrays(loss, params)) / 8


def step_peak(forward, params):
    """Run ``forward()`` (returning a scalar loss Tensor) and its
    ``backward()`` under ``tracemalloc``, which sees numpy's buffers.
    Returns (the forward's peak, the backward's peak, the bytes the graph
    retained before its backward); each peak is in bytes above the bytes
    traced on entry."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = forward()
        forward_peak = tracemalloc.get_traced_memory()[1] - start
        graph = retained_words(loss, params) * 8
        tracemalloc.reset_peak()
        loss.backward()
        backward_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return forward_peak, backward_peak, graph
