"""The LHT naming function and its companions (paper Definitions 1-3).

These four pure functions over :class:`~repro.core.label.Label` are the
technical core of LHT:

* :func:`naming` — ``f_n`` (Def. 1): maps every leaf label bijectively to an
  internal-node label by truncating the trailing run of the final bit.  The
  result is the *DHT key* under which the leaf bucket is stored.
* :func:`next_naming` — ``f_nn`` (Def. 2): given a probed prefix ``x`` of the
  lookup path ``μ``, skips forward past all longer prefixes that share
  ``f_n(x)`` as their name (they need not be probed twice).
* :func:`right_neighbor` / :func:`left_neighbor` — ``f_rn`` / ``f_ln``
  (Def. 3): the nearest right/left *branch node*, used to sweep a range
  query across adjacent neighboring subtrees.

``f_n`` and ``f_nn`` are prefix arithmetic on a label's bit string, so
each is stated once, as a ``str`` kernel (:func:`naming_bits`,
:func:`next_naming_depth`); :func:`naming` and :func:`next_naming` wrap
them for ``Label`` callers, and the lookup binary search (Alg. 2) calls
the kernels directly so that its probes build no ``Label``.

Also provided are the inverses of ``f_n`` (which leaf is stored under a
given internal-node name — Theorem 1's constructive content) and the LCA
computation used by the general range-forwarding algorithm (Alg. 4).
"""

from __future__ import annotations

from repro.core.label import Label, VIRTUAL_ROOT
from repro.errors import LabelError

__all__ = [
    "naming",
    "naming_bits",
    "next_naming",
    "next_naming_depth",
    "right_neighbor",
    "left_neighbor",
    "leaf_named_by",
    "rightmost_leaf_key",
    "leftmost_leaf_key",
    "lca_label",
]


def naming_bits(bits: str) -> str:
    """``f_n`` on a non-empty bit string: strip the trailing run of its
    final bit (``"01100"`` → ``"011"``, ``"0000"`` → ``""``)."""
    return bits.rstrip(bits[-1])


def next_naming_depth(mu: str, depth: int) -> int:
    """``f_nn`` on bit strings: the depth of ``f_nn(mu[:depth], mu)``.

    That is the length of the shortest prefix of ``mu`` longer than
    ``depth`` whose final bit differs from ``mu[depth - 1]`` (from ``0``
    for the virtual root, ``depth == 0``).  Returns 0 — never the depth
    of a next name, which extends a prefix — when every remaining bit of
    ``mu`` repeats that bit.
    """
    other = "1" if depth == 0 or mu[depth - 1] == "0" else "0"
    return mu.find(other, depth) + 1


def naming(label: Label) -> Label:
    """The naming function ``f_n`` (paper Definition 1).

    Truncates the trailing run of the label's final bit::

        f_n(#01100) = #011     f_n(#01011) = #010
        f_n(#01111) = #0       f_n(#0000)  = #      f_n(#0) = #

    For a leaf label the result is the label of a distinct internal node
    (Theorem 1 proves ``f_n`` is a bijection from leaves to internal nodes,
    the virtual root included), and it is the DHT key the leaf bucket is
    stored under.

    Raises:
        LabelError: if applied to the virtual root, which has no bits to
            truncate (the virtual root is never a leaf).
    """
    if label.is_virtual_root:
        raise LabelError("f_n is undefined on the virtual root")
    return Label(naming_bits(label.bits))


def next_naming(x: Label, mu: Label) -> Label:
    """The next-naming function ``f_nn(x, μ)`` (paper Definition 2).

    ``x`` must be a proper prefix of the lookup path ``μ``.  Returns the
    shortest prefix of ``μ`` that extends ``x`` and ends with a bit
    *different* from ``x``'s final bit.  All prefixes strictly between
    ``x`` and the result share the DHT name ``f_n(x)`` and therefore never
    need a second probe during the lookup binary search.

    Example::

        f_nn(#0011, #0011100) = #001110

    Raises:
        LabelError: if ``x`` is not a proper prefix of ``μ``, or if every
            remaining bit of ``μ`` equals ``x``'s final bit (no next name
            exists along this path).
    """
    if not x.is_proper_prefix_of(mu):
        raise LabelError(f"{x} is not a proper prefix of {mu}")
    depth = next_naming_depth(mu.bits, x.depth)
    if not depth:
        raise LabelError(f"no next name: {mu} continues {x} with identical bits")
    return Label(mu.bits[:depth])


def right_neighbor(x: Label) -> Label:
    """The right-neighbor function ``f_rn`` (paper Definition 3).

    Returns the label of the nearest branch node to the right of ``x`` —
    the root of the adjacent subtree covering the interval immediately
    right of ``x``'s.  Nodes of the form ``#01*`` touch the right edge of
    the data space and are mapped to themselves.

    Implementation: strip the trailing run of ``1`` bits, then flip the
    exposed final ``0`` to ``1``::

        f_rn(#000) = #001      f_rn(#001) = #01      f_rn(#0111) = #0111
    """
    if x.on_rightmost_spine:
        return x
    trimmed = x.bits.rstrip("1")
    # ``trimmed`` ends with a 0 that is not the virtual-root edge, because
    # x is not on the rightmost spine.
    return Label(trimmed[:-1] + "1")


def left_neighbor(x: Label) -> Label:
    """The left-neighbor function ``f_ln`` (paper Definition 3).

    Mirror image of :func:`right_neighbor`: strip trailing ``0`` bits and
    flip the exposed final ``1`` to ``0``.  Nodes of the form ``#00*``
    touch the left edge of the data space and are mapped to themselves.
    """
    if x.on_leftmost_spine:
        return x
    trimmed = x.bits.rstrip("0")
    return Label(trimmed[:-1] + "0")


def leaf_named_by(omega: Label, leaf_depths: dict[Label, int] | None = None) -> str:
    """Describe which leaf the internal node ``omega`` names (Theorem 1).

    This is documentation-as-code for the bijection proof: the unique leaf
    stored under DHT key ``omega`` is

    * the *rightmost* leaf of ``omega``'s subtree (``omega`` + ``1…1``)
      when ``omega`` ends with ``0``;
    * the *leftmost* leaf of ``omega``'s subtree (``omega`` + ``0…0``)
      when ``omega`` ends with ``1`` or is the virtual root.

    The exact leaf depth depends on the live tree, so this returns the
    direction as a string (``"rightmost"`` or ``"leftmost"``); the query
    algorithms only ever need the direction.
    """
    del leaf_depths  # direction is independent of the live tree shape
    if omega.is_virtual_root or omega.last_bit == "1":
        return "leftmost"
    return "rightmost"


def rightmost_leaf_key(subtree: Label) -> Label:
    """DHT key of the rightmost leaf in the subtree rooted at ``subtree``.

    The rightmost leaf has label ``subtree`` + ``1…1``; stripping the
    trailing ``1`` run shows its name is ``f_n`` of the subtree label when
    the label ends with ``1``, and the subtree label itself when it ends
    with ``0``.  (If the subtree root is itself a leaf, the same key is
    correct — its bucket is stored under ``f_n`` of its own label, which
    this computes.)
    """
    if subtree.is_virtual_root:
        return naming(Label("0"))  # rightmost leaf of the whole tree -> #0's name
    if subtree.last_bit == "1":
        return naming(subtree)
    return subtree


def leftmost_leaf_key(subtree: Label) -> Label:
    """DHT key of the leftmost leaf in the subtree rooted at ``subtree``.

    Mirror of :func:`rightmost_leaf_key`: the leftmost leaf is ``subtree``
    + ``0…0``, named ``f_n(subtree)`` when the label ends with ``0`` (or is
    the virtual root), and ``subtree`` itself when it ends with ``1``.
    """
    if subtree.is_virtual_root or subtree.last_bit == "0":
        return naming(subtree) if not subtree.is_virtual_root else VIRTUAL_ROOT
    return subtree


def lca_label(lo_path: Label, hi_path: Label) -> Label:
    """Lowest common ancestor of two lookup paths (Alg. 4, line 1).

    Given the binary paths of a range's two bounds, returns the deepest
    label that is a prefix of both — the root of the smallest subtree whose
    interval contains the whole range.
    """
    a, b = lo_path.bits, hi_path.bits
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return Label(a[:common])
