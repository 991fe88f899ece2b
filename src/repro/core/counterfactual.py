"""Counterfactual data augmentation (Section III-D).

For every node ``v`` and every pseudo-sensitive attribute ``i``, find the
top-K nodes that

* share ``v``'s (pseudo-)label — counterfactuals must be label-consistent,
* differ from ``v`` in the binarized attribute ``i`` — they describe "the
  same kind of node, other group", and
* are nearest to ``v`` in the GNN representation space (Eq. 12, L2).

Searching *real* nodes instead of perturbing features sidesteps the
non-realistic counterfactual problem the paper raises against NIFTY/GEAR:
every counterfactual returned here is an observed, plausible configuration.

The nearest-neighbour ranking is delegated to a pluggable backend
(:mod:`repro.core.ann`): ``backend="exact"`` is the original O(N²) scan and
stays the oracle; ``backend="ann"`` queries a random-projection forest,
dropping the search to roughly O(N log N) so the fine-tune phase scales past
~10k nodes.  An approximate backend may miss a node's counterfactuals
entirely; such nodes are reported as invalid (they self-point and
contribute nothing to the fair loss), which the recall property tests bound.

Two search shapes share the result writing:

* the forest ranks each query node once per search — its candidates and
  their order do not depend on the attribute — and every attribute keeps
  the first K same-label, opposite-side entries of that one ranking;
* every other backend (exact, exhaustive probing, custom objects) answers
  one ``topk`` call per (label, attribute, side) bucket.  Exact ranking
  stays per bucket because its per-call GEMM rounding is what the golden
  results pin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ann import AnnBackend, first_k_eligible, make_backend

__all__ = ["CounterfactualIndex", "CounterfactualSearch"]


@dataclass
class CounterfactualIndex:
    """Result of one search.

    Attributes
    ----------
    indices:
        ``(I, N, K)`` int array; ``indices[i, v, k]`` is the node id of the
        k-th counterfactual of node ``v`` for pseudo-sensitive attribute
        ``i``.  Nodes with no valid counterfactual point at themselves.
    valid:
        ``(I, N)`` boolean; False where no counterfactual exists (the node's
        label/attribute combination has no opposite-attribute peers, or an
        approximate backend found none).
    """

    indices: np.ndarray
    valid: np.ndarray

    @property
    def num_attributes(self) -> int:
        """Number of pseudo-sensitive attributes I."""
        return self.indices.shape[0]

    @property
    def top_k(self) -> int:
        """Counterfactuals per node K."""
        return self.indices.shape[2]

    def coverage(self) -> float:
        """Fraction of (attribute, node) pairs with a valid counterfactual."""
        return float(self.valid.mean())


class CounterfactualSearch:
    """Top-K nearest-neighbour counterfactual finder (Eq. 12).

    Parameters
    ----------
    top_k:
        Number of counterfactuals per (node, attribute) pair — the paper's K.
    backend:
        ``"exact"`` (default, the brute-force oracle), ``"ann"`` (random-
        projection forest, approximate) or any object exposing
        ``prepare(points)`` / ``topk(query_ids, candidate_ids, k)``.
    backend_options:
        Keyword options forwarded to the backend constructor (e.g.
        ``{"num_trees": 12, "probes": 4, "seed": 0}`` for ``"ann"``).
        The ANN backend also accepts the maintenance policy here —
        ``{"update": "incremental", "drift_threshold": ..., "rebuild_frac":
        ...}`` makes every :meth:`search` *maintain* the standing forest
        (re-routing only drifted points) instead of rebuilding it; see
        :class:`repro.core.ann.AnnBackend` and
        :meth:`repro.core.ann.RPForestIndex.update`.
    """

    def __init__(
        self,
        top_k: int,
        backend="exact",
        backend_options: dict | None = None,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.backend = make_backend(backend, **(backend_options or {}))

    def search(
        self,
        representations: np.ndarray,
        pseudo_labels: np.ndarray,
        binary_attributes: np.ndarray,
        nodes: np.ndarray | None = None,
    ) -> CounterfactualIndex:
        """Find counterfactuals for every node and attribute.

        Parameters
        ----------
        representations:
            ``(N, d)`` node representations ``h`` from the GNN classifier.
        pseudo_labels:
            ``(N,)`` integer labels (model predictions for unlabelled nodes).
        binary_attributes:
            ``(N, I)`` 0/1 pseudo-sensitive attribute matrix.
        nodes:
            Optional subset of node ids to act as *queries*.  Candidates
            still come from the full node set, so restricting queries
            changes nothing about which counterfactuals a node gets — it
            only skips work for nodes outside the subset (their rows stay
            self-pointing and invalid).  The serving path uses this to
            retrieve counterfactuals for a scored batch without ranking
            every node.
        """
        # Handed to the backend as given: the forest keeps float32 points
        # in float32, and the built-in backends rank in float64.
        representations = np.asarray(representations)
        pseudo_labels = np.asarray(pseudo_labels, dtype=np.int64)
        binary_attributes = np.asarray(binary_attributes)
        n, _ = representations.shape
        if pseudo_labels.shape != (n,):
            raise ValueError("pseudo_labels shape mismatch")
        if binary_attributes.shape[0] != n:
            raise ValueError("binary_attributes row mismatch")
        num_attrs = binary_attributes.shape[1]
        if nodes is None:
            nodes = np.arange(n, dtype=np.int64)
        else:
            nodes = np.unique(np.asarray(nodes, dtype=np.int64))
            if nodes.size and (nodes[0] < 0 or nodes[-1] >= n):
                raise ValueError("nodes ids out of range")

        indices = np.tile(np.arange(n, dtype=np.int64)[:, None], (num_attrs, 1, 1))
        indices = indices.reshape(num_attrs, n, 1).repeat(self.top_k, axis=2)
        valid = np.zeros((num_attrs, n), dtype=bool)
        # (I, N) side-1 flags, one contiguous row per attribute.
        sides = np.ascontiguousarray((binary_attributes == 1).T)

        self.backend.prepare(representations)
        if isinstance(self.backend, AnnBackend) and not self.backend.exhaustive:
            self._search_ranked(nodes, pseudo_labels, sides, indices, valid)
        else:
            self._search_buckets(nodes, pseudo_labels, sides, indices, valid)
        return CounterfactualIndex(indices=indices, valid=valid)

    # ------------------------------------------------------------------ #
    def _search_ranked(
        self,
        nodes: np.ndarray,
        pseudo_labels: np.ndarray,
        sides: np.ndarray,
        indices: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """One forest ranking per query node, filtered per attribute.

        Each attribute keeps the first K entries of the shared ranking that
        share the query's label and sit on the other side of the attribute —
        exactly what a masked query over that bucket returns, because
        filtering keeps the surviving entries in rank order.
        """
        for ids, ranking in self.backend.rankings(nodes):
            same_label = (ranking >= 0) & (
                pseudo_labels[ranking] == pseudo_labels[ids][:, None]
            )
            for attr, side in enumerate(sides):
                eligible = same_label & (side[ranking] != side[ids][:, None])
                found = first_k_eligible(ranking, eligible, self.top_k)
                self._write(ids, found, indices, valid, attr)

    def _search_buckets(
        self,
        nodes: np.ndarray,
        pseudo_labels: np.ndarray,
        sides: np.ndarray,
        indices: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """One backend ``topk`` call per (label, attribute, side) bucket."""
        is_query = np.zeros(pseudo_labels.shape[0], dtype=bool)
        is_query[nodes] = True
        for label in np.unique(pseudo_labels):
            class_members = np.where(pseudo_labels == label)[0]
            if class_members.size < 2:
                continue
            for attr, side in enumerate(sides):
                side1 = side[class_members]
                group_a = class_members[~side1]
                group_b = class_members[side1]
                if group_a.size == 0 or group_b.size == 0:
                    continue
                for group, candidates in ((group_a, group_b), (group_b, group_a)):
                    queries = group[is_query[group]]
                    if queries.size:
                        found = self.backend.topk(queries, candidates, self.top_k)
                        self._write(queries, found, indices, valid, attr)

    def _write(
        self,
        queries: np.ndarray,
        found: np.ndarray,
        indices: np.ndarray,
        valid: np.ndarray,
        attr: int,
    ) -> None:
        """Store each query's counterfactuals for ``attr``.

        ``found`` holds up to ``top_k`` candidate ids per query (an
        approximate backend right-pads misses with ``-1``).  Rows with at
        least one hit cycle their hits to fill all K slots (fewer real
        candidates than K means repeating the available ones, as in the
        paper's K > bucket-size corner); rows with no hit stay self-pointing
        and invalid.
        """
        found = np.asarray(found)
        counts = (found >= 0).sum(axis=1)
        rows = np.flatnonzero(counts)
        if rows.size == 0:
            return
        cols = np.arange(self.top_k)[None, :] % counts[rows][:, None]
        indices[attr, queries[rows], :] = found[rows[:, None], cols]
        valid[attr, queries[rows]] = True
