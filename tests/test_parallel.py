"""Multiprocess sampler workers (repro.training.parallel).

The headline contract is *bit-identity*: with the same seeds, a run with
``num_workers > 0`` must produce byte-for-byte the results of the serial
engine — same losses, same weights, same rng end state — because workers
only evaluate pre-drawn sampling keys (the draw/select split of
:class:`repro.graph.sampling.NeighborSampler`).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.ann import RPForestIndex
from repro.graph.sampling import NeighborSampler
from repro.tensor import Tensor
from repro.training import MinibatchEngine, WorkerPool, fit_minibatch
from repro.gnnzoo import make_backbone


def _random_adjacency(num_nodes: int, rng: np.random.Generator) -> sp.csr_matrix:
    rows = rng.integers(0, num_nodes, size=num_nodes * 6)
    cols = rng.integers(0, num_nodes, size=num_nodes * 6)
    keep = rows != cols
    data = np.ones(keep.sum())
    adj = sp.csr_matrix(
        (data, (rows[keep], cols[keep])), shape=(num_nodes, num_nodes)
    )
    adj = ((adj + adj.T) > 0).astype(np.float64)
    return adj.tocsr()


def _state_arrays(model) -> dict:
    return {k: np.array(v, copy=True) for k, v in model.state_dict().items()}


def _fit_history(graph, *, num_workers, prefetch_epochs=1, cache_epochs=1):
    rng = np.random.default_rng(11)
    model = make_backbone("sage", graph.num_features, 8, rng, num_layers=2)
    history = fit_minibatch(
        model,
        Tensor(graph.features),
        graph.adjacency,
        graph.labels,
        graph.train_mask,
        graph.val_mask,
        epochs=6,
        fanouts=(5, 3),
        batch_size=64,
        rng=np.random.default_rng(3),
        cache_epochs=cache_epochs,
        num_workers=num_workers,
        prefetch_epochs=prefetch_epochs,
    )
    return history, _state_arrays(model)


class TestSamplerSplit:
    @pytest.mark.parametrize("replace", [False, True])
    @pytest.mark.parametrize("fanouts", [(5,), (7, 3), (None,)])
    def test_draw_select_split_matches_fused(self, rng, replace, fanouts):
        """draw_edge_keys + sample_blocks_with_keys == sample_blocks."""
        adjacency = _random_adjacency(300, rng)
        sampler = NeighborSampler(adjacency, fanouts, replace=replace)
        seeds = rng.choice(300, size=40, replace=False)

        fused_rng = np.random.default_rng(99)
        split_rng = np.random.default_rng(99)
        fused = sampler.sample_blocks(seeds, fused_rng)

        dst = np.asarray(seeds, dtype=np.int64)
        keys_list = []
        for fanout in reversed(sampler.fanouts):
            keys = sampler.draw_edge_keys(dst, fanout, split_rng)
            keys_list.append(keys)
            block = sampler.sample_block_with_keys(dst, fanout, keys)
            dst = block.src_nodes
        split = sampler.sample_blocks_with_keys(seeds, keys_list)

        assert fused_rng.bit_generator.state == split_rng.bit_generator.state
        for a, b in zip(fused, split):
            assert np.array_equal(a.src_nodes, b.src_nodes)
            assert np.array_equal(a.dst_nodes, b.dst_nodes)
            assert np.array_equal(a.adjacency.indptr, b.adjacency.indptr)
            assert np.array_equal(a.adjacency.indices, b.adjacency.indices)
            assert np.array_equal(a.adjacency.data, b.adjacency.data)


class TestParallelBitIdentity:
    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_fit_minibatch_matches_serial(self, small_graph, num_workers):
        serial_hist, serial_state = _fit_history(small_graph, num_workers=0)
        par_hist, par_state = _fit_history(small_graph, num_workers=num_workers)
        assert par_hist.train_loss == serial_hist.train_loss
        assert par_hist.val_accuracy == serial_hist.val_accuracy
        for key in serial_state:
            assert np.array_equal(serial_state[key], par_state[key]), key

    def test_prefetch_and_cache_interplay(self, small_graph):
        serial_hist, serial_state = _fit_history(
            small_graph, num_workers=0, cache_epochs=3
        )
        for prefetch in (0, 2):
            par_hist, par_state = _fit_history(
                small_graph,
                num_workers=2,
                prefetch_epochs=prefetch,
                cache_epochs=3,
            )
            assert par_hist.train_loss == serial_hist.train_loss
            for key in serial_state:
                assert np.array_equal(serial_state[key], par_state[key])

    def test_fairwos_finetune_matches_serial(self, small_graph):
        from repro.core import FairwosConfig, FairwosTrainer

        def run(num_workers):
            config = FairwosConfig(
                minibatch=True,
                encoder_epochs=3,
                classifier_epochs=3,
                finetune_epochs=3,
                batch_size=64,
                cf_backend="ann",
                num_workers=num_workers,
            )
            return FairwosTrainer(config).fit(small_graph, seed=0)

        serial = run(0)
        parallel = run(2)
        assert parallel.history == serial.history
        assert np.array_equal(parallel.lambda_weights, serial.lambda_weights)
        assert parallel.test.accuracy == serial.test.accuracy


class TestForestSharding:
    def test_build_and_update_match_serial(self, rng):
        self._check_sharded_matches_serial(rng, np.float64)

    def test_float32_points_match_serial(self, rng):
        self._check_sharded_matches_serial(rng, np.float32)

    @staticmethod
    def _check_sharded_matches_serial(rng, dtype):
        X = rng.normal(size=(400, 8)).astype(dtype)
        serial = RPForestIndex(num_trees=6, leaf_size=16, seed=5)
        serial.build(X)
        sharded = RPForestIndex(num_trees=6, leaf_size=16, seed=5)
        with WorkerPool(3) as pool:
            sharded.build(X, pool=pool)
            drifted = X.copy()
            drifted[: len(X) // 3] += rng.normal(
                scale=0.5, size=(len(X) // 3, 8)
            ).astype(dtype)
            serial.update(drifted)
            sharded.update(drifted, pool=pool)

        serial_arrays = serial.to_arrays()
        sharded_arrays = sharded.to_arrays()
        assert serial_arrays.keys() == sharded_arrays.keys()
        for key in serial_arrays:
            assert np.array_equal(serial_arrays[key], sharded_arrays[key]), key

        queries = rng.choice(400, size=25, replace=False)
        assert np.array_equal(
            serial.query(drifted[queries], 5), sharded.query(drifted[queries], 5)
        )


class TestPoolRobustness:
    def test_worker_crash_falls_back_to_local(self, small_graph):
        # Depth 1 so fresh epochs actually fan block assembly to the pool
        # (deeper chains are built by the prefetch thread in-process);
        # prefetch_epochs=0 keeps production synchronous so the fallback
        # warning surfaces deterministically in the training thread.
        def fit(num_workers, worker_pool=None):
            rng = np.random.default_rng(11)
            model = make_backbone("sage", small_graph.num_features, 8, rng)
            history = fit_minibatch(
                model,
                Tensor(small_graph.features),
                small_graph.adjacency,
                small_graph.labels,
                small_graph.train_mask,
                small_graph.val_mask,
                epochs=6,
                fanouts=(5,),
                batch_size=64,
                rng=np.random.default_rng(3),
                num_workers=num_workers,
                prefetch_epochs=0,
                worker_pool=worker_pool,
            )
            return history, _state_arrays(model)

        serial_hist, serial_state = fit(0)
        pool = WorkerPool(2, adjacency=small_graph.adjacency)
        try:
            for proc in pool._workers:
                proc.terminate()
                proc.join(timeout=5)
            with pytest.warns(RuntimeWarning, match="worker"):
                history, state = fit(2, worker_pool=pool)
        finally:
            pool.shutdown()
        assert not pool.healthy
        assert history.train_loss == serial_hist.train_loss
        for key in serial_state:
            assert np.array_equal(serial_state[key], state[key])

    def test_engine_rejects_foreign_pool(self, small_graph, rng):
        other = _random_adjacency(100, rng)
        with WorkerPool(1, adjacency=other) as pool:
            engine = MinibatchEngine(
                make_backbone("sage", small_graph.num_features, 8, rng),
                small_graph.features,
                small_graph.adjacency,
                fanouts=(5,),
                batch_size=64,
                num_workers=2,
                worker_pool=pool,
            )
            val = np.where(small_graph.val_mask)[0]
            with pytest.raises(ValueError, match="different adjacency"):
                engine.run(
                    np.where(small_graph.train_mask)[0],
                    1,
                    lambda step: Tensor(np.zeros(())),
                    np.random.default_rng(0),
                    val_nodes=val,
                    val_labels=small_graph.labels[val],
                )

    def test_num_workers_zero_never_builds_pool(self, small_graph):
        """num_workers=0 is byte-identical serial: no pool, no prefetcher."""
        rng = np.random.default_rng(11)
        engine = MinibatchEngine(
            make_backbone("sage", small_graph.num_features, 8, rng),
            small_graph.features,
            small_graph.adjacency,
            fanouts=(5,),
            batch_size=64,
        )
        assert engine.num_workers == 0
        assert engine._shared_pool is None
        assert engine._active_prefetcher is None
