import tracemalloc

import numpy as np
import pytest

from fichad import embed
from fichad.embed import (EmbeddingModel, TrainConfig, TrainingError,
                          init_model, loss_gradients, negative_sample,
                          train)
from fichad.kg import KnowledgeGraph, Triple
from conftest import make_vocab, two_cluster_graph


def finite_difference_gradient(model, pos, neg, cfg, which, eps=1e-5):
    """Central-difference gradient of the batch loss ``loss_gradients``
    returns, w.r.t. one embedding row.

    Independent oracle: perturbs each real coordinate (real and imaginary
    parts separately for complex parameters) and differences the loss.
    """
    name, row = which
    arr = getattr(model, name)
    base = arr[row].copy()
    complex_ = np.iscomplexobj(arr)
    grad = np.zeros_like(base)
    units = (1.0, 1j) if complex_ else (1.0,)
    for i in range(base.size):
        for unit in units:
            v = base.copy()
            v[i] = base[i] + eps * unit
            arr[row] = v
            lp = loss_gradients(model, pos, neg, cfg)[0]
            v = base.copy()
            v[i] = base[i] - eps * unit
            arr[row] = v
            lm = loss_gradients(model, pos, neg, cfg)[0]
            arr[row] = base
            grad[i] += unit * (lp - lm) / (2 * eps)
    return grad


def summed_gradient(pos, neg, grads, which):
    """The analytic gradient w.r.t. one embedding row: the per-row gradients
    of every triple that uses it, summed, as training applies them."""
    rows = np.concatenate((pos, neg))
    dh, dr, dt = grads
    name, row = which
    if name == "relation":
        return dr[rows[:, 1] == row].sum(axis=0)
    return (dh[rows[:, 0] == row].sum(axis=0)
            + dt[rows[:, 2] == row].sum(axis=0))


def random_rows(rng, k, n_entities, n_relations):
    return np.stack([rng.integers(n_entities, size=k),
                     rng.integers(n_relations, size=k),
                     rng.integers(n_entities, size=k)], axis=1)


def rel_err(a, b):
    denom = max(np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


class TestScore:
    def test_transe_exact_translation(self):
        m = EmbeddingModel("transe",
                           np.array([[0.3, 0.4], [0.4, 0.0]]),
                           np.array([[0.1, -0.4]]))
        assert m.score(0, 0, 1) == pytest.approx(0.0, abs=1e-12)

    def test_distmult_direct_sum(self):
        m = EmbeddingModel("distmult",
                           np.array([[1.0, 2.0], [1.0, 1.0]]),
                           np.array([[1.0, 1.0]]))
        assert m.score(0, 0, 1) == pytest.approx(3.0)

    def test_complex_identity(self):
        e = np.array([[1.0 + 0.0j]])
        m = EmbeddingModel("complex", np.vstack([e, e]), e)
        assert m.score(0, 0, 1) == pytest.approx(1.0)

    def test_rotate_zero_rotation(self):
        e = np.array([[0.3 + 0.7j, -0.2 + 0.1j]])
        m = EmbeddingModel("rotate", np.vstack([e, e]),
                           np.zeros((1, 2)), margin=4.0)
        assert m.score(0, 0, 1) == pytest.approx(4.0)

    def test_batch_matches_single(self):
        for fam in embed.FAMILIES:
            m = init_model(fam, 7, 3, 6, seed=11)
            cands = np.arange(7)
            batch = m.score_tails(2, 1, cands)
            singles = [m.score(2, 1, int(t)) for t in cands]
            np.testing.assert_allclose(batch, singles, rtol=1e-12)

    @pytest.mark.parametrize("family,norm", [("transe", 1), ("transe", 2),
                                             ("distmult", 1), ("complex", 1),
                                             ("rotate", 1)])
    def test_blocks_equal_unblocked_scores(self, family, norm):
        n = 2 * embed.SCORE_BLOCK + 3
        m = init_model(family, n, 3, 5, seed=7, transe_norm=norm)
        perm = np.random.default_rng(1).permutation(n)
        h, r, t = 4, 2, n - 1
        eh, er, et = m.entity[h], m.relation[r], m.entity[t]
        for rows in (None, perm):
            cands = m.entity if rows is None else m.entity[rows]
            np.testing.assert_array_equal(m.score_tails(h, r, rows),
                                          embed._forward(m, eh, er, cands)[0])
            np.testing.assert_array_equal(m.score_heads(r, t, rows),
                                          embed._forward(m, cands, er, et)[0])

    def test_rotate_phase_2pi_invariance(self):
        m = init_model("rotate", 5, 2, 8, seed=4)
        before = m.score(0, 1, 3)
        m.relation[1, 2] += 2 * np.pi
        assert abs(m.score(0, 1, 3) - before) < 1e-9

    @pytest.mark.parametrize("family,norm", [("transe", 1), ("transe", 2),
                                             ("distmult", 1), ("complex", 1),
                                             ("rotate", 1)])
    def test_training_score_equals_eval_score(self, family, norm):
        """Training scores gathered rows through the forward, evaluation one
        triple through ``score``; the two must agree bit for bit."""
        m = init_model(family, 6, 3, 5, seed=13, transe_norm=norm)
        rows = np.array([(0, 0, 1), (2, 1, 5), (4, 2, 4)])
        scores, _ = embed._forward(m, m.entity[rows[:, 0]],
                                   m.relation[rows[:, 1]], m.entity[rows[:, 2]])
        np.testing.assert_array_equal(scores,
                                      [m.score(*row) for row in rows.tolist()])

    def test_complex_all_real_equals_distmult(self):
        rng = np.random.default_rng(0)
        ent = rng.normal(size=(5, 6))
        rel = rng.normal(size=(2, 6))
        mc = EmbeddingModel("complex", ent.astype(complex), rel.astype(complex))
        md = EmbeddingModel("distmult", ent, rel)
        assert mc.score(1, 0, 3) == pytest.approx(md.score(1, 0, 3))


class TestGradients:
    @pytest.mark.parametrize("family", embed.FAMILIES)
    @pytest.mark.parametrize("loss", embed.LOSSES)
    @pytest.mark.parametrize("positive", [True, False])
    def test_matches_finite_differences(self, family, loss, positive):
        """Batches of 2 positives with 2 negatives each; the rows of the
        positives (or of the negatives) are checked. A margin of 1 leaves
        some pairs inactive, 1000 makes every pair active."""
        margins = (1.0, 1000.0) if loss == "margin" else (1.0,)
        for norm in (1, 2) if family == "transe" else (1,):
            for margin in margins:
                cfg = TrainConfig(family=family, dim=6, loss=loss,
                                  margin=margin,
                                  l2=0.01 if loss == "logistic" else 0.0)
                rng = np.random.default_rng(42)
                m = init_model(family, 8, 3, 6, seed=9, transe_norm=norm)
                for _ in range(10):
                    pos = random_rows(rng, 2, 8, 3)
                    neg = random_rows(rng, 4, 8, 3)
                    _, *grads = loss_gradients(m, pos, neg, cfg)
                    for h, r, t in (pos if positive else neg).tolist():
                        for which in (("entity", h), ("relation", r),
                                      ("entity", t)):
                            fd = finite_difference_gradient(m, pos, neg, cfg,
                                                            which)
                            analytic = summed_gradient(pos, neg, grads, which)
                            if analytic.any():
                                assert rel_err(analytic, fd) < 1e-4, (norm,
                                                                      margin)
                            else:  # every pair using the row is inactive
                                assert np.abs(fd).max() < 1e-6

    @pytest.mark.parametrize("family,norm", [("transe", 1), ("transe", 2),
                                             ("distmult", 1), ("complex", 1),
                                             ("rotate", 1)])
    @pytest.mark.parametrize("loss", embed.LOSSES)
    def test_batch_equals_stacked_batches_of_one(self, family, norm, loss):
        """A batch's gradient rows are each positive's batch of one (the
        positive with its own negatives), stacked."""
        n, b = 3, 6
        cfg = TrainConfig(family=family, dim=5, loss=loss, negatives=n,
                          l2=0.01 if loss == "logistic" else 0.0)
        m = init_model(family, 9, 3, 5, seed=4, transe_norm=norm)
        rng = np.random.default_rng(5)
        pos, neg = random_rows(rng, b, 9, 3), random_rows(rng, b * n, 9, 3)
        loss_all, *grads = loss_gradients(m, pos, neg, cfg)
        ones = [loss_gradients(m, pos[i:i + 1], neg[i * n:(i + 1) * n], cfg)
                for i in range(b)]
        assert loss_all == pytest.approx(sum(o[0] for o in ones), rel=1e-12)
        for k, batch in enumerate(grads, start=1):
            stacked = np.concatenate([o[k][:1] for o in ones]
                                     + [o[k][1:] for o in ones])
            np.testing.assert_allclose(batch, stacked, rtol=0, atol=1e-12)

    def test_transe_zero_coordinate_subgradient(self):
        ent = np.array([[0.5, 0.2], [0.6, 0.9]])
        rel = np.array([[0.1, 0.3]])  # (h + r - t) = (0.0, -0.4)
        m = EmbeddingModel("transe", ent, rel)
        _, gradients = embed._forward(m, ent[[0]], rel[[0]], ent[[1]])
        gh, _, _ = gradients()
        assert gh[0, 0] == 0.0 and gh[0, 1] != 0.0

    def test_distmult_logistic_saturation(self):
        cfg = TrainConfig(family="distmult", dim=2, loss="logistic", l2=0.0)
        big = 50.0
        m = EmbeddingModel("distmult", np.array([[big, big], [1.0, 1.0]]),
                           np.array([[1.0, 1.0]]))
        # the negative (1, 0, 1) scores 2, far from saturation; only the
        # positive's rows are checked
        _, dh, dr, dt = loss_gradients(m, np.array([[0, 0, 1]]),
                                       np.array([[1, 0, 1]]), cfg)
        assert np.max(np.abs(np.concatenate([dh[0], dr[0], dt[0]]))) < 1e-6


class TestNegativeSampling:
    def test_forced_candidate_on_two_entity_graph(self):
        ents = make_vocab(["a", "b"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        rng = np.random.default_rng(0)
        negs = negative_sample(np.array([[0, 0, 1]]), g, rng, 8)
        assert negs.shape == (8, 3)
        assert not g.in_train_rows(negs).any()
        assert [0, 0, 1] not in negs.tolist()

    def test_forced_acceptance_on_one_entity_graph(self):
        """Every corruption collides; each is accepted after 100 attempts."""
        g = KnowledgeGraph(make_vocab(["a"]), make_vocab(["r"]),
                           {"train": [Triple(0, 0, 0)], "valid": [], "test": []})
        negs = negative_sample(np.array([[0, 0, 0]]), g,
                               np.random.default_rng(0), 5)
        np.testing.assert_array_equal(negs, [[0, 0, 0]] * 5)

    def test_determinism(self):
        g = two_cluster_graph()
        pos = g.splits["train"][:5]
        a = negative_sample(pos, g, np.random.default_rng(42), 4)
        b = negative_sample(pos, g, np.random.default_rng(42), 4)
        np.testing.assert_array_equal(a, b)

    def test_batch_layout(self):
        """Row i's corruptions are rows [i*n, (i+1)*n); each keeps the
        relation and one of the two entities, and none is a train triple."""
        g = two_cluster_graph()
        pos = g.splits["train"][:10]
        negs = negative_sample(pos, g, np.random.default_rng(3), 3)
        want = np.repeat(pos, 3, axis=0)
        assert negs.shape == want.shape
        assert (negs[:, 1] == want[:, 1]).all()
        assert ((negs[:, 0] == want[:, 0]) | (negs[:, 2] == want[:, 2])).all()
        assert not g.in_train_rows(negs).any()

    def test_replacement_histogram_uniform(self):
        """Chi-square over 10k corruptions on a 100-entity graph."""
        ents = make_vocab([f"e{i}" for i in range(100)])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels,
                           {"train": [Triple(0, 0, 1)], "valid": [], "test": []})
        rng = np.random.default_rng(7)
        counts = np.zeros(100)
        n = 10_000
        for head, _, tail in negative_sample(np.array([[0, 0, 1]]), g, rng,
                                             n).tolist():
            replaced = head if tail == 1 and head != 0 else tail
            counts[replaced] += 1
        # the known triple's entities are slightly depressed by resampling;
        # exclude them and test uniformity of the rest
        mask = np.ones(100, dtype=bool)
        mask[[0, 1]] = False
        expected = counts[mask].sum() / mask.sum()
        chi2 = np.sum((counts[mask] - expected) ** 2 / expected)
        dof = mask.sum() - 1
        # 3 sigma for chi-square: mean dof, sd sqrt(2*dof)
        assert abs(chi2 - dof) < 3 * np.sqrt(2 * dof)


class TestTrain:
    def test_zero_epochs_returns_init(self):
        g = two_cluster_graph()
        cfg = TrainConfig(family="transe", dim=8, epochs=0, seed=5)
        m = train(cfg, g)
        m0 = init_model("transe", g.n_entities, g.n_relations, 8,
                        margin=cfg.margin, seed=5)
        np.testing.assert_array_equal(m.entity, m0.entity)
        np.testing.assert_array_equal(m.relation, m0.relation)

    def test_fixed_seed_bit_identical(self):
        g = two_cluster_graph()
        for family in embed.FAMILIES:
            for loss in embed.LOSSES:
                cfg = TrainConfig(family=family, dim=8, epochs=3, loss=loss,
                                  l2=0.001, seed=21, batch_size=50)
                m1 = train(cfg, g)
                m2 = train(cfg, g)
                assert m1.entity.tobytes() == m2.entity.tobytes()
                assert m1.relation.tobytes() == m2.relation.tobytes()

    @pytest.mark.parametrize("family", embed.FAMILIES)
    @pytest.mark.parametrize("loss", embed.LOSSES)
    def test_step_applies_summed_gradient(self, family, loss):
        """One step moves every row by -lr times its summed gradient rows
        (summed here with ``np.add.at``) and leaves the other rows alone."""
        cfg = TrainConfig(family=family, dim=4, loss=loss, lr=0.1, l2=0.01)
        m = init_model(family, 10, 3, 4, seed=8)
        rng = np.random.default_rng(6)
        # few entities, so rows repeat within the batch
        pos, neg = random_rows(rng, 8, 6, 3), random_rows(rng, 16, 6, 3)
        rows = np.concatenate((pos, neg))
        loss_value, dh, dr, dt = loss_gradients(m, pos, neg, cfg)
        entity, relation = m.entity.copy(), m.relation.copy()
        np.add.at(entity, rows[:, 0], -cfg.lr * dh)
        np.add.at(entity, rows[:, 2], -cfg.lr * dt)
        np.add.at(relation, rows[:, 1], -cfg.lr * dr)
        untouched = m.entity[6:].copy()
        assert embed._sgd_step(m, pos, neg, cfg) == (loss_value, True)
        np.testing.assert_allclose(m.entity, entity, rtol=0, atol=1e-12)
        np.testing.assert_allclose(m.relation, relation, rtol=0, atol=1e-12)
        assert m.entity[6:].tobytes() == untouched.tobytes()

    def test_divergence_names_the_step(self):
        g = two_cluster_graph()
        cfg = TrainConfig(family="distmult", dim=8, epochs=1, lr=1e300)
        with pytest.raises(TrainingError,
                           match=r"non-finite parameters after step \d+ "
                                 r"\(epoch 0\)"), np.errstate(all="ignore"):
            train(cfg, g)

    def test_empty_train_split_errors(self):
        ents = make_vocab(["a", "b"])
        rels = make_vocab(["r"])
        g = KnowledgeGraph(ents, rels, {"train": [], "valid": [],
                                        "test": [Triple(0, 0, 1)]})
        with pytest.raises(TrainingError):
            train(TrainConfig(), g)

    def test_parameters_stay_finite(self):
        g = two_cluster_graph()
        cfg = TrainConfig(family="rotate", dim=8, epochs=5, seed=2)
        m = train(cfg, g)
        assert np.all(np.isfinite(m.entity.view(np.float64)))
        assert np.all(np.isfinite(m.relation))
        # rotate phases stay wrapped
        assert np.all(m.relation >= -np.pi) and np.all(m.relation < np.pi)


class TestCheckpoint:
    @pytest.mark.parametrize("family", embed.FAMILIES)
    def test_round_trip(self, family, tmp_path):
        m = init_model(family, 6, 3, 5, margin=2.5, seed=77)
        p = tmp_path / "model.ckpt"
        m.save(p)
        loaded = EmbeddingModel.load(p)
        assert loaded.family == family
        assert loaded.margin == 2.5 and loaded.seed == 77
        np.testing.assert_array_equal(loaded.entity, m.entity)
        np.testing.assert_array_equal(loaded.relation, m.relation)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError):
            EmbeddingModel.load(p)

    @pytest.mark.parametrize("cut", ["after_magic", "in_header",
                                     "in_entity_real", "in_entity",
                                     "in_relation_real", "in_relation"])
    def test_truncated_checkpoint_rejected(self, tmp_path, cut):
        """A checkpoint cut short, such as a partial copy, names its file,
        wherever the cut falls: each part of each table is one read."""
        p = tmp_path / "model.ckpt"
        init_model("complex", 6, 3, 5, seed=1).save(p)
        raw = p.read_bytes()
        body = len(embed._MAGIC) + 4 + int.from_bytes(raw[8:12], "little")
        entity_part, relation_part = 8 * 6 * 5, 8 * 3 * 5
        # "in_entity" and "in_relation" cut inside the imaginary part
        keep = {"after_magic": len(embed._MAGIC), "in_header": body - 5,
                "in_entity_real": body + 3,
                "in_entity": body + entity_part + 3,
                "in_relation_real": body + 2 * entity_part + 3,
                "in_relation": body + 2 * entity_part + relation_part + 3,
                }[cut]
        p.write_bytes(raw[:keep])
        with pytest.raises(ValueError, match="truncated checkpoint") as exc:
            EmbeddingModel.load(p)
        assert str(p) in str(exc.value)

    @pytest.mark.parametrize("family", embed.FAMILIES)
    def test_load_then_save_is_byte_identical(self, family, tmp_path):
        """Every stored bit comes back, signed zeros in either part too."""
        m = init_model(family, 6, 3, 5, seed=4)
        for table in (m.entity, m.relation):
            if np.iscomplexobj(table):
                table[0, :3] = [complex(-0.0, -0.0), complex(-0.0, 0.0),
                                complex(0.0, -0.0)]
            else:
                table[0, :2] = [-0.0, 0.0]
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        m.save(first)
        EmbeddingModel.load(first).save(second)
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("family, op, bound", [
        ("transe", "save", 0.1), ("transe", "load", 1.05),
        ("complex", "load", 1.55)])
    def test_checkpoint_io_memory_bound(self, family, op, bound, tmp_path):
        """Saving copies no real table; loading allocates the tables plus, for
        a complex one, one part-sized read buffer. ``bound`` is in units of
        the entity table's size; tracemalloc sees numpy's buffers."""
        m = init_model(family, 4000, 3, 64, seed=5)
        p = tmp_path / "model.ckpt"
        m.save(p)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            if op == "save":
                m.save(p)
            else:
                EmbeddingModel.load(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= bound * m.entity.nbytes

    @pytest.mark.parametrize("header", [b"[1, 2]", b"\xff", b'"transe"',
                                        b'{"family": "transe"}'])
    def test_malformed_header_rejected(self, tmp_path, header):
        p = tmp_path / "model.ckpt"
        p.write_bytes(embed._MAGIC + len(header).to_bytes(4, "little")
                      + header)
        with pytest.raises(ValueError, match="checkpoint header") as exc:
            EmbeddingModel.load(p)
        assert str(p) in str(exc.value)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        p = tmp_path / "model.ckpt"
        init_model("transe", 6, 3, 5, seed=1).save(p)
        before = p.read_bytes()

        def fail_after_header(arr):
            raise OSError("disk full")

        # the header is on disk when the parameter blocks are requested
        monkeypatch.setattr(embed, "_param_blocks", fail_after_header)
        with pytest.raises(OSError, match="disk full"):
            init_model("transe", 6, 3, 5, seed=2).save(p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.ckpt"]
