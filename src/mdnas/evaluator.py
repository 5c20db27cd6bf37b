"""Performance-estimation backends standing in for network training.

Two evaluators share one interface, ``evaluate(arch, epoch) -> accuracy``:

* ``TabularOracle`` scores an architecture from a fixed per-edge quality
  table, so the global optimum is known in closed form.
* ``SurrogateCurveEvaluator`` wraps an oracle with a saturating learning
  curve and seeded noise whose magnitude is calibrated so that the pairwise
  ranking at any epoch agrees with the true final ranking with a configurable
  probability.
"""

from __future__ import annotations

import copy
import hashlib
import math
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .search_space import CellTemplate, Genotype, _top_k_genotype

# An architecture sample is one op id per oracle edge.
ArchitectureSample = tuple[int, ...]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4) and
# the PCG64 seeding step (pcg64.h), for seeding a whole cohort at once.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
# Below this many entries numpy's own per-entry construction is cheaper than
# the array hash's fixed cost.
_BATCH_SEEDING_MIN = 16
# true_scores gathers at most this many table entries per block of rows, so
# its temporaries stay small whatever the number of rows (128 KB each: at
# 2**16 entries, calibrating the N=8 interaction oracle raised peak RSS by
# 1.9 MB).
_GATHER_ITEMS = 1 << 14
# The noise-scale bisection's bracket.
_SIGMA_LO, _SIGMA_HI = 1e-9, 1e3
# A computed agreement lies within ~2e-15 of the exact mean of Phi (erf to
# 1 ulp, three roundings in z, a pairwise sum), and the exact mean falls
# strictly as sigma rises.  So where one computed agreement exceeds rho by
# this margin, so does every computed agreement at a smaller sigma, and
# likewise below rho - margin at every larger sigma.
_WINDOW_MARGIN = 1e-13
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _arch_key(arch: Sequence[int]) -> int:
    h = hashlib.blake2b(np.asarray(arch, dtype=np.int64).tobytes(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def _uint32_words(n: int) -> list[int]:
    """An entropy int as SeedSequence splits it: little-endian 32-bit words,
    with 0 as the one word [0]."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _seed_sequence_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, np.uint64) for many entropies
    at once.  entropy[i] holds word i of every entropy (uint32, broadcast
    against the others); returns the four uint64 words, one array each."""
    u32 = np.uint32
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * _MULT_A & _MASK32
        value = value * u32(const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ u32(const)
        const = const * _MULT_B & _MASK32
        value = value * u32(const)
        state.append((value ^ (value >> u32(16))).astype(np.uint64))
    return [state[2 * j] | (state[2 * j + 1] << np.uint64(32)) for j in range(4)]


def _seeded_normals(seed: int, keys: Sequence[int], epoch: int) -> np.ndarray:
    """For every key, Generator(PCG64(SeedSequence([seed, key, epoch])))
    .standard_normal(), bit for bit.  From _BATCH_SEEDING_MIN keys on, the
    SeedSequence hash runs over arrays and one reused PCG64 is set to each
    seeded state."""
    if len(keys) < _BATCH_SEEDING_MIN:
        return np.array([
            Generator(PCG64(SeedSequence([seed, key, epoch]))).standard_normal()
            for key in keys
        ])
    keys = np.array(keys, dtype=np.uint64)
    low = (keys & np.uint64(_MASK32)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    head = [np.array([w], dtype=np.uint32) for w in _uint32_words(seed)]
    tail = [np.array([w], dtype=np.uint32) for w in _uint32_words(epoch)]
    bit_generator = PCG64()
    generator = Generator(bit_generator)
    seeded = {"state": 0, "inc": 0}
    doc = {"bit_generator": "PCG64", "state": seeded, "has_uint32": 0, "uinteger": 0}
    out = np.empty(len(keys))
    # A key below 2**32 is one entropy word, a larger one two.
    narrow = high == 0
    for rows, key_words in ((np.flatnonzero(narrow), [low]), (np.flatnonzero(~narrow), [low, high])):
        if not len(rows):
            continue
        words = _seed_sequence_state(head + [w[rows] for w in key_words] + tail)
        for row, s0, s1, q0, q1 in zip(rows.tolist(), *(w.tolist() for w in words)):
            # pcg64_set_seed: inc = seq << 1 | 1, then two LCG steps from 0
            # with the initial state added in between.
            inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
            seeded["inc"] = inc
            seeded["state"] = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
            bit_generator.state = doc
            out[row] = generator.standard_normal()
    return out


class TabularOracle:
    """Ground-truth evaluator: true_score(arch) is the mean per-edge quality,
    optionally perturbed by pairwise edge-interaction terms."""

    def __init__(self, q: np.ndarray, seed: int = 0, interaction_strength: float = 0.0):
        q = np.asarray(q, dtype=float)
        if q.ndim != 2:
            raise ValueError("q must be a (num_edges, num_ops) table")
        if not np.all((q >= 0) & (q <= 1)):
            raise ValueError("q entries must be finite and lie in [0, 1]")
        if interaction_strength < 0:
            raise ValueError("interaction_strength must be >= 0")
        self.q = q
        self.interaction_strength = interaction_strength
        self._seed = seed
        e, m = q.shape
        # Flat offsets: q[k, arch[k]] is q.ravel()[_row_base + arch], and
        # _w[i, j, arch[i], arch[j]] is _w.ravel()[_pair_base + arch[i]*m + arch[j]].
        self._row_base = np.arange(e) * m
        width = e
        if interaction_strength > 0:
            self._pairs = np.triu_indices(e, k=1)
            i, j = self._pairs
            self._pair_base = (i * e + j) * (m * m)
            width = len(self._pair_base)
        # Rows per gather in true_scores.
        self._block_rows = max(1, _GATHER_ITEMS // max(width, 1))

    @cached_property
    def _w(self) -> np.ndarray:
        """The (e, e, m, m) interaction weights, drawn at the first scoring,
        so that an oracle built only to check a checkpoint (derive's) draws
        none.  Read only when interaction_strength > 0."""
        rng = np.random.default_rng(np.random.SeedSequence([self._seed, 0x1A7]))
        e, m = self.q.shape
        return rng.uniform(-1.0, 1.0, size=(e, e, m, m))

    @property
    def num_edges(self) -> int:
        return self.q.shape[0]

    @property
    def num_ops(self) -> int:
        return self.q.shape[1]

    @classmethod
    def random(
        cls,
        num_edges: int,
        num_ops: int,
        seed: int = 0,
        argmax_margin: float = 0.0,
        **kwargs,
    ) -> "TabularOracle":
        """Uniform-random table; with argmax_margin > 0 the best op on every
        edge beats the runner-up by at least that margin."""
        if not 0 <= argmax_margin <= 1:
            raise ValueError(f"argmax_margin must lie in [0, 1], got {argmax_margin!r}")
        rng = np.random.default_rng(seed)
        q = rng.uniform(size=(num_edges, num_ops))
        if argmax_margin > 0:
            for e in range(num_edges):
                best = int(rng.integers(num_ops))
                others = np.delete(np.arange(num_ops), best)
                q[e, others] = rng.uniform(0.0, 1.0 - argmax_margin, size=num_ops - 1)
                q[e, best] = q[e, others].max() + argmax_margin
        return cls(q, seed=seed, **kwargs)

    def true_score(self, arch: Sequence[int]) -> float:
        return float(self.true_scores([arch])[0])

    def true_scores(self, archs: Sequence[Sequence[int]]) -> np.ndarray:
        """The score of every row of `archs`, gathered a block of rows at a
        time.  Each gather is C-contiguous, so every row mean sums in the
        order of a 1-D mean of that row, whatever the block size."""
        if not len(archs):
            return np.empty(0)
        archs = np.asarray(archs, dtype=np.int64)
        if archs.shape != (len(archs), self.num_edges):
            raise ValueError(f"architectures have shape {archs.shape}, not (n, {self.num_edges})")
        # The flat gathers would read a neighbouring row for an id out of range.
        if archs.min() < 0 or archs.max() >= self.num_ops:
            raise ValueError(f"op ids must lie in [0, {self.num_ops})")
        out = np.empty(len(archs))
        for start in range(0, len(archs), self._block_rows):
            block = archs[start : start + self._block_rows]
            scores = self.q.ravel()[self._row_base + block].mean(axis=1)
            if self.interaction_strength > 0:
                i, j = self._pairs
                # take, not block[:, i]: fancy-indexing columns gives an
                # F-ordered array, whose row means sum in another order.
                pair = block.take(i, axis=1)
                pair *= self.num_ops
                pair += block.take(j, axis=1)
                pair += self._pair_base
                inter = self._w.ravel().take(pair)
                scores += self.interaction_strength * inter.mean(axis=1)
            out[start : start + len(block)] = scores
        return np.clip(out, 0.0, 1.0, out=out)

    def evaluate(self, arch: Sequence[int], epoch: int) -> float:
        if epoch < 1:
            raise ValueError("epoch must be >= 1")
        return self.true_score(arch)

    def sample_arch(self, rng: np.random.Generator) -> ArchitectureSample:
        return tuple(self.sample_archs(rng, 1)[0].tolist())

    def sample_archs(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n architectures as an (n, num_edges) array: the draws, and the
        generator state after them, of n sample_arch calls."""
        return rng.integers(self.num_ops, size=(n, self.num_edges))

    def replica(self) -> "TabularOracle":
        """The oracle keeps no per-run state, so every seed can share it."""
        return self


def best_genotype(oracle: TabularOracle, template: CellTemplate, k: int) -> Genotype:
    """Ground-truth genotype from the oracle's first template.num_edges rows:
    per edge the argmax-quality op, per node the k edges with the best such
    quality, with the same tie-breaks as derive_genotype (lower edge index,
    lower op id)."""
    block = oracle.q[: template.num_edges]
    if len(block) != template.num_edges:
        raise ValueError("oracle table too small for template")
    return _top_k_genotype(template, block, k)


class SurrogateCurveEvaluator:
    """Learning-curve simulator over a tabular oracle.

    accuracy(arch, t) = (s + noise) * (1 - exp(-t / tau_c)) clamped to [0, 1],
    with s = oracle.true_score(arch).  The noise is Gaussian, seeded per
    (arch, epoch), and its scale is solved numerically so that a random pair
    of architectures compared at epoch t agrees with the true ordering with
    probability `consistency`.  Scaling the noise with the curve keeps that
    probability epoch-independent; an optional ramp raises it toward
    `consistency_final` over `ramp_epochs` instead.
    """

    def __init__(
        self,
        oracle: TabularOracle,
        tau_c: float = 10.0,
        consistency: float = 1.0,
        consistency_final: float | None = None,
        ramp_epochs: int | None = None,
        seed: int = 0,
        calibration_pairs: int = 512,
    ):
        if tau_c <= 0:
            raise ValueError("tau_c must be positive")
        if not 0.5 <= consistency <= 1.0:
            raise ValueError("consistency must lie in [0.5, 1]")
        if (consistency_final is None) != (ramp_epochs is None):
            raise ValueError("consistency_final and ramp_epochs go together")
        if consistency_final is not None and not 0.5 <= consistency_final <= 1.0:
            raise ValueError("consistency_final must lie in [0.5, 1]")
        if ramp_epochs is not None and ramp_epochs < 1:
            raise ValueError(f"ramp_epochs must be >= 1, got {ramp_epochs}")
        self.oracle = oracle
        self.tau_c = tau_c
        self.consistency = consistency
        self.consistency_final = consistency_final
        self.ramp_epochs = ramp_epochs
        self.seed = seed
        self.calibration_pairs = calibration_pairs
        self._sigma_cache: dict[float, float] = {}

    @cached_property
    def _gaps(self) -> np.ndarray:
        """|true_score(a) - true_score(b)| over `calibration_pairs` random
        pairs, tied pairs dropped: the sample the noise scale is solved on.
        Drawn at the first sigma solve, so building an evaluator that never
        evaluates (derive's) scores nothing.  The architectures a, b, a, b,
        ... are drawn and scored a gather block at a time."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xCA11]))
        scores = np.empty(2 * self.calibration_pairs)
        rows = self.oracle._block_rows
        for start in range(0, len(scores), rows):
            block = self.oracle.sample_archs(rng, min(rows, len(scores) - start))
            scores[start : start + len(block)] = self.oracle.true_scores(block)
        a, b = scores[0::2], scores[1::2]
        return np.abs(a - b)[a != b]

    def calibrate(self) -> np.ndarray:
        """Draw the calibration sample now instead of at the first sigma
        solve, and return it."""
        return self._gaps

    def replica(self) -> "SurrogateCurveEvaluator":
        """A new evaluator sharing the oracle, the calibration sample and
        the sigma cache, which is exact: a sigma depends only on the clamped
        consistency and the sample.  Calibrate first to share the sample."""
        return copy.copy(self)

    @property
    def num_edges(self) -> int:
        return self.oracle.num_edges

    @property
    def num_ops(self) -> int:
        return self.oracle.num_ops

    def true_score(self, arch: Sequence[int]) -> float:
        return self.oracle.true_score(arch)

    def sample_arch(self, rng: np.random.Generator) -> ArchitectureSample:
        return self.oracle.sample_arch(rng)

    def _agreement(self, sigma: float) -> float:
        """mean_pairs Phi(gap / (sigma*sqrt(2))), with Phi(x) computed as
        0.5 * (1 + erf(x / sqrt(2))) through math.erf."""
        z = self._gaps / (sigma * math.sqrt(2.0)) / math.sqrt(2.0)
        erf = np.fromiter(map(math.erf, z.tolist()), dtype=float, count=len(z))
        return float(np.mean(0.5 * (1.0 + erf)))

    def _window(self, rho: float) -> tuple[float, float]:
        """Scales (a, b) whose computed agreements clear rho by
        _WINDOW_MARGIN, above it at a and below it at b; 0 or inf for an
        end not found.

        Every agreement computed here is a candidate end, so the search
        only decides how tight the window gets, and how fast.  It runs a
        safeguarded Newton iteration in t = 1/sigma on ln(1 - agreement) =
        ln(1 - rho), which is close to linear in t both where the agreement
        nears 1/2 and where it nears 1.  The agreement's slope in ln(t) is
        mean(phi(x) * x) at x = gap * t / sqrt(2).  Then it probes each side
        of the root it found, widening a probe until it clears the margin."""
        a, b = 0.0, math.inf

        def probe(sigma: float) -> float:
            nonlocal a, b
            agreement = self._agreement(sigma)
            if agreement - rho > _WINDOW_MARGIN:
                a = max(a, sigma)
            elif agreement - rho < -_WINDOW_MARGIN:
                b = min(b, sigma)
            return agreement

        # The t at which the agreement was at most rho / above it; 0 and
        # inf are the bracket's ends, not computed yet.
        fewer, more = 0.0, math.inf
        t = 1.0 / float(self._gaps.mean())
        for _ in range(64):
            sigma = min(max(1.0 / t, _SIGMA_LO), _SIGMA_HI)
            t = 1.0 / sigma
            agreement = probe(sigma)
            if agreement > rho:
                if sigma == _SIGMA_HI:
                    return a, b
                more = t
            else:
                if sigma == _SIGMA_LO:
                    return a, b
                fewer = t
            x = self._gaps * (t / math.sqrt(2.0))
            slope = float(np.mean(np.exp(-0.5 * x * x) * x)) / _SQRT_2PI
            if slope > 0 and agreement < 1.0:
                width = 1.25 * _WINDOW_MARGIN / slope
                step = t * (math.log1p(-agreement) - math.log1p(-rho)) * (1.0 - agreement) / slope
                # Close enough that the probes below bracket the root.
                if abs(step) < 1e-8 * t or abs(agreement - rho) < _WINDOW_MARGIN:
                    break
            else:
                step = -0.5 * t if agreement > rho else t
            t += step
            if not fewer < t < more:
                if fewer == 0.0:
                    t = 1.0 / _SIGMA_HI
                elif more == math.inf:
                    t = 1.0 / _SIGMA_LO
                else:
                    t = math.sqrt(fewer * more)
        else:
            return a, b
        root = -math.log(max(t + step, 0.5 * t))  # ln(sigma) at the root
        for side in (-1.0, 1.0):
            offset = width
            for _ in range(64):
                sigma = min(max(math.exp(root + side * offset), _SIGMA_LO), _SIGMA_HI)
                if (sigma <= a) if side < 0 else (sigma >= b):
                    break
                probe(sigma)
                if sigma in (_SIGMA_LO, _SIGMA_HI):
                    break
                offset *= 4.0
        return a, b

    def _sigma_for(self, rho: float) -> float:
        """Solve agreement(sigma) = rho by geometric bisection.

        The search stops at the first step that leaves (lo, hi) unchanged:
        every later step would repeat it, so the result equals that of the
        full 200 steps.  A step computes the agreement only inside the
        window (a, b) of _window: at or below a it exceeds rho, at or
        above b it falls short, as it would if computed."""
        rho = min(max(rho, 0.5), 1.0)
        if rho in self._sigma_cache:
            return self._sigma_cache[rho]
        # The noiseless case needs no calibration sample.
        if rho >= 1.0 - 1e-12 or len(self._gaps) == 0:
            sigma = 0.0
        else:
            a, b = self._window(rho)
            lo, hi = _SIGMA_LO, _SIGMA_HI
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                higher = mid <= a or (mid < b and self._agreement(mid) > rho)
                step = (mid, hi) if higher else (lo, mid)
                if step == (lo, hi):
                    break
                lo, hi = step
            sigma = math.sqrt(lo * hi)
        self._sigma_cache[rho] = sigma
        return sigma

    def consistency_at(self, epoch: int) -> float:
        if self.consistency_final is None or self.ramp_epochs is None:
            return self.consistency
        frac = min((epoch - 1) / max(self.ramp_epochs - 1, 1), 1.0)
        return self.consistency + frac * (self.consistency_final - self.consistency)

    def evaluate_many(
        self, archs: Sequence[Sequence[int]], epochs: Sequence[int]
    ) -> np.ndarray:
        """Accuracy of every arch at every epoch, shape (len(epochs),
        len(archs)).  Each entry equals evaluate(arch, epoch): the true
        score and the key of each arch are computed once, the noise is the
        same per-(arch, epoch) draw."""
        epochs = list(epochs)
        if any(epoch < 1 for epoch in epochs):
            raise ValueError("epoch must be >= 1")
        scores = self.oracle.true_scores(archs)
        keys = [_arch_key(arch) for arch in archs]
        out = np.empty((len(epochs), len(archs)))
        for row, epoch in zip(out, epochs):
            growth = 1.0 - math.exp(-epoch / self.tau_c)
            sigma = self._sigma_for(self.consistency_at(epoch))
            noisy = scores
            if sigma > 0:
                noisy = scores + sigma * _seeded_normals(self.seed, keys, epoch)
            row[:] = noisy * growth
        return np.clip(out, 0.0, 1.0)

    def evaluate(self, arch: Sequence[int], epoch: int) -> float:
        return float(self.evaluate_many([arch], [epoch])[0, 0])


def measure_consistency(
    evaluator,
    num_pairs: int,
    epoch: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of random architecture pairs whose epoch-t comparison agrees
    with the true-score ordering.  Pairs tied on true score are redrawn."""
    if num_pairs < 1:
        raise ValueError("num_pairs must be >= 1")
    agree = 0
    done = 0
    attempts = 0
    while done < num_pairs:
        attempts += 1
        if attempts > 100 * num_pairs:
            raise ValueError("true scores look constant; cannot form untied pairs")
        a = evaluator.sample_arch(rng)
        b = evaluator.sample_arch(rng)
        sa, sb = evaluator.true_score(a), evaluator.true_score(b)
        if sa == sb:
            continue
        ea, eb = evaluator.evaluate(a, epoch), evaluator.evaluate(b, epoch)
        if (ea - eb) * (sa - sb) > 0:
            agree += 1
        done += 1
    return agree / num_pairs
