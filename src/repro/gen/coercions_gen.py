"""Random generation of λC coercions and λS canonical coercions."""

from __future__ import annotations

import random
from typing import Sequence

from ..core.labels import Label
from ..core.types import Type, ground_of, DynType
from ..lambda_c.coercions import (
    Coercion,
    Fail,
    FunCoercion,
    Identity,
    ProdCoercion,
    Sequence as SeqCo,
)
from ..lambda_s.coercions import SpaceCoercion
from ..translate.b_to_c import cast_to_coercion
from ..translate.c_to_s import coercion_to_space
from .types_gen import DEFAULT_LEAVES, random_cast_path


def label_pool(rng: random.Random, count: int = 6) -> list[Label]:
    """A small pool of labels; reuse makes blame collisions more likely."""
    return [Label(f"p{i}") for i in range(1, count + 1)]


def random_label(rng: random.Random, pool: Sequence[Label] | None = None) -> Label:
    pool = pool or label_pool(rng)
    lbl = rng.choice(list(pool))
    return lbl if rng.random() < 0.7 else lbl.complement()


def random_coercion(
    rng: random.Random,
    length: int = 3,
    depth: int = 3,
    leaves=DEFAULT_LEAVES,
    products: bool = True,
    pool: Sequence[Label] | None = None,
    allow_fail: bool = True,
    start: Type | None = None,
) -> tuple[Coercion, Type, Type]:
    """A random well-typed λC coercion together with its source and target types.

    The coercion is built as a composition of cast coercions along a random
    compatibility chain, occasionally splicing in structural constructors and
    explicit failure coercions so that every λC constructor is exercised.
    """
    pool = pool or label_pool(rng)
    path = random_cast_path(rng, max(1, length), depth, leaves, products, start=start)
    pieces: list[Coercion] = []
    for src, tgt in zip(path, path[1:]):
        roll = rng.random()
        if allow_fail and roll < 0.08 and not isinstance(src, DynType):
            src_ground = ground_of(src)
            candidates = [g for g in _ground_choices() if g != src_ground]
            tgt_ground = rng.choice(candidates)
            pieces.append(
                Fail(src_ground, random_label(rng, pool), tgt_ground, source=src, target=tgt)
            )
        else:
            pieces.append(cast_to_coercion(src, random_label(rng, pool), tgt))
    coercion = pieces[0]
    for piece in pieces[1:]:
        coercion = SeqCo(coercion, piece)
    # Occasionally wrap with an identity composition to exercise unit laws.
    if rng.random() < 0.2:
        coercion = SeqCo(Identity(path[0]), coercion)
    if rng.random() < 0.2:
        coercion = SeqCo(coercion, Identity(path[-1]))
    return coercion, path[0], path[-1]


def _ground_choices() -> list[Type]:
    from ..core.types import BOOL, GROUND_FUN, GROUND_PROD, INT

    return [INT, BOOL, GROUND_FUN, GROUND_PROD]


def random_structural_coercion(
    rng: random.Random,
    depth: int = 3,
    pool: Sequence[Label] | None = None,
) -> tuple[Coercion, Type, Type]:
    """A random coercion built structurally (functions/products of chains)."""
    pool = pool or label_pool(rng)
    if depth <= 1 or rng.random() < 0.5:
        return random_coercion(rng, length=2, depth=2, pool=pool)
    if rng.random() < 0.5:
        dom, dom_src, dom_tgt = random_structural_coercion(rng, depth - 1, pool)
        cod, cod_src, cod_tgt = random_structural_coercion(rng, depth - 1, pool)
        from ..core.types import FunType

        return (
            FunCoercion(dom, cod),
            FunType(dom_tgt, cod_src),
            FunType(dom_src, cod_tgt),
        )
    left, left_src, left_tgt = random_structural_coercion(rng, depth - 1, pool)
    right, right_src, right_tgt = random_structural_coercion(rng, depth - 1, pool)
    from ..core.types import ProdType

    return (
        ProdCoercion(left, right),
        ProdType(left_src, right_src),
        ProdType(left_tgt, right_tgt),
    )


def random_space_coercion(
    rng: random.Random,
    length: int = 3,
    depth: int = 3,
    pool: Sequence[Label] | None = None,
    start: Type | None = None,
) -> tuple[SpaceCoercion, Type, Type]:
    """A random canonical coercion (as the normal form of a random λC coercion)."""
    coercion, source, target = random_coercion(
        rng, length=length, depth=depth, pool=pool, start=start
    )
    return coercion_to_space(coercion), source, target


def random_composable_space_pair(
    rng: random.Random,
    length: int = 2,
    depth: int = 3,
    pool: Sequence[Label] | None = None,
) -> tuple[SpaceCoercion, SpaceCoercion, Type, Type, Type]:
    """Two canonical coercions ``s : A ⇒ B`` and ``t : B ⇒ C`` that compose."""
    pool = pool or label_pool(rng)
    first, source, middle = random_space_coercion(rng, length, depth, pool)
    second, _, target = random_space_coercion(rng, length, depth, pool, start=middle)
    return first, second, source, middle, target
