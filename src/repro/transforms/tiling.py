"""Revisited tiling (Listing 3 of the paper).

Tiling splits a band's iteration space into tile loops and point loops so
that the working set of one tile fits the CIM crossbar; combined with an
interchange of the tile loops it maximises reuse of the operand tile that
has been written to the crossbar, reducing crossbar writes and therefore
improving endurance.

The transformation operates on a chain of nested single-dimension bands (the
canonical schedule of a perfect loop nest): it inserts a new tile band above
the chain and rewrites the original bands into point bands whose loops run
within one tile (the AST generator emits ``min`` upper bounds for them).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.poly.schedule_tree import BandNode, DomainNode, path_to, replace_node
from repro.tactics.patterns import KernelMatch


class TilingError(RuntimeError):
    """Illegal or impossible tiling request."""


def tile_band_chain(
    tree: DomainNode,
    bands: Sequence[BandNode],
    tile_sizes: dict[str, int],
    tile_loop_order: Optional[Sequence[str]] = None,
) -> BandNode:
    """Tile a chain of nested 1-D bands in *tree*.

    ``bands`` is the chain outermost-first (each band must be the single
    child of the previous one).  ``tile_sizes`` maps loop-variable names to
    tile sizes; loops not mentioned are left untiled.  ``tile_loop_order``
    optionally fixes the order of the *tile* loops (outermost first),
    defaulting to the original loop order — passing e.g. ``("i", "k", "j")``
    reproduces the interchange of Listing 3.

    Returns the newly inserted tile band.
    """
    if not bands:
        raise TilingError("cannot tile an empty band chain")
    for band in bands:
        if band.n_dims != 1:
            raise TilingError("tile_band_chain expects single-dimension bands")
    for outer, inner in zip(bands, bands[1:]):
        if outer.child is not inner:
            raise TilingError("bands do not form a nested chain")
    chain_vars = [band.dims[0] for band in bands]
    unknown = set(tile_sizes) - set(chain_vars)
    if unknown:
        raise TilingError(f"tile sizes given for loops not in the chain: {sorted(unknown)}")
    for var, size in tile_sizes.items():
        if size <= 0:
            raise TilingError(f"tile size for {var!r} must be positive, got {size}")
    tiled_vars = [var for var in chain_vars if var in tile_sizes]
    if not tiled_vars:
        raise TilingError("no loops selected for tiling")

    order = list(tile_loop_order) if tile_loop_order is not None else list(tiled_vars)
    if sorted(order) != sorted(tiled_vars):
        raise TilingError(
            "tile_loop_order must be a permutation of the tiled loops "
            f"({sorted(tiled_vars)}), got {order}"
        )

    outermost = bands[0]
    try:
        path = path_to(tree, outermost)
    except LookupError:
        raise TilingError("cannot tile a detached band chain") from None

    # Build the tile band: one dimension per tiled loop, in the given order.
    tile_dims = [f"{var}_t" for var in order]
    tile_steps = {f"{var}_t": tile_sizes[var] for var in order}
    tile_band = BandNode(tile_dims, permutable=True, tile_steps=tile_steps)

    # Splice the tile band between the parent and the original chain.
    replace_node(path, tile_band)
    tile_band.set_child(0, outermost)

    # Point bands: original loops now iterate within their tile.
    for band in bands:
        var = band.dims[0]
        if var in tile_sizes:
            band.tile_origin = {var: (f"{var}_t", tile_sizes[var])}
    return tile_band


def tile_gemm_for_crossbar(
    tree: DomainNode,
    match: KernelMatch,
    crossbar_rows: int = 256,
    crossbar_cols: int = 256,
) -> BandNode:
    """Apply the paper's Listing 3 tiling to a matched GEMM.

    The ``A`` operand is indexed by ``(i, k)``; to make one ``A`` tile fit
    the crossbar we tile ``i`` by the number of crossbar columns and ``k`` by
    the number of crossbar rows, tile ``j`` by the column-buffer-friendly
    crossbar width, and order the tile loops ``(i_t, k_t, j_t)`` so the
    ``A`` tile written to the crossbar is reused across the whole ``j_t``
    sweep before the next tile is written.
    """
    if match.kind != "gemm":
        raise TilingError("tile_gemm_for_crossbar needs a GEMM match")
    bands = match.band_chain(tree)
    chain_vars = [band.dims[0] for band in bands]
    i_var, j_var, k_var = match.dims["i"], match.dims["j"], match.dims["k"]
    missing = {i_var, j_var, k_var} - set(chain_vars)
    if missing:
        raise TilingError(
            f"GEMM loops {sorted(missing)} are not in the band chain {chain_vars}"
        )
    update_bands = [b for b in bands if b.dims[0] in (i_var, j_var, k_var)]
    sizes = {
        i_var: crossbar_cols,
        k_var: crossbar_rows,
        j_var: crossbar_cols,
    }
    order = [i_var, k_var, j_var]
    return tile_band_chain(tree, update_bands, sizes, tile_loop_order=order)
