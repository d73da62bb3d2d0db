"""Worked support instances used by tests, demos, and the acceptance suite.

All three are L = 3 geometries on the canonical rectangle:

* staircase_support: three full cells (0,0), (1,0), (2,1); admits a
  (T, 3)-rectification outright (single class), B(S) = Omega, area exactly 1
  (each cell has area T*Omega = 1/3).
* seven_cell_support: three triangular classes (bottom/left/rest of the base
  rectangle) translated to 7 distinct cells; identifiable with an exact
  3-cover even though no (T, 3)-rectification exists (7 > 3 active cells);
  area exactly 1 and B(S) = 2*Omega up to one subcell.
* sheared_parallelogram_support: the band 0 <= nu - (a/Omega)*t' < Omega (in
  subcell units) wrapped into the rectangle; area 1 with an exact 3-cover.
  Axis-aligned recovery needs 2 classes; a chirped identifier with rate a
  straightens it to a single rectangle.
"""

import numpy as np

from .gabor import _multiple
from .support import CellSupport, _check_grid

__all__ = [
    "staircase_support",
    "seven_cell_support",
    "sheared_parallelogram_support",
    "stacked_cover_violation",
    "translate_collision_support",
]


def staircase_support(T=1.0, P=8):
    return CellSupport(T=T, L=3, P=P, cells=((0, 0), (1, 0), (2, 1)))


def seven_cell_support(T=1.0, P=8):
    """Three classes of base subcells, each carried to three cells.

    Base subcells are split by their centers (u+1/2, v+1/2) into the bottom
    triangle (v_c <= u_c and v_c <= P-u_c), the left triangle (u_c < v_c and
    u_c < P-v_c), and the remainder; the classes occupy cells
    {(0,0),(1,0),(2,0)}, {(0,0),(0,1),(1,1)} and {(1,1),(2,1),(2,2)}.
    """
    T, L, P = _check_grid(T, 3, P)  # before the (P, P) and (L*P, L*P) grids are built
    uc, vc = np.indices((P, P)) + 0.5
    bottom = (vc <= uc) & (vc <= P - uc)
    left = (uc < vc) & (uc < P - vc)  # never bottom: vc <= uc there
    class_points = {
        ((0, 0), (1, 0), (2, 0)): bottom,
        ((0, 0), (0, 1), (1, 1)): left,
        ((1, 1), (2, 1), (2, 2)): ~(bottom | left),
    }
    mask = np.zeros((L * P, L * P), dtype=bool)
    for cells, points in class_points.items():
        for q, m in cells:
            mask[q * P : (q + 1) * P, m * P : (m + 1) * P] |= points
    return CellSupport(T=T, L=3, P=P, mask=mask)


def sheared_parallelogram_support(T=1.0, P=8, shear=1):
    """Band of width Omega along the line nu = a*t with a = shear*Omega, wrapped modulo
    the rectangle; shear must be an integer (an integral float works: gabor._multiple)."""
    T, L, P = _check_grid(T, 3, P)  # before the (L*P, L*P) grid is built
    LP = L * P
    shear = _multiple(shear, 1.0, "shear") % LP  # the band sees shear mod L*P; shear*i fits int64
    i, j = np.meshgrid(np.arange(LP), np.arange(LP), indexing="ij")
    mask = ((j - shear * i) % LP) < P
    return CellSupport(T=T, L=L, P=P, mask=mask)


def stacked_cover_violation(L=3, T=1.0, P=8):
    """L+1 subcells stacked on one base footprint by (T, Omega)-translates:
    periodization count L+1 at the base corner, so identification fails even
    though the support sits inside a fundamental domain."""
    T, L, P = _check_grid(T, L, P)  # before the (L*P, L*P) mask is built
    LP = L * P
    mask = np.zeros((LP, LP), dtype=bool)
    cells = [(0, m) for m in range(L)] + [(1, 0)]
    for q, m in cells:
        mask[q * P, m * P] = True
    return CellSupport(T=T, L=L, P=P, mask=mask)


def translate_collision_support(L=3, T=1.0, P=8):
    """Cell (0, 0) together with its (LT, 0)-translate marked as overflow rows:
    the (LT, 1/T)-fold covers the cell twice, violating the fundamental-domain
    condition."""
    T, L, P = _check_grid(T, L, P)  # before the (L*P + P, L*P) mask is built
    LP = L * P
    mask = np.zeros((LP + P, LP), dtype=bool)
    mask[0:P, 0:P] = True
    mask[LP : LP + P, 0:P] = True
    return CellSupport(T=T, L=L, P=P, mask=mask)
