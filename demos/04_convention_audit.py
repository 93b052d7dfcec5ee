"""Normalization audit: what the pinned convention fixes and what it cannot.

Two normalizations of the Fano basis circulate for the two-qubit kernel
parametrization.  The library pins HS2 (basis elements of Hilbert-Schmidt
norm sqrt 2), the unique choice under which the elementary sum rule
|eta_A|^2 + |eta_B|^2 + tr(E E^T) = 1 is the purity condition tr = 4 and
the moduli-sphere construction lands exactly on it.  The composite block
targets derived from the matrix-level constraints under each convention
are printed next to the block values often quoted for this
parametrization; the mismatch is reported, never papered over.
"""

import json

from swphase.reports import convention_report

report = convention_report(seed=0)

print("=" * 72)
print("Convention audit")
print("=" * 72)
print(f"\npinned basis normalization: {report['pinned_convention']}")
print(f"elementary sum rule on a random kernel: "
      f"{report['elementary_sum_rule']:.12f}  (target "
      f"{report['elementary_sum_rule_target']})")

blocks = report["composite_blocks"]
print("\ncomposite kernel block norms (|eta_A|^2, |eta_B|^2, tr E E^T):")
print(f"  measured under HS2       : {[round(v, 10) for v in blocks['measured_hs2']]}")
print(f"  derived targets under HS2: {blocks['targets_hs2']}   (sum 1)")
print(f"  derived targets under HS4: {blocks['targets_hs4']}   (sum 1/2)")
print(f"  often-quoted triple      : {blocks['literature_values']}   (sum 1)")
print("\nThe quoted triple matches the HS4 locals but neither convention's")
print("correlation weight; the matrix-level residuals below are the")
print("authoritative admissibility check either way:")
print(json.dumps(blocks["matrix_residuals"], indent=2))
print("\nfull matrix-level report:")
print(json.dumps(report["composite_matrix_report"], indent=2))
