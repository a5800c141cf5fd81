"""Certify that every basic open of a finite model is contractible.

Each element x of a finite poset owns a basic open set, the elements
above x.  When each of these is a cone the comparison map between the
order complex and the finite space behaves like a weak equivalence, so
the homology read off the complex is trustworthy for the space itself.
"""

from tphi.mccord import basis_certificates, cw_type_report, finite_space_homology
from tphi.homology import format_homology
from tphi.models import build_tphi_power

mp = build_tphi_power(2, 2)
report = basis_certificates(mp.poset)

width = max(len(c.element) for c in report.certificates)
for cert in report.certificates:
    print(f"{cert.element.ljust(width)}  {cert.kind}  size={cert.size}")
print()
print("verdict:", report.verdict)
print()
for line in format_homology(finite_space_homology(mp.poset)):
    print(line)

# the space itself is a circle, so its comparability component cannot be
# contractible: the CW-type check reports the obstruction honestly
cw = cw_type_report(mp.poset)
print()
print("CW type:", cw.verdict)
for comp in cw.components:
    print(f"  component of {comp.elements[0]}: {comp.status}")
