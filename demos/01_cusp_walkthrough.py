"""Resolving the cusp x^2 + y^3 and reading off its zeta function.

The cusp is the smallest germ where something interesting happens: three
point blowups are needed before the total transform has normal crossings,
and the zeta function picks up a pole away from -1.
"""

from fractions import Fraction

from topzeta import (
    blowup_step,
    initial_state,
    lct_local,
    parse_poly,
    poles,
    resolution_data,
    zeta_local,
)

f = parse_poly("x^2 + y^3", ["x", "y"])
print(f"germ: {f.to_text()}")

# Run the blowup pipeline step by step and watch the numerical data appear.
# Each exceptional curve E carries N = multiplicity of the pullback of f and
# nu - 1 = multiplicity of the pulled-back volume form.
# blowup_step advances the state in place, one pending center at a time.
state = initial_state(f)
print("\nblowups:")
while state.pending_centers:
    blowup_step(state, state.pending_centers[0])
    step = state.history[-1]
    through = " and ".join(step.parents) if step.parents else "nothing"
    print(
        f"  step {step.index}: center {step.center} (through {through}) "
        f"-> {step.component_id} with (N, nu) = ({step.N}, {step.nu}); "
        f"{len(state.pending_centers)} center(s) still pending"
    )
print(f"resolved in {len(state.history)} blowups")

rd = resolution_data(state)
print("\ncomponents and the strata Euler characteristics over the origin:")
for c in rd.components:
    print(f"  {c.id}: (N, nu) = ({c.N}, {c.nu})")
for st in sorted(rd.strata, key=lambda st: (len(st.ids), sorted(st.ids))):
    print(f"  chi(E_I° over 0) for I = {sorted(st.ids)}: {st.chi_origin}")

# The zeta function is the sum over strata of chi / prod (nu_i + N_i s).
z = zeta_local(rd)
print(f"\nZ = {z}")
pt = poles(z, rd)
for p in pt:
    print(f"  pole {p.location} of order {p.order}")
print(f"log canonical threshold: {lct_local(rd)}")

assert lct_local(rd) == Fraction(5, 6)
assert pt.closest_to_origin().location == Fraction(-5, 6)
print("\nthe pole closest to the origin is exactly -lct, as it must be")
