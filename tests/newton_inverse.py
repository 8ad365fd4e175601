"""Newton iteration for the inverse of a unit polynomial, kept as the
test oracle of `LocalFieldCtx.poly_inv` (its `pow` at e = 1 and its
linear solve at e >= 2)."""


def poly_inv_newton(ctx, u: tuple[int, ...]) -> tuple[int, ...]:
    """Newton iteration from the residue inverse, for a unit
    polynomial at any e."""
    p, pm = ctx.p, ctx.coeff_mod
    w = (pow(u[0] % p, -1, p),) + (0,) * (ctx.e - 1)
    # agreement doubles each step
    steps = max(1, (ctx.e * ctx.coeff_exp).bit_length())
    two = (2 % pm,) + (0,) * (ctx.e - 1)
    for _ in range(steps):
        t = ctx.poly_mul(u, w)
        t = tuple((two[i] - t[i]) % pm for i in range(ctx.e))
        w = ctx.poly_mul(w, t)
    return w
