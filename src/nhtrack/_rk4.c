/* Fixed-step RK4 over the particle flows; loaded by nhtrack.kernels.
 *
 * The coupled right-hand side below is the package's one copy of the
 * particle's state-costate equations; nh_coupled_rhs evaluates it at
 * stacked rows for the checks, the Python Hamiltonian and the tests. The
 * reduced right-hand side, and the state columns of the coupled one at
 * zero costate, give the slopes of the numpy frame model of
 * tests/oracles.py (frame_slopes) value for value; the unreduced one is
 * written term for term like the multiplier model there, in the same
 * evaluation order, so that IEEE double results match bit for bit
 * (tests/test_kernels.py and tests/test_geometry.py require it).
 * Build with -ffp-contract=off and without -ffast-math: a fused
 * multiply-add or a reassociation changes the last bits.
 *
 * State layouts (matching the CSV column order):
 *   reduced   [x, y, z, v1, v2]
 *   unreduced [x, y, z, vx, vy, vz]
 *   coupled   [x, y, z, v1, v2, l1, l2, l3, m1, m2]
 *   paired    [reduced | unreduced], the two 5 + 6 columns side by side
 *
 * The paired system is the product of the reduced and unreduced flows: its
 * rhs is reduced_rhs on the first 5 entries and unreduced_rhs on the last 6.
 * RK4 acts entry by entry and the halves do not interact, so each half's
 * columns are those of its own rollout bit for bit. One loop over both
 * lets the CPU overlap the two halves' chains of dependent divisions.
 *
 * A right-hand side receives the half-grid index j of the stage time
 * t0 + j*(h/2), so the stages of step i sit at j = 2i, 2i+1, 2i+2. The
 * coupled flow reads its reference (x_r, y_r, z_r, v1_r, v2_r) from row j
 * of a (2n+1, 5) table on that half grid.
 *
 * The coupled flow can also carry its forward sensitivity S = dz/dalpha,
 * a (10, 5) block, alongside the states. Each RK4 stage is differentiated
 * exactly (internal numerical differentiation), so S at the last step is
 * the Jacobian of the discrete RK4 map, not of the exact flow.
 */

#include <math.h>

/* the state dimension of each system; the RK4 stage arrays hold MAX_DIM */
#define REDUCED_DIM 5
#define UNREDUCED_DIM 6
#define COUPLED_DIM 10
#define PAIRED_DIM (REDUCED_DIM + UNREDUCED_DIM)
#define MAX_DIM 11

_Static_assert(REDUCED_DIM <= MAX_DIM, "the reduced system is wider than MAX_DIM");
_Static_assert(UNREDUCED_DIM <= MAX_DIM, "the unreduced system is wider than MAX_DIM");
_Static_assert(COUPLED_DIM <= MAX_DIM, "the coupled system is wider than MAX_DIM");
_Static_assert(PAIRED_DIM <= MAX_DIM, "the paired system is wider than MAX_DIM");

typedef struct {
    const double *ref; /* coupled only: the half-grid reference table */
    double eps;        /* coupled only: control-effort weight */
    int literal;       /* coupled only: paper-literal instead of derived adjoint */
} params;

typedef void (*rhs_fn)(const double *s, long j, const params *p, double *out);

static void reduced_rhs(const double *s, long j, const params *p, double *out)
{
    double y = s[1], v1 = s[3], v2 = s[4];
    (void)j;
    (void)p;
    out[0] = -y * v2;
    out[1] = v1;
    out[2] = v2;
    out[3] = 0.0;
    out[4] = -(y / (1.0 + y * y)) * v1 * v2;
}

static void unreduced_rhs(const double *s, long j, const params *p, double *out)
{
    double y = s[1], vx = s[3], vy = s[4], vz = s[5];
    double lam = -vz * vy / (1.0 + y * y);
    (void)j;
    (void)p;
    out[0] = vx;
    out[1] = vy;
    out[2] = vz;
    out[3] = lam;
    out[4] = 0.0;
    out[5] = y * lam;
}

/* The product flow [reduced | unreduced]. */
static void paired_rhs(const double *s, long j, const params *p, double *out)
{
    reduced_rhs(s, j, p, out);
    unreduced_rhs(s + REDUCED_DIM, j, p, out + REDUCED_DIM);
}

/* State-costate flow with the control u = -mu/eps. */
static void coupled_rhs(const double *s, long j, const params *p, double *out)
{
    double x = s[0], y = s[1], z = s[2], v1 = s[3], v2 = s[4];
    double l1 = s[5], l2 = s[6], l3 = s[7], m1 = s[8], m2 = s[9];
    const double *r = p->ref + 5 * j;
    double eps = p->eps;
    double w = 1.0 + y * y;
    double f = y / w;
    double ex = x - r[0];
    double ey = y - r[1];
    double ez = z - r[2];
    double e1 = v1 - r[3];
    double e2 = v2 - r[4];
    double dl2, dm1, dm2;
    if (p->literal) {
        dl2 = l1 * v2 - ey + eps * v1 * v2 * m2 * (y * y - 1.0) / (w * w);
        dm1 = -l2 - e1 - m2 * f * v2;
        dm2 = -l3 + l1 * y - e2 - m2 * f * v1;
    } else {
        dl2 = l1 * v2 - ey + m2 * v1 * v2 * (1.0 - y * y) / (w * w);
        dm1 = -l2 - e1 + m2 * f * v2;
        dm2 = l1 * y - l3 - e2 + m2 * f * v1;
    }
    out[0] = -y * v2;
    out[1] = v1;
    out[2] = v2;
    out[3] = -m1 / eps;
    out[4] = -m2 / eps - f * v1 * v2;
    out[5] = -ex;
    out[6] = dl2;
    out[7] = -ez;
    out[8] = dm1;
    out[9] = dm2;
}

/* coupled_rhs at m stacked rows: row i of z, shape (m, 10), against row i
 * of ref, shape (m, 5), into row i of out, shape (m, 10). */
void nh_coupled_rhs(const double *z, long m, const double *ref, double eps, int literal, double *out)
{
    params p = {ref, eps, literal};
    for (long i = 0; i < m; i++)
        coupled_rhs(z + 10 * i, i, &p, out + 10 * i);
}

/* out = A u for the (10, 5) blocks u and out, where A = d coupled_rhs / dz
 * at state s. A does not depend on the reference. Its 27 nonzero entries
 * are formed once and applied to each of the 5 columns. */
static void coupled_jac(const double *s, const params *p, const double *u, double *out)
{
    double y = s[1], v1 = s[3], v2 = s[4], l1 = s[5], m2 = s[9];
    double w = 1.0 + y * y;
    double f = y / w;
    double g = (1.0 - y * y) / (w * w);                /* df/dy */
    double dg = 2.0 * y * (y * y - 3.0) / (w * w * w); /* dg/dy */
    double ie = 1.0 / p->eps;
    /* the m2 coupling enters dl2 with weight c6 and dm1, dm2 with sign sg */
    double c6 = p->literal ? -p->eps : 1.0;
    double sg = p->literal ? -1.0 : 1.0;
    double a0y = -v2, a0v2 = -y;
    double a4y = -g * v1 * v2, a4v1 = -f * v2, a4v2 = -f * v1;
    double a6y = -1.0 + c6 * m2 * v1 * v2 * dg, a6v1 = c6 * m2 * v2 * g;
    double a6v2 = l1 + c6 * m2 * v1 * g, a6m2 = c6 * v1 * v2 * g;
    double a8y = sg * m2 * g * v2, a8v2 = sg * m2 * f, a8m2 = sg * f * v2;
    double a9y = l1 + sg * m2 * g * v1, a9v1 = sg * m2 * f, a9m2 = sg * f * v1;
    for (int c = 0; c < 5; c++) {
        double dx = u[c], dy = u[5 + c], dz = u[10 + c], dv1 = u[15 + c], dv2 = u[20 + c];
        double dl1 = u[25 + c], dl2 = u[30 + c], dl3 = u[35 + c], dm1 = u[40 + c], dm2 = u[45 + c];
        out[c] = a0y * dy + a0v2 * dv2;
        out[5 + c] = dv1;
        out[10 + c] = dv2;
        out[15 + c] = -ie * dm1;
        out[20 + c] = a4y * dy + a4v1 * dv1 + a4v2 * dv2 - ie * dm2;
        out[25 + c] = -dx;
        out[30 + c] = a6y * dy + a6v1 * dv1 + a6v2 * dv2 + v2 * dl1 + a6m2 * dm2;
        out[35 + c] = -dz;
        out[40 + c] = a8y * dy - dv1 + a8v2 * dv2 - dl2 + a8m2 * dm2;
        out[45 + c] = a9y * dy + a9v1 * dv1 - dv2 + y * dl1 - dl3 + a9m2 * dm2;
    }
}

#define SENS 50 /* entries of the coupled sensitivity block, (10, 5) */

/* dk = A(s) (S + c*dk_prev), the derivative of one RK4 stage. */
static void stage_sens(const double *s, const params *p, const double *S, double c,
                       const double *dk_prev, double *dk)
{
    double u[SENS];
    for (int e = 0; e < SENS; e++)
        u[e] = S[e] + c * dk_prev[e];
    coupled_jac(s, p, u, dk);
}

static const struct {
    rhs_fn rhs;
    int dim;
} systems[] = {
    {reduced_rhs, REDUCED_DIM},
    {unreduced_rhs, UNREDUCED_DIM},
    {coupled_rhs, COUPLED_DIM},
    {paired_rhs, PAIRED_DIM},
};

/* Integrate system `kind` (0 reduced, 1 unreduced, 2 coupled, 3 paired)
 * from row 0 of states, shape (n_steps+1, dim), writing every step into the
 * next row.
 * Returns -1, or the index i of the first step whose result row i+1 has a
 * non-finite entry; the rows after it are left unwritten. The update keeps
 * the grouping x + h*((k1 + 2k2 + 2k3 + k4)/6).
 *
 * sens is NULL, or (coupled only) the (10, 5) sensitivity block at row 0,
 * which is advanced in place to the last row written. The states do not
 * depend on it. */
long nh_rk4(int kind, double *states, long n_steps, double h,
            const double *ref, double eps, int literal, double *sens)
{
    rhs_fn rhs = systems[kind].rhs;
    int d = systems[kind].dim;
    params p = {ref, eps, literal};
    double hh = 0.5 * h;
    double k1[MAX_DIM], k2[MAX_DIM], k3[MAX_DIM], k4[MAX_DIM], t[MAX_DIM];
    double dk1[SENS], dk2[SENS], dk3[SENS], dk4[SENS];
    for (long i = 0; i < n_steps; i++) {
        const double *x = states + i * d;
        double *next = states + (i + 1) * d;
        long j = 2 * i;
        int finite = 1;
        rhs(x, j, &p, k1);
        if (sens)
            coupled_jac(x, &p, sens, dk1);
        for (int c = 0; c < d; c++)
            t[c] = x[c] + hh * k1[c];
        rhs(t, j + 1, &p, k2);
        if (sens)
            stage_sens(t, &p, sens, hh, dk1, dk2);
        for (int c = 0; c < d; c++)
            t[c] = x[c] + hh * k2[c];
        rhs(t, j + 1, &p, k3);
        if (sens)
            stage_sens(t, &p, sens, hh, dk2, dk3);
        for (int c = 0; c < d; c++)
            t[c] = x[c] + h * k3[c];
        rhs(t, j + 2, &p, k4);
        if (sens) {
            stage_sens(t, &p, sens, h, dk3, dk4);
            for (int e = 0; e < SENS; e++)
                sens[e] += h * ((dk1[e] + 2.0 * dk2[e] + 2.0 * dk3[e] + dk4[e]) / 6.0);
        }
        for (int c = 0; c < d; c++) {
            next[c] = x[c] + h * ((k1[c] + 2.0 * k2[c] + 2.0 * k3[c] + k4[c]) / 6.0);
            finite &= isfinite(next[c]) != 0;
        }
        if (!finite)
            return i;
    }
    return -1;
}
