/*
 * Dormand–Prince 5(4) for paper System (1) under constant controls.
 *
 * For every degree group g of n, with Θ = (1/⟨k⟩) Σ_g φ_g I_g:
 *
 *     dS_g/dt = (α − (λ_g S_g) Θ) − ε1 S_g
 *     dI_g/dt = (λ_g S_g) Θ − ε2 I_g
 *
 * and R_g = (total_g + α·(t − t0)) − S_g − I_g, with total = S + I + R
 * at the first output time t0.  Each of the `rows` rows is its own
 * integration of (S, I) under the control law of repro.numerics.ode's
 * dopri45: the Hairer–Nørsett–Wanner first step, the PI controller
 * (safety 0.9, β 0.04, factor clamp [0.2, 5]), the shrink-by-4 retry of a
 * non-finite trial state, the underflow floor 1e-14·max(|t|, 1), and
 * cubic-Hermite dense output at the grid times.  R stays in the error
 * norm, its error taken from the stage increments before y is added.
 * Given the caller's slope f(t0, y0), a row first checks that it is the
 * kernel's own, so constants that do not describe f are refused.
 *
 * Built by repro/numerics/system1.py with -O3 -fPIC -shared
 * -ffp-contract=off -pthread and called through ctypes.  The routine
 * keeps no state between calls: its workspace is allocated per call, and
 * the POSIX threads that share its rows start with the call and are
 * joined before it returns.  A row's arithmetic does not depend on the
 * thread that runs it, so the answers do not depend on the thread count.
 *
 * At -O3 GCC vectorizes every per-group loop (the right-hand side, the
 * stage combinations, the error norm, the dense output, the first step)
 * with the baseline ISA's vectors, two doubles under x86-64's SSE2.
 * That moves no bit: each lane does the scalar operations in the same
 * order, no multiply-add is fused (-ffp-contract=off), and without
 * -ffast-math each vectorized sum still adds its terms one at a time
 * in loop order.  Only the early-exit loops (all_finite, same_slope's
 * check) stay scalar.
 */
#include <math.h>
#include <pthread.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>

enum {
    S1_OK = 0,
    S1_UNDERFLOW = 1,   /* step size fell below the floor */
    S1_NONFINITE = 2,   /* a non-finite trial state shrank h to the floor */
    S1_EXHAUSTED = 3,   /* max_attempts attempted steps before t_final */
    S1_NOMEMORY = 4,
    S1_MISMATCH = 5     /* the caller's slope at t0 is not the kernel's */
};

/* Dormand–Prince tableau; stage times are not needed (autonomous). */
static const double A21 = 1.0 / 5.0;
static const double A31 = 3.0 / 40.0, A32 = 9.0 / 40.0;
static const double A41 = 44.0 / 45.0, A42 = -56.0 / 15.0, A43 = 32.0 / 9.0;
static const double A51 = 19372.0 / 6561.0, A52 = -25360.0 / 2187.0,
                    A53 = 64448.0 / 6561.0, A54 = -212.0 / 729.0;
static const double A61 = 9017.0 / 3168.0, A62 = -355.0 / 33.0,
                    A63 = 46732.0 / 5247.0, A64 = 49.0 / 176.0,
                    A65 = -5103.0 / 18656.0;
/* 5th-order weights (b2 = b7 = 0); the last stage's input is y5 itself. */
static const double B1 = 35.0 / 384.0, B3 = 500.0 / 1113.0,
                    B4 = 125.0 / 192.0, B5 = -2187.0 / 6784.0,
                    B6 = 11.0 / 84.0;
/* Embedded 4th-order weights (b2 = 0). */
static const double E1 = 5179.0 / 57600.0, E3 = 7571.0 / 16695.0,
                    E4 = 393.0 / 640.0, E5 = -92097.0 / 339200.0,
                    E6 = 187.0 / 2100.0, E7 = 1.0 / 40.0;

static const double SAFETY = 0.9, BETA = 0.04, ORDER = 5.0;
static const double MIN_FACTOR = 0.2, MAX_FACTOR = 5.0;

/* Python's max()/min() on floats: the first argument wins ties and NaN. */
static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

static double underflow_floor(double t) { return 1e-14 * py_max(fabs(t), 1.0); }

typedef struct {
    int64_t n;
    const double *phi, *lam;
    double mean_degree, alpha, eps1, eps2;
} row_t;

/* (S, I) derivatives of the state y = [S | I] into dy. */
static void rhs(const row_t *p, const double *y, double *dy)
{
    const int64_t n = p->n;
    const double *s = y, *inf = y + n, *phi = p->phi, *lam = p->lam;
    double *ds = dy, *di = dy + n;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    int64_t g = 0;
    for (; g + 4 <= n; g += 4) {
        a0 += inf[g] * phi[g];
        a1 += inf[g + 1] * phi[g + 1];
        a2 += inf[g + 2] * phi[g + 2];
        a3 += inf[g + 3] * phi[g + 3];
    }
    for (; g < n; g++)
        a0 += inf[g] * phi[g];
    const double theta = ((a0 + a1) + (a2 + a3)) / p->mean_degree;
    const double alpha = p->alpha, e1 = p->eps1, e2 = p->eps2;
    for (g = 0; g < n; g++) {
        const double infection = (lam[g] * s[g]) * theta;
        ds[g] = (alpha - infection) - e1 * s[g];
        di[g] = infection - e2 * inf[g];
    }
}

/* Hairer–Nørsett–Wanner first step size, its norms over (S, I, R) with
 * R's value and slope from the conservation law.  f0 = f(y0) is given;
 * y1 and f1 are scratch. */
static double first_step(const row_t *p, const double *y0, const double *total,
                         const double *f0, double *y1, double *f1,
                         double rtol, double atol, double h_max)
{
    const int64_t n = p->n, d = 2 * n;
    double d0 = 0.0, d1 = 0.0, d2 = 0.0;
    for (int64_t g = 0; g < n; g++) {
        const double r0 = (total[g] - y0[g]) - y0[n + g];
        const double sc = atol + rtol * fabs(r0);
        const double fr = (p->alpha - f0[g]) - f0[n + g];
        d0 += (r0 / sc) * (r0 / sc);
        d1 += (fr / sc) * (fr / sc);
    }
    for (int64_t i = 0; i < d; i++) {
        const double sc = atol + rtol * fabs(y0[i]);
        d0 += (y0[i] / sc) * (y0[i] / sc);
        d1 += (f0[i] / sc) * (f0[i] / sc);
    }
    const double width = (double)(3 * n);
    d0 = sqrt(d0 / width);
    d1 = sqrt(d1 / width);
    const double h0 = (d0 < 1e-5 || d1 < 1e-5) ? 1e-6 : 0.01 * d0 / d1;
    for (int64_t i = 0; i < d; i++)
        y1[i] = y0[i] + h0 * f0[i];
    rhs(p, y1, f1);
    for (int64_t g = 0; g < n; g++) {
        const double r0 = (total[g] - y0[g]) - y0[n + g];
        const double sc = atol + rtol * fabs(r0);
        const double fr0 = (p->alpha - f0[g]) - f0[n + g];
        const double fr1 = (p->alpha - f1[g]) - f1[n + g];
        d2 += ((fr1 - fr0) / sc) * ((fr1 - fr0) / sc);
    }
    for (int64_t i = 0; i < d; i++) {
        const double sc = atol + rtol * fabs(y0[i]);
        d2 += ((f1[i] - f0[i]) / sc) * ((f1[i] - f0[i]) / sc);
    }
    d2 = sqrt(d2 / width) / h0;
    const double dm = py_max(d1, d2);
    const double h1 = dm <= 1e-15 ? py_max(1e-6, h0 * 1e-3)
                                  : pow(0.01 / dm, 1.0 / 5.0);
    return py_min(py_min(100.0 * h0, h1), h_max);
}

static int all_finite(const double *v, int64_t len)
{
    for (int64_t i = 0; i < len; i++)
        if (!isfinite(v[i]))
            return 0;
    return 1;
}

/* Whether a and b agree up to rounding, given the size of their terms. */
static int agree(double a, double b, double terms)
{
    return a == b || fabs(a - b) <= 1e-9 * terms || (isnan(a) && isnan(b));
}

/* Whether the caller's slope `given` = f(t0, y0) on (S, I, R) is the
 * kernel's own k0 (with R's slope ε1 S + ε2 I), each component up to
 * rounding in the magnitudes of the terms it sums. */
static int same_slope(const row_t *p, const double *y0, const double *k0,
                      const double *given)
{
    const int64_t n = p->n;
    double coupling = 0.0;              /* Θ with its terms' magnitudes */
    for (int64_t g = 0; g < n; g++)
        coupling += fabs(p->phi[g] * y0[n + g]);
    coupling /= p->mean_degree;
    for (int64_t g = 0; g < n; g++) {
        const double loss_s = p->eps1 * y0[g], loss_i = p->eps2 * y0[n + g];
        const double infection = fabs(p->lam[g] * y0[g]) * coupling;
        if (!agree(given[g], k0[g],
                   fabs(p->alpha) + infection + fabs(loss_s))
            || !agree(given[n + g], k0[n + g], infection + fabs(loss_i))
            || !agree(given[2 * n + g], loss_s + loss_i,
                      fabs(loss_s) + fabs(loss_i)))
            return 0;
    }
    return 1;
}

/* Write the grid point at time tj: (S, I) from `si`, R rebuilt. */
static void fill_recovered(const row_t *p, const double *total, double t0,
                           double tj, double *o)
{
    const int64_t n = p->n;
    const double grown = p->alpha * (tj - t0);
    for (int64_t g = 0; g < n; g++)
        o[2 * n + g] = ((total[g] + grown) - o[g]) - o[n + g];
}

/* One row's whole integration; returns an S1_* status. */
static int solve_row(const row_t *p, int64_t m, const double *grid,
                     const double *y0, double rtol, double atol,
                     const double *slope, double h_init, double h_max,
                     int64_t max_attempts, double *out, int64_t out_stride,
                     double *work, int64_t *accepted, int64_t *rejected,
                     double *h_lo, double *h_hi, double *fail)
{
    const int64_t n = p->n, d = 2 * n;
    double *k[7];
    for (int s = 0; s < 7; s++)
        k[s] = work + s * d;
    double *y = work + 7 * d, *y5 = work + 8 * d, *ys = work + 9 * d;
    double *inc5 = work + 10 * d, *total = work + 11 * d;
    const double t0 = grid[0], tf = grid[m - 1];
    const double alpha = p->alpha;

    for (int64_t g = 0; g < n; g++)
        total[g] = (y0[g] + y0[n + g]) + y0[2 * n + g];
    for (int64_t i = 0; i < d; i++)
        y[i] = y0[i];
    for (int64_t i = 0; i < 3 * n; i++)
        out[i] = y0[i];

    double h;
    rhs(p, y, k[0]);
    if (slope != NULL && !same_slope(p, y0, k[0], slope))
        return S1_MISMATCH;
    if (h_init > 0.0)
        h = py_min(h_init, h_max);
    else
        h = first_step(p, y, total, k[0], ys, k[1], rtol, atol, h_max);

    double t = t0, err_prev = 1.0;
    double lo = INFINITY, hi = 0.0;
    int64_t acc = 0, rej = 0, next = 1;
    int status = S1_OK;
    const double width = (double)(3 * n);
    for (;;) {
        if (t >= tf)
            break;
        if (acc + rej >= max_attempts) {
            status = S1_EXHAUSTED;
            break;
        }
        h = py_min(py_min(h, tf - t), h_max);
        if (!(h >= underflow_floor(t))) {   /* a NaN step too */
            status = S1_UNDERFLOW;
            break;
        }
        const double *k0 = k[0], *k1 = k[1], *k2 = k[2], *k3 = k[3],
                     *k4 = k[4], *k5 = k[5];
        for (int64_t i = 0; i < d; i++)
            ys[i] = (A21 * k0[i]) * h + y[i];
        rhs(p, ys, k[1]);
        for (int64_t i = 0; i < d; i++)
            ys[i] = (A31 * k0[i] + A32 * k1[i]) * h + y[i];
        rhs(p, ys, k[2]);
        for (int64_t i = 0; i < d; i++)
            ys[i] = (A41 * k0[i] + A42 * k1[i] + A43 * k2[i]) * h + y[i];
        rhs(p, ys, k[3]);
        for (int64_t i = 0; i < d; i++)
            ys[i] = (A51 * k0[i] + A52 * k1[i] + A53 * k2[i]
                     + A54 * k3[i]) * h + y[i];
        rhs(p, ys, k[4]);
        for (int64_t i = 0; i < d; i++)
            ys[i] = (A61 * k0[i] + A62 * k1[i] + A63 * k2[i]
                     + A64 * k3[i] + A65 * k4[i]) * h + y[i];
        rhs(p, ys, k[5]);
        /* Two loops: as one, its 13 run-time alias checks exceed GCC's
         * limit of 10 and it stays scalar. */
        for (int64_t i = 0; i < d; i++)
            inc5[i] = (B1 * k0[i] + B3 * k2[i] + B4 * k3[i] + B5 * k4[i]
                       + B6 * k5[i]) * h;
        for (int64_t i = 0; i < d; i++)
            y5[i] = inc5[i] + y[i];
        rhs(p, y5, k[6]);
        const double *k6 = k[6];

        /* err = RMS((y5 − y4) / (atol + rtol·max(|y|, |y5|))) over
         * (S, I, R); R's error is minus the sum of the (S, I) increment
         * differences, its size from the conservation law. */
        const double t_new = t + h;
        const double grown = alpha * (t - t0), grown5 = alpha * (t_new - t0);
        double sum = 0.0;
        for (int64_t g = 0; g < n; g++) {
            const int64_t c = n + g;
            const double d4s = (E1 * k0[g] + E3 * k2[g] + E4 * k3[g]
                                + E5 * k4[g] + E6 * k5[g] + E7 * k6[g]) * h;
            const double d4i = (E1 * k0[c] + E3 * k2[c] + E4 * k3[c]
                                + E5 * k4[c] + E6 * k5[c] + E7 * k6[c]) * h;
            const double es = y5[g] - (d4s + y[g]);
            const double ei = y5[c] - (d4i + y[c]);
            const double er = (inc5[g] - d4s) + (inc5[c] - d4i);
            const double r = ((total[g] + grown) - y[g]) - y[c];
            const double r5 = ((total[g] + grown5) - y5[g]) - y5[c];
            const double ss = py_max(fabs(y5[g]), fabs(y[g])) * rtol + atol;
            const double si = py_max(fabs(y5[c]), fabs(y[c])) * rtol + atol;
            const double sr = py_max(fabs(r5), fabs(r)) * rtol + atol;
            sum += (es / ss) * (es / ss) + (ei / si) * (ei / si)
                   + (er / sr) * (er / sr);
        }
        double err = sqrt(sum / width);
        if (!isfinite(err) && !(all_finite(y5, d) && all_finite(k6, d))) {
            /* Shrink aggressively and retry rather than aborting. */
            rej++;
            h *= 0.25;
            if (!(h >= underflow_floor(t))) {
                status = S1_NONFINITE;
                break;
            }
            continue;
        }
        if (err <= 1.0) {
            acc++;
            lo = py_min(lo, h);
            hi = py_max(hi, h);
            while (next < m && grid[next] <= t_new + 1e-14) {
                const double hh = t_new - t, s = (grid[next] - t) / hh;
                const double u = (1.0 - s) * (1.0 - s);
                const double h00 = (1.0 + 2.0 * s) * u, h10 = s * u;
                const double h01 = (s * s) * (3.0 - 2.0 * s);
                const double h11 = (s * s) * (s - 1.0);
                const double c10 = h10 * hh, c11 = h11 * hh;
                double *o = out + next * out_stride;
                for (int64_t i = 0; i < d; i++)
                    o[i] = ((h00 * y[i] + c10 * k0[i]) + h01 * y5[i])
                           + c11 * k6[i];
                fill_recovered(p, total, t0, grid[next], o);
                next++;
            }
            t = t_new;
            double *swap = y;
            y = y5;
            y5 = swap;
            swap = k[0];                /* FSAL: k7 is f(t_new, y5) */
            k[0] = k[6];
            k[6] = swap;
            err = py_max(err, 1e-10);
            const double factor = SAFETY * pow(err, -0.7 / ORDER)
                                  * pow(err_prev, BETA);
            err_prev = err;
            h *= py_min(MAX_FACTOR, py_max(MIN_FACTOR, factor));
        } else {
            rej++;
            h *= py_max(MIN_FACTOR, SAFETY * pow(err, -1.0 / ORDER));
        }
    }
    if (status == S1_OK) {
        /* Grid points at t_final within round-off take the final state. */
        for (; next < m; next++) {
            double *o = out + next * out_stride;
            for (int64_t i = 0; i < d; i++)
                o[i] = y[i];
            fill_recovered(p, total, t0, grid[next], o);
        }
    }
    *accepted = acc;
    *rejected = rej;
    *h_lo = lo;
    *h_hi = hi;
    fail[0] = t;
    fail[1] = h;
    return status;
}

/* A row's outcome. */
typedef struct {
    int status;                 /* S1_* */
    double where[2];            /* the (t, h) it ended at */
} slot_t;

/* One call's arguments, its rows' outcomes and the counters its workers
 * share. */
typedef struct {
    int64_t n, rows, m, lam_stride, max_attempts;
    const double *grid, *y0, *phi, *lam, *alpha, *eps1, *eps2, *slope;
    double mean_degree, rtol, atol, h_init, h_max;
    double *out, *h_lo, *h_hi;
    int64_t *accepted, *rejected;
    slot_t *slots;
    atomic_int_fast64_t next;   /* the first row no worker has claimed */
    atomic_int stopped;         /* a row failed other than by exhaustion */
} call_t;

typedef struct {
    call_t *call;
    double *work;               /* this worker's workspace */
    pthread_t thread;
    int started;                /* a helper whose thread is running */
} worker_t;

/* Claim and solve rows until none is left or one has failed other than
 * by exhaustion.  A claimed row always runs, and rows are claimed in
 * order, so every row before the first failing one runs. */
static void *solve_rows(void *arg)
{
    const worker_t *w = arg;
    call_t *c = w->call;
    const int64_t n = c->n;
    while (!atomic_load(&c->stopped)) {
        const int64_t b = atomic_fetch_add(&c->next, 1);
        if (b >= c->rows)
            break;
        const row_t p = {n, c->phi, c->lam + b * c->lam_stride,
                         c->mean_degree, c->alpha[b], c->eps1[b], c->eps2[b]};
        slot_t *slot = &c->slots[b];
        slot->where[0] = slot->where[1] = 0.0;  /* a mismatch sets neither */
        slot->status = solve_row(
            &p, c->m, c->grid, c->y0 + b * 3 * n, c->rtol, c->atol,
            c->slope == NULL ? NULL : c->slope + b * 3 * n, c->h_init,
            c->h_max, c->max_attempts, c->out + b * 3 * n,
            c->rows * 3 * n, w->work, c->accepted + b, c->rejected + b,
            c->h_lo + b, c->h_hi + b, slot->where);
        if (slot->status != S1_OK && slot->status != S1_EXHAUSTED)
            atomic_store(&c->stopped, 1);
    }
    return NULL;
}

/*
 * Integrate `rows` rows of System (1) over grid[0..m-1] on up to
 * `threads` threads: the calling thread and helpers that each take the
 * next unsolved row; a helper that cannot start leaves its rows to the
 * others.
 *
 * y0 is (rows, 3n) [S | I | R]; lam is (n,) with lam_stride 0 or
 * (rows, n) with lam_stride n; alpha, eps1, eps2 are (rows,).  slope,
 * unless NULL, is the caller's (rows, 3n) f(t0, y0).  h_init <= 0
 * selects the first-step heuristic.  out is (m, rows, 3n); row 0 of the
 * grid receives y0 exactly.  accepted, rejected, h_lo and h_hi are
 * (rows,).  The result is that of solving the rows in order on one
 * thread: a row that exhausts its attempts is counted in *stuck_rows and
 * the rest still run; any other failure stops the call, and the rows
 * after it report no steps (h_lo inf, h_hi 0).  The reported row — the
 * failing one, else the first stuck one — goes to *fail_row and its
 * (t, h) to fail[0..1].
 */
int64_t s1_dopri45(int64_t n, int64_t rows, int64_t m, const double *grid,
                   const double *y0, const double *phi, double mean_degree,
                   const double *lam, int64_t lam_stride, const double *alpha,
                   const double *eps1, const double *eps2,
                   const double *slope, double rtol, double atol,
                   double h_init, double h_max, int64_t max_attempts,
                   double *out, int64_t *accepted, int64_t *rejected,
                   double *h_lo, double *h_hi, double *fail,
                   int64_t *fail_row, int64_t *stuck_rows, int64_t threads)
{
    threads = threads < rows ? threads : rows;
    threads = threads > 1 ? threads : 1;
    /* One block: each worker's 23·n doubles, rounded up to whole cache
     * lines so that every vector stays as aligned as malloc's, then the
     * rows' slots and the workers. */
    const int64_t stride = (23 * n + 7) / 8 * 8;
    double *work = malloc(sizeof(double) * (size_t)(stride * threads)
                          + sizeof(slot_t) * (size_t)rows
                          + sizeof(worker_t) * (size_t)threads);
    if (work == NULL)
        return S1_NOMEMORY;
    slot_t *slots = (slot_t *)(work + stride * threads);
    worker_t *workers = (worker_t *)(slots + rows);
    call_t call = {n, rows, m, lam_stride, max_attempts, grid, y0, phi,
                   lam, alpha, eps1, eps2, slope, mean_degree, rtol, atol,
                   h_init, h_max, out, h_lo, h_hi, accepted, rejected, slots,
                   0, 0};
    for (int64_t i = 0; i < threads; i++) {
        workers[i] = (worker_t){.call = &call, .work = work + i * stride};
        workers[i].started = i > 0 && pthread_create(
            &workers[i].thread, NULL, solve_rows, &workers[i]) == 0;
    }
    solve_rows(&workers[0]);
    for (int64_t i = 1; i < threads; i++)
        if (workers[i].started)
            pthread_join(workers[i].thread, NULL);

    int status = S1_OK;
    int64_t b = 0;
    *stuck_rows = 0;
    for (; b < rows; b++) {
        const slot_t *slot = &slots[b];
        if (slot->status == S1_OK
            || (slot->status == S1_EXHAUSTED && (*stuck_rows)++ > 0))
            continue;
        status = slot->status;
        *fail_row = b;
        fail[0] = slot->where[0];
        fail[1] = slot->where[1];
        if (status != S1_EXHAUSTED)
            break;
    }
    /* The rows after a failure, which one thread would not have reached,
     * report no steps whether or not a helper solved them. */
    while (++b < rows) {
        accepted[b] = rejected[b] = 0;
        h_lo[b] = INFINITY;
        h_hi[b] = 0.0;
    }
    free(work);
    return status;
}
