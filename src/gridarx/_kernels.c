/* The per-sample loops of gridarx, as a CPython extension module: the RLS
 * recursion of `rls.rls_run` with the regressor fill of
 * `pipeline.identify`, the simulator step of `simulate._step`, and the
 * distance and verdict passes of `detector.distances` and
 * `detector.classify_series`.
 *
 * Each step makes the operations of the numpy forms these replace, in the
 * same order, so every output keeps its bits:
 * - the RLS and simulator reductions go through the BLAS functions that
 *   np.dot calls, numpy's own scipy-openblas64 cblas_dgemv and cblas_ddot,
 *   whose addresses `bind_blas` receives; a 1-D np.dot returns
 *   0.0 + ddot, which `dot0` repeats (it turns a -0.0 into +0.0);
 * - a distance sums its squares in the order of numpy's add.reduce over a
 *   contiguous row (`pairwise_sum_sq`);
 * - everything else is one IEEE operation per entry, as a numpy ufunc
 *   makes it. The file is compiled with -ffp-contract=off, so that no
 *   multiply and add fuse into an FMA.
 *
 * Every entry point takes the ndarrays themselves and checks each one's
 * dtype, C-contiguity, writability and shape through the buffer protocol
 * before it reads a value. `_kernels.py` compiles and loads this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

typedef int64_t blasint; /* scipy-openblas64 takes 64-bit integers */

enum { CBLAS_ROW_MAJOR = 101, CBLAS_NO_TRANS = 111 };

typedef void (*dgemv_fn)(int order, int trans, blasint m, blasint n,
                         double alpha, const double *a, blasint lda,
                         const double *x, blasint incx, double beta,
                         double *y, blasint incy);
typedef double (*ddot_fn)(blasint n, const double *x, blasint incx,
                          const double *y, blasint incy);

static dgemv_fn dgemv;
static ddot_fn ddot;

/* Return values of the RLS entry points, as `rls._REJECTED` reads them. */
enum {
    RLS_DONE = 0,
    RLS_CHECK_SPECTRUM = 1,
    RLS_REJECTED = 2,
    RLS_NONFINITE_INPUT = 3,
    RLS_NONFINITE_P = 4,
    RLS_ASYMMETRIC_P = 5
};

/* The verdict codes of `detector.Verdict` that the match pass writes. */
enum { NORMAL_CODE = 0, FAULT_CODE = 1, UNCLASSIFIED_CODE = 3 };

/* ------------------------------------------------------------------------
 * Arguments: the arrays of one call, held through the buffer protocol.
 */

#define MAX_ARRAYS 10
#define ANY (-1) /* an extent that any length matches */

typedef struct {
    const char *func;
    Py_buffer views[MAX_ARRAYS];
    int held;
} Arrays;

static void release(Arrays *a)
{
    while (a->held > 0)
        PyBuffer_Release(&a->views[--a->held]);
}

/* "(2, 12)" into buf, ANY as "any". */
static void shape_text(char *buf, size_t size, int ndim, const Py_ssize_t *shape)
{
    size_t used = (size_t)snprintf(buf, size, "(");
    for (int i = 0; i < ndim && used < size; i++)
        used += (size_t)(shape[i] == ANY
                         ? snprintf(buf + used, size - used, i ? ", any" : "any")
                         : snprintf(buf + used, size - used, i ? ", %zd" : "%zd",
                                    shape[i]));
    if (used < size)
        snprintf(buf + used, size - used, ndim == 1 ? ",)" : ")");
}

/* The data of `obj`, checked to be a C-contiguous array of float64 (kind
 * 'd') or int64 (kind 'i') values in native byte order, writable when
 * asked, of `ndim` dimensions with extents `shape` (ANY matches any
 * length); NULL with ValueError set, naming the function and the
 * argument, otherwise. On success the buffer is held until `release`. */
static void *array(Arrays *a, PyObject *obj, const char *name, char kind,
                   int writable, int ndim, const Py_ssize_t *shape)
{
    Py_buffer *v = &a->views[a->held];
    char want[64], got[96] = "without such a buffer";
    if (PyObject_GetBuffer(obj, v, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT
                           | (writable ? PyBUF_WRITABLE : 0)) == 0) {
        const char *f = v->format ? v->format : "B";
        f += *f == '@' || *f == '=' || *f == '<';
        int ok = v->itemsize == 8 && v->ndim == ndim && f[1] == '\0'
                 && (kind == 'd' ? f[0] == 'd' : f[0] == 'l' || f[0] == 'q');
        for (int i = 0; ok && i < ndim; i++)
            ok = shape[i] == ANY || v->shape[i] == shape[i];
        if (ok) {
            a->held++;
            return v->buf;
        }
        char text[64];
        shape_text(text, sizeof text, v->ndim, v->shape);
        snprintf(got, sizeof got, "of shape %s and format '%.8s'", text,
                 v->format ? v->format : "B");
        PyBuffer_Release(v);
    } else {
        PyErr_Clear();
    }
    shape_text(want, sizeof want, ndim, shape);
    PyErr_Format(PyExc_ValueError,
                 "%s: argument %s: expected a %sC-contiguous %s array of "
                 "shape %s, got %.80s %s", a->func, name,
                 writable ? "writable " : "", kind == 'd' ? "float64" : "int64",
                 want, Py_TYPE(obj)->tp_name, got);
    return NULL;
}

static int nargs_ok(const Arrays *a, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", a->func,
                 want, nargs);
    return 0;
}

static Py_ssize_t extent(const Arrays *a, int view, int axis)
{
    return a->views[view].shape[axis];
}

static int blas_bound(void)
{
    if (dgemv && ddot)
        return 1;
    PyErr_SetString(PyExc_RuntimeError, "bind_blas has not been called");
    return 0;
}

/* ------------------------------------------------------------------------
 * The RLS recursion.
 */

/* y = A x for a row-major rows x cols A, as np.dot(A, x) computes it. */
static void gemv(blasint rows, blasint cols, const double *a, const double *x,
                 double *y)
{
    dgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, rows, cols, 1.0, a, cols, x, 1,
          0.0, y, 1);
}

/* x . y as np.dot of two vectors returns it. */
static double dot0(blasint n, const double *x, const double *y)
{
    return 0.0 + ddot(n, x, 1, y, 1);
}

typedef struct {
    Py_ssize_t m, n, r; /* rows, regressor length, outputs */
    const double *Y, *Phi;  /* m x r, m x n */
    double *stack;          /* [P; theta], (n + r) x n, updated in place */
    double *theta_traj;     /* m x r x n */
    double *innovation;     /* m x r */
    double lam, min_denom, ceiling_sq;
    long long count0, interval;
} Rls;

/* The block checks of `rls.rls_run`: RLS_NONFINITE_INPUT with *row the
 * first row of Y or Phi holding a NaN or an infinity, RLS_NONFINITE_P,
 * RLS_ASYMMETRIC_P when P != P' (compared as numbers, so +0.0 equals
 * -0.0), else RLS_DONE. */
static int rls_check(const Rls *s, Py_ssize_t *row)
{
    const Py_ssize_t n = s->n, r = s->r;
    for (Py_ssize_t k = 0; k < s->m; k++) {
        int finite = 1;
        for (Py_ssize_t j = 0; j < r; j++)
            finite &= isfinite(s->Y[k * r + j]) != 0;
        for (Py_ssize_t j = 0; j < n; j++)
            finite &= isfinite(s->Phi[k * n + j]) != 0;
        if (!finite) {
            *row = k;
            return RLS_NONFINITE_INPUT;
        }
    }
    const double *P = s->stack;
    for (Py_ssize_t j = 0; j < n * n; j++)
        if (!isfinite(P[j]))
            return RLS_NONFINITE_P;
    for (Py_ssize_t i = 0; i < n; i++)
        for (Py_ssize_t j = i + 1; j < n; j++)
            if (P[i * n + j] != P[j * n + i])
                return RLS_ASYMMETRIC_P;
    return RLS_DONE;
}

/* Steps rows *row, *row + 1, ... of the block, writing each row's theta
 * into theta_traj and its innovation e into innovation. `work` holds
 * n + r + n doubles.
 *
 * Returns RLS_DONE after the last row. It returns early, with *row the
 * number of rows done, in two cases:
 * - RLS_CHECK_SPECTRUM: the sample count after the last row done is a
 *   multiple of `interval` and ||P||_F^2 is not <= ceiling_sq (a NaN is
 *   not), so the caller checks P's spectrum against the ceiling;
 * - RLS_REJECTED: the gain denominator of row *row, written to *denom, is
 *   <= min_denom; that row is not applied (a NaN passes this test). */
static int rls_steps(const Rls *s, double *work, Py_ssize_t *row, double *denom)
{
    const Py_ssize_t n = s->n, r = s->r;
    double *P = s->stack, *theta = s->stack + n * n;
    double *stack_phi = work, *K = work + n + r;
    const double lam2 = 2.0 * s->lam;
    for (Py_ssize_t k = *row; k < s->m; k++) {
        const double *y = s->Y + k * r, *phi = s->Phi + k * n;
        double *e = s->innovation + k * r;
        /* [P phi; theta phi], each product on its own, as the formulas
         * make them: a gemv row's bits can depend on the rows around it.
         * numpy multiplies a lone theta row as a dot product. */
        gemv(n, n, P, phi, stack_phi);
        if (r == 1)
            stack_phi[n] = dot0(n, theta, phi);
        else
            gemv(r, n, theta, phi, stack_phi + n);
        double d = s->lam + dot0(n, phi, stack_phi);
        if (d <= s->min_denom) {
            *row = k;
            *denom = d;
            return RLS_REJECTED;
        }
        for (Py_ssize_t j = 0; j < n; j++)
            K[j] = stack_phi[j] / d;
        for (Py_ssize_t i = 0; i < r; i++) {
            e[i] = y[i] - stack_phi[n + i];
            stack_phi[n + i] = -e[i]; /* stack_phi is now [P phi; -e] */
        }
        /* stack - [P phi; -e] K': each term is the k=1 BLAS matrix product
         * numpy makes, one rounded product plus +0.0, so an exact zero is
         * +0.0 */
        for (Py_ssize_t i = 0; i < n + r; i++) {
            double *row_i = s->stack + i * n, a = stack_phi[i];
            for (Py_ssize_t j = 0; j < n; j++)
                row_i[j] = row_i[j] - (0.0 + a * K[j]);
        }
        memcpy(s->theta_traj + k * r * n, theta, (size_t)(r * n) * sizeof *theta);
        /* P <- A + A' with A = P / (2 lambda) */
        for (Py_ssize_t i = 0; i < n; i++) {
            P[i * n + i] = P[i * n + i] / lam2 + P[i * n + i] / lam2;
            for (Py_ssize_t j = i + 1; j < n; j++) {
                double sum = P[i * n + j] / lam2 + P[j * n + i] / lam2;
                P[i * n + j] = sum;
                P[j * n + i] = sum;
            }
        }
        if ((s->count0 + k + 1) % s->interval == 0
                && !(dot0(n * n, P, P) <= s->ceiling_sq)) {
            *row = k + 1;
            return RLS_CHECK_SPECTRUM;
        }
    }
    *row = s->m;
    return RLS_DONE;
}

/* The arrays and numbers of an RLS call after its streams: Y, Phi, stack,
 * theta_traj, innovation, then lam, min_denom, count0, interval,
 * ceiling_sq. Y and Phi are read-only unless `fill`. */
static int rls_args(Arrays *a, Rls *s, PyObject *const *arg, int fill)
{
    const Py_ssize_t any2[2] = {ANY, ANY};
    if (!(s->Y = array(a, arg[0], "Y", 'd', fill, 2, any2)))
        return 0;
    s->m = extent(a, a->held - 1, 0);
    s->r = extent(a, a->held - 1, 1);
    const Py_ssize_t phi[2] = {s->m, ANY};
    if (!(s->Phi = array(a, arg[1], "Phi", 'd', fill, 2, phi)))
        return 0;
    s->n = extent(a, a->held - 1, 1);
    const Py_ssize_t stack[2] = {s->n + s->r, s->n},
                     traj[3] = {s->m, s->r, s->n}, inn[2] = {s->m, s->r};
    if (!(s->stack = array(a, arg[2], "stack", 'd', 1, 2, stack))
            || !(s->theta_traj = array(a, arg[3], "theta_traj", 'd', 1, 3, traj))
            || !(s->innovation = array(a, arg[4], "innovation", 'd', 1, 2, inn)))
        return 0;
    s->lam = PyFloat_AsDouble(arg[5]);
    s->min_denom = PyFloat_AsDouble(arg[6]);
    s->count0 = PyLong_AsLongLong(arg[7]);
    s->interval = PyLong_AsLongLong(arg[8]);
    s->ceiling_sq = PyFloat_AsDouble(arg[9]);
    if (PyErr_Occurred())
        return 0;
    if (s->interval < 1) {
        PyErr_Format(PyExc_ValueError, "%s: interval must be >= 1", a->func);
        return 0;
    }
    return 1;
}

/* From row `row`: the block checks when row is 0, then the steps.
 * Returns (status, row, denom), or NULL with an error set. */
static PyObject *rls_run_rows(const Rls *s, Py_ssize_t row)
{
    double denom = NAN;
    int status = row == 0 ? rls_check(s, &row) : RLS_DONE;
    if (status == RLS_DONE) {
        double *work = PyMem_Malloc((size_t)(2 * s->n + s->r) * sizeof *work);
        if (!work)
            return PyErr_NoMemory();
        status = rls_steps(s, work, &row, &denom);
        PyMem_Free(work);
    }
    return Py_BuildValue("(ind)", status, row, denom);
}

static const char rls_rows_doc[] =
    "rls_rows(Y, Phi, stack, theta_traj, innovation, lam, min_denom, count0,\n"
    "         interval, ceiling_sq, row) -> (status, row, denom)\n\n"
    "Steps the block's rows from `row` on stack = [P; theta], checking the\n"
    "block first when `row` is 0 (see _kernels.c).";

static PyObject *rls_rows(PyObject *self, PyObject *const *arg, Py_ssize_t nargs)
{
    Arrays a = {.func = "rls_rows"};
    Rls s;
    PyObject *out = NULL;
    if (!nargs_ok(&a, nargs, 11))
        return NULL;
    Py_ssize_t row = PyLong_AsSsize_t(arg[10]);
    if (!PyErr_Occurred() && blas_bound() && rls_args(&a, &s, arg, 0)) {
        if (row < 0 || row > s.m)
            PyErr_Format(PyExc_ValueError, "rls_rows: row %zd is outside "
                         "the block of %zd rows", row, s.m);
        else
            out = rls_run_rows(&s, row);
    }
    release(&a);
    return out;
}

static const char identify_rows_doc[] =
    "identify_rows(v, i, Y, Phi, stack, theta_traj, innovation, lam,\n"
    "              min_denom, count0, interval, ceiling_sq)\n"
    "    -> (status, row, denom)\n\n"
    "Fills Y with the first differences of the stream v (N x nv) from\n"
    "difference `order` on, and Phi with their lagged regressors, then\n"
    "checks and steps the block as rls_rows from row 0 does.";

static PyObject *identify_rows(PyObject *self, PyObject *const *arg,
                               Py_ssize_t nargs)
{
    Arrays a = {.func = "identify_rows"};
    Rls s;
    PyObject *out = NULL;
    const Py_ssize_t any2[2] = {ANY, ANY};
    const double *v, *i;
    if (!nargs_ok(&a, nargs, 12))
        return NULL;
    if (!blas_bound() || !(v = array(&a, arg[0], "v", 'd', 0, 2, any2))
            || !(i = array(&a, arg[1], "i", 'd', 0, 2, any2))
            || !rls_args(&a, &s, arg + 2, 1))
        goto done;
    const Py_ssize_t N = extent(&a, 0, 0), nv = extent(&a, 0, 1),
                     ni = extent(&a, 1, 1), m = s.m;
    const Py_ssize_t order = m > 0 ? N - 1 - m : 0;
    if (extent(&a, 1, 0) != N || s.r != nv
            || (m > 0 && (order < 1 || s.n != order * (nv + ni)))) {
        PyErr_Format(PyExc_ValueError,
                     "identify_rows: streams of %zd x %zd and %zd x %zd "
                     "samples do not give a block of %zd x %zd outputs and "
                     "%zd x %zd regressors", N, nv, extent(&a, 1, 0), ni,
                     m, s.r, m, s.n);
        goto done;
    }
    /* Row k is update order + k: its output is difference d = order + k,
     * dv(d) = v[d + 1] - v[d], and its regressor holds dv(d - 1), ...,
     * dv(d - order), then di(d - 1), ..., di(d - order), as
     * build_lagged_regressors lays them out. */
    double *Y = (double *)s.Y, *Phi = (double *)s.Phi;
    for (Py_ssize_t k = 0; k < m; k++) {
        const Py_ssize_t d = order + k;
        double *phi = Phi + k * s.n;
        for (Py_ssize_t j = 0; j < nv; j++)
            Y[k * nv + j] = v[(d + 1) * nv + j] - v[d * nv + j];
        for (Py_ssize_t lag = 1; lag <= order; lag++)
            for (Py_ssize_t j = 0; j < nv; j++)
                *phi++ = v[(d - lag + 1) * nv + j] - v[(d - lag) * nv + j];
        for (Py_ssize_t lag = 1; lag <= order; lag++)
            for (Py_ssize_t j = 0; j < ni; j++)
                *phi++ = i[(d - lag + 1) * ni + j] - i[(d - lag) * ni + j];
    }
    out = rls_run_rows(&s, 0);
done:
    release(&a);
    return out;
}

/* ------------------------------------------------------------------------
 * The simulator step.
 */

static const char sim_rows_doc[] =
    "sim_rows(FC, x, drive, v)\n\n"
    "Steps the state x (nx) over the m rows of drive (m x nx) with\n"
    "FC = [F; Cv], an (nx + nv) x nx array: row k gives v[k] = Cv x and the\n"
    "next state F x + drive[k], which overwrites drive[k].";

static PyObject *sim_rows(PyObject *self, PyObject *const *arg, Py_ssize_t nargs)
{
    Arrays a = {.func = "sim_rows"};
    PyObject *out = NULL;
    const Py_ssize_t any2[2] = {ANY, ANY};
    double *FC, *x0, *drive, *v, *work;
    if (!nargs_ok(&a, nargs, 4))
        return NULL;
    if (!blas_bound() || !(drive = array(&a, arg[2], "drive", 'd', 1, 2, any2)))
        goto done;
    const Py_ssize_t m = extent(&a, 0, 0), nx = extent(&a, 0, 1),
                     rows[2] = {m, ANY};
    if (!(v = array(&a, arg[3], "v", 'd', 1, 2, rows)))
        goto done;
    const Py_ssize_t nv = extent(&a, 1, 1), fc[2] = {nx + nv, nx}, x[1] = {nx};
    if (!(FC = array(&a, arg[0], "FC", 'd', 0, 2, fc))
            || !(x0 = array(&a, arg[1], "x", 'd', 0, 1, x)))
        goto done;
    if (!(work = PyMem_Malloc((size_t)(nx + nv) * sizeof *work))) {
        PyErr_NoMemory();
        goto done;
    }
    const double *xk = x0;
    for (Py_ssize_t k = 0; k < m; k++) {
        double *x_next = drive + k * nx;
        gemv(nx + nv, nx, FC, xk, work);
        for (Py_ssize_t j = 0; j < nx; j++)
            x_next[j] = work[j] + x_next[j];
        for (Py_ssize_t j = 0; j < nv; j++)
            v[k * nv + j] = work[nx + j];
        xk = x_next;
    }
    PyMem_Free(work);
    out = Py_NewRef(Py_None);
done:
    release(&a);
    return out;
}

/* ------------------------------------------------------------------------
 * The detector's passes.
 */

/* The sum of the squares of x[0..n-1] in the order numpy's add.reduce
 * sums a contiguous row (its pairwise summation): under 8 terms one after
 * another, up to 128 in 8 interleaved partial sums, beyond that the two
 * halves apart, split at a multiple of 8. */
static double pairwise_sum_sq(const double *x, Py_ssize_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (Py_ssize_t i = 0; i < n; i++)
            res += x[i] * x[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        Py_ssize_t i;
        for (int j = 0; j < 8; j++)
            r[j] = x[j] * x[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[i + j] * x[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += x[i] * x[i];
        return res;
    }
    Py_ssize_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum_sq(x, n2) + pairwise_sum_sq(x + n2, n - n2);
}

static const char distance_rows_doc[] =
    "distance_rows(thetas, star, dev, d) -> first NaN row, or -1\n\n"
    "d[k] = the Frobenius distance of snapshot thetas[k] to star, as\n"
    "sqrt(add.reduce(dev * dev)) over the deviation dev = thetas[k] - star\n"
    "flattened; writes each deviation into row k of dev unless dev is\n"
    "None. Returns the first k whose d is NaN, or -1.";

static PyObject *distance_rows(PyObject *self, PyObject *const *arg,
                               Py_ssize_t nargs)
{
    Arrays a = {.func = "distance_rows"};
    PyObject *out = NULL;
    const Py_ssize_t any1[1] = {ANY};
    double *thetas, *star, *dev = NULL, *d, *row = NULL;
    if (!nargs_ok(&a, nargs, 4))
        return NULL;
    if (!(d = array(&a, arg[3], "d", 'd', 1, 1, any1)))
        goto done;
    const Py_ssize_t m = extent(&a, 0, 0);
    if (!(star = array(&a, arg[1], "star", 'd', 0, 1, any1)))
        goto done;
    const Py_ssize_t w = extent(&a, 1, 0), rows[2] = {m, w};
    if (!(thetas = array(&a, arg[0], "thetas", 'd', 0, 2, rows)))
        goto done;
    if (arg[2] != Py_None && !(dev = array(&a, arg[2], "dev", 'd', 1, 2, rows)))
        goto done;
    if (!dev && !(row = PyMem_Malloc((size_t)(w ? w : 1) * sizeof *row))) {
        PyErr_NoMemory();
        goto done;
    }
    Py_ssize_t first_nan = -1;
    for (Py_ssize_t k = 0; k < m; k++) {
        double *x = dev ? dev + k * w : row;
        for (Py_ssize_t j = 0; j < w; j++)
            x[j] = thetas[k * w + j] - star[j];
        d[k] = sqrt(pairwise_sum_sq(x, w));
        if (first_nan < 0 && isnan(d[k]))
            first_nan = k;
    }
    PyMem_Free(row);
    out = PyLong_FromSsize_t(first_nan);
done:
    release(&a);
    return out;
}

static const char match_rows_doc[] =
    "match_rows(d, raw, sig_norm, sig_codes, d_low, d_high, match_floor,\n"
    "           codes, similarity)\n\n"
    "The verdict code and the similarity of each row of d: fault above\n"
    "d_high; in the band d_low < d <= d_high, the label of the signature\n"
    "of the largest similarity raw[k, s] / (d[k] sig_norm[s]) (0 where\n"
    "that divisor is not positive; the first of equal ones, or the first\n"
    "NaN), unclassified below match_floor or when raw is None (an empty\n"
    "library); normal otherwise. similarity is NaN outside the band and\n"
    "without a library.";

static PyObject *match_rows(PyObject *self, PyObject *const *arg,
                            Py_ssize_t nargs)
{
    Arrays a = {.func = "match_rows"};
    PyObject *out = NULL;
    const Py_ssize_t any1[1] = {ANY};
    double *d, *raw = NULL, *sig_norm = NULL, *similarity;
    int64_t *sig_codes = NULL, *codes;
    Py_ssize_t n_sig = 0;
    if (!nargs_ok(&a, nargs, 9))
        return NULL;
    const double d_low = PyFloat_AsDouble(arg[4]),
                 d_high = PyFloat_AsDouble(arg[5]),
                 floor = PyFloat_AsDouble(arg[6]);
    if (PyErr_Occurred() || !(d = array(&a, arg[0], "d", 'd', 0, 1, any1)))
        goto done;
    const Py_ssize_t m = extent(&a, 0, 0), one[1] = {m};
    if (!(codes = array(&a, arg[7], "codes", 'i', 1, 1, one))
            || !(similarity = array(&a, arg[8], "similarity", 'd', 1, 1, one)))
        goto done;
    if (arg[1] != Py_None) {
        const Py_ssize_t any_sig[2] = {m, ANY};
        if (!(raw = array(&a, arg[1], "raw", 'd', 0, 2, any_sig)))
            goto done;
        n_sig = extent(&a, a.held - 1, 1);
        const Py_ssize_t sig[1] = {n_sig};
        if (!(sig_norm = array(&a, arg[2], "sig_norm", 'd', 0, 1, sig))
                || !(sig_codes = array(&a, arg[3], "sig_codes", 'i', 0, 1, sig)))
            goto done;
        if (n_sig < 1) {
            PyErr_SetString(PyExc_ValueError,
                            "match_rows: raw has no signature column");
            goto done;
        }
    }
    for (Py_ssize_t k = 0; k < m; k++) {
        similarity[k] = NAN;
        if (d[k] > d_high) {
            codes[k] = FAULT_CODE;
        } else if (!(d[k] > d_low)) {
            codes[k] = NORMAL_CODE;
        } else if (!raw) {
            codes[k] = UNCLASSIFIED_CODE;
        } else {
            /* np.argmax: the first maximum, or the first NaN */
            Py_ssize_t best = 0;
            double best_sim = 0.0;
            for (Py_ssize_t j = 0; j < n_sig; j++) {
                double denom = d[k] * sig_norm[j];
                double sim = denom > 0 ? raw[k * n_sig + j] / denom : 0.0;
                if (j == 0 || !(sim <= best_sim)) {
                    best = j;
                    best_sim = sim;
                    if (isnan(sim))
                        break;
                }
            }
            similarity[k] = best_sim;
            codes[k] = best_sim < floor ? UNCLASSIFIED_CODE : sig_codes[best];
        }
    }
    out = Py_NewRef(Py_None);
done:
    release(&a);
    return out;
}

/* ------------------------------------------------------------------------
 * The module.
 */

static PyObject *bind_blas(PyObject *self, PyObject *args)
{
    unsigned long long gemv_address, dot_address;
    if (!PyArg_ParseTuple(args, "KK:bind_blas", &gemv_address, &dot_address))
        return NULL;
    if (!gemv_address || !dot_address) {
        PyErr_SetString(PyExc_ValueError, "bind_blas: a null address");
        return NULL;
    }
    dgemv = (dgemv_fn)(uintptr_t)gemv_address;
    ddot = (ddot_fn)(uintptr_t)dot_address;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"bind_blas", bind_blas, METH_VARARGS,
     "bind_blas(dgemv_address, ddot_address): the cblas_dgemv and\n"
     "cblas_ddot that the RLS and simulator loops call."},
    {"rls_rows", (PyCFunction)(void (*)(void))rls_rows, METH_FASTCALL,
     rls_rows_doc},
    {"identify_rows", (PyCFunction)(void (*)(void))identify_rows,
     METH_FASTCALL, identify_rows_doc},
    {"sim_rows", (PyCFunction)(void (*)(void))sim_rows, METH_FASTCALL,
     sim_rows_doc},
    {"distance_rows", (PyCFunction)(void (*)(void))distance_rows,
     METH_FASTCALL, distance_rows_doc},
    {"match_rows", (PyCFunction)(void (*)(void))match_rows, METH_FASTCALL,
     match_rows_doc},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_kernels_ext",
    .m_doc = "The per-sample loops of gridarx (see _kernels.c).",
    .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__kernels_ext(void)
{
    static const struct { const char *name; int value; } constants[] = {
        {"RLS_DONE", RLS_DONE},
        {"RLS_CHECK_SPECTRUM", RLS_CHECK_SPECTRUM},
        {"RLS_REJECTED", RLS_REJECTED},
        {"RLS_NONFINITE_INPUT", RLS_NONFINITE_INPUT},
        {"RLS_NONFINITE_P", RLS_NONFINITE_P},
        {"RLS_ASYMMETRIC_P", RLS_ASYMMETRIC_P}};
    PyObject *mod = PyModule_Create(&module);
    for (size_t i = 0; mod && i < sizeof constants / sizeof *constants; i++)
        if (PyModule_AddIntConstant(mod, constants[i].name,
                                    constants[i].value) < 0)
            Py_CLEAR(mod);
    return mod;
}
