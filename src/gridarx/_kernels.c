/* The per-sample loops of gridarx, as a CPython extension module built on
 * numpy's C API: the RLS recursion of `rls.run_block` with the regressor
 * fill of `pipeline.identify`, the simulator step (`sim_rows`, called by
 * `simulate._simulate_blocks` for each block's overlap with each topology
 * segment), the distance and verdict passes of `detector.distances` and
 * `detector.classify_series`, the debounce of `scenario.Detector` (and
 * `detector.debounce`) with a run's transitions and first times, carried
 * in two arrays, and the running sums of `detector.RunningMean` and the
 * baseline's one-cycle average.
 *
 * Every sum is made in a fixed order, and none by a BLAS library, whose
 * kernels depend on the CPU, so the outputs have the same bits on every
 * CPU:
 * - the RLS and simulator products sum each row left to right from 0.0
 *   (`dot`), and the simulator's input product from its first term, as
 *   `simulate._matvec` does;
 * - a distance sums its squares in the order of numpy's add.reduce over a
 *   contiguous row (`pairwise_sum_sq`);
 * - the product of a band snapshot's deviation with each signature sums
 *   left to right from 0.0 too (`dot`);
 * - a running sum adds one row or sample after another (`add_rows`,
 *   `cycle_average`), the order of numpy's axis-0 add.reduce over
 *   C-contiguous rows and of np.cumsum;
 * - everything else is one IEEE operation per entry, as a numpy ufunc
 *   makes it. The file is compiled with -ffp-contract=off, so that no
 *   multiply and add fuse into an FMA, and without -ffast-math, so that no
 *   sum is reordered.
 *
 * `rls_block`, `classify_block` and `debounce_block` each take a stream
 * block in one call: they convert their inputs as
 * np.ascontiguousarray(x, float) does (the codes as intp), allocate every
 * output and fill it. `rls_block` calls back into Python for one thing
 * only, the rare spectral clamp of the covariance, and then carries on
 * with the block. The arrays that an entry point reads or writes in place
 * (`sim_rows`, the signature arrays, the debounce's state and first
 * times, the running sums) must be aligned, C-contiguous ndarrays of the
 * dtype and shape it names, in native byte order, writable where written;
 * any other raises ValueError naming the function and the argument.
 * `_kernels.py` compiles and loads this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <math.h>
#include <stdio.h>
#include <string.h>

/* rls.UpdateRejectedError, created with the module. */
static PyObject *update_rejected;

/* The statuses of the RLS steps. `rls_run_rows` calls the clamp on
 * RLS_CHECK_SPECTRUM and raises UpdateRejectedError for the rejections. */
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
 * Arguments.
 */

#define ANY (-1) /* an extent that any length matches */

/* "(2, 12)" into buf, as Python prints a shape tuple; ANY as "any". */
static void shape_text(char *buf, size_t size, int ndim, const npy_intp *shape)
{
    size_t used = (size_t)snprintf(buf, size, "(");
    for (int i = 0; i < ndim && used < size; i++)
        used += (size_t)(shape[i] == ANY
                         ? snprintf(buf + used, size - used, i ? ", any" : "any")
                         : snprintf(buf + used, size - used,
                                    i ? ", %" NPY_INTP_FMT : "%" NPY_INTP_FMT,
                                    shape[i]));
    if (used < size)
        snprintf(buf + used, size - used, ndim == 1 ? ",)" : ")");
}

/* `obj`, checked to be an aligned, C-contiguous ndarray of float64 (kind
 * 'd') or 64-bit signed integer (kind 'i') values in native byte order,
 * writable when asked, of `ndim` dimensions with extents `shape` (ANY
 * matches any length): a borrowed reference, or NULL with ValueError set,
 * naming the function and the argument. */
static PyArrayObject *checked(const char *func, PyObject *obj, const char *name,
                              char kind, int writable, int ndim,
                              const npy_intp *shape)
{
    char want[64], got[160];
    if (PyArray_Check(obj)) {
        PyArrayObject *a = (PyArrayObject *)obj;
        int typed = kind == 'd' ? PyArray_TYPE(a) == NPY_DOUBLE
                                : PyArray_ISSIGNED(a) && PyArray_ITEMSIZE(a) == 8;
        int ok = typed && PyArray_NDIM(a) == ndim && PyArray_ISALIGNED(a)
                 && PyArray_IS_C_CONTIGUOUS(a) && PyArray_ISNOTSWAPPED(a)
                 && (!writable || PyArray_ISWRITEABLE(a));
        for (int i = 0; ok && i < ndim; i++)
            ok = shape[i] == ANY || PyArray_DIM(a, i) == shape[i];
        if (ok)
            return a;
        char text[64];
        shape_text(text, sizeof text, PyArray_NDIM(a), PyArray_DIMS(a));
        snprintf(got, sizeof got,
                 "an ndarray of dtype '%c%d' and shape %s%s%s%s%s",
                 PyArray_DESCR(a)->kind, (int)PyArray_ITEMSIZE(a), text,
                 writable && !PyArray_ISWRITEABLE(a) ? ", read-only" : "",
                 PyArray_IS_C_CONTIGUOUS(a) ? "" : ", non-contiguous",
                 PyArray_ISALIGNED(a) ? "" : ", unaligned",
                 PyArray_ISNOTSWAPPED(a) ? "" : ", byte-swapped");
    } else {
        snprintf(got, sizeof got, "a %.80s", Py_TYPE(obj)->tp_name);
    }
    shape_text(want, sizeof want, ndim, shape);
    PyErr_Format(PyExc_ValueError,
                 "%s: argument %s: expected a %sC-contiguous %s array of "
                 "shape %s, got %s", func, name, writable ? "writable " : "",
                 kind == 'd' ? "float64" : "int64", want, got);
    return NULL;
}

/* `obj` as np.ascontiguousarray(obj, float) makes it, which gives a
 * scalar one dimension: a new reference, or NULL with the error set. */
static PyArrayObject *as_contiguous(PyObject *obj)
{
    PyArrayObject *a = (PyArrayObject *)PyArray_FROM_OTF(
        obj, NPY_DOUBLE, NPY_ARRAY_IN_ARRAY | NPY_ARRAY_FORCECAST
                         | NPY_ARRAY_ENSUREARRAY);
    if (a && PyArray_NDIM(a) == 0)
        Py_SETREF(a, (PyArrayObject *)PyArray_Ravel(a, NPY_CORDER));
    return a;
}

/* A new C-contiguous array of `type`, NULL with the error set. */
static PyArrayObject *empty(int ndim, npy_intp *dims, int type)
{
    return (PyArrayObject *)PyArray_SimpleNew(ndim, dims, type);
}

/* Rows lo to hi of the 2-D C-contiguous float64 `base`, as a view. */
static PyArrayObject *row_view(PyArrayObject *base, npy_intp lo, npy_intp hi)
{
    npy_intp dims[2] = {hi - lo, PyArray_DIM(base, 1)};
    PyArrayObject *view = (PyArrayObject *)PyArray_New(
        &PyArray_Type, 2, dims, NPY_DOUBLE, NULL,
        (double *)PyArray_DATA(base) + lo * dims[1], 0, NPY_ARRAY_CARRAY, NULL);
    if (view && PyArray_SetBaseObject(view, Py_NewRef((PyObject *)base)) < 0)
        Py_CLEAR(view);
    return view;
}

static int nargs_ok(const char *func, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s takes %zd arguments, got %zd", func,
                 want, nargs);
    return 0;
}

/* The integer `obj`, the argument `name`, as a Py_ssize_t in *value; 0
 * with the error set when it is not an integer, or ValueError naming the
 * argument when it lies outside the ssize_t range. */
static int ssize_arg(const char *func, PyObject *obj, const char *name,
                     Py_ssize_t *value)
{
    if ((*value = PyLong_AsSsize_t(obj)) != -1 || !PyErr_Occurred())
        return 1;
    if (PyErr_ExceptionMatches(PyExc_OverflowError))
        PyErr_Format(PyExc_ValueError, "%s: argument %s: %R is outside the "
                     "range of a C ssize_t", func, name, obj);
    return 0;
}

/* ------------------------------------------------------------------------
 * The RLS recursion.
 */

/* x . y, summed left to right from 0.0. */
static double dot(Py_ssize_t n, const double *x, const double *y)
{
    double sum = 0.0;
    for (Py_ssize_t j = 0; j < n; j++)
        sum += x[j] * y[j];
    return sum;
}

/* y = A x for a row-major rows x cols A, each row's `dot` on its own. */
static void gemv(Py_ssize_t rows, Py_ssize_t cols, const double *a,
                 const double *x, double *y)
{
    for (Py_ssize_t i = 0; i < rows; i++)
        y[i] = dot(cols, a + i * cols, x);
}

typedef struct {
    Py_ssize_t m, n, r; /* rows, regressor length, outputs */
    /* the rows: Y (m x r) and Phi (m x n), or, with Y NULL, the streams v
     * (with r columns) and i (with ni) that `fill_row` makes them of */
    const double *Y, *Phi, *v, *i;
    Py_ssize_t ni, order;
    double *stack;          /* [P; theta], (n + r) x n, updated in place */
    double *theta_traj;     /* m x r x n */
    double *innovation;     /* m x r */
    double lam, min_denom, ceiling_sq;
    Py_ssize_t count0, interval;
    PyObject *clamp;        /* clamps P's spectrum in place, called on P */
    PyObject *P;            /* the P block of stack, as an ndarray */
} Rls;

/* Fills y (nv) with the first difference of the stream v (N x nv) for
 * update order + k, and phi (order (nv + ni)) with its lagged regressor,
 * from v and i (N x ni): the output is difference d = order + k,
 * dv(d) = v[d + 1] - v[d], and the regressor holds dv(d - 1), ...,
 * dv(d - order), then di(d - 1), ..., di(d - order), as
 * build_lagged_regressors lays them out. */
static void fill_row(const double *v, const double *i, Py_ssize_t nv,
                     Py_ssize_t ni, Py_ssize_t order, Py_ssize_t k,
                     double *y, double *phi)
{
    const Py_ssize_t d = order + k;
    for (Py_ssize_t j = 0; j < nv; j++)
        y[j] = v[(d + 1) * nv + j] - v[d * nv + j];
    for (Py_ssize_t lag = 1; lag <= order; lag++)
        for (Py_ssize_t j = 0; j < nv; j++)
            *phi++ = v[(d - lag + 1) * nv + j] - v[(d - lag) * nv + j];
    for (Py_ssize_t lag = 1; lag <= order; lag++)
        for (Py_ssize_t j = 0; j < ni; j++)
            *phi++ = i[(d - lag + 1) * ni + j] - i[(d - lag) * ni + j];
}

/* Row k's output *y and regressor *phi: rows of Y and Phi, or, for
 * streams, filled into buf (r + n doubles), so that no block of rows is
 * stored. */
static void rls_row(const Rls *s, Py_ssize_t k, double *buf, const double **y,
                    const double **phi)
{
    if (s->Y) {
        *y = s->Y + k * s->r;
        *phi = s->Phi + k * s->n;
    } else {
        fill_row(s->v, s->i, s->r, s->ni, s->order, k, buf, buf + s->r);
        *y = buf;
        *phi = buf + s->r;
    }
}

/* The block checks of `rls.run_block`: RLS_NONFINITE_INPUT with *row the
 * first row whose output or regressor holds a NaN or an infinity,
 * RLS_NONFINITE_P, RLS_ASYMMETRIC_P when P != P' (compared as numbers, so
 * +0.0 equals -0.0), else RLS_DONE. buf holds r + n doubles. */
static int rls_check(const Rls *s, double *buf, Py_ssize_t *row)
{
    const Py_ssize_t n = s->n, r = s->r;
    for (Py_ssize_t k = 0; k < s->m; k++) {
        const double *y, *phi;
        int finite = 1;
        rls_row(s, k, buf, &y, &phi);
        for (Py_ssize_t j = 0; j < r; j++)
            finite &= isfinite(y[j]) != 0;
        for (Py_ssize_t j = 0; j < n; j++)
            finite &= isfinite(phi[j]) != 0;
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
 * n + r + n + r + n doubles.
 *
 * Returns RLS_DONE after the last row. It returns early, with *row the
 * number of rows done, in two cases:
 * - RLS_CHECK_SPECTRUM: the sample count after the last row done is a
 *   multiple of `interval` and ||P||_F^2 is not <= ceiling_sq (a NaN is
 *   not), so the caller clamps P's spectrum at the ceiling;
 * - RLS_REJECTED: the gain denominator of row *row, written to *denom, is
 *   <= min_denom; that row is not applied (a NaN passes this test). */
static int rls_steps(const Rls *s, double *work, Py_ssize_t *row, double *denom)
{
    const Py_ssize_t n = s->n, r = s->r;
    double *P = s->stack, *theta = s->stack + n * n;
    double *stack_phi = work, *K = work + n + r, *buf = work + 2 * n + r;
    const double lam2 = 2.0 * s->lam;
    for (Py_ssize_t k = *row; k < s->m; k++) {
        const double *y, *phi;
        double *e = s->innovation + k * r;
        rls_row(s, k, buf, &y, &phi);
        gemv(n + r, n, s->stack, phi, stack_phi); /* [P phi; theta phi] */
        double d = s->lam + dot(n, phi, stack_phi);
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
        /* stack - [P phi; -e] K' */
        for (Py_ssize_t i = 0; i < n + r; i++) {
            double *row_i = s->stack + i * n, a = stack_phi[i];
            for (Py_ssize_t j = 0; j < n; j++)
                row_i[j] = row_i[j] - a * K[j];
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
                && !(dot(n * n, P, P) <= s->ceiling_sq)) {
            *row = k + 1;
            return RLS_CHECK_SPECTRUM;
        }
    }
    *row = s->m;
    return RLS_DONE;
}

/* The block checks, then the steps: each time rls_steps returns
 * RLS_CHECK_SPECTRUM, the clamp is called on P and the steps resume from
 * the row they stopped at. Returns 0 after the last row, or -1 with
 * UpdateRejectedError, the clamp's own error or MemoryError set. */
static int rls_run_rows(const Rls *s)
{
    Py_ssize_t row = 0;
    double denom = NAN;
    double *work = PyMem_Malloc((size_t)(3 * s->n + 2 * s->r) * sizeof *work);
    if (!work) {
        PyErr_NoMemory();
        return -1;
    }
    int status = rls_check(s, work, &row);
    if (status == RLS_DONE) {
        while ((status = rls_steps(s, work, &row, &denom))
                   == RLS_CHECK_SPECTRUM) {
            PyObject *done = PyObject_CallOneArg(s->clamp, s->P);
            if (!done)
                break;
            Py_DECREF(done);
        }
    }
    PyMem_Free(work);
    switch (status) {
    case RLS_DONE:
        return 0;
    case RLS_CHECK_SPECTRUM: /* the clamp raised */
        return -1;
    case RLS_NONFINITE_INPUT:
        PyErr_Format(update_rejected, "non-finite value in update input at "
                     "sample %zd of the block", row);
        return -1;
    case RLS_NONFINITE_P:
        PyErr_SetString(update_rejected,
                        "covariance P holds a non-finite value");
        return -1;
    case RLS_ASYMMETRIC_P:
        PyErr_SetString(update_rejected, "covariance P is not exactly "
                        "symmetric; the update needs P == P'");
        return -1;
    default: { /* RLS_REJECTED */
        char *text = PyOS_double_to_string(denom, 'e', 3, 0, NULL);
        if (text) {
            PyErr_Format(update_rejected, "gain denominator %s is not "
                         "positive at sample %zd of the block", text, row);
            PyMem_Free(text);
        }
        return -1;
    }
    }
}

/* The model params = (output_dim, regressor_len, burn_in, lam,
 * min_denom, interval, ceiling_sq, clamp) and the state's sample count
 * count0, into s and *burn_in; 0 with the error set when they do not
 * parse. s->clamp is borrowed from params. */
static int rls_model(const char *func, PyObject *params, PyObject *count0,
                     Rls *s, Py_ssize_t *burn_in)
{
    if (!PyTuple_Check(params) || PyTuple_GET_SIZE(params) != 8
            || !PyCallable_Check(PyTuple_GET_ITEM(params, 7))) {
        PyErr_Format(PyExc_TypeError, "%s: params must be an 8-tuple ending "
                     "in a callable", func);
        return 0;
    }
    if (!ssize_arg(func, PyTuple_GET_ITEM(params, 0), "output_dim", &s->r)
            || !ssize_arg(func, PyTuple_GET_ITEM(params, 1), "regressor_len",
                          &s->n)
            || !ssize_arg(func, PyTuple_GET_ITEM(params, 2), "burn_in",
                          burn_in)
            || !ssize_arg(func, PyTuple_GET_ITEM(params, 5), "interval",
                          &s->interval)
            || !ssize_arg(func, count0, "count0", &s->count0))
        return 0;
    s->lam = PyFloat_AsDouble(PyTuple_GET_ITEM(params, 3));
    s->min_denom = PyFloat_AsDouble(PyTuple_GET_ITEM(params, 4));
    s->ceiling_sq = PyFloat_AsDouble(PyTuple_GET_ITEM(params, 6));
    s->clamp = PyTuple_GET_ITEM(params, 7);
    if (PyErr_Occurred())
        return 0;
    if (s->r < 1 || s->n < 1 || s->interval < 1) {
        PyErr_Format(PyExc_ValueError, "%s: output_dim, regressor_len and "
                     "interval must be >= 1", func);
        return 0;
    }
    return 1;
}

/* The last extent of `a`, as the shape of np.ascontiguousarray(a) has it. */
static npy_intp last_extent(PyArrayObject *a)
{
    return PyArray_DIM(a, PyArray_NDIM(a) - 1);
}

/* The order argument of a stream call, or 0 with the error set when it
 * is not an integer >= 1. */
static Py_ssize_t stream_order(const char *func, PyObject *obj)
{
    Py_ssize_t order;
    if (!ssize_arg(func, obj, "order", &order))
        return 0;
    if (order >= 1)
        return order;
    PyErr_Format(PyExc_ValueError, "%s: order must be >= 1", func);
    return 0;
}

/* The streams v and i as np.ascontiguousarray(x, float) makes them, new
 * references in *a and *b (NULL where not made), and in *m the count of
 * their updates, one per sample from order + 1 on; 0 with ValueError set
 * when they are not two 2-D streams of equally many samples. */
static int streams_of(PyObject *v, PyObject *i, Py_ssize_t order,
                      PyArrayObject **a, PyArrayObject **b, npy_intp *m)
{
    if (!(*a = as_contiguous(v)) || !(*b = as_contiguous(i)))
        return 0;
    if (PyArray_NDIM(*a) != 2 || PyArray_NDIM(*b) != 2
            || PyArray_DIM(*a, 0) != PyArray_DIM(*b, 0)) {
        char vs[64], is[64];
        shape_text(vs, sizeof vs, PyArray_NDIM(*a), PyArray_DIMS(*a));
        shape_text(is, sizeof is, PyArray_NDIM(*b), PyArray_DIMS(*b));
        PyErr_Format(PyExc_ValueError, "v_dq %s and i_dq %s are not two "
                     "streams of equally many samples", vs, is);
        return 0;
    }
    *m = PyArray_DIM(*a, 0) - order - 1;
    *m = *m > 0 ? *m : 0;
    return 1;
}

static const char rls_block_doc[] =
    "rls_block(params, count0, P, theta, a, b, t, order)\n"
    "    -> (P, theta, theta_traj, innovation, t, index, calibrated)\n\n"
    "One block of the RLS recursion from the state (count0, P, theta) of\n"
    "the model params = (output_dim, regressor_len, burn_in, lam,\n"
    "min_denom, interval, ceiling_sq, clamp): copies the state into new P\n"
    "and theta arrays, checks the block and steps it, into new theta_traj\n"
    "and innovation arrays. After a step that brings the sample count to a\n"
    "multiple of interval with ||P||_F^2 not <= ceiling_sq, it calls\n"
    "clamp(P), which may rewrite P in place, and goes on.\n\n"
    "With t None, a and b are the block's rows Y and Phi, and t, index and\n"
    "calibrated come back None. Otherwise a and b are the streams v and i\n"
    "and t their time stamps: the block is the updates from sample\n"
    "order + 1 on, each of whose rows (those of regressor_rows) is made\n"
    "from the streams as it is checked or stepped, and t, index and\n"
    "calibrated are their time stamps (a slice of t), sample indices and\n"
    "burn-in flags.\n\n"
    "A block of the wrong dimensions or a rejected step raises\n"
    "UpdateRejectedError; an exception of clamp propagates.";

static PyObject *rls_block(PyObject *self, PyObject *const *arg, Py_ssize_t nargs)
{
    const char *func = "rls_block";
    PyArrayObject *a = NULL, *b = NULL, *stack = NULL, *P = NULL,
                  *theta = NULL, *traj = NULL, *inn = NULL, *index = NULL,
                  *calibrated = NULL;
    PyObject *t = NULL, *out = NULL;
    Rls s = {0};
    Py_ssize_t burn_in, order = 0;
    if (!nargs_ok(func, nargs, 8)
            || !rls_model(func, arg[0], arg[1], &s, &burn_in))
        return NULL;
    const int streams = arg[6] != Py_None;
    npy_intp m, nv, regressor;
    if (streams) {
        if (!(order = stream_order(func, arg[7]))
                || !streams_of(arg[4], arg[5], order, &a, &b, &m))
            goto done;
        nv = PyArray_DIM(a, 1);
        regressor = order * (nv + PyArray_DIM(b, 1));
    } else {
        if (!(a = as_contiguous(arg[4])) || !(b = as_contiguous(arg[5])))
            goto done;
        m = PyArray_DIM(a, 0);
        nv = last_extent(a);
        regressor = last_extent(b);
    }
    if (PyArray_NDIM(a) != 2 || nv != s.r) {
        PyErr_Format(update_rejected, "output has dim %zd, expected %zd",
                     (Py_ssize_t)nv, s.r);
        goto done;
    }
    if (PyArray_NDIM(b) != 2 || regressor != s.n) {
        PyErr_Format(update_rejected, "regressor has length %zd, expected %zd",
                     (Py_ssize_t)regressor, s.n);
        goto done;
    }
    if (!streams && PyArray_DIM(b, 0) != m) {
        PyErr_Format(update_rejected, "%zd outputs but %zd regressors in the "
                     "block", (Py_ssize_t)m, (Py_ssize_t)PyArray_DIM(b, 0));
        goto done;
    }
    npy_intp rows[2] = {m, s.r}, stack_dims[2] = {s.n + s.r, s.n},
             traj_dims[3] = {m, s.r, s.n};
    /* P[...] = state.P and theta[...] = state.theta: numpy's assignment,
     * broadcasting and casting as it does */
    if (!(stack = empty(2, stack_dims, NPY_DOUBLE))
            || !(P = row_view(stack, 0, s.n))
            || !(theta = row_view(stack, s.n, s.n + s.r))
            || PyArray_CopyObject(P, arg[2]) < 0
            || PyArray_CopyObject(theta, arg[3]) < 0
            || !(traj = empty(3, traj_dims, NPY_DOUBLE))
            || !(inn = empty(2, rows, NPY_DOUBLE)))
        goto done;
    s.m = m;
    s.stack = PyArray_DATA(stack);
    s.P = (PyObject *)P;
    s.theta_traj = PyArray_DATA(traj);
    s.innovation = PyArray_DATA(inn);
    if (streams) {
        const npy_intp first = order + 1;
        s.Y = s.Phi = NULL;
        s.v = PyArray_DATA(a);
        s.i = PyArray_DATA(b);
        s.ni = PyArray_DIM(b, 1);
        s.order = order;
        if (!(t = PySequence_GetSlice(arg[6], first, first + m))
                || !(index = empty(1, &m, NPY_INTP))
                || !(calibrated = empty(1, &m, NPY_BOOL)))
            goto done;
        /* update k, at sample index[k] = first + k, brings the sample count
         * to count0 + k + 1, which is calibrated from burn_in on */
        npy_intp *idx = PyArray_DATA(index);
        npy_bool *cal = PyArray_DATA(calibrated);
        for (npy_intp k = 0; k < m; k++) {
            idx[k] = first + k;
            cal[k] = s.count0 + k + 1 >= burn_in;
        }
    } else {
        s.Y = PyArray_DATA(a);
        s.Phi = PyArray_DATA(b);
    }
    if (rls_run_rows(&s) == 0)
        out = Py_BuildValue("(OOOOOOO)", P, theta, traj, inn,
                            t ? t : Py_None,
                            index ? (PyObject *)index : Py_None,
                            calibrated ? (PyObject *)calibrated : Py_None);
done:
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(stack);
    Py_XDECREF(P);
    Py_XDECREF(theta);
    Py_XDECREF(traj);
    Py_XDECREF(inn);
    Py_XDECREF(t);
    Py_XDECREF(index);
    Py_XDECREF(calibrated);
    return out;
}

static const char regressor_rows_doc[] =
    "regressor_rows(v, i, order) -> (Y, Phi)\n\n"
    "The rows that rls_block steps for the streams v and i, as new arrays:\n"
    "for each update from sample order + 1 on, the first difference of v\n"
    "it predicts (a row of Y) and its lagged regressor (a row of Phi).";

static PyObject *regressor_rows(PyObject *self, PyObject *const *arg,
                                Py_ssize_t nargs)
{
    const char *func = "regressor_rows";
    PyArrayObject *a = NULL, *b = NULL, *Y = NULL, *Phi = NULL;
    PyObject *out = NULL;
    Py_ssize_t order;
    npy_intp m;
    if (nargs_ok(func, nargs, 3) && (order = stream_order(func, arg[2]))
            && streams_of(arg[0], arg[1], order, &a, &b, &m)) {
        const npy_intp nv = PyArray_DIM(a, 1), ni = PyArray_DIM(b, 1);
        npy_intp rows[2] = {m, nv}, regs[2] = {m, order * (nv + ni)};
        if ((Y = empty(2, rows, NPY_DOUBLE))
                && (Phi = empty(2, regs, NPY_DOUBLE))) {
            double *y = PyArray_DATA(Y), *phi = PyArray_DATA(Phi);
            for (npy_intp k = 0; k < m; k++)
                fill_row(PyArray_DATA(a), PyArray_DATA(b), nv, ni, order, k,
                         y + k * nv, phi + k * regs[1]);
            out = PyTuple_Pack(2, Y, Phi);
        }
    }
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(Y);
    Py_XDECREF(Phi);
    return out;
}

/* ------------------------------------------------------------------------
 * The simulator step.
 */

static const char sim_rows_doc[] =
    "sim_rows(FC, Gb, f, x, u, v)\n\n"
    "Steps the state x (nx) in place over the m rows of the input u\n"
    "(m x nu) with FC = [F; Cv], an (nx + nv) x nx array, Gb (nx x nu) and\n"
    "the forcing f (nx): row k gives v[k] = Cv x and the next state\n"
    "F x + (Gb u[k] + f), each row of Gb u[k] summed left to right from its\n"
    "first product, as simulate._matvec sums it.";

static PyObject *sim_rows(PyObject *self, PyObject *const *arg, Py_ssize_t nargs)
{
    const char *func = "sim_rows";
    const npy_intp any1[1] = {ANY}, any2[2] = {ANY, ANY};
    PyArrayObject *FC, *Gb, *f, *x, *u, *v;
    if (!nargs_ok(func, nargs, 6)
            || !(x = checked(func, arg[3], "x", 'd', 1, 1, any1))
            || !(u = checked(func, arg[4], "u", 'd', 0, 2, any2)))
        return NULL;
    const npy_intp nx = PyArray_DIM(x, 0), m = PyArray_DIM(u, 0),
                   nu = PyArray_DIM(u, 1), rows[2] = {m, ANY},
                   gb[2] = {nx, nu}, fx[1] = {nx};
    if (!(v = checked(func, arg[5], "v", 'd', 1, 2, rows)))
        return NULL;
    const npy_intp nv = PyArray_DIM(v, 1), fc[2] = {nx + nv, nx};
    if (!(FC = checked(func, arg[0], "FC", 'd', 0, 2, fc))
            || !(Gb = checked(func, arg[1], "Gb", 'd', 0, 2, gb))
            || !(f = checked(func, arg[2], "f", 'd', 0, 1, fx)))
        return NULL;
    double *work = PyMem_Malloc((size_t)(nx + nv) * sizeof *work);
    if (!work)
        return PyErr_NoMemory();
    const double *fc_data = PyArray_DATA(FC), *gb_data = PyArray_DATA(Gb),
                 *f_data = PyArray_DATA(f), *u_data = PyArray_DATA(u);
    double *xk = PyArray_DATA(x), *v_data = PyArray_DATA(v);
    for (npy_intp k = 0; k < m; k++) {
        const double *uk = u_data + k * nu;
        gemv(nx + nv, nx, fc_data, xk, work);
        for (npy_intp j = 0; j < nx; j++) {
            /* -0.0 + p is p for every p, so this sum has the bits of one
             * that starts from its first product */
            double drive = -0.0;
            for (npy_intp c = 0; c < nu; c++)
                drive += uk[c] * gb_data[j * nu + c];
            xk[j] = work[j] + (drive + f_data[j]);
        }
        for (npy_intp j = 0; j < nv; j++)
            v_data[k * nv + j] = work[nx + j];
    }
    PyMem_Free(work);
    Py_RETURN_NONE;
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

/* The Frobenius distance of the snapshot theta (w values) to star, as
 * sqrt(add.reduce(dev * dev)) over its deviation dev = theta - star,
 * which it writes into dev. */
static double distance(const double *theta, const double *star, double *dev,
                       Py_ssize_t w)
{
    for (Py_ssize_t j = 0; j < w; j++)
        dev[j] = theta[j] - star[j];
    return sqrt(pairwise_sum_sq(dev, w));
}

/* thetas (m, *shape) and theta_star (shape) as C-contiguous float64
 * arrays, new references, once the snapshots' shape is checked against
 * the reference's; 0 with the error set otherwise. */
static int snapshots(PyObject *thetas_obj, PyObject *star_obj,
                     PyArrayObject **thetas, PyArrayObject **star)
{
    if (!(*thetas = as_contiguous(thetas_obj))
            || !(*star = as_contiguous(star_obj)))
        return 0;
    const int ndim = PyArray_NDIM(*thetas) - 1;
    int same = ndim == PyArray_NDIM(*star);
    for (int i = 0; same && i < ndim; i++)
        same = PyArray_DIM(*thetas, i + 1) == PyArray_DIM(*star, i);
    if (same)
        return 1;
    char got[64], want[64];
    shape_text(got, sizeof got, ndim, PyArray_DIMS(*thetas) + 1);
    shape_text(want, sizeof want, PyArray_NDIM(*star), PyArray_DIMS(*star));
    PyErr_Format(PyExc_ValueError, "snapshot shape %s does not match the "
                 "reference predictor shape %s", got, want);
    return 0;
}

static const char distance_block_doc[] =
    "distance_block(thetas, theta_star) -> d\n\n"
    "d[k] = the Frobenius distance of snapshot thetas[k] to theta_star, as\n"
    "sqrt(add.reduce(dev * dev)) over the deviation dev = thetas[k] -\n"
    "theta_star flattened. The snapshots' shape must be theta_star's.";

static PyObject *distance_block(PyObject *self, PyObject *const *arg,
                                Py_ssize_t nargs)
{
    PyArrayObject *thetas = NULL, *star = NULL, *d = NULL;
    double *dev = NULL;
    if (!nargs_ok("distance_block", nargs, 2))
        return NULL;
    if (snapshots(arg[0], arg[1], &thetas, &star)) {
        npy_intp m = PyArray_DIM(thetas, 0), w = PyArray_SIZE(star);
        if ((d = empty(1, &m, NPY_DOUBLE))
                && (dev = PyMem_Malloc((size_t)(w ? w : 1) * sizeof *dev))) {
            const double *rows = PyArray_DATA(thetas), *s = PyArray_DATA(star);
            double *dk = PyArray_DATA(d);
            for (npy_intp k = 0; k < m; k++)
                dk[k] = distance(rows + k * w, s, dev, w);
        } else if (d) {
            PyErr_NoMemory();
            Py_CLEAR(d);
        }
    }
    PyMem_Free(dev);
    Py_XDECREF(thetas);
    Py_XDECREF(star);
    return (PyObject *)d;
}

static const char classify_block_doc[] =
    "classify_block(thetas, theta_star, matrix, norms, sig_codes, d_low,\n"
    "               d_high, match_floor) -> (d, codes, similarity)\n\n"
    "The distance of each snapshot thetas[k] to theta_star (as\n"
    "distance_block), its verdict code and its similarity: fault above\n"
    "d_high; in the band d_low < d <= d_high, the label sig_codes[s] of\n"
    "the signature of the largest similarity raw[s] / (d[k] norms[s])\n"
    "(0 where that divisor is not positive; the first of equal ones, or the\n"
    "first NaN), unclassified below match_floor or when matrix is None (an\n"
    "empty library); normal otherwise. raw[s] is the product of the\n"
    "snapshot's deviation with row s of matrix, summed left to right from\n"
    "0.0. similarity is NaN outside the band and without a library. A NaN\n"
    "distance raises ValueError naming the first such snapshot.";

static PyObject *classify_block(PyObject *self, PyObject *const *arg,
                                Py_ssize_t nargs)
{
    const char *func = "classify_block";
    PyArrayObject *thetas = NULL, *star = NULL, *d = NULL, *codes = NULL,
                  *similarity = NULL;
    const double *sig_rows = NULL, *sig_norm = NULL;
    const npy_int64 *sig_codes = NULL;
    double *dev = NULL;
    npy_intp n_sig = 0;
    PyObject *out = NULL;
    if (!nargs_ok(func, nargs, 8))
        return NULL;
    const double d_low = PyFloat_AsDouble(arg[5]),
                 d_high = PyFloat_AsDouble(arg[6]),
                 floor = PyFloat_AsDouble(arg[7]);
    if (PyErr_Occurred() || !snapshots(arg[0], arg[1], &thetas, &star))
        goto done;
    npy_intp m = PyArray_DIM(thetas, 0), w = PyArray_SIZE(star);
    if (arg[2] != Py_None) {
        const npy_intp sig[2] = {ANY, w};
        PyArrayObject *matrix, *norms, *labels;
        if (!(matrix = checked(func, arg[2], "matrix", 'd', 0, 2, sig)))
            goto done;
        n_sig = PyArray_DIM(matrix, 0);
        if (!(norms = checked(func, arg[3], "norms", 'd', 0, 1, &n_sig))
                || !(labels = checked(func, arg[4], "sig_codes", 'i', 0, 1,
                                      &n_sig)))
            goto done;
        if (n_sig < 1) {
            PyErr_Format(PyExc_ValueError, "%s: matrix has no signature row",
                         func);
            goto done;
        }
        sig_rows = PyArray_DATA(matrix);
        sig_norm = PyArray_DATA(norms);
        sig_codes = PyArray_DATA(labels);
    }
    if (!(d = empty(1, &m, NPY_DOUBLE)) || !(codes = empty(1, &m, NPY_INTP))
            || !(similarity = empty(1, &m, NPY_DOUBLE)))
        goto done;
    if (!(dev = PyMem_Malloc((size_t)(w ? w : 1) * sizeof *dev))) {
        PyErr_NoMemory();
        goto done;
    }
    const double *rows = PyArray_DATA(thetas), *s = PyArray_DATA(star);
    double *dk = PyArray_DATA(d), *sim = PyArray_DATA(similarity);
    npy_intp *code = PyArray_DATA(codes);
    for (npy_intp k = 0; k < m; k++) {
        /* an infinite d is a fault like any d > d_high, a NaN d has no
         * verdict */
        dk[k] = distance(rows + k * w, s, dev, w);
        sim[k] = NAN;
        if (isnan(dk[k])) {
            PyErr_Format(PyExc_ValueError, "snapshot %zd holds a NaN: its "
                         "distance to the nominal predictor is NaN",
                         (Py_ssize_t)k);
            goto done;
        }
        if (dk[k] > d_high) {
            code[k] = FAULT_CODE;
        } else if (!(dk[k] > d_low)) {
            code[k] = NORMAL_CODE;
        } else if (!sig_rows) {
            code[k] = UNCLASSIFIED_CODE;
        } else {
            /* The norm of a band deviation is bitwise its d, the same
             * reduction over the same values, so the similarity's divisor
             * is d * norm. np.argmax: the first maximum, or the first NaN */
            npy_intp best = 0;
            double best_sim = 0.0;
            for (npy_intp j = 0; j < n_sig; j++) {
                double denom = dk[k] * sig_norm[j];
                double sim_j = denom > 0
                               ? dot(w, dev, sig_rows + j * w) / denom : 0.0;
                if (j == 0 || !(sim_j <= best_sim)) {
                    best = j;
                    best_sim = sim_j;
                    if (isnan(sim_j))
                        break;
                }
            }
            sim[k] = best_sim;
            code[k] = best_sim < floor ? UNCLASSIFIED_CODE : sig_codes[best];
        }
    }
    out = PyTuple_Pack(3, d, codes, similarity);
done:
    PyMem_Free(dev);
    Py_XDECREF(thetas);
    Py_XDECREF(star);
    Py_XDECREF(d);
    Py_XDECREF(codes);
    Py_XDECREF(similarity);
    return out;
}

/* ------------------------------------------------------------------------
 * The debounce of a verdict stream, the running sum of rows and the
 * baseline's one-cycle average.
 */

#define FIRST_TIMES 5

static const char debounce_block_doc[] =
    "debounce_block(codes, hold, state, armed, t, d, window, found)\n"
    "    -> (stable, changes)\n\n"
    "One block of a verdict code stream (codes >= 0, as intp), debounced\n"
    "from where `state` stands, an int64 array (current, candidate, streak)\n"
    "with -1 for none, which is left where the block ends: a code is\n"
    "reported once it has held for `hold` updates in a row, the stream's\n"
    "first at once. Codes before index `armed` count as normal. stable holds\n"
    "the reported codes, changes the indices where one differs from the one\n"
    "reported before it.\n\n"
    "With window = (t_start, t_end, d_low, d_high) and t and d the block's\n"
    "update times and distances (float64 arrays), the float64 array found\n"
    "(5,) takes, of the updates from `armed` on, the first at t >= t_start\n"
    "with d > d_high, with d > d_low, the first at t >= t_end with\n"
    "d <= d_low, and the first at t >= t_start reported as fault, as other\n"
    "than normal, as t - t_start (t - t_end for the third); NaN is not yet\n"
    "found, and an entry that is not NaN stays. With window None, t, d and\n"
    "found are not read. state and found are written only when the call\n"
    "succeeds.";

static PyObject *debounce_block(PyObject *self, PyObject *const *arg,
                                Py_ssize_t nargs)
{
    const char *func = "debounce_block";
    const npy_intp three = 3, five = FIRST_TIMES;
    PyArrayObject *codes, *state, *found = NULL, *t = NULL, *d = NULL,
                  *stable = NULL, *changes = NULL;
    PyObject *out = NULL;
    Py_ssize_t hold, armed;
    double w[4], first[FIRST_TIMES];
    const int timed = nargs == 8 && arg[6] != Py_None;
    if (!nargs_ok(func, nargs, 8) || !ssize_arg(func, arg[1], "hold", &hold)
            || !ssize_arg(func, arg[3], "armed", &armed))
        return NULL;
    if (hold < 1)
        return PyErr_Format(PyExc_ValueError, "hold must be >= 1, got %zd",
                            hold);
    if (timed && !PyTuple_Check(arg[6]))
        return PyErr_Format(PyExc_ValueError, "%s: argument window: "
                            "expected a tuple or None", func);
    if ((timed && (!PyArg_ParseTuple(arg[6], "dddd;window: expected (t_start, "
                                     "t_end, d_low, d_high)",
                                     &w[0], &w[1], &w[2], &w[3])
                   || !(found = checked(func, arg[7], "found", 'd', 1, 1,
                                        &five))))
            || !(state = checked(func, arg[2], "state", 'i', 1, 1, &three))
            || !(codes = (PyArrayObject *)PyArray_FROM_OTF(
                     arg[0], NPY_INTP, NPY_ARRAY_IN_ARRAY
                                       | NPY_ARRAY_ENSUREARRAY)))
        return NULL;
    npy_int64 *carried = PyArray_DATA(state), current = carried[0],
              candidate = carried[1], streak = carried[2];
    if (timed)
        memcpy(first, PyArray_DATA(found), sizeof first);
    npy_intp n = PyArray_SIZE(codes), count = 0;
    if (PyArray_NDIM(codes) != 1) {
        PyErr_Format(PyExc_ValueError, "%s: argument codes: expected one "
                     "dimension, got %d", func, PyArray_NDIM(codes));
        goto done;
    }
    if ((timed && (!(t = checked(func, arg[4], "t", 'd', 0, 1, &n))
                   || !(d = checked(func, arg[5], "d", 'd', 0, 1, &n))))
            || !(stable = empty(1, &n, NPY_INTP))
            || !(changes = empty(1, &n, NPY_INTP)))
        goto done;
    const npy_intp *code = PyArray_DATA(codes);
    npy_intp *report = PyArray_DATA(stable), *at = PyArray_DATA(changes);
    const double *tk = timed ? PyArray_DATA(t) : NULL,
                 *dk = timed ? PyArray_DATA(d) : NULL;
    npy_int64 before = current; /* the code reported before update k */
    for (npy_intp k = 0; k < n; before = current, k++) {
        const npy_intp c = k < armed ? NORMAL_CODE : code[k];
        if (c < 0) {
            PyErr_Format(PyExc_ValueError, "%s: code %zd is negative: %zd",
                         func, (Py_ssize_t)k, (Py_ssize_t)c);
            goto done;
        }
        if (current < 0)
            current = c;
        if (c == current) {
            candidate = -1;
            streak = 0;
        } else {
            streak = c == candidate ? streak + 1 : 1;
            candidate = c;
            if (streak >= hold) {
                current = c;
                candidate = -1;
                streak = 0;
            }
        }
        report[k] = current;
        if (current != before)
            at[count++] = k;
        if (timed && k >= armed) {
            const int on = tk[k] >= w[0];
            const int hit[FIRST_TIMES] = {
                on && dk[k] > w[3], on && dk[k] > w[2],
                tk[k] >= w[1] && dk[k] <= w[2],
                on && current == FAULT_CODE, on && current != NORMAL_CODE};
            for (int j = 0; j < FIRST_TIMES; j++)
                if (hit[j] && isnan(first[j]))
                    first[j] = tk[k] - w[j == 2];
        }
    }
    PyArray_Dims size = {&count, 1};
    PyObject *resized = PyArray_Resize(changes, &size, 0, NPY_CORDER);
    Py_XDECREF(resized);
    if (resized && (out = PyTuple_Pack(2, stable, changes))) {
        carried[0] = current;
        carried[1] = candidate;
        carried[2] = streak;
        if (timed)
            memcpy(PyArray_DATA(found), first, sizeof first);
    }
done:
    Py_DECREF(codes);
    Py_XDECREF(stable);
    Py_XDECREF(changes);
    return out;
}

static const char add_rows_doc[] =
    "add_rows(total, rows)\n\n"
    "Adds the rows of `rows` (m, *shape) to `total` (shape) in place, one\n"
    "row after another, each value on its own: the order in which numpy's\n"
    "add.reduce over axis 0 sums C-contiguous rows of two values or more,\n"
    "from 0.0. rows is converted as np.ascontiguousarray(rows, float).";

static PyObject *add_rows(PyObject *self, PyObject *const *arg,
                          Py_ssize_t nargs)
{
    const char *func = "add_rows";
    PyArrayObject *rows, *total;
    if (!nargs_ok(func, nargs, 2) || !(rows = as_contiguous(arg[1])))
        return NULL;
    if (!(total = checked(func, arg[0], "total", 'd', 1,
                          PyArray_NDIM(rows) - 1, PyArray_DIMS(rows) + 1))) {
        Py_DECREF(rows);
        return NULL;
    }
    const npy_intp m = PyArray_DIM(rows, 0), w = PyArray_SIZE(total);
    const double *x = PyArray_DATA(rows);
    double *sum = PyArray_DATA(total);
    for (npy_intp k = 0; k < m; k++)
        for (npy_intp j = 0; j < w; j++)
            sum[j] += x[k * w + j];
    Py_DECREF(rows);
    Py_RETURN_NONE;
}

static const char cycle_average_doc[] =
    "cycle_average(v, history, total, count) -> averages\n\n"
    "The moving averages over one cycle of n samples, per column, of the\n"
    "block v (m, cols) of a stream of which `count` samples came before:\n"
    "sample k adds its change to the window sum `total` (cols), the sample\n"
    "entering less the one leaving, n samples back (0.0 before the\n"
    "stream's start), which the ring `history` (n, cols) holds at row\n"
    "(count + k) % n, where the entering one takes its place; its average\n"
    "is the sum over min(count + k + 1, n). The order of np.cumsum over\n"
    "the changes. total and history are updated in place.";

static PyObject *cycle_average(PyObject *self, PyObject *const *arg,
                               Py_ssize_t nargs)
{
    const char *func = "cycle_average";
    const npy_intp any2[2] = {ANY, ANY};
    PyArrayObject *v, *history, *total, *out = NULL;
    Py_ssize_t count;
    if (!nargs_ok(func, nargs, 4)
            || !ssize_arg(func, arg[3], "count", &count)
            || !(history = checked(func, arg[1], "history", 'd', 1, 2, any2)))
        return NULL;
    const npy_intp n = PyArray_DIM(history, 0), cols = PyArray_DIM(history, 1),
                   rows[2] = {ANY, cols};
    if (n < 1 || count < 0)
        return PyErr_Format(PyExc_ValueError, "%s: need a history row and a "
                            "count >= 0, got %zd and %zd", func,
                            (Py_ssize_t)n, count);
    if (!(total = checked(func, arg[2], "total", 'd', 1, 1, &cols))
            || !(v = as_contiguous(arg[0])))
        return NULL;
    if (checked(func, (PyObject *)v, "v", 'd', 0, 2, rows)) {
        npy_intp dims[2] = {PyArray_DIM(v, 0), cols};
        if ((out = empty(2, dims, NPY_DOUBLE))) {
            const double *x = PyArray_DATA(v);
            double *ring = PyArray_DATA(history), *sum = PyArray_DATA(total),
                   *avg = PyArray_DATA(out);
            for (npy_intp k = 0; k < dims[0]; k++, count++) {
                double *old = ring + (count % n) * cols;
                const double window = (double)(count < n ? count + 1 : n);
                for (npy_intp j = 0; j < cols; j++) {
                    sum[j] = sum[j] + (x[k * cols + j] - old[j]);
                    old[j] = x[k * cols + j];
                    avg[k * cols + j] = sum[j] / window;
                }
            }
        }
    }
    Py_DECREF(v);
    return (PyObject *)out;
}

/* ------------------------------------------------------------------------
 * The module.
 */

#define FASTCALL(name) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, name##_doc}

static PyMethodDef methods[] = {
    FASTCALL(rls_block),
    FASTCALL(regressor_rows),
    FASTCALL(sim_rows),
    FASTCALL(distance_block),
    FASTCALL(classify_block),
    FASTCALL(debounce_block),
    FASTCALL(add_rows),
    FASTCALL(cycle_average),
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_kernels_ext",
    .m_doc = "The per-sample loops of gridarx (see _kernels.c).",
    .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit__kernels_ext(void)
{
    import_array();
    if (!update_rejected && !(update_rejected = PyErr_NewExceptionWithDoc(
            "gridarx.rls.UpdateRejectedError",
            "A recursive update was rejected; the estimator state is "
            "unchanged.", PyExc_ValueError, NULL)))
        return NULL;
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddObjectRef(mod, "UpdateRejectedError",
                                     update_rejected) < 0)
        Py_CLEAR(mod);
    return mod;
}
