/* The per-sample step loops of gridarx: the RLS recursion of `rls.rls_run`
 * and the simulator step of `simulate._step`.
 *
 * Each step makes the operations of the numpy loops these replace, in the
 * same order, so every output keeps its bits:
 * - the reductions go through the BLAS functions that np.dot calls,
 *   numpy's own scipy-openblas64 cblas_dgemv and cblas_ddot, whose
 *   addresses the caller passes in; a 1-D np.dot returns 0.0 + ddot, which
 *   `dot0` repeats (it turns a -0.0 into +0.0);
 * - everything else is one IEEE operation per entry, as a numpy ufunc
 *   makes it. The file is compiled with -ffp-contract=off, so that no
 *   multiply and add fuse into an FMA.
 *
 * `_kernels.py` compiles and loads this file and checks every array before
 * its pointer reaches here.
 */

#include <stdint.h>

typedef int64_t blasint; /* scipy-openblas64 takes 64-bit integers */

enum { CBLAS_ROW_MAJOR = 101, CBLAS_NO_TRANS = 111 };

typedef void (*dgemv_fn)(int order, int trans, blasint m, blasint n,
                         double alpha, const double *a, blasint lda,
                         const double *x, blasint incx, double beta,
                         double *y, blasint incy);
typedef double (*ddot_fn)(blasint n, const double *x, blasint incx,
                          const double *y, blasint incy);

/* Return values of gridarx_rls_rows. */
enum { RLS_DONE = 0, RLS_CHECK_SPECTRUM = 1, RLS_REJECTED = 2 };

/* y = A x for a row-major rows x cols A, as np.dot(A, x) computes it. */
static void gemv(dgemv_fn dgemv, blasint rows, blasint cols, const double *a,
                 const double *x, double *y)
{
    dgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, rows, cols, 1.0, a, cols, x, 1,
          0.0, y, 1);
}

/* x . y as np.dot of two vectors returns it. */
static double dot0(ddot_fn ddot, blasint n, const double *x, const double *y)
{
    return 0.0 + ddot(n, x, 1, y, 1);
}

/* Steps rows *row, *row + 1, ... of the block (Y: m x r, Phi: m x n) on
 * stack = [P; theta], an (n + r) x n array updated in place, writing each
 * row's theta into theta_traj (m x r x n) and its innovation e into
 * innovation (m x r). `count0` is the sample count before row 0.
 * `work` holds n + r + n doubles.
 *
 * Returns RLS_DONE after the last row. It returns early, with *row the
 * number of rows done, in two cases:
 * - RLS_CHECK_SPECTRUM: the sample count after the last row done is a
 *   multiple of `interval` and ||P||_F^2 is not <= ceiling_sq (a NaN is
 *   not), so the caller checks P's spectrum against the ceiling;
 * - RLS_REJECTED: the gain denominator of row *row, written to *denom, is
 *   <= min_denom; that row is not applied (a NaN passes this test). */
int gridarx_rls_rows(dgemv_fn dgemv, ddot_fn ddot, int64_t m, int64_t n,
                     int64_t r, const double *Y, const double *Phi,
                     double *stack, double *theta_traj, double *innovation,
                     double lam, double min_denom,
                     int64_t count0, int64_t interval, double ceiling_sq,
                     double *work, int64_t *row, double *denom)
{
    double *P = stack, *theta = stack + n * n;
    double *stack_phi = work, *K = work + n + r;
    const double lam2 = 2.0 * lam;
    for (int64_t k = *row; k < m; k++) {
        const double *y = Y + k * r, *phi = Phi + k * n;
        double *e = innovation + k * r;
        /* [P phi; theta phi], each product on its own, as the formulas
         * make them: a gemv row's bits can depend on the rows around it.
         * numpy multiplies a lone theta row as a dot product. */
        gemv(dgemv, n, n, P, phi, stack_phi);
        if (r == 1)
            stack_phi[n] = dot0(ddot, n, theta, phi);
        else
            gemv(dgemv, r, n, theta, phi, stack_phi + n);
        double d = lam + dot0(ddot, n, phi, stack_phi);
        if (d <= min_denom) {
            *row = k;
            *denom = d;
            return RLS_REJECTED;
        }
        for (int64_t j = 0; j < n; j++)
            K[j] = stack_phi[j] / d;
        for (int64_t i = 0; i < r; i++) {
            e[i] = y[i] - stack_phi[n + i];
            stack_phi[n + i] = -e[i]; /* stack_phi is now [P phi; -e] */
        }
        /* stack - [P phi; -e] K': each term is the k=1 BLAS matrix product
         * numpy makes, one rounded product plus +0.0, so an exact zero is
         * +0.0 */
        for (int64_t i = 0; i < n + r; i++) {
            double *s = stack + i * n, a = stack_phi[i];
            for (int64_t j = 0; j < n; j++)
                s[j] = s[j] - (0.0 + a * K[j]);
        }
        for (int64_t j = 0; j < r * n; j++)
            theta_traj[k * r * n + j] = theta[j];
        /* P <- A + A' with A = P / (2 lambda) */
        for (int64_t i = 0; i < n; i++) {
            P[i * n + i] = P[i * n + i] / lam2 + P[i * n + i] / lam2;
            for (int64_t j = i + 1; j < n; j++) {
                double s = P[i * n + j] / lam2 + P[j * n + i] / lam2;
                P[i * n + j] = s;
                P[j * n + i] = s;
            }
        }
        if ((count0 + k + 1) % interval == 0
                && !(dot0(ddot, n * n, P, P) <= ceiling_sq)) {
            *row = k + 1;
            return RLS_CHECK_SPECTRUM;
        }
    }
    *row = m;
    return RLS_DONE;
}

/* Steps the state x0 (nx) over the m rows of drive (m x nx) with
 * FC = [F; Cv], an (nx + nv) x nx array: row k gives v[k] = Cv x and the
 * next state F x + drive[k], which overwrites drive[k]. `work` holds
 * nx + nv doubles. */
void gridarx_sim_rows(dgemv_fn dgemv, int64_t m, int64_t nx, int64_t nv,
                      const double *FC, const double *x0, double *drive,
                      double *v, double *work)
{
    const double *x = x0;
    for (int64_t k = 0; k < m; k++) {
        double *x_next = drive + k * nx;
        gemv(dgemv, nx + nv, nx, FC, x, work);
        for (int64_t i = 0; i < nx; i++)
            x_next[i] = work[i] + x_next[i];
        for (int64_t i = 0; i < nv; i++)
            v[k * nv + i] = work[nx + i];
        x = x_next;
    }
}
