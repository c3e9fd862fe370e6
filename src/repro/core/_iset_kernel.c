/* Fused iSet lookup: RQ-RMI route, bounded search, candidate validation.
 *
 * One call serves a whole block for one iSet.  For every row it walks the
 * stacked RQ-RMI stages, searches the sorted range bounds only inside
 * [predicted - error, predicted + error], checks the one candidate rule on
 * every field and lowers the row's best order key.  It is the compiled form
 * of ISetIndex.lookup_block's numpy body (repro/core/nuevomatch.py) and
 * must give the same answers bit for bit, so the arithmetic of
 * repro.core.rqrmi.route is copied exactly:
 *
 *   x = (double)key / domain
 *   h = max(x * w1 + b1, 0)           a rounded multiply, then an add
 *   raw = sum(h * w2) + b2            numpy's pairwise summation order
 *   M = min(max(raw, 0), 1 - eps)
 *   slot = min((int64)(M * width), width - 1)
 *
 * Built with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math, which would reorder the sums.  The certified error bound
 * holds only for the function it was certified on.
 */
#include <stdint.h>

/* Per iSet, built once: the stacked weights and the iSet's rules. */
typedef struct {
    int64_t num_stages;
    const int64_t *widths;   /* submodels per stage */
    const int64_t *hidden;   /* hidden units per stage */
    const double *weights;   /* stage by stage, slot by slot: w1[H] b1[H] w2[H] b2 */
    const int64_t *bounds;   /* certified error bound per leaf */
    double domain;           /* key domain size of the iSet's field */
    double output_max;       /* 1 - OUTPUT_EPSILON */
    int64_t num_ranges;
    const double *range_lo;  /* scaled range bounds, ascending */
    const double *range_hi;
    int64_t dim;             /* the iSet's field */
    int64_t fields;
    const int64_t *rule_lo;  /* (num_ranges, fields), row-major */
    const int64_t *rule_hi;
    const int64_t *rule_key; /* order key per rule */
} iset_model;

/* A numpy array object begins with PyObject_HEAD (a reference count and a
 * type pointer) and then its data pointer (PyArrayObject_fields).  Block
 * arrays are passed as objects so a call converts no pointers; the loader
 * checks this layout through array_data() before it uses the library. */
typedef struct {
    intptr_t refcnt;
    void *type;
    char *data;
} array_head;

void *array_data(const void *array)
{
    return ((const array_head *)array)->data;
}

#define PW_BLOCKSIZE 128

/* numpy's pairwise_sum for a contiguous float64 reduction (sum(axis=1) of
 * a C-contiguous block reduces each row with it, starting from 0.0). */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* One key through every stage: the leaf it reaches and the leaf's M(x). */
static double walk(const iset_model *m, double x, int64_t *leaf, double *products)
{
    const double *stage = m->weights;
    int64_t slot = 0;
    double out = 0.0;
    for (int64_t s = 0; s < m->num_stages; s++) {
        int64_t h = m->hidden[s];
        const double *w1 = stage + slot * (3 * h + 1);
        const double *b1 = w1 + h, *w2 = b1 + h;
        for (int64_t i = 0; i < h; i++) {
            double v = x * w1[i] + b1[i];
            products[i] = (v < 0.0 ? 0.0 : v) * w2[i];
        }
        double raw = pairwise_sum(products, h) + w2[h];
        out = raw < 0.0 ? 0.0 : raw;
        out = out > m->output_max ? m->output_max : out;
        if (s + 1 < m->num_stages) {
            int64_t next = m->widths[s + 1];
            slot = (int64_t)(out * (double)next);
            slot = slot < next - 1 ? slot : next - 1;
        }
        stage += m->widths[s] * (3 * h + 1);
    }
    *leaf = slot;
    return out;
}

static int64_t max_hidden(const iset_model *m)
{
    int64_t h = 0;
    for (int64_t s = 0; s < m->num_stages; s++)
        h = m->hidden[s] > h ? m->hidden[s] : h;
    return h;
}

/* route() over every stage, for tests: the leaf and M(x) of each key. */
void rqrmi_route(const iset_model *m, int64_t n, const double *xs,
                 int64_t *slots, double *outputs)
{
    double products[max_hidden(m) + 1];
    for (int64_t r = 0; r < n; r++)
        outputs[r] = walk(m, xs[r], &slots[r], products);
}

/* Lower best[r] to the key of the rule row r of values matches, for every
 * row: values is a C-contiguous int64 (n, fields) array, best an int64 (n,)
 * array written in place. */
void iset_lookup(const iset_model *m, int64_t n, const void *values_array,
                 void *best_array)
{
    const int64_t *values = array_data(values_array);
    int64_t *best = array_data(best_array);
    int64_t nr = m->num_ranges, fields = m->fields;
    if (nr == 0)
        return;
    double products[max_hidden(m) + 1];
    for (int64_t r = 0; r < n; r++) {
        const int64_t *row = values + r * fields;
        double x = (double)row[m->dim] / m->domain;
        int64_t leaf;
        double out = walk(m, x, &leaf, products);
        int64_t predicted = (int64_t)(out * (double)nr);
        predicted = predicted < nr - 1 ? predicted : nr - 1;
        int64_t err = m->bounds[leaf];
        int64_t lo = predicted - err > 0 ? predicted - err : 0;
        int64_t hi = predicted + err < nr - 1 ? predicted + err : nr - 1;
        /* The last p in [lo, hi] with range_lo[p] <= x; none: a miss. */
        const double *base = m->range_lo + lo;
        if (!(*base <= x))
            continue;
        for (int64_t len = hi - lo + 1; len > 1;) {
            int64_t half = len / 2;
            base = base[half] <= x ? base + half : base;
            len -= half;
        }
        int64_t p = base - m->range_lo;
        if (!(x <= m->range_hi[p]))
            continue;
        const int64_t *rlo = m->rule_lo + p * fields, *rhi = m->rule_hi + p * fields;
        int matched = 1;
        for (int64_t f = 0; f < fields; f++)
            matched &= (row[f] >= rlo[f]) & (row[f] <= rhi[f]);
        if (matched && m->rule_key[p] < best[r])
            best[r] = m->rule_key[p];
    }
}
