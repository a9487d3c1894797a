/* The compiled timing engine behind repro.timing.batch.BatchCoreModel:
 * one trace against a stack of P configurations, in two entry points.
 *
 * prepass() runs the configuration-independent, trace-order walks of a
 * cache-compatible sub-stack: the cache warm, the L1/L2 resolution of
 * every memory access (latency and access/miss counters), and the
 * bimodal branch-predictor walk.  It reproduces the oracle's
 * MemoryHierarchy.warm / scalar_access / vector_access and
 * BimodalPredictor exactly: true-LRU tag arrays indexed with Python's
 * floor division, so accesses below address zero resolve as they do
 * there.
 *
 * run_stack() is the sequential constraint walk.  It applies every
 * binding constraint of the record-at-a-time oracle, CoreModel.run, in
 * the same order and with the same tie-breaking (first minimal pool
 * slot), over per-instruction arrays: the pre-pass outputs above plus
 * per-point occupancies computed in NumPy.  Per-cycle issue counters
 * live in a window of `cap` cycles; an issue cycle beyond it returns -1
 * and the caller re-runs with a wider window.
 *
 * Both return -2 when an allocation fails.  Neither checks its
 * configuration: repro.timing.core.check_config refuses every value
 * that would divide by zero or overrun an array here before it is
 * called.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- cache and branch pre-pass ------------------------------------- */

static int64_t floor_div(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        q -= 1;
    return q;
}

/* One true-LRU tag array: set s holds fill[s] tags, oldest first, in
 * tags[s * assoc ...]. */
typedef struct {
    int64_t n_sets, assoc, line;
    int64_t *tags;
    int64_t *fill;
    int64_t accesses, misses;
} cache_t;

static int cache_init(cache_t *c, const int64_t *geom)
{
    c->n_sets = geom[0];
    c->assoc = geom[1];
    c->line = geom[2];
    c->accesses = c->misses = 0;
    c->tags = malloc((size_t)(c->n_sets * c->assoc) * sizeof(int64_t));
    c->fill = calloc((size_t)c->n_sets, sizeof(int64_t));
    return c->tags != NULL && c->fill != NULL;
}

/* Touch one line; returns 1 on a hit.  A hit moves the tag to
 * most-recent; a miss appends it and drops the oldest beyond assoc. */
static int touch_line(cache_t *c, int64_t line_no)
{
    const int64_t tag = floor_div(line_no, c->n_sets);
    const int64_t set = line_no - tag * c->n_sets;
    int64_t *ways = c->tags + set * c->assoc;
    const int64_t k = c->fill[set];
    for (int64_t w = k - 1; w >= 0; w--) {
        if (ways[w] == tag) {
            memmove(ways + w, ways + w + 1,
                    (size_t)(k - w - 1) * sizeof(int64_t));
            ways[k - 1] = tag;
            return 1;
        }
    }
    if (k < c->assoc) {
        ways[k] = tag;
        c->fill[set] = k + 1;
    } else {
        memmove(ways, ways + 1, (size_t)(k - 1) * sizeof(int64_t));
        ways[k - 1] = tag;
    }
    return 0;
}

/* Cache.access: every line of [addr, addr + max(nbytes, 1)), counted
 * per line; returns the lines missed. */
static int64_t cache_access(cache_t *c, int64_t addr, int64_t nbytes)
{
    const int64_t first = floor_div(addr, c->line);
    const int64_t last = floor_div(addr + (nbytes > 1 ? nbytes : 1) - 1, c->line);
    int64_t missed = 0;
    for (int64_t line_no = first; line_no <= last; line_no++) {
        if (!touch_line(c, line_no))
            missed += 1;
    }
    c->accesses += last - first + 1;
    c->misses += missed;
    return missed;
}

/* geom: l1 (n_sets, assoc, line, latency), l2 (the same), main latency.
 * site[i] is branch i's dense site index in [0, n_sites).
 * stats out: l1 accesses, l1 misses, l2 accesses, l2 misses, branch
 * lookups, branch mispredicts. */
int64_t prepass(
    int64_t n,
    const uint8_t *fu,
    const uint8_t *use_vec,
    const int64_t *addr,
    const int64_t *row_bytes,
    const int64_t *rows,
    const int64_t *stride,
    const uint8_t *is_branch,
    const uint8_t *taken,
    const int64_t *site,
    int64_t n_sites,
    const int64_t *geom,
    int64_t warm,
    int64_t mem_code,
    int64_t *mem_lat,        /* n out */
    uint8_t *mispredict,     /* n out */
    int64_t *stats           /* 6 out */
) {
    cache_t l1, l2;
    const int ok1 = cache_init(&l1, geom);
    const int ok2 = cache_init(&l2, geom + 4);
    uint8_t *counters = malloc((size_t)(n_sites > 0 ? n_sites : 1));
    int64_t rc = 0;
    if (!ok1 || !ok2 || !counters) {
        rc = -2;
        goto done;
    }
    const int64_t l1_lat = geom[3], l2_lat = geom[7], main_lat = geom[8];

    /* warm: every record with an address; counters discarded */
    if (warm) {
        for (int64_t i = 0; i < n; i++) {
            const int64_t base = addr[i];
            if (base < 0)
                continue;
            if (rows[i] > 1) {
                const int64_t step = stride[i] ? stride[i] : row_bytes[i];
                for (int64_t r = 0; r < rows[i]; r++) {
                    cache_access(&l1, base + r * step, row_bytes[i]);
                    cache_access(&l2, base + r * step, row_bytes[i]);
                }
            } else {
                cache_access(&l1, base, row_bytes[i]);
                cache_access(&l2, base, row_bytes[i]);
            }
        }
        l1.accesses = l1.misses = l2.accesses = l2.misses = 0;
    }

    /* resolution: every memory record, in trace order */
    for (int64_t i = 0; i < n; i++) {
        if (fu[i] != mem_code) {
            mem_lat[i] = 0;
            continue;
        }
        const int64_t base = addr[i], nbytes = row_bytes[i];
        if (use_vec[i]) {
            /* the L2 vector cache, bypassing L1 */
            const int64_t n_rows = rows[i] > 1 ? rows[i] : 1;
            int64_t missed = 0;
            if (stride[i] == nbytes) {
                missed = cache_access(&l2, base, n_rows * nbytes);
            } else {
                for (int64_t r = 0; r < n_rows; r++)
                    missed += cache_access(&l2, base + r * stride[i], nbytes);
            }
            mem_lat[i] = l2_lat + (missed ? main_lat : 0);
        } else if (cache_access(&l1, base, nbytes)) {
            mem_lat[i] = l1_lat + (cache_access(&l2, base, nbytes) ? main_lat : l2_lat);
        } else {
            mem_lat[i] = l1_lat;
        }
    }

    /* bimodal predictor: 2-bit counters per site, weakly taken */
    memset(counters, 2, (size_t)(n_sites > 0 ? n_sites : 1));
    int64_t lookups = 0, mispredicts = 0;
    for (int64_t i = 0; i < n; i++) {
        mispredict[i] = 0;
        if (!is_branch[i])
            continue;
        uint8_t *counter = counters + site[i];
        const int predicted = *counter >= 2;
        if (taken[i]) {
            if (*counter < 3)
                *counter += 1;
        } else if (*counter > 0) {
            *counter -= 1;
        }
        lookups += 1;
        if (predicted != (taken[i] != 0)) {
            mispredict[i] = 1;
            mispredicts += 1;
        }
    }

    stats[0] = l1.accesses;
    stats[1] = l1.misses;
    stats[2] = l2.accesses;
    stats[3] = l2.misses;
    stats[4] = lookups;
    stats[5] = mispredicts;
done:
    free(l1.tags); free(l1.fill);
    free(l2.tags); free(l2.fill);
    free(counters);
    return rc;
}

/* ---- constraint walk ------------------------------------------------ */

#define FW(p)      params[(p) * 11 + 0]
#define ROB(p)     params[(p) * 11 + 1]
#define CW(p)      params[(p) * 11 + 2]
#define BP(p)      params[(p) * 11 + 3]
#define INTFU(p)   params[(p) * 11 + 4]
#define FPFU(p)    params[(p) * 11 + 5]
#define SIMDISS(p) params[(p) * 11 + 6]
#define NSIMD(p)   params[(p) * 11 + 7]
#define NL1(p)     params[(p) * 11 + 8]
#define NL2(p)     params[(p) * 11 + 9]
#define INFL(p)    params[(p) * 11 + 10]

/* fu codes are fixed by repro.isa.trace.FU_CODE and passed in so the
 * kernel never hardcodes the enum order. */
int64_t run_stack(
    int64_t n,
    const uint8_t *fu,
    const uint8_t *use_vec,
    const uint8_t *mispredict,
    const int64_t *lat,
    const int64_t *src_off,
    const int64_t *src_ids,
    const int64_t *dst_off,
    const int64_t *dst_ids,
    int64_t n_regs,
    int64_t P,
    const int64_t *params,
    const int64_t *occ,      /* P x n : SIMD unit occupancy per point */
    const int64_t *mem_lat,  /* n     : shared within a cache subgroup */
    const int64_t *mem_occ,  /* P x n : port occupancy per point */
    int64_t cap,             /* issue-counter cycle capacity */
    int64_t mem_code,
    int64_t simd_code,
    int64_t int_code,
    int64_t *commits         /* P x n out */
) {
    int64_t *issue_total = calloc((size_t)cap, sizeof(int64_t));
    int64_t *class_int = calloc((size_t)cap, sizeof(int64_t));
    int64_t *class_fp = calloc((size_t)cap, sizeof(int64_t));
    int64_t *class_simd = calloc((size_t)cap, sizeof(int64_t));
    int64_t *reg_ready = calloc((size_t)(n_regs > 0 ? n_regs : 1), sizeof(int64_t));
    if (!issue_total || !class_int || !class_fp || !class_simd || !reg_ready) {
        free(issue_total); free(class_int); free(class_fp);
        free(class_simd); free(reg_ready);
        return -2;
    }
    int64_t rc = 0;

    for (int64_t p = 0; p < P; p++) {
        const int64_t fetch_width = FW(p), rob_size = ROB(p);
        const int64_t commit_width = CW(p), branch_penalty = BP(p);
        const int64_t int_fus = INTFU(p), fp_fus = FPFU(p);
        const int64_t simd_issue = SIMDISS(p);
        const int64_t n_simd = NSIMD(p), n_l1 = NL1(p), n_l2 = NL2(p);
        const int64_t simd_inflight = INFL(p);
        const int64_t *occ_p = occ + p * n;
        const int64_t *mem_occ_p = mem_occ + p * n;
        int64_t *commits_p = commits + p * n;

        if (p > 0) {
            memset(issue_total, 0, (size_t)cap * sizeof(int64_t));
            memset(class_int, 0, (size_t)cap * sizeof(int64_t));
            memset(class_fp, 0, (size_t)cap * sizeof(int64_t));
            memset(class_simd, 0, (size_t)cap * sizeof(int64_t));
            memset(reg_ready, 0,
                   (size_t)(n_regs > 0 ? n_regs : 1) * sizeof(int64_t));
        }
        int64_t *commit_ring = calloc((size_t)rob_size, sizeof(int64_t));
        int64_t *simd_ring = calloc((size_t)simd_inflight, sizeof(int64_t));
        int64_t *simd_units = calloc((size_t)n_simd, sizeof(int64_t));
        int64_t *l1_ports = calloc((size_t)n_l1, sizeof(int64_t));
        int64_t *l2_ports = calloc((size_t)n_l2, sizeof(int64_t));
        if (!commit_ring || !simd_ring || !simd_units || !l1_ports || !l2_ports) {
            free(commit_ring); free(simd_ring); free(simd_units);
            free(l1_ports); free(l2_ports);
            rc = -2;
            goto done;
        }
        int64_t simd_writes = 0;
        int64_t fetch_cycle = 1, fetched = 0, fetch_barrier = 0;
        int64_t last_commit = 0;

        for (int64_t i = 0; i < n; i++) {
            /* fetch / dispatch */
            if (fetch_cycle < fetch_barrier) {
                fetch_cycle = fetch_barrier;
                fetched = 0;
            }
            if (fetched >= fetch_width) {
                fetch_cycle += 1;
                fetched = 0;
                if (fetch_cycle < fetch_barrier)
                    fetch_cycle = fetch_barrier;
            }
            if (i >= rob_size) {
                int64_t rob_free = commit_ring[i % rob_size] + 1;
                if (rob_free > fetch_cycle) {
                    fetch_cycle = rob_free;
                    fetched = 0;
                }
            }
            const int64_t fui = fu[i];
            const int64_t d0 = dst_off[i], d1 = dst_off[i + 1];
            const int is_simd_writer = (fui == simd_code && d1 > d0);
            if (is_simd_writer && simd_writes >= simd_inflight) {
                int64_t free_at = simd_ring[simd_writes % simd_inflight] + 1;
                if (free_at > fetch_cycle) {
                    fetch_cycle = free_at;
                    fetched = 0;
                }
            }
            const int64_t dispatch = fetch_cycle;
            fetched += 1;

            /* operand ready */
            int64_t ready = dispatch;
            for (int64_t s = src_off[i]; s < src_off[i + 1]; s++) {
                int64_t when = reg_ready[src_ids[s]];
                if (when > ready)
                    ready = when;
            }

            /* issue: total width, class slots, unit occupancy */
            int64_t t = ready;
            int64_t complete;
            if (fui == mem_code) {
                int64_t *ports = use_vec[i] ? l2_ports : l1_ports;
                int64_t n_ports = use_vec[i] ? n_l2 : n_l1;
                int64_t port = 0;
                for (;;) {
                    if (t >= cap) { rc = -1; goto overflow; }
                    if (issue_total[t] >= fetch_width) { t += 1; continue; }
                    int64_t free_at = ports[0];
                    port = 0;
                    for (int64_t q = 1; q < n_ports; q++) {
                        if (ports[q] < free_at) { free_at = ports[q]; port = q; }
                    }
                    if (free_at > t) { t = free_at; continue; }
                    break;
                }
                ports[port] = t + mem_occ_p[i];
                complete = t + mem_lat[i] + mem_occ_p[i] - 1;
            } else if (fui == simd_code) {
                const int64_t occupancy = occ_p[i];
                int64_t unit = 0;
                for (;;) {
                    if (t >= cap) { rc = -1; goto overflow; }
                    if (issue_total[t] >= fetch_width) { t += 1; continue; }
                    if (class_simd[t] >= simd_issue) { t += 1; continue; }
                    int64_t free_at = simd_units[0];
                    unit = 0;
                    for (int64_t q = 1; q < n_simd; q++) {
                        if (simd_units[q] < free_at) {
                            free_at = simd_units[q];
                            unit = q;
                        }
                    }
                    if (free_at > t) { t = free_at; continue; }
                    break;
                }
                class_simd[t] += 1;
                simd_units[unit] = t + occupancy;
                complete = t + lat[i] + occupancy - 1;
            } else {
                int64_t *fu_class = (fui == int_code) ? class_int : class_fp;
                const int64_t fu_cap = (fui == int_code) ? int_fus : fp_fus;
                for (;;) {
                    if (t >= cap) { rc = -1; goto overflow; }
                    if (issue_total[t] >= fetch_width) { t += 1; continue; }
                    if (fu_class[t] >= fu_cap) { t += 1; continue; }
                    break;
                }
                fu_class[t] += 1;
                complete = t + lat[i];
            }
            issue_total[t] += 1;

            /* branches */
            if (mispredict[i]) {
                int64_t barrier = complete + branch_penalty;
                if (barrier > fetch_barrier)
                    fetch_barrier = barrier;
            }

            /* writeback */
            for (int64_t d = d0; d < d1; d++)
                reg_ready[dst_ids[d]] = complete;

            /* in-order commit */
            int64_t commit = complete;
            if (commit < last_commit)
                commit = last_commit;
            if (i >= commit_width) {
                int64_t floor = commit_ring[(i - commit_width) % rob_size] + 1;
                if (commit < floor)
                    commit = floor;
            }
            commit_ring[i % rob_size] = commit;
            if (is_simd_writer) {
                simd_ring[simd_writes % simd_inflight] = commit;
                simd_writes += 1;
            }
            commits_p[i] = commit;
            last_commit = commit;
        }
    overflow:
        free(commit_ring); free(simd_ring); free(simd_units);
        free(l1_ports); free(l2_ports);
        if (rc != 0)
            goto done;
    }
done:
    free(issue_total); free(class_int); free(class_fp);
    free(class_simd); free(reg_ready);
    return rc;
}
