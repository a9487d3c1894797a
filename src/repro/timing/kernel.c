/* Sequential constraint walk of the timing model, one trace against a
 * stack of P configurations: the production engine behind
 * repro.timing.batch.BatchCoreModel.  It applies every binding
 * constraint of the record-at-a-time oracle, CoreModel.run, in the same
 * order and with the same tie-breaking (first minimal pool slot), over
 * per-instruction arrays precomputed in Python.  Per-cycle issue
 * counters live in a window of `cap` cycles; an issue cycle beyond it
 * returns -1 and the caller re-runs with a wider window.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
