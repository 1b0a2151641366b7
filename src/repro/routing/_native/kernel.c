/*
 * Algorithm 1's relax loop and Algorithm 2's Yen loop over it.
 *
 * repro_relax_search is the modified Dijkstra over the CSR adjacency
 * and one per-edge rate column, step for step the same as the reference
 * core's largest_entanglement_rate_path in
 * repro/routing/alg1_largest_rate.py (its oracle).
 *
 * - Rows relax in ascending slot order.  A slot is skipped when its
 *   neighbour may not relay (flags[nbr] == 0) and is not the
 *   destination, or when its edge is banned; otherwise the neighbour
 *   updates only on a strict `c > best`.  Banned nodes are pinned to
 *   +inf so they never update.
 * - The heap orders entries by rate descending, then push counter
 *   ascending.  Counters are unique, so every key is distinct and any
 *   correct heap pops the same sequence as Python's heapq.
 * - Build with -ffp-contract=off and no fast-math: each product is then
 *   one IEEE-754 double multiply, exactly as in Python, so paths and
 *   rates are bit-identical.
 *
 * Scratch (best, visited, edge_banned) must be zero on entry and is
 * zero again on return: only the touched nodes and the banned edges are
 * reset, so a search costs time in the nodes it reaches, not in the
 * network size.
 *
 * repro_yen_paths runs yen_deviation_loop (alg2_path_selection.py, its
 * oracle) around that search for one (demand, width); see its comment.
 *
 * Spur bound.  Let need = h - accepted be the pops still to come, and
 * T the need-th best rate among the queued candidates (none while
 * fewer than need are queued).  A spur search from root[d] stops, as
 * if it found nothing, once its heap top times the root's factor (the
 * root's edge rates times swap2 per root interior node and the spur
 * node) falls below T * (1 - 1e-9).  This accepts exactly the paths,
 * rates and tie order of the unbounded loop:
 *
 * - T never falls within a call: a push can only raise the need-th
 *   best, and a pop removes the best while need drops by one.
 * - Every factor is <= 1, so a search pops rates in non-increasing
 *   order: the destination, popped later, has a rate no larger than
 *   the heap top, and the stitched candidate's rate is at most that
 *   top times the root's factor.  The two products group the same
 *   factors differently; the 1e-9 slack covers their rounding, many
 *   orders above it.  So a pruned candidate's rate is below T.
 * - Such a candidate ranks behind the need queued candidates rated
 *   T or more, and they leave the queue only by being popped before
 *   it, so it would never be among the need pops still to come: it
 *   ranks behind every accepted path.  Nor does it change T.  Dropping
 *   it skips its dedup entry too; a later copy of it has the same rate,
 *   below a threshold that has not fallen, so it is never popped
 *   either.  Pool indices keep the push order of what is kept, so tie
 *   breaks are unchanged.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    double rate;
    int64_t counter;
    int64_t node;
} entry_t;

/* Bytes per heap entry, so the caller can size the heap buffer. */
size_t repro_heap_entry_bytes(void) { return sizeof(entry_t); }

/* True when `a` pops before `b`. */
static int pops_before(const entry_t *a, const entry_t *b)
{
    return a->rate > b->rate || (a->rate == b->rate && a->counter < b->counter);
}

static void heap_push(entry_t *heap, int64_t *size, entry_t item)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!pops_before(&item, &heap[parent])) break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = item;
}

static entry_t heap_pop(entry_t *heap, int64_t *size)
{
    entry_t top = heap[0];
    entry_t last = heap[--(*size)];
    int64_t n = *size, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && pops_before(&heap[child + 1], &heap[child])) child++;
        if (!pops_before(&heap[child], &last)) break;
        heap[i] = heap[child];
        i = child;
    }
    if (n > 0) heap[i] = last;
    return top;
}

/*
 * Returns the path length in nodes (path_out[0] == source) and writes
 * the path rate to *rate_out, or returns 0 when the destination is
 * unreachable.  `rates` is indexed by edge id (adj_edges[slot]) and
 * `flags` by node.  Capacities: heap nnz + 1 entries (each row relaxes
 * at most once, so at most nnz pushes follow the source's), touched
 * nnz + n + 1, path_out n, edge_banned one byte per edge.  It also
 * returns 0 once a popped rate times `scale` falls below `cut` (the spur
 * bound in the file header).
 */
static int64_t relax_search(
    const int64_t *indptr, const int64_t *adj, const int64_t *adj_edges,
    double *best, int64_t *pred, uint8_t *visited, uint8_t *edge_banned,
    entry_t *heap, int64_t *touched, int64_t *path_out, double *rate_out,
    const double *rates, const uint8_t *flags,
    int64_t source, int64_t destination, double swap2,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges,
    double scale, double cut)
{
    int64_t n_touched = 0, size = 0, counter = 1, length = 0, i;
    int found = 0;

    touched[n_touched++] = source;
    for (i = 0; i < n_banned; i++) {
        best[banned[i]] = INFINITY;
        touched[n_touched++] = banned[i];
    }
    for (i = 0; i < n_banned_edges; i++) edge_banned[banned_edges[i]] = 1;
    best[source] = 1.0;
    heap[size++] = (entry_t){1.0, 0, source};
    while (size > 0) {
        entry_t top = heap_pop(heap, &size);
        int64_t node = top.node, slot;
        double rate = top.rate;
        if (rate * scale < cut) break;
        if (visited[node]) continue;
        visited[node] = 1;
        if (node == destination) {
            found = 1;
            break;
        }
        if (node != source) {
            if (!flags[node]) continue;
            rate = rate * swap2;
        }
        for (slot = indptr[node]; slot < indptr[node + 1]; slot++) {
            int64_t nbr = adj[slot], edge = adj_edges[slot];
            double c;
            if (!flags[nbr] && nbr != destination) continue;
            if (edge_banned[edge]) continue;
            c = rate * rates[edge];
            if (c > best[nbr]) {
                best[nbr] = c;
                pred[nbr] = node;
                heap_push(heap, &size, (entry_t){c, counter++, nbr});
                touched[n_touched++] = nbr;
            }
        }
    }
    if (found) {
        int64_t at = destination;
        for (length = 1; at != source; length++) at = pred[at];
        at = destination;
        for (i = length - 1; i >= 0; i--) {
            path_out[i] = at;
            at = pred[at];
        }
        *rate_out = best[destination];
    }
    for (i = 0; i < n_touched; i++) {
        best[touched[i]] = 0.0;
        visited[touched[i]] = 0;
    }
    for (i = 0; i < n_banned_edges; i++) edge_banned[banned_edges[i]] = 0;
    return length;
}

/* One unbounded search: rates are never negative, so no cut applies. */
int64_t repro_relax_search(
    const int64_t *indptr, const int64_t *adj, const int64_t *adj_edges,
    double *best, int64_t *pred, uint8_t *visited, uint8_t *edge_banned,
    entry_t *heap, int64_t *touched, int64_t *path_out, double *rate_out,
    const double *rates, const uint8_t *flags,
    int64_t source, int64_t destination, double swap2,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges)
{
    return relax_search(
        indptr, adj, adj_edges, best, pred, visited, edge_banned, heap,
        touched, path_out, rate_out, rates, flags, source, destination,
        swap2, banned, n_banned, banned_edges, n_banned_edges, 1.0, 0.0);
}

/*
 * Algorithm 2's Yen loop for one (demand, width): yen_deviation_loop in
 * repro/routing/alg2_path_selection.py (its oracle) with
 * repro_relax_search as the spur search and the path's own rate
 * (path_entanglement_rate in the reference core) as the scorer, step
 * for step:
 *
 * - the spur search from root[d] bans the session's nodes plus
 *   root[0..d), and the session's edges plus edge (p[d], p[d + 1]) of
 *   every accepted path p that starts with root[0..d];
 * - a stitched candidate is dropped when it equals the first path or
 *   any candidate ever pushed;
 * - candidates pop by rate descending, then push order ascending;
 * - a candidate's rate multiplies its edge rates in path order, then
 *   swap2 once per interior node.  Every interior node is a switch: the
 *   root's come from accepted paths and the spur's pass the relay flags,
 *   which are never set for a user.
 *
 * Every path ever pushed stays in one pool; its index is the push
 * counter (index 0 is the first path).  Spur searches stop early under
 * the spur bound (file header), which needs the queue's best `need`
 * rates: `top` keeps them, ascending.  The buffers live in a yen_work_t
 * kept between calls and grow with the paths found, never with h.
 */

/* One pooled path: nodes[start .. start + length). */
typedef struct {
    int64_t start, length;
    uint64_t hash;
    double rate;
} path_t;

/* A dedup-table slot; it is empty unless `stamp` is the current call's. */
typedef struct {
    int64_t stamp, index;
} slot_t;

/*
 * The caller reads the first four fields after a call: `out` holds the
 * accepted paths as (length, nodes...) records, `out_len` counts its
 * int64s, `out_rates` holds one rate per path and `held` counts the
 * bytes of every buffer the workspace owns.
 */
typedef struct {
    int64_t *out;
    int64_t out_len;
    double *out_rates;
    int64_t held;
    int64_t out_cap, out_rates_cap;
    int64_t *nodes, nodes_cap, nodes_len;
    path_t *paths;
    int64_t paths_cap, n_paths;
    slot_t *table;
    int64_t table_cap, stamp;
    int64_t *queue, queue_cap;
    double *top;
    int64_t top_cap;
    int64_t *accepted, accepted_cap;
    int64_t *ban_nodes, ban_nodes_cap;
    int64_t *ban_edges, ban_edges_cap;
} yen_work_t;

yen_work_t *repro_yen_work_new(void) { return calloc(1, sizeof(yen_work_t)); }

void repro_yen_work_free(yen_work_t *w)
{
    if (w == NULL) return;
    free(w->out);
    free(w->out_rates);
    free(w->nodes);
    free(w->paths);
    free(w->table);
    free(w->queue);
    free(w->top);
    free(w->accepted);
    free(w->ban_nodes);
    free(w->ban_edges);
    free(w);
}

static void *grow(void *buf, int64_t *cap, int64_t need, size_t size)
{
    int64_t grown = *cap > 0 ? *cap : 16;
    while (grown < need) grown *= 2;
    buf = realloc(buf, (size_t)grown * size);
    if (buf != NULL) *cap = grown;
    return buf;
}

/* Grows w->field to hold `need` items, or returns `fail` from the caller. */
#define RESERVE(field, need, fail)                                         \
    do {                                                                   \
        if ((need) > w->field##_cap) {                                     \
            int64_t old_ = w->field##_cap;                                 \
            void *grown_ = grow(w->field, &w->field##_cap, (need),         \
                                sizeof *w->field);                         \
            if (grown_ == NULL) return (fail);                             \
            w->field = grown_;                                             \
            w->held += (w->field##_cap - old_) * (int64_t)sizeof *w->field; \
        }                                                                  \
    } while (0)

/* Edge id of the slot from a to b: CSR rows ascend by neighbour. */
static int64_t edge_between(
    const int64_t *indptr, const int64_t *adj, const int64_t *adj_edges,
    int64_t a, int64_t b)
{
    int64_t lo = indptr[a], hi = indptr[a + 1];
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (adj[mid] < b) lo = mid + 1;
        else hi = mid;
    }
    return adj_edges[lo];
}

static uint64_t hash_path(const int64_t *nodes, int64_t length)
{
    uint64_t hash = 14695981039346656037ULL;
    int64_t i;
    for (i = 0; i < length; i++)
        hash = (hash ^ (uint64_t)nodes[i]) * 1099511628211ULL;
    return hash ^ (hash >> 32);
}

static int rehash(yen_work_t *w, int64_t cap)
{
    slot_t *table = calloc((size_t)cap, sizeof *table);
    uint64_t mask = (uint64_t)cap - 1;
    int64_t k;
    if (table == NULL) return 0;
    for (k = 0; k < w->n_paths; k++) {
        uint64_t i = w->paths[k].hash & mask;
        while (table[i].stamp == w->stamp) i = (i + 1) & mask;
        table[i] = (slot_t){w->stamp, k};
    }
    free(w->table);
    w->held += (cap - w->table_cap) * (int64_t)sizeof *table;
    w->table = table;
    w->table_cap = cap;
    return 1;
}

/*
 * Pools the `length` nodes written at the pool's tail unless an equal
 * path is pooled.  Returns the new index, -1 for a duplicate, or -2
 * when memory runs out.
 */
static int64_t add_path(yen_work_t *w, int64_t length)
{
    const int64_t *nodes = w->nodes + w->nodes_len;
    uint64_t hash = hash_path(nodes, length), mask, i;
    int64_t index = w->n_paths;
    if (2 * (index + 1) > w->table_cap
        && !rehash(w, w->table_cap ? 2 * w->table_cap : 64))
        return -2;
    mask = (uint64_t)w->table_cap - 1;
    for (i = hash & mask; w->table[i].stamp == w->stamp; i = (i + 1) & mask) {
        const path_t *p = &w->paths[w->table[i].index];
        if (p->hash == hash && p->length == length
            && memcmp(w->nodes + p->start, nodes,
                      (size_t)length * sizeof *nodes) == 0)
            return -1;
    }
    RESERVE(paths, index + 1, -2);
    w->paths[index] = (path_t){w->nodes_len, length, hash, 0.0};
    w->table[i] = (slot_t){w->stamp, index};
    w->n_paths++;
    w->nodes_len += length;
    return index;
}

/* True when pooled path a pops before pooled path b. */
static int path_before(const path_t *paths, int64_t a, int64_t b)
{
    return paths[a].rate > paths[b].rate
        || (paths[a].rate == paths[b].rate && a < b);
}

static void queue_push(yen_work_t *w, int64_t *size, int64_t item)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!path_before(w->paths, item, w->queue[parent])) break;
        w->queue[i] = w->queue[parent];
        i = parent;
    }
    w->queue[i] = item;
}

static int64_t queue_pop(yen_work_t *w, int64_t *size)
{
    int64_t top = w->queue[0], last = w->queue[--(*size)];
    int64_t n = *size, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n
            && path_before(w->paths, w->queue[child + 1], w->queue[child]))
            child++;
        if (!path_before(w->paths, w->queue[child], last)) break;
        w->queue[i] = w->queue[child];
        i = child;
    }
    if (n > 0) w->queue[i] = last;
    return top;
}

/*
 * Adds `rate` to the `need` best queued rates held ascending in
 * top[0 .. *n_top): it displaces the smallest once `need` are held.
 */
static void top_insert(double *top, int64_t *n_top, int64_t need, double rate)
{
    int64_t lo = 0, hi;
    if (*n_top == need) {
        if (!(rate > top[0])) return;
        (*n_top)--;
        memmove(top, top + 1, (size_t)*n_top * sizeof *top);
    }
    hi = *n_top;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (top[mid] < rate) lo = mid + 1;
        else hi = mid;
    }
    memmove(top + lo + 1, top + lo, (size_t)(*n_top - lo) * sizeof *top);
    top[lo] = rate;
    (*n_top)++;
}

/*
 * Returns the number of accepted paths (first included, at most h) and
 * leaves them in w->out / w->out_rates, or returns -1 when memory runs
 * out.  `first` is the width's best path with its search rate; graph,
 * scratch, rates, flags and bans are as for repro_relax_search.
 */
int64_t repro_yen_paths(
    yen_work_t *w,
    const int64_t *indptr, const int64_t *adj, const int64_t *adj_edges,
    double *best, int64_t *pred, uint8_t *visited, uint8_t *edge_banned,
    entry_t *heap, int64_t *touched, int64_t *path_out,
    const double *rates, const uint8_t *flags, double swap2, int64_t h,
    const int64_t *first, int64_t first_length, double first_rate,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges)
{
    int64_t destination = first[first_length - 1];
    int64_t n_accepted = 1, n_queue = 0, n_top = 0, k, i;

    w->stamp++;
    w->n_paths = 0;
    w->nodes_len = 0;
    RESERVE(nodes, first_length, -1);
    for (i = 0; i < first_length; i++) w->nodes[i] = first[i];
    if (add_path(w, first_length) < 0) return -1;
    w->paths[0].rate = first_rate;
    RESERVE(accepted, 1, -1);
    w->accepted[0] = 0;
    /* The session's bans lead both ban lists; each spur appends its own. */
    RESERVE(ban_nodes, n_banned + first_length, -1);
    for (i = 0; i < n_banned; i++) w->ban_nodes[i] = banned[i];
    RESERVE(ban_edges, n_banned_edges + 1, -1);
    for (i = 0; i < n_banned_edges; i++) w->ban_edges[i] = banned_edges[i];

    while (n_accepted < h) {
        int64_t prev_start = w->paths[w->accepted[n_accepted - 1]].start;
        int64_t prev_length = w->paths[w->accepted[n_accepted - 1]].length;
        int64_t need = h - n_accepted, d;
        double root_factor = 1.0;
        RESERVE(ban_nodes, n_banned + prev_length, -1);
        RESERVE(ban_edges, n_banned_edges + n_accepted, -1);
        for (d = 0; d + 1 < prev_length; d++) {
            const int64_t *root = w->nodes + prev_start;
            int64_t n_edges = n_banned_edges, spur_length, index;
            double spur_rate;
            /* The spur bound (file header): top[0] is the need-th best. */
            double cut = n_top == need ? w->top[0] * (1.0 - 1e-9) : 0.0;
            if (d > 0) {
                w->ban_nodes[n_banned + d - 1] = root[d - 1];
                root_factor = root_factor * rates[edge_between(
                    indptr, adj, adj_edges, root[d - 1], root[d])] * swap2;
            }
            for (k = 0; k < n_accepted; k++) {
                const path_t *p = &w->paths[w->accepted[k]];
                const int64_t *nodes = w->nodes + p->start;
                if (p->length > d + 1
                    && memcmp(nodes, root, (size_t)(d + 1) * sizeof *root) == 0)
                    w->ban_edges[n_edges++] = edge_between(
                        indptr, adj, adj_edges, nodes[d], nodes[d + 1]);
            }
            spur_length = relax_search(
                indptr, adj, adj_edges, best, pred, visited, edge_banned,
                heap, touched, path_out, &spur_rate, rates, flags, root[d],
                destination, swap2, w->ban_nodes, n_banned + d,
                w->ban_edges, n_edges, root_factor, cut);
            if (spur_length == 0) continue;
            RESERVE(nodes, w->nodes_len + d + spur_length, -1);
            root = w->nodes + prev_start; /* the pool may have moved */
            for (i = 0; i < d; i++) w->nodes[w->nodes_len + i] = root[i];
            for (i = 0; i < spur_length; i++)
                w->nodes[w->nodes_len + d + i] = path_out[i];
            index = add_path(w, d + spur_length);
            if (index == -1) continue;
            if (index < 0) return -1;
            {
                const int64_t *nodes = w->nodes + w->paths[index].start;
                int64_t length = w->paths[index].length;
                double rate = 1.0;
                for (i = 0; i + 1 < length; i++)
                    rate = rate * rates[edge_between(
                        indptr, adj, adj_edges, nodes[i], nodes[i + 1])];
                for (i = 1; i + 1 < length; i++) rate = rate * swap2;
                w->paths[index].rate = rate;
            }
            RESERVE(queue, n_queue + 1, -1);
            queue_push(w, &n_queue, index);
            RESERVE(top, n_top + 1, -1);
            top_insert(w->top, &n_top, need, w->paths[index].rate);
        }
        if (n_queue == 0) break;
        RESERVE(accepted, n_accepted + 1, -1);
        w->accepted[n_accepted++] = queue_pop(w, &n_queue);
        /* The popped rate is the largest held: the rest are the best
         * need - 1 of what stays queued. */
        n_top--;
    }

    RESERVE(out_rates, n_accepted, -1);
    w->out_len = 0;
    for (k = 0; k < n_accepted; k++) {
        const path_t *p = &w->paths[w->accepted[k]];
        RESERVE(out, w->out_len + 1 + p->length, -1);
        w->out[w->out_len++] = p->length;
        for (i = 0; i < p->length; i++)
            w->out[w->out_len++] = w->nodes[p->start + i];
        w->out_rates[k] = p->rate;
    }
    return n_accepted;
}
