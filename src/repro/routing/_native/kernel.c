/*
 * Algorithm 1's relax loop and Algorithm 2's Yen loop over it.
 *
 * relax_search is the modified Dijkstra over the CSR adjacency and one
 * per-edge rate column, step for step the same as the reference core's
 * largest_entanglement_rate_path in repro/routing/alg1_largest_rate.py
 * (its oracle).
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
 * yen_paths runs yen_deviation_loop (alg2_path_selection.py, its
 * oracle) around that search for one (demand, width); see its comment.
 *
 * Context.  Every entry point takes one context_t, built once per
 * network snapshot by repro_context_new: it borrows the snapshot's CSR
 * rows (indptr, adj, adj_edges) and node ids, owns one search's scratch
 * sized for the network, and owns the Yen loop's pool, which grows with
 * the paths found and never with h.  The caller keeps the borrowed
 * arrays alive and frees the context with repro_context_free.  A call
 * answers a whole batch of widths of one demand and leaves its answer
 * in the context's leading fields: `out` holds int64 records, `out_len`
 * counts them, `out_rates` holds one rate per path, and `held` counts
 * the bytes of every buffer that grows.  Two more leading fields count
 * work over the context's life: `pops`, the heap pops of every search
 * (the goal bound's included), and `spurs`, the spur searches.  Both
 * are pure functions of the calls made.  Paths are written in node ids,
 * not indices.  A width's rate column and relay flags arrive as raw
 * addresses, two int64s per width.
 *
 * - repro_search_widths: the first search of each width, one
 *   (length, ids...) record per width (length 0 when none is found).
 * - repro_yen_widths: each width's Yen loop from its first path, one
 *   (count, then count (length, ids...) records) group per width.
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
 *
 * Floor.  Before each width after the first, the previous width's
 * accepted paths, still pooled, are rescored at this width with the
 * scorer's own operations (edge rates in path order, then swap2 per
 * interior node).  When there are h of them and every interior node of
 * each relays at this width, they are h distinct paths this width's
 * loop may accept: they join the same endpoints and already avoid the
 * session's bans.  Let F be the least of their rescored rates.  Yen's
 * loop accepts the h best paths, so the unbounded loop never accepts a
 * candidate rated below F (less rounding).  Every spur search of the
 * width then runs with cut = max(T, F) * (1 - 1e-9), T as above:
 *
 * - A candidate cut by F is rated below F, so it is never accepted.
 * - Dropping it leaves max(T, F) as it was: queued, it could raise T
 *   only to a rate below F.  The rest of the spur-bound argument holds
 *   with max(T, F) for T, so paths, rates and tie order are unchanged.
 * - With fewer than h previous paths, or one that does not relay here,
 *   the width has no floor.  The order of the widths does not matter:
 *   a narrower predecessor's paths are rescored like a wider one's.
 *
 * Goal bound.  On the first spur search under a cut in a
 * repro_yen_widths call, a max-product Dijkstra from the destination
 * runs once for the whole call.  It uses the batch's largest rate per
 * edge and the union of its relay flags, and ignores bans.  It gives
 * ub[v] >= the product of factors that any search path can still gain
 * from an entry at v, at any width of the call: swap2 at v and at each
 * later relay, times the edge rates (ub[destination] = 1; 0 where no
 * path leads on).  A spur search under cut > 0 then skips the push of
 * a neighbour whose candidate rate times ub[neighbour] is below
 * (cut / scale) * (1 - 1e-9).  This changes no answer:
 *
 * - Every path through a skipped entry reaches the destination below
 *   the cut.  So does every path through an entry that descends from
 *   it, or that it would have kept out of best[]: each is bounded by
 *   the skipped entry's bound, times rounding.  These are the only
 *   entries that differ between the two searches.
 * - When the destination clears the cut, every entry of the answer
 *   path is bounded at or above the cut, less rounding.  An entry that
 *   differs at the same node has a lower rate, so it pops later and
 *   cannot change that node's best[] or pred[].  Pushes are skipped,
 *   never reordered, and push counters keep their relative order, so
 *   the kept entries pop in the same order and tie-break the same way.
 * - A destination that does not clear the cut gives none either way.
 *
 * The 1e-9 slack covers the rounding of these regroupings, as for the
 * spur bound.  First searches and spur searches without a cut run
 * unbounded.
 *
 * Batching keeps all of this: each width's searches and Yen loop run
 * alone, in the order given, on scratch that is zero between them, and
 * the pool is reset per width once the next width's floor has read it.
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

/* The kernel context (file header).  The first six fields are read by
 * the caller and must stay first. */
typedef struct {
    int64_t *out;
    int64_t out_len;
    double *out_rates;
    int64_t held;
    /* Work counters over the context's life: heap pops, spur searches. */
    int64_t pops, spurs;
    /* Borrowed from the snapshot. */
    int64_t n_nodes, n_edges;
    const int64_t *indptr, *adj, *adj_edges, *ids;
    /* One search's scratch. */
    double *best;
    int64_t *pred;
    uint8_t *visited, *edge_banned;
    entry_t *heap;
    int64_t *touched, *path;
    /* The goal bound of one Yen call (file header): the batch's largest
     * rate per edge, its relay flags' union, and ub per node. */
    double *bound_rates, *ub;
    uint8_t *bound_flags;
    int ub_ready;
    /* Grown with the paths found. */
    int64_t out_cap, out_rates_len, out_rates_cap;
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
} context_t;

void repro_context_free(context_t *c)
{
    if (c == NULL) return;
    free(c->best);
    free(c->pred);
    free(c->visited);
    free(c->edge_banned);
    free(c->heap);
    free(c->touched);
    free(c->path);
    free(c->bound_rates);
    free(c->ub);
    free(c->bound_flags);
    free(c->out);
    free(c->out_rates);
    free(c->nodes);
    free(c->paths);
    free(c->table);
    free(c->queue);
    free(c->top);
    free(c->accepted);
    free(c->ban_nodes);
    free(c->ban_edges);
    free(c);
}

/*
 * A context over a snapshot of n_nodes nodes and n_edges edges, or NULL
 * when memory runs out.  Scratch sizes are worst cases of one search:
 * each row relaxes at most once, so a search pushes at most nnz entries
 * after the source's and touches at most nnz + n_nodes + 1 nodes.
 */
context_t *repro_context_new(
    int64_t n_nodes, int64_t n_edges, const int64_t *indptr,
    const int64_t *adj, const int64_t *adj_edges, const int64_t *ids)
{
    size_t n = (size_t)n_nodes + 1, nnz = (size_t)indptr[n_nodes] + 1;
    context_t *c = calloc(1, sizeof *c);
    if (c == NULL) return NULL;
    c->n_nodes = n_nodes;
    c->n_edges = n_edges;
    c->indptr = indptr;
    c->adj = adj;
    c->adj_edges = adj_edges;
    c->ids = ids;
    c->best = calloc(n, sizeof *c->best);
    c->pred = calloc(n, sizeof *c->pred);
    c->visited = calloc(n, sizeof *c->visited);
    c->edge_banned = calloc((size_t)n_edges + 1, sizeof *c->edge_banned);
    c->heap = calloc(nnz, sizeof *c->heap);
    c->touched = calloc(nnz + n, sizeof *c->touched);
    c->path = calloc(n, sizeof *c->path);
    c->bound_rates = calloc((size_t)n_edges + 1, sizeof *c->bound_rates);
    c->ub = calloc(n, sizeof *c->ub);
    c->bound_flags = calloc(n, sizeof *c->bound_flags);
    if (c->best == NULL || c->pred == NULL || c->visited == NULL
        || c->edge_banned == NULL || c->heap == NULL || c->touched == NULL
        || c->path == NULL || c->bound_rates == NULL || c->ub == NULL
        || c->bound_flags == NULL) {
        repro_context_free(c);
        return NULL;
    }
    return c;
}

/* True when `a` pops before `b`. */
static int pops_before(const entry_t *a, const entry_t *b)
{
    return a->rate > b->rate || (a->rate == b->rate && a->counter < b->counter);
}

/* Inline: each search pushes and pops in its inner loop. */
static inline void heap_push(entry_t *heap, int64_t *size, entry_t item)
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

static inline entry_t heap_pop(entry_t *heap, int64_t *size)
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
 * Returns the path length in nodes (c->path[0] == source) and writes
 * the path rate to *rate_out, or returns 0 when the destination is
 * unreachable.  `rates` is indexed by edge id (adj_edges[slot]) and
 * `flags` by node.  It also returns 0 once a popped rate times `scale`
 * falls below `cut` (the spur bound in the file header).  With `ub`
 * set, it skips the push of a neighbour whose candidate rate times
 * ub[neighbour] falls below `goal` (the goal bound in the file header).
 */
static int64_t relax_search(
    context_t *c, const double *rates, const uint8_t *flags,
    int64_t source, int64_t destination, double swap2,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges,
    double scale, double cut, const double *ub, double goal,
    double *rate_out)
{
    const int64_t *indptr = c->indptr, *adj = c->adj;
    const int64_t *adj_edges = c->adj_edges;
    double *best = c->best;
    int64_t *pred = c->pred, *touched = c->touched;
    uint8_t *visited = c->visited, *edge_banned = c->edge_banned;
    entry_t *heap = c->heap;
    int64_t n_touched = 0, size = 0, counter = 1, length = 0, pops = 0, i;
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
        pops++;
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
            double cand;
            if (!flags[nbr] && nbr != destination) continue;
            if (edge_banned[edge]) continue;
            cand = rate * rates[edge];
            if (cand > best[nbr]) {
                if (ub != NULL && cand * ub[nbr] < goal) continue;
                best[nbr] = cand;
                pred[nbr] = node;
                heap_push(heap, &size, (entry_t){cand, counter++, nbr});
                touched[n_touched++] = nbr;
            }
        }
    }
    if (found) {
        int64_t at = destination;
        for (length = 1; at != source; length++) at = pred[at];
        at = destination;
        for (i = length - 1; i >= 0; i--) {
            c->path[i] = at;
            at = pred[at];
        }
        *rate_out = best[destination];
    }
    for (i = 0; i < n_touched; i++) {
        best[touched[i]] = 0.0;
        visited[touched[i]] = 0;
    }
    for (i = 0; i < n_banned_edges; i++) edge_banned[banned_edges[i]] = 0;
    c->pops += pops;
    return length;
}

static void *grow(void *buf, int64_t *cap, int64_t need, size_t size)
{
    int64_t grown = *cap > 0 ? *cap : 16;
    while (grown < need) grown *= 2;
    buf = realloc(buf, (size_t)grown * size);
    if (buf != NULL) *cap = grown;
    return buf;
}

/* Grows c->field to hold `need` items, or returns `fail` from the caller. */
#define RESERVE(field, need, fail)                                         \
    do {                                                                   \
        if ((need) > c->field##_cap) {                                     \
            int64_t old_ = c->field##_cap;                                 \
            void *grown_ = grow(c->field, &c->field##_cap, (need),         \
                                sizeof *c->field);                         \
            if (grown_ == NULL) return (fail);                             \
            c->field = grown_;                                             \
            c->held += (c->field##_cap - old_) * (int64_t)sizeof *c->field; \
        }                                                                  \
    } while (0)

/* The rate column or relay flags whose address the caller passed. */
#define RATES(address) ((const double *)(uintptr_t)(address))
#define FLAGS(address) ((const uint8_t *)(uintptr_t)(address))

/*
 * Appends the (length, ids...) record of an index path and its rate to
 * the output; returns 0 when memory runs out.  A length of 0 records
 * "no path".
 */
static int emit_path(
    context_t *c, const int64_t *nodes, int64_t length, double rate)
{
    int64_t i;
    RESERVE(out, c->out_len + 1 + length, 0);
    RESERVE(out_rates, c->out_rates_len + 1, 0);
    c->out[c->out_len++] = length;
    for (i = 0; i < length; i++) c->out[c->out_len++] = c->ids[nodes[i]];
    c->out_rates[c->out_rates_len++] = rate;
    return 1;
}

/*
 * The first search of each of n_widths widths of one demand: `columns`
 * holds each width's rate column and relay flags (addresses).  Writes
 * one (length, ids...) record and one rate per width, in order, and
 * returns n_widths, or -1 when memory runs out.
 */
int64_t repro_search_widths(
    context_t *c, int64_t n_widths, const int64_t *columns,
    int64_t source, int64_t destination, double swap2,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges)
{
    int64_t k;
    c->out_len = 0;
    c->out_rates_len = 0;
    for (k = 0; k < n_widths; k++) {
        double rate = 0.0;
        int64_t length = relax_search(
            c, RATES(columns[2 * k]), FLAGS(columns[2 * k + 1]), source,
            destination, swap2, banned, n_banned, banned_edges,
            n_banned_edges, 1.0, 0.0, NULL, 0.0, &rate);
        if (!emit_path(c, c->path, length, rate)) return -1;
    }
    return n_widths;
}

/*
 * Algorithm 2's Yen loop for one (demand, width): yen_deviation_loop in
 * repro/routing/alg2_path_selection.py (its oracle) with relax_search
 * as the spur search and the path's own rate (path_entanglement_rate in
 * the reference core) as the scorer, step for step:
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
 * the spur bound, the floor and the goal bound (file header); the spur
 * bound needs the queue's best `need` rates: `top` keeps them,
 * ascending.
 */

/* Edge id of the slot from a to b: CSR rows ascend by neighbour. */
static int64_t edge_between(const context_t *c, int64_t a, int64_t b)
{
    int64_t lo = c->indptr[a], hi = c->indptr[a + 1];
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (c->adj[mid] < b) lo = mid + 1;
        else hi = mid;
    }
    return c->adj_edges[lo];
}

/* The Yen scorer: edge rates in path order, then swap2 per interior node. */
static double path_rate(
    const context_t *c, const double *rates, double swap2,
    const int64_t *nodes, int64_t length)
{
    double rate = 1.0;
    int64_t i;
    for (i = 0; i + 1 < length; i++)
        rate = rate * rates[edge_between(c, nodes[i], nodes[i + 1])];
    for (i = 1; i + 1 < length; i++) rate = rate * swap2;
    return rate;
}

static uint64_t hash_path(const int64_t *nodes, int64_t length)
{
    uint64_t hash = 14695981039346656037ULL;
    int64_t i;
    for (i = 0; i < length; i++)
        hash = (hash ^ (uint64_t)nodes[i]) * 1099511628211ULL;
    return hash ^ (hash >> 32);
}

static int rehash(context_t *c, int64_t cap)
{
    slot_t *table = calloc((size_t)cap, sizeof *table);
    uint64_t mask = (uint64_t)cap - 1;
    int64_t k;
    if (table == NULL) return 0;
    for (k = 0; k < c->n_paths; k++) {
        uint64_t i = c->paths[k].hash & mask;
        while (table[i].stamp == c->stamp) i = (i + 1) & mask;
        table[i] = (slot_t){c->stamp, k};
    }
    free(c->table);
    c->held += (cap - c->table_cap) * (int64_t)sizeof *table;
    c->table = table;
    c->table_cap = cap;
    return 1;
}

/*
 * Pools the `length` nodes written at the pool's tail unless an equal
 * path is pooled.  Returns the new index, -1 for a duplicate, or -2
 * when memory runs out.
 */
static int64_t add_path(context_t *c, int64_t length)
{
    const int64_t *nodes = c->nodes + c->nodes_len;
    uint64_t hash = hash_path(nodes, length), mask, i;
    int64_t index = c->n_paths;
    if (2 * (index + 1) > c->table_cap
        && !rehash(c, c->table_cap ? 2 * c->table_cap : 64))
        return -2;
    mask = (uint64_t)c->table_cap - 1;
    for (i = hash & mask; c->table[i].stamp == c->stamp; i = (i + 1) & mask) {
        const path_t *p = &c->paths[c->table[i].index];
        if (p->hash == hash && p->length == length
            && memcmp(c->nodes + p->start, nodes,
                      (size_t)length * sizeof *nodes) == 0)
            return -1;
    }
    RESERVE(paths, index + 1, -2);
    c->paths[index] = (path_t){c->nodes_len, length, hash, 0.0};
    c->table[i] = (slot_t){c->stamp, index};
    c->n_paths++;
    c->nodes_len += length;
    return index;
}

/* True when pooled path a pops before pooled path b. */
static int path_before(const path_t *paths, int64_t a, int64_t b)
{
    return paths[a].rate > paths[b].rate
        || (paths[a].rate == paths[b].rate && a < b);
}

static void queue_push(context_t *c, int64_t *size, int64_t item)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!path_before(c->paths, item, c->queue[parent])) break;
        c->queue[i] = c->queue[parent];
        i = parent;
    }
    c->queue[i] = item;
}

static int64_t queue_pop(context_t *c, int64_t *size)
{
    int64_t top = c->queue[0], last = c->queue[--(*size)];
    int64_t n = *size, i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n
            && path_before(c->paths, c->queue[child + 1], c->queue[child]))
            child++;
        if (!path_before(c->paths, c->queue[child], last)) break;
        c->queue[i] = c->queue[child];
        i = child;
    }
    if (n > 0) c->queue[i] = last;
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
 * The goal bound's ub (file header), for the batch of repro_yen_widths'
 * `request`: ub[destination] = 1 and, for a node v that relays at some
 * width of the batch, the largest product of swap2 times an edge rate
 * per step over the paths from v to the destination whose interior
 * nodes relay at some width, each edge at its largest rate over the
 * batch; 0 for every other node.  A max-product Dijkstra from the
 * destination that ignores bans.
 */
static void goal_bounds(
    context_t *c, int64_t n_widths, const int64_t *request,
    int64_t destination, double swap2)
{
    const int64_t *indptr = c->indptr, *adj = c->adj;
    const int64_t *adj_edges = c->adj_edges;
    double *rates = c->bound_rates, *ub = c->ub;
    uint8_t *flags = c->bound_flags;
    entry_t *heap = c->heap;
    int64_t n = c->n_nodes, size = 0, counter = 1, pops = 0, at = 0, k, i;

    memset(rates, 0, (size_t)c->n_edges * sizeof *rates);
    memset(flags, 0, (size_t)n);
    memset(ub, 0, (size_t)n * sizeof *ub);
    for (k = 0; k < n_widths; k++) {
        const double *column = RATES(request[at]);
        const uint8_t *relays = FLAGS(request[at + 1]);
        for (i = 0; i < c->n_edges; i++)
            if (column[i] > rates[i]) rates[i] = column[i];
        for (i = 0; i < n; i++) flags[i] |= relays[i];
        at += 3 + request[at + 2];
    }
    ub[destination] = 1.0;
    heap[size++] = (entry_t){1.0, 0, destination};
    while (size > 0) {
        entry_t top = heap_pop(heap, &size);
        int64_t node = top.node, slot;
        pops++;
        if (c->visited[node]) continue;
        c->visited[node] = 1;
        for (slot = indptr[node]; slot < indptr[node + 1]; slot++) {
            int64_t nbr = adj[slot];
            double cand;
            if (nbr == destination || !flags[nbr]) continue;
            cand = top.rate * rates[adj_edges[slot]] * swap2;
            if (cand > ub[nbr]) {
                ub[nbr] = cand;
                heap_push(heap, &size, (entry_t){cand, counter++, nbr});
            }
        }
    }
    memset(c->visited, 0, (size_t)n);
    c->pops += pops;
    c->ub_ready = 1;
}

/*
 * The floor (file header) that the previous width's n_prev accepted
 * paths, still pooled, set for a width with these rates and flags: the
 * least of their rates rescored at this width, less the slack, when
 * all h of them relay here; 0 (no floor) otherwise.
 */
static double pool_floor(
    const context_t *c, const double *rates, const uint8_t *flags,
    double swap2, int64_t h, int64_t n_prev)
{
    double lowest = INFINITY;
    int64_t k, i;
    if (n_prev < h) return 0.0;
    for (k = 0; k < n_prev; k++) {
        const path_t *p = &c->paths[c->accepted[k]];
        const int64_t *nodes = c->nodes + p->start;
        double rate;
        for (i = 1; i + 1 < p->length; i++)
            if (!flags[nodes[i]]) return 0.0;
        rate = path_rate(c, rates, swap2, nodes, p->length);
        if (rate < lowest) lowest = rate;
    }
    return lowest * (1.0 - 1e-9);
}

/*
 * Appends the count of accepted paths (first included, at most h) and
 * their records and rates to the output, and returns the count, or -1
 * when memory runs out.  `first` is the width's best index path with
 * its search rate; rates, flags and bans are as for relax_search.
 * Every spur search runs under the larger of the spur bound and
 * `lowest` (a floor, or 0), and under the goal bound once either is
 * active; the batch's `request` of n_widths widths builds its ub on
 * first use.
 */
static int64_t yen_paths(
    context_t *c, const double *rates, const uint8_t *flags, double swap2,
    int64_t h, const int64_t *first, int64_t first_length, double first_rate,
    double lowest, const int64_t *request, int64_t n_widths,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges)
{
    int64_t destination = first[first_length - 1];
    int64_t n_accepted = 1, n_queue = 0, n_top = 0, k, i;

    c->stamp++;
    c->n_paths = 0;
    c->nodes_len = 0;
    RESERVE(nodes, first_length, -1);
    for (i = 0; i < first_length; i++) c->nodes[i] = first[i];
    if (add_path(c, first_length) < 0) return -1;
    c->paths[0].rate = first_rate;
    RESERVE(accepted, 1, -1);
    c->accepted[0] = 0;
    /* The session's bans lead both ban lists; each spur appends its own. */
    RESERVE(ban_nodes, n_banned + first_length, -1);
    for (i = 0; i < n_banned; i++) c->ban_nodes[i] = banned[i];
    RESERVE(ban_edges, n_banned_edges + 1, -1);
    for (i = 0; i < n_banned_edges; i++) c->ban_edges[i] = banned_edges[i];

    while (n_accepted < h) {
        int64_t prev_start = c->paths[c->accepted[n_accepted - 1]].start;
        int64_t prev_length = c->paths[c->accepted[n_accepted - 1]].length;
        int64_t need = h - n_accepted, d;
        double root_factor = 1.0;
        RESERVE(ban_nodes, n_banned + prev_length, -1);
        RESERVE(ban_edges, n_banned_edges + n_accepted, -1);
        for (d = 0; d + 1 < prev_length; d++) {
            const int64_t *root = c->nodes + prev_start;
            int64_t n_edges = n_banned_edges, spur_length, index;
            double spur_rate, goal = 0.0;
            const double *ub = NULL;
            /* The spur bound (file header): top[0] is the need-th best. */
            double cut = n_top == need ? c->top[0] * (1.0 - 1e-9) : 0.0;
            if (lowest > cut) cut = lowest;
            if (d > 0) {
                c->ban_nodes[n_banned + d - 1] = root[d - 1];
                root_factor = root_factor
                    * rates[edge_between(c, root[d - 1], root[d])] * swap2;
            }
            for (k = 0; k < n_accepted; k++) {
                const path_t *p = &c->paths[c->accepted[k]];
                const int64_t *nodes = c->nodes + p->start;
                if (p->length > d + 1
                    && memcmp(nodes, root, (size_t)(d + 1) * sizeof *root) == 0)
                    c->ban_edges[n_edges++] =
                        edge_between(c, nodes[d], nodes[d + 1]);
            }
            if (cut > 0.0) {
                /* The goal bound (file header). */
                if (!c->ub_ready)
                    goal_bounds(c, n_widths, request, destination, swap2);
                ub = c->ub;
                goal = cut / root_factor * (1.0 - 1e-9);
            }
            c->spurs++;
            spur_length = relax_search(
                c, rates, flags, root[d], destination, swap2, c->ban_nodes,
                n_banned + d, c->ban_edges, n_edges, root_factor, cut, ub,
                goal, &spur_rate);
            if (spur_length == 0) continue;
            RESERVE(nodes, c->nodes_len + d + spur_length, -1);
            root = c->nodes + prev_start; /* the pool may have moved */
            for (i = 0; i < d; i++) c->nodes[c->nodes_len + i] = root[i];
            for (i = 0; i < spur_length; i++)
                c->nodes[c->nodes_len + d + i] = c->path[i];
            index = add_path(c, d + spur_length);
            if (index == -1) continue;
            if (index < 0) return -1;
            c->paths[index].rate = path_rate(
                c, rates, swap2, c->nodes + c->paths[index].start,
                c->paths[index].length);
            RESERVE(queue, n_queue + 1, -1);
            queue_push(c, &n_queue, index);
            RESERVE(top, n_top + 1, -1);
            top_insert(c->top, &n_top, need, c->paths[index].rate);
        }
        if (n_queue == 0) break;
        RESERVE(accepted, n_accepted + 1, -1);
        c->accepted[n_accepted++] = queue_pop(c, &n_queue);
        /* The popped rate is the largest held: the rest are the best
         * need - 1 of what stays queued. */
        n_top--;
    }

    RESERVE(out, c->out_len + 1, -1);
    c->out[c->out_len++] = n_accepted;
    for (k = 0; k < n_accepted; k++) {
        const path_t *p = &c->paths[c->accepted[k]];
        if (!emit_path(c, c->nodes + p->start, p->length, p->rate)) return -1;
    }
    return n_accepted;
}

/*
 * The Yen loops of n_widths widths of one demand, in order.  `request`
 * holds, per width, its rate column and relay flags (addresses), the
 * first path's length and its node indices; `first_rates` holds each
 * first path's search rate.  Returns the number of paths written, or
 * -1 when memory runs out.
 */
int64_t repro_yen_widths(
    context_t *c, int64_t n_widths, const int64_t *request,
    const double *first_rates, int64_t h, double swap2,
    const int64_t *banned, int64_t n_banned,
    const int64_t *banned_edges, int64_t n_banned_edges)
{
    int64_t k, at = 0, total = 0, count = 0;
    c->out_len = 0;
    c->out_rates_len = 0;
    c->ub_ready = 0;
    for (k = 0; k < n_widths; k++) {
        const double *rates = RATES(request[at]);
        const uint8_t *flags = FLAGS(request[at + 1]);
        int64_t length = request[at + 2];
        /* The pool still holds the previous width's `count` paths. */
        double lowest = pool_floor(c, rates, flags, swap2, h, count);
        count = yen_paths(
            c, rates, flags, swap2, h, request + at + 3, length,
            first_rates[k], lowest, request, n_widths, banned, n_banned,
            banned_edges, n_banned_edges);
        if (count < 0) return -1;
        total += count;
        at += 3 + length;
    }
    return total;
}
