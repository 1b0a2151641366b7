/*
 * Algorithm 1's relax loop: the modified Dijkstra over one masked CSR
 * rate row, step for step the same as CompiledNetwork._kernel in
 * repro/routing/compiled.py (the Python oracle).
 *
 * - Rows relax in ascending slot order; a neighbour updates only on a
 *   strict `c > best`, and banned nodes are pinned to +inf so they never
 *   update.
 * - The heap orders entries by rate descending, then push counter
 *   ascending.  Counters are unique, so every key is distinct and any
 *   correct heap pops the same sequence as Python's heapq.
 * - Build with -ffp-contract=off and no fast-math: each product is then
 *   one IEEE-754 double multiply, exactly as in Python, so paths and
 *   rates are bit-identical.
 *
 * Scratch (best, visited) must be zero on entry and is zero again on
 * return: only the touched nodes are reset, so a search costs time in
 * the nodes it reaches, not in the network size.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>

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
 * unreachable.  Capacities: heap nnz + 1 entries (each row relaxes at
 * most once, so at most nnz pushes follow the source's), touched
 * nnz + n + 1, path_out n.
 */
int64_t repro_relax_search(
    const int64_t *indptr, const int64_t *adj, double *best, int64_t *pred,
    uint8_t *visited, entry_t *heap, int64_t *touched, int64_t *path_out,
    double *rate_out, const double *masked, const uint8_t *flags,
    int64_t source, int64_t destination, double swap2,
    const int64_t *banned, int64_t n_banned)
{
    int64_t n_touched = 0, size = 0, counter = 1, length = 0, i;
    int found = 0;

    touched[n_touched++] = source;
    for (i = 0; i < n_banned; i++) {
        best[banned[i]] = INFINITY;
        touched[n_touched++] = banned[i];
    }
    best[source] = 1.0;
    heap[size++] = (entry_t){1.0, 0, source};
    while (size > 0) {
        entry_t top = heap_pop(heap, &size);
        int64_t node = top.node, slot;
        double rate = top.rate;
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
            double c = rate * masked[slot];
            int64_t nbr = adj[slot];
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
    return length;
}
