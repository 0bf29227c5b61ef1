# cython: language_level=3, boundscheck=False, wraparound=False, initializedcheck=False, cdivision=True
"""Compiled bitset kernel for the streaming clique-tree traversal.

Walks the min-degree clique tree one node per clique, over flat arrays of
64-bit words, with uint64 counters; the pure kernel reaches the same counts
by pivoting. The core loop runs without the GIL, so root-split traversals
can use threads.
"""

from libc.stdint cimport uint64_t
from libc.stdlib cimport free, malloc
from libc.string cimport memcpy, memset

cdef extern from *:
    """
    #if defined(__GNUC__) || defined(__clang__)
    static inline int cc_popcnt64(unsigned long long x) { return __builtin_popcountll(x); }
    static inline int cc_ctz64(unsigned long long x) { return __builtin_ctzll(x); }
    #else
    static inline int cc_popcnt64(unsigned long long x) {
        int c = 0;
        while (x) { x &= x - 1; ++c; }
        return c;
    }
    static inline int cc_ctz64(unsigned long long x) {
        int c = 0;
        while (!(x & 1ULL)) { x >>= 1; ++c; }
        return c;
    }
    #endif
    """
    int cc_popcnt64(uint64_t x) nogil
    int cc_ctz64(uint64_t x) nogil


def backend_name():
    return "compiled"


cdef int _census_core(const uint64_t* adj, const uint64_t* start, int n, int w,
                      uint64_t* counts) nogil:
    cdef uint64_t* levels = <uint64_t*> malloc((<size_t> n + 2) * w * sizeof(uint64_t))
    if levels == NULL:
        return -1
    cdef uint64_t* cur
    cdef uint64_t* child
    cdef const uint64_t* row
    cdef uint64_t word
    cdef int d = 0
    cdef int i, j, b, v, deg, best_v, best_deg
    memcpy(levels, start, w * sizeof(uint64_t))
    counts[0] += 1
    while d >= 0:
        cur = levels + d * w
        best_v = -1
        best_deg = n + 1
        for i in range(w):
            word = cur[i]
            while word:
                b = cc_ctz64(word)
                word &= word - 1
                v = (i << 6) + b
                row = adj + v * w
                deg = 0
                for j in range(w):
                    deg += cc_popcnt64(row[j] & cur[j])
                if deg < best_deg:
                    best_deg = deg
                    best_v = v
                    if deg == 0:
                        break
            if best_deg == 0:
                break
        if best_v < 0:
            d -= 1
            continue
        child = levels + (d + 1) * w
        row = adj + best_v * w
        for j in range(w):
            child[j] = row[j] & cur[j]
        cur[best_v >> 6] &= ~(1ULL << (best_v & 63))
        d += 1
        counts[d] += 1
    free(levels)
    return 0


def census_of_words(const uint64_t[::1] adj, const uint64_t[::1] start, int n, int w):
    """Per-depth node counts for the subtree rooted at the `start` word set."""
    cdef uint64_t* counts = <uint64_t*> malloc((<size_t> n + 2) * sizeof(uint64_t))
    if counts == NULL:
        raise MemoryError()
    memset(counts, 0, (<size_t> n + 2) * sizeof(uint64_t))
    cdef int rc
    with nogil:
        rc = _census_core(&adj[0], &start[0], n, w, counts)
    if rc != 0:
        free(counts)
        raise MemoryError()
    top = n + 1
    while top > 0 and counts[top] == 0:
        top -= 1
    out = [counts[i] for i in range(top + 1)]
    free(counts)
    return out
