/* A preloaded free() that watches glibc's heap top; built and loaded by
 * tools/heap_margin.py.
 *
 * glibc gives the top of the main heap back to the system when a free
 * leaves it at or above the trim threshold, which rises to twice the
 * largest mapped chunk freed so far. A process whose top stays under that
 * threshold keeps its pages; one that crosses it faults them in again.
 *
 * After each free of 32 KB or more, the wrapper records the largest free
 * top (mallinfo2().keepcost), and after each free of a mapped chunk the
 * largest such chunk that can still raise the threshold (glibc's
 * DEFAULT_MMAP_THRESHOLD_MAX). heap_margin_top() and heap_margin_mapped()
 * read them.
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <malloc.h>
#include <stddef.h>

#define PROBE_MIN ((size_t)32 * 1024)
#define MAPPED_MAX ((size_t)4 * 1024 * 1024 * sizeof(long))
#define IS_MMAPPED ((size_t)2)
#define SIZE_BITS ((size_t)7)

static void (*real_free)(void *);
static size_t top_max, mapped_max;

__attribute__((constructor)) static void find_free(void) {
    real_free = (void (*)(void *))dlsym(RTLD_NEXT, "free");
}

void free(void *ptr) {
    if (real_free == NULL) {
        find_free();
        if (real_free == NULL)
            return; /* only while dlsym itself runs: leak rather than recurse */
    }
    if (ptr == NULL)
        return;
    size_t head = ((size_t *)ptr)[-1];
    size_t size = head & ~SIZE_BITS;
    real_free(ptr);
    if (head & IS_MMAPPED) {
        if (size <= MAPPED_MAX && size > mapped_max)
            mapped_max = size;
    } else if (size >= PROBE_MIN) {
        size_t top = mallinfo2().keepcost;
        if (top > top_max)
            top_max = top;
    }
}

size_t heap_margin_top(void) { return top_max; }

size_t heap_margin_mapped(void) { return mapped_max; }
