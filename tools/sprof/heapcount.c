/*
 * heapcount: the live heap at its peak, by block size, on a box without
 * heaptrack or valgrind.
 *
 * An LD_PRELOAD library. It wraps malloc, calloc, realloc and free and
 * forwards each to glibc's own __libc_malloc, __libc_calloc,
 * __libc_realloc and __libc_free, so it needs no dlsym (which allocates,
 * and would recurse). It keeps the live heap in bytes (each block counted
 * at its malloc_usable_size) and the live blocks per power-of-two size
 * class; whenever the live heap reaches a new peak it copies the class
 * counts. Its destructor writes to $HEAPCOUNT_OUT (default stderr):
 *
 *   peak_live_bytes <n>
 *   calls malloc <n> calloc <n> realloc <n> free <n>
 *   class <lo>..<hi> at_peak <blocks> <bytes> allocated <blocks>
 *
 * one class line per size class that held a block at the peak or was ever
 * allocated: `at_peak` is the live blocks of that class (and their bytes)
 * at the peak, `allocated` how many blocks of it were handed out over the
 * whole run (a realloc that moves or grows a block counts as one). The
 * peak is of the heap the program asked for: glibc's arena slack, thread
 * stacks and the binary's own pages are in VmHWM and not here.
 *
 *   cc -O2 -shared -fPIC -o libheapcount.so heapcount.c
 *   HEAPCOUNT_OUT=run.heap LD_PRELOAD=./libheapcount.so ./repro weather ...
 *
 * One lock around the counters: a two-worker run is counted across both
 * workers, and runs slower for it. Not a gate; a tool for checking where a
 * change to peak RSS comes from. glibc only (the __libc_* entry points).
 */
#define _GNU_SOURCE
#include <malloc.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);

#define CLASSES 64

static volatile int lock;
static uint64_t live_bytes, peak_bytes;
static uint64_t live_blocks[CLASSES], live_class_bytes[CLASSES];
static uint64_t peak_blocks[CLASSES], peak_class_bytes[CLASSES];
static uint64_t allocated[CLASSES];
static uint64_t n_malloc, n_calloc, n_realloc, n_free;

static void acquire(void)
{
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE))
        ;
}

static void release(void)
{
    __atomic_clear(&lock, __ATOMIC_RELEASE);
}

/* Size class of a block: floor(log2(size)), class 0 for sizes 0 and 1. */
static unsigned class_of(size_t size)
{
    return size < 2 ? 0 : 63 - (unsigned)__builtin_clzll(size);
}

/* Caller holds the lock. */
static void count_in(void *p)
{
    if (!p)
        return;
    size_t size = malloc_usable_size(p);
    unsigned c = class_of(size);
    live_blocks[c]++;
    live_class_bytes[c] += size;
    allocated[c]++;
    live_bytes += size;
    if (live_bytes > peak_bytes) {
        peak_bytes = live_bytes;
        memcpy(peak_blocks, live_blocks, sizeof live_blocks);
        memcpy(peak_class_bytes, live_class_bytes, sizeof live_class_bytes);
    }
}

/* Caller holds the lock. */
static void count_out(void *p)
{
    if (!p)
        return;
    size_t size = malloc_usable_size(p);
    unsigned c = class_of(size);
    live_blocks[c]--;
    live_class_bytes[c] -= size;
    live_bytes -= size;
}

void *malloc(size_t size)
{
    void *p = __libc_malloc(size);
    acquire();
    n_malloc++;
    count_in(p);
    release();
    return p;
}

void *calloc(size_t n, size_t size)
{
    void *p = __libc_calloc(n, size);
    acquire();
    n_calloc++;
    count_in(p);
    release();
    return p;
}

void *realloc(void *old, size_t size)
{
    /* Hold the lock across the call: once glibc has freed `old`, another
     * thread may be handed the same address. */
    acquire();
    n_realloc++;
    count_out(old);
    void *p = __libc_realloc(old, size);
    /* A failed realloc leaves the old block; a realloc to 0 frees it. */
    count_in(p ? p : (size ? old : NULL));
    release();
    return p;
}

void free(void *p)
{
    acquire();
    n_free += p != NULL;
    count_out(p);
    release();
    __libc_free(p);
}

__attribute__((destructor)) static void report(void)
{
    /* A copy taken under the lock, printed without it: stdio allocates. */
    acquire();
    uint64_t peak = peak_bytes, calls[4] = {n_malloc, n_calloc, n_realloc, n_free};
    uint64_t blocks[CLASSES], bytes[CLASSES], handed[CLASSES];
    memcpy(blocks, peak_blocks, sizeof blocks);
    memcpy(bytes, peak_class_bytes, sizeof bytes);
    memcpy(handed, allocated, sizeof handed);
    release();

    const char *path = getenv("HEAPCOUNT_OUT");
    FILE *f = path ? fopen(path, "w") : stderr;
    if (!f)
        return;
    fprintf(f, "peak_live_bytes %llu\n", (unsigned long long)peak);
    fprintf(f, "calls malloc %llu calloc %llu realloc %llu free %llu\n",
            (unsigned long long)calls[0], (unsigned long long)calls[1],
            (unsigned long long)calls[2], (unsigned long long)calls[3]);
    for (unsigned c = 0; c < CLASSES; c++) {
        if (!blocks[c] && !handed[c])
            continue;
        fprintf(f, "class %llu..%llu at_peak %llu %llu allocated %llu\n",
                c ? 1ull << c : 0ull, (2ull << c) - 1, (unsigned long long)blocks[c],
                (unsigned long long)bytes[c], (unsigned long long)handed[c]);
    }
    if (f != stderr)
        fclose(f);
}
