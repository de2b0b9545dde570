/*
 * sprof: a sampling profiler for a box without perf.
 *
 * An LD_PRELOAD library. Its constructor arms ITIMER_PROF; every SIGPROF
 * records the interrupted instruction pointer and, when that lies outside
 * the main executable (libc: malloc, free, memmove), the first return
 * address into the executable found on the interrupted thread's stack, so
 * the sample can also be charged to the code that made the call. Its
 * destructor writes everything to $SPROF_OUT (default ./sprof.out):
 *
 *   exe <path>
 *   map <start> <end> <perms> <file offset> <path>   one per file mapping
 *   s <rip> <caller>                                 one per sample, caller 0
 *                                                    if rip is in the executable
 *
 * all addresses as they were at run time, in hex; sprof.py subtracts each
 * file's load address (its mapping at file offset 0) and symbolizes.
 * ITIMER_PROF counts the CPU time of the whole process and the kernel
 * delivers the signal to a thread that is running, so a two-worker run is
 * sampled across both workers.
 *
 *   cc -O2 -shared -fPIC -o libsprof.so sprof.c
 *   SPROF_OUT=run.sprof LD_PRELOAD=./libsprof.so ./repro simcheck ...
 *
 * The timer asks for 997 Hz; the kernel delivers ITIMER_PROF on its own
 * tick, so the rate is CONFIG_HZ at most (250 on the reference box): pool a
 * few runs. x86-64 Linux only.
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sprof reads RIP and RSP from an x86-64 Linux signal frame"
#endif

#define MAX_SAMPLES (1u << 20) /* 17 minutes of one core at 997 Hz */
#define STACK_WORDS 128        /* how far above RSP to look for a caller */

struct sample {
    uint64_t rip, caller;
};

static struct sample *samples;
static unsigned n_samples; /* claimed with an atomic add: any thread may be sampled */
static uint64_t exe_lo, exe_hi; /* the executable's text mapping */

/* True if the bytes before `ret` are a call, i.e. `ret` can be a return
 * address: E8 rel32, or FF /2 in the encodings a compiler emits for a call
 * through the GOT or a register. Weeds out stale stack words that happen to
 * point into the text. */
static int after_call(uint64_t ret)
{
    const uint8_t *p = (const uint8_t *)ret;
    if (ret < exe_lo + 7)
        return 0;
    if (p[-5] == 0xE8)
        return 1;
    if (p[-6] == 0xFF && (p[-5] == 0x15 || (p[-5] & 0xF8) == 0x90))
        return 1; /* call [rip+disp32], call [reg+disp32] */
    if (p[-3] == 0xFF && (p[-2] & 0xF8) == 0x50)
        return 1; /* call [reg+disp8] */
    if (p[-2] == 0xFF && ((p[-1] & 0xF8) == 0xD0 || (p[-1] & 0xF8) == 0x10))
        return 1; /* call reg, call [reg] */
    return 0;
}

static void on_sigprof(int sig, siginfo_t *info, void *ctx)
{
    (void)sig;
    (void)info;
    const ucontext_t *uc = ctx;
    uint64_t rip = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    unsigned i = __atomic_fetch_add(&n_samples, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES)
        return;
    uint64_t caller = 0;
    if (rip < exe_lo || rip >= exe_hi) {
        /* No sigaltstack: the signal frame sits on the interrupted
         * thread's own stack, and a thread is at least a few frames deep
         * below its stack's top, so the words read here are mapped. */
        const uint64_t *sp = (const uint64_t *)uc->uc_mcontext.gregs[REG_RSP];
        for (int w = 0; w < STACK_WORDS; w++) {
            uint64_t v = sp[w];
            if (v >= exe_lo && v < exe_hi && after_call(v)) {
                caller = v;
                break;
            }
        }
    }
    samples[i].rip = rip;
    samples[i].caller = caller;
}

static char exe_path[4096];

__attribute__((constructor)) static void sprof_start(void)
{
    ssize_t n = readlink("/proc/self/exe", exe_path, sizeof exe_path - 1);
    if (n <= 0)
        return;
    exe_path[n] = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps)
        return;
    char line[4608], perms[8], path[4096];
    while (fgets(line, sizeof line, maps)) {
        unsigned long lo, hi, off;
        path[0] = 0;
        if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &lo, &hi, perms, &off, path) >= 4 &&
            perms[2] == 'x' && strcmp(path, exe_path) == 0) {
            exe_lo = lo;
            exe_hi = hi;
        }
    }
    fclose(maps);
    if (!exe_hi)
        return;
    samples = mmap(NULL, MAX_SAMPLES * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED) {
        samples = NULL;
        return;
    }
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval it;
    it.it_interval.tv_sec = 0;
    it.it_interval.tv_usec = 1000000 / 997;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sprof_stop(void)
{
    if (!samples)
        return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    const char *out = getenv("SPROF_OUT");
    FILE *f = fopen(out ? out : "sprof.out", "w");
    if (!f)
        return;
    fprintf(f, "exe %s\n", exe_path);
    /* Read again: libraries loaded after the constructor ran are in now. */
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4608], perms[8], path[4096];
        while (fgets(line, sizeof line, maps)) {
            unsigned long lo, hi, off_in_file;
            path[0] = 0;
            if (sscanf(line, "%lx-%lx %7s %lx %*s %*s %4095s", &lo, &hi, perms, &off_in_file,
                       path) == 5 &&
                path[0] == '/')
                fprintf(f, "map %lx %lx %s %lx %s\n", lo, hi, perms, off_in_file, path);
        }
        fclose(maps);
    }
    unsigned n = n_samples < MAX_SAMPLES ? n_samples : MAX_SAMPLES;
    for (unsigned i = 0; i < n; i++)
        fprintf(f, "s %lx %lx\n", (unsigned long)samples[i].rip, (unsigned long)samples[i].caller);
    fclose(f);
}
