/* SIGPROF stack sampler, loaded with LD_PRELOAD: samples the process's CPU
 * time at SIGPROF_HZ (default 1000) with backtrace(), and at exit writes the
 * raw return addresses plus /proc/self/maps to `${SIGPROF_OUT:-sigprof}.<pid>`
 * for report.py to symbolise. Needs nothing from the profiled program but
 * unwind tables, which Rust release builds have.
 *
 *   gcc -O2 -shared -fPIC -o sigprof.so sigprof.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES 65536
#define MAX_DEPTH 48

static void *stacks[MAX_SAMPLES][MAX_DEPTH];
static int depths[MAX_SAMPLES];
static int first_frame[MAX_SAMPLES];
static volatile int taken;

static void *interrupted_pc(void *context) {
    ucontext_t *uc = context;
#if defined(__x86_64__)
    return (void *)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    return (void *)uc->uc_mcontext.pc;
#else
    (void)uc;
    return NULL; /* the report then keeps the handler's own frames */
#endif
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    int n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (n >= MAX_SAMPLES)
        return;
    int depth = backtrace(stacks[n], MAX_DEPTH);
    /* Drop the handler and the signal trampoline: start at the frame the
     * kernel interrupted. */
    void *pc = interrupted_pc(context);
    int first = 0;
    for (int i = 0; i < depth && first == 0; i++)
        if (stacks[n][i] == pc)
            first = i;
    first_frame[n] = first;
    depths[n] = depth;
}

__attribute__((constructor)) static void start(void) {
    void *warm[4];
    backtrace(warm, 4); /* loads the unwinder now, not inside the handler */
    const char *hz_env = getenv("SIGPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 1000;
    if (hz < 1 || hz > 10000)
        hz = 1000;
    long usec = 1000000 / hz;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_sigprof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{usec / 1000000, usec % 1000000},
                              {usec / 1000000, usec % 1000000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *base = getenv("SIGPROF_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "sigprof", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(out, "samples %d dropped %d\n", n, taken - n);
    for (int i = 0; i < n; i++) {
        for (int f = first_frame[i]; f < depths[i]; f++)
            fprintf(out, "%s%p", f == first_frame[i] ? "" : " ", stacks[i][f]);
        fputc('\n', out);
    }
    fputs("maps\n", out);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, out);
    if (maps)
        fclose(maps);
    fclose(out);
}
